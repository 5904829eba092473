// Seeded operation schedules for the deterministic simulation harness.
//
// A schedule is a flat, fully materialized list of service operations
// (register / ingest / batch-ingest / query / scan / checkpoint / restore
// / fault arming / corruption / invariant check) derived from ONE 64-bit
// seed and a shared synthetic dataset.  Materializing everything up front
// -- no RNG draws during execution -- is what makes the harness
// reproducible and minimizable: the same seed always yields the same op
// list, and any sublist of a schedule is itself a valid schedule (the
// executor derives expected outcomes from the reference model at run
// time, so removing a register op merely turns its ingests into expected
// kNotFound drops rather than into an invalid scenario).
#ifndef HORIZON_SIM_OP_SCHEDULE_H_
#define HORIZON_SIM_OP_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "datagen/generator.h"
#include "serving/prediction_service.h"

namespace horizon::sim {

/// The operation vocabulary of the simulator.
enum class OpKind : int {
  kRegister = 0,    ///< RegisterItem (may deliberately duplicate an id)
  kIngest = 1,      ///< per-event Ingest calls, driven from several threads
  kIngestBatch = 2, ///< one IngestBatch call
  kQuery = 3,       ///< BatchQuery over an explicit id list
  kScan = 4,        ///< BatchQuery scan mode (ids empty, top_k > 0)
  kBadQuery = 5,    ///< malformed request; must fail kInvalidArgument
  kRetire = 6,      ///< RetireDeadItems(Op::now)
  kCheckpoint = 7,  ///< Checkpoint that must succeed
  kCheckpointCrash = 8,     ///< Checkpoint under an armed crash fault
  kCheckpointTransient = 9, ///< Checkpoint under a fail-once fault + retry
  kCorruptCheckpoint = 10,  ///< flip a byte of the committed checkpoint
  kRestore = 11,    ///< Restore from the scratch checkpoint directory
  kCheck = 12,      ///< quiescent point: full divergence + invariant check
};

/// Stable lower-case name of an op kind ("register", "ingest", ...).
const char* OpKindName(OpKind kind);

/// One schedule entry.  Which fields are meaningful depends on `kind`;
/// unused fields keep their defaults so FormatOp stays unambiguous.
struct Op {
  OpKind kind = OpKind::kCheck;
  double time = 0.0;  ///< logical time of the op (monotone over a schedule)

  // kRegister
  int64_t item = -1;
  double creation_time = 0.0;

  // kIngest / kIngestBatch
  std::vector<serving::IngestEvent> events;

  // kQuery / kScan / kBadQuery
  std::vector<int64_t> ids;
  double s = 0.0;      ///< prediction time of the query
  double delta = 0.0;
  size_t top_k = 0;
  int bad_variant = 0;  ///< which malformed request kBadQuery issues

  // kRetire: the sweep's `now`.  The op's time, except for the sweep
  // below items' last events (see GenerateOpSchedule).
  double now = 0.0;

  // kCheckpointCrash / kCheckpointTransient
  int fault_at = 0;  ///< faultable-op index handed to the FaultInjector

  // kCorruptCheckpoint: rng draw selecting the target file, the byte and
  // the damage
  uint64_t corrupt_pick = 0;
};

/// Schedule-shape knobs.  `faults` selects the fault schedule:
///   "none"       no injected faults; periodic checkpoint/restore
///   "crash"      checkpoints run under ArmCrashAt at seeded op indices
///   "transient"  checkpoints hit a fail-once kIoError and are retried
///   "corrupt"    committed checkpoints get a byte flipped, are cut short
///                or grow a byte, then are restored
///   "mixed"      per-checkpoint seeded choice among all of the above
struct ScheduleConfig {
  int num_items = 10;
  int rounds = 24;  ///< steps of 45 simulated minutes; each ends in a kCheck
  std::string faults = "mixed";
};

/// True for the schedule names listed on ScheduleConfig::faults.
bool IsValidFaultSchedule(const std::string& name);

/// A materialized schedule.
struct OpSchedule {
  uint64_t seed = 0;
  ScheduleConfig config;
  std::vector<Op> ops;
};

/// Generates the schedule for `seed`.  Deterministic: equal inputs yield
/// an identical op list.  Items are mapped onto `dataset` cascades, whose
/// Hawkes view streams (plus derived share/comment/reaction streams)
/// provide realistic per-item event timing.  Each round also scans at an
/// s, and sweeps at a now, below some live items' last event, and sends
/// each item whose stream ran out a late reaction at every later round's
/// deadline: a scan must skip the items with an event after s and count
/// them, a sweep must keep those with an event after now.  These draw
/// from an rng of their own, so a seed's other ops do not depend on them.
OpSchedule GenerateOpSchedule(const datagen::SyntheticDataset& dataset,
                              const ScheduleConfig& config, uint64_t seed);

/// One-line rendering of an op ("t=8100s ingest_batch events=37"), used
/// for traces and divergence reports.
std::string FormatOp(const Op& op);

/// The whole schedule, one "[index] FormatOp" line per op.
std::string FormatTrace(const OpSchedule& schedule);

}  // namespace horizon::sim

#endif  // HORIZON_SIM_OP_SCHEDULE_H_
