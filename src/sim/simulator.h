// The deterministic simulation harness (DST) for the serving stack.
//
// One Simulator::Run(seed) materializes an op schedule from the seed,
// executes it against a fresh sharded PredictionService AND the
// single-threaded ReferenceService, arms the FaultInjector per the fault
// schedule, and compares the two after every operation -- exact equality
// on every count, prediction, alpha, typed Status code, service counter,
// and obs instrument.  On divergence the report carries the failing op
// index, a description, the full trace, and a greedily minimized trace
// that still reproduces the failure; everything reproduces from the seed
// alone (`horizon_tool sim --seed N`).
#ifndef HORIZON_SIM_SIMULATOR_H_
#define HORIZON_SIM_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/hawkes_predictor.h"
#include "datagen/generator.h"
#include "features/extractor.h"
#include "serving/prediction_service.h"
#include "sim/op_schedule.h"

namespace horizon::sim {

/// The expensive shared inputs, built ONCE and reused across every seed
/// and fault schedule; the per-run seed drives only the op schedule.
struct SimContext {
  datagen::SyntheticDataset dataset;
  std::unique_ptr<features::FeatureExtractor> extractor;
  std::unique_ptr<core::HawkesPredictor> model;
};

/// Generates the dataset and trains the model.  Deterministic.
/// Deliberately small: the model's ACCURACY is irrelevant here -- the
/// harness checks that two implementations of the same math agree, so a
/// 20-tree model over 90 cascades gives full coverage at test speed.
SimContext BuildSimContext();

/// Per-simulator knobs.  The service under test is configured unlike
/// production defaults (5 shards, an 8-hour retirement age) so shard
/// collisions and retirement fire within a short simulated horizon.
struct SimConfig {
  ScheduleConfig schedule;
  /// Parent directory for per-run checkpoint scratch space.
  std::string scratch_dir = "/tmp";
};

/// Outcome of one simulation run.  Deterministic: a seed always produces
/// the identical report, including the message and traces.
struct SimReport {
  bool ok = true;
  uint64_t seed = 0;
  std::string faults;
  int failed_op = -1;      ///< index into the schedule, -1 when ok
  std::string message;     ///< divergence description, empty when ok
  std::string trace;       ///< full op trace (FormatTrace)
  std::string minimized_trace;  ///< minimized repro, failures only
  size_t ops_executed = 0;
  serving::ServiceStats final_stats;

  // Fault-path accounting, so tests can assert the schedules actually
  // exercised what they claim to.
  int checkpoints_attempted = 0;
  int checkpoint_failures = 0;  ///< Checkpoint() calls that returned error
  int transient_retries = 0;    ///< fail-once faults recovered by retry
  int restores_attempted = 0;
  int restores_failed = 0;      ///< expected kNotFound/kCorruption restores
  uint64_t errors_observed = 0; ///< typed per-item/op errors across the run
  /// Live items a scan skipped, and a sweep kept, for an event after its
  /// s or now (the reference's counts).
  uint64_t scan_skipped_after_s = 0;
  uint64_t retire_kept_after_now = 0;

  /// Compact human-readable outcome (seed, schedule, failure if any).
  std::string Summary() const;
};

/// Drives one (service, reference) pair per Execute call.  The context
/// must outlive the simulator.  Not thread-safe; use one Simulator per
/// thread (they may share one SimContext, which is immutable after
/// construction).
class Simulator {
 public:
  Simulator(const SimContext* context, SimConfig config);

  /// Generates the schedule for `seed`, executes it, and minimizes the
  /// trace on failure.
  SimReport Run(uint64_t seed);

  /// Executes one schedule (no minimization).  Exposed for the minimizer
  /// and for tests that replay hand-built traces.
  SimReport Execute(const OpSchedule& schedule);

  /// Greedy delta-debugging: given a schedule whose op `failed_op` fails,
  /// returns a shorter schedule that still fails (ending at its failing
  /// op).  Deterministic; bounded by 64 re-executions.  Public so tests
  /// can exercise it on hand-built failing traces.
  OpSchedule MinimizedSchedule(const OpSchedule& schedule, int failed_op);

 private:
  const SimContext* context_;
  SimConfig config_;
  uint64_t runs_ = 0;  ///< scratch-dir uniquifier across Execute calls
};

}  // namespace horizon::sim

#endif  // HORIZON_SIM_SIMULATOR_H_
