#include "sim/op_schedule.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "common/rng.h"
#include "common/units.h"

namespace horizon::sim {

namespace {

/// Horizon grid the queries draw from: delta = 0 (a degenerate but legal
/// horizon), sub-window, window-boundary, and beyond-landmark horizons.
constexpr double kDeltaGrid[] = {0.0,      15 * kMinute, 1 * kHour,
                                 6 * kHour, 1 * kDay,     4 * kDay};
constexpr size_t kDeltaGridSize = sizeof(kDeltaGrid) / sizeof(kDeltaGrid[0]);

/// Ids in this range are never registered; ingesting/querying them
/// exercises the kNotFound paths.
constexpr int64_t kUnknownIdBase = 100000;

/// Simulated time per round, and the most stream events an item pools in
/// one.
constexpr double kRoundDuration = 45 * kMinute;
constexpr size_t kMaxEventsPerItemPerRound = 48;

/// One engagement event of an item's materialized stream (ages).
struct StreamEvent {
  double age = 0.0;
  stream::EngagementType type = stream::EngagementType::kView;
};

/// Merges a cascade's four engagement streams into one age-sorted list.
/// A stable sort keyed on age keeps each type's (already sorted) relative
/// order, which is all the tracker requires.
std::vector<StreamEvent> MergeStreams(const datagen::Cascade& cascade) {
  std::vector<StreamEvent> events;
  events.reserve(cascade.views.size() + cascade.share_times.size() +
                 cascade.comment_times.size() + cascade.reaction_times.size());
  for (const pp::Event& e : cascade.views) {
    events.push_back({e.time, stream::EngagementType::kView});
  }
  for (const double t : cascade.share_times) {
    events.push_back({t, stream::EngagementType::kShare});
  }
  for (const double t : cascade.comment_times) {
    events.push_back({t, stream::EngagementType::kComment});
  }
  for (const double t : cascade.reaction_times) {
    events.push_back({t, stream::EngagementType::kReaction});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const StreamEvent& a, const StreamEvent& b) {
                     return a.age < b.age;
                   });
  return events;
}

/// Per-item generation state.
struct ItemState {
  double creation_time = 0.0;
  bool registered = false;
  std::vector<StreamEvent> stream;
  size_t cursor = 0;  ///< next stream event to ingest
  int ran_out_round = -1;  ///< the round that pooled its last stream event
};

}  // namespace

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kRegister: return "register";
    case OpKind::kIngest: return "ingest";
    case OpKind::kIngestBatch: return "ingest_batch";
    case OpKind::kQuery: return "query";
    case OpKind::kScan: return "scan";
    case OpKind::kBadQuery: return "bad_query";
    case OpKind::kRetire: return "retire";
    case OpKind::kCheckpoint: return "checkpoint";
    case OpKind::kCheckpointCrash: return "checkpoint_crash";
    case OpKind::kCheckpointTransient: return "checkpoint_transient";
    case OpKind::kCorruptCheckpoint: return "corrupt_checkpoint";
    case OpKind::kRestore: return "restore";
    case OpKind::kCheck: return "check";
  }
  return "unknown";
}

bool IsValidFaultSchedule(const std::string& name) {
  return name == "none" || name == "crash" || name == "transient" ||
         name == "corrupt" || name == "mixed";
}

OpSchedule GenerateOpSchedule(const datagen::SyntheticDataset& dataset,
                              const ScheduleConfig& config, uint64_t seed) {
  HORIZON_CHECK_GT(config.num_items, 0);
  HORIZON_CHECK_GT(config.rounds, 0);
  HORIZON_CHECK(IsValidFaultSchedule(config.faults));
  HORIZON_CHECK(!dataset.cascades.empty());

  OpSchedule schedule;
  schedule.seed = seed;
  schedule.config = config;

  // Decouple the schedule stream from other consumers of the same seed.
  Rng rng(seed ^ 0x5157'0b5c'4edc'1e5fULL);
  // The reads below the last event draw from their own stream.
  Rng past_rng(seed ^ 0x2d35'8dcc'aa6c'78a5ULL);

  const int num_items = config.num_items;
  const double round = kRoundDuration;

  // Map items onto dataset cascades and stagger their registrations over
  // the first third of the simulation so churn (register / retire /
  // straggler ingest) overlaps with steady-state traffic.
  std::vector<ItemState> items(static_cast<size_t>(num_items));
  const int register_rounds = std::max(1, config.rounds / 3);
  std::vector<std::vector<int64_t>> to_register(
      static_cast<size_t>(config.rounds));
  for (int i = 0; i < num_items; ++i) {
    ItemState& item = items[static_cast<size_t>(i)];
    item.stream =
        MergeStreams(dataset.cascades[static_cast<size_t>(i) %
                                      dataset.cascades.size()]);
    const int reg_round = i % register_rounds;
    // Creation up to two rounds past registration: queries inside that gap
    // must answer kNotYetLive, and retirement must skip the item.
    item.creation_time = reg_round * round + rng.Uniform(0.0, 2.0 * round);
    to_register[static_cast<size_t>(reg_round)].push_back(i);
  }

  const bool mixed = config.faults == "mixed";
  int checkpoint_count = 0;

  auto push = [&schedule](Op op) { schedule.ops.push_back(std::move(op)); };

  for (int r = 0; r < config.rounds; ++r) {
    const double start = r * round;
    const double end = (r + 1) * round;
    // Every event ingested in round r is stamped <= this deadline, and
    // every query / retire / check in round r uses s >= it, so tracker
    // snapshots never run backwards in time.
    const double deadline = start + 0.6 * round;

    for (const int64_t id : to_register[static_cast<size_t>(r)]) {
      Op op;
      op.kind = OpKind::kRegister;
      op.time = start;
      op.item = id;
      op.creation_time = items[static_cast<size_t>(id)].creation_time;
      push(op);
      items[static_cast<size_t>(id)].registered = true;
      if (rng.Bernoulli(0.15)) {
        // Duplicate registration: must answer kAlreadyExists.
        Op dup = op;
        push(dup);
      }
    }

    // --- Ingest phase: a time-ordered merge of every live item's next
    // stream chunk, split into contiguous runs so per-item order survives.
    std::vector<serving::IngestEvent> pool;
    for (int i = 0; i < num_items; ++i) {
      ItemState& item = items[static_cast<size_t>(i)];
      if (!item.registered || item.creation_time > start) continue;
      if (item.cursor >= item.stream.size()) continue;
      const size_t want = 1 + rng.UniformInt(kMaxEventsPerItemPerRound);
      const size_t take = std::min(want, item.stream.size() - item.cursor);
      for (size_t k = 0; k < take; ++k) {
        const StreamEvent& e = item.stream[item.cursor + k];
        serving::IngestEvent out;
        out.item_id = i;
        out.type = e.type;
        // Clamping keeps the stamp under the deadline; min() preserves the
        // per-type non-decreasing order the tracker requires.
        out.time = std::min(item.creation_time + e.age, deadline);
        pool.push_back(out);
      }
      item.cursor += take;
      if (item.cursor == item.stream.size()) item.ran_out_round = r;
    }
    std::stable_sort(pool.begin(), pool.end(),
                     [](const serving::IngestEvent& a,
                        const serving::IngestEvent& b) { return a.time < b.time; });
    // Late stragglers addressed to ids that were never registered: batch
    // ingest must drop them silently, single ingest must count kNotFound.
    const size_t stragglers = rng.UniformInt(3);
    for (size_t k = 0; k < stragglers; ++k) {
      serving::IngestEvent out;
      out.item_id = kUnknownIdBase + static_cast<int64_t>(rng.UniformInt(50));
      out.type = stream::EngagementType::kView;
      out.time = deadline;
      pool.push_back(out);
    }
    // A late reaction, at this round's deadline, for each item whose
    // stream ran out in an earlier round, in a batch of its own: the sweep
    // below, at a `now` before the deadline, then finds its views idle
    // since that round and a reaction still to come.
    Op late;
    late.kind = OpKind::kIngestBatch;
    late.time = deadline;
    for (int i = 0; i < num_items; ++i) {
      const int ran_out = items[static_cast<size_t>(i)].ran_out_round;
      if (ran_out < 0 || ran_out >= r) continue;
      serving::IngestEvent out;
      out.item_id = i;
      out.type = stream::EngagementType::kReaction;
      out.time = deadline;
      late.events.push_back(out);
    }
    if (!pool.empty()) {
      const size_t chunks = 1 + rng.UniformInt(3);
      const size_t per = (pool.size() + chunks - 1) / chunks;
      for (size_t c = 0; c * per < pool.size(); ++c) {
        Op op;
        op.kind = rng.Bernoulli(0.4) ? OpKind::kIngest : OpKind::kIngestBatch;
        op.time = deadline;
        const size_t lo = c * per;
        const size_t hi = std::min(pool.size(), lo + per);
        op.events.assign(pool.begin() + static_cast<ptrdiff_t>(lo),
                         pool.begin() + static_cast<ptrdiff_t>(hi));
        push(op);
      }
    }
    if (!late.events.empty()) push(std::move(late));

    // --- Query phase: s past the ingest deadline so snapshots are legal.
    // Times are drawn independently, so the round's query/scan ops are
    // buffered and sorted before emission (op times must be monotone --
    // the executor's virtual clock only moves forward).
    std::vector<Op> round_queries;
    const size_t num_queries = 1 + rng.UniformInt(3);
    for (size_t q = 0; q < num_queries; ++q) {
      Op op;
      op.kind = OpKind::kQuery;
      op.time = rng.Uniform(deadline, start + 0.9 * round);
      const size_t num_ids = 1 + rng.UniformInt(static_cast<uint64_t>(num_items));
      for (size_t k = 0; k < num_ids; ++k) {
        // ~1 in 8 ids is unknown on purpose.
        op.ids.push_back(rng.Bernoulli(0.125)
                             ? kUnknownIdBase +
                                   static_cast<int64_t>(rng.UniformInt(50))
                             : static_cast<int64_t>(
                                   rng.UniformInt(static_cast<uint64_t>(num_items))));
      }
      op.s = op.time;
      op.delta = kDeltaGrid[rng.UniformInt(kDeltaGridSize)];
      op.top_k = rng.Bernoulli(0.3) ? 1 + rng.UniformInt(num_ids) : 0;
      round_queries.push_back(std::move(op));
    }
    {
      Op op;
      op.kind = OpKind::kScan;
      op.time = rng.Uniform(deadline, start + 0.9 * round);
      op.s = op.time;
      // Skip delta = 0: every increment ties at zero and the ranking is
      // meaningless (the per-id checks still cover delta = 0 via kQuery).
      op.delta = kDeltaGrid[1 + rng.UniformInt(kDeltaGridSize - 1)];
      // k often exceeds the live-item count on purpose.
      op.top_k = 1 + rng.UniformInt(static_cast<uint64_t>(num_items) + 3);
      round_queries.push_back(std::move(op));
    }
    {
      // Items with an event stamped after s (most rounds clamp some at
      // the deadline) are skipped and counted.
      Op op;
      op.kind = OpKind::kScan;
      op.time = past_rng.Uniform(deadline, start + 0.9 * round);
      op.s = past_rng.Uniform(start, deadline);
      op.delta = kDeltaGrid[1 + past_rng.UniformInt(kDeltaGridSize - 1)];
      op.top_k = 1 + past_rng.UniformInt(static_cast<uint64_t>(num_items) + 3);
      round_queries.push_back(std::move(op));
    }
    std::stable_sort(round_queries.begin(), round_queries.end(),
                     [](const Op& a, const Op& b) { return a.time < b.time; });
    for (Op& op : round_queries) push(std::move(op));
    if (r % 3 == 1) {
      Op op;
      op.kind = OpKind::kBadQuery;
      op.time = start + 0.92 * round;
      op.bad_variant = static_cast<int>(rng.UniformInt(4));
      push(op);
    }

    {
      // Items with an event stamped after `now` (the late reactions, and
      // most rounds clamp some events at the deadline) must be kept.
      Op op;
      op.kind = OpKind::kRetire;
      op.time = start + 0.93 * round;
      op.now = past_rng.Uniform(start, deadline);
      push(op);
    }
    if (r % 4 == 3) {
      Op op;
      op.kind = OpKind::kRetire;
      op.time = start + 0.94 * round;
      op.now = op.time;
      push(op);
    }

    // --- Durability phase: checkpoint every third round under the
    // configured fault schedule, then restore and re-verify.
    if (r % 3 == 2) {
      std::string mode = config.faults;
      if (mixed) {
        static const char* kModes[] = {"none", "crash", "transient", "corrupt"};
        mode = kModes[rng.UniformInt(4)];
      }
      ++checkpoint_count;
      const double t0 = start + 0.95 * round;
      // A service checkpoint performs at most 4 faultable IO ops per file
      // over (shards + MANIFEST + CURRENT) files; drawing the fault index
      // past that range occasionally arms a fault that never fires,
      // covering the "armed but clean" path too.  The seeded schedules
      // depend on this bound's value.
      const int max_fault_ops = 4 * (8 + 2);
      if (mode == "none") {
        Op op;
        op.kind = OpKind::kCheckpoint;
        op.time = t0;
        push(op);
      } else if (mode == "crash") {
        Op op;
        op.kind = OpKind::kCheckpointCrash;
        op.time = t0;
        op.fault_at = static_cast<int>(rng.UniformInt(max_fault_ops));
        push(op);
      } else if (mode == "transient") {
        Op op;
        op.kind = OpKind::kCheckpointTransient;
        op.time = t0;
        op.fault_at = static_cast<int>(rng.UniformInt(max_fault_ops));
        push(op);
      } else {  // corrupt: commit cleanly, then damage the committed bytes
        Op ck;
        ck.kind = OpKind::kCheckpoint;
        ck.time = t0;
        push(ck);
        Op corrupt;
        corrupt.kind = OpKind::kCorruptCheckpoint;
        corrupt.time = start + 0.955 * round;
        corrupt.corrupt_pick = rng.Next();
        push(corrupt);
      }
      if (mode != "none" || checkpoint_count % 2 == 0) {
        Op restore;
        restore.kind = OpKind::kRestore;
        restore.time = start + 0.96 * round;
        push(restore);
        Op check;
        check.kind = OpKind::kCheck;
        check.time = start + 0.97 * round;
        push(check);
      }
    }

    Op check;
    check.kind = OpKind::kCheck;
    check.time = end;
    push(check);
  }
  return schedule;
}

// ---------------------------------------------------------------------------
// Formatting

namespace {

std::string FormatSeconds(double t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", t);
  return buf;
}

}  // namespace

std::string FormatOp(const Op& op) {
  std::ostringstream os;
  os << "t=" << FormatSeconds(op.time) << " " << OpKindName(op.kind);
  switch (op.kind) {
    case OpKind::kRegister:
      os << " item=" << op.item
         << " creation=" << FormatSeconds(op.creation_time);
      break;
    case OpKind::kIngest:
    case OpKind::kIngestBatch:
      os << " events=" << op.events.size();
      break;
    case OpKind::kQuery: {
      os << " ids=[";
      for (size_t i = 0; i < op.ids.size(); ++i) {
        if (i > 0) os << ",";
        os << op.ids[i];
      }
      os << "] s=" << FormatSeconds(op.s) << " delta=" << FormatSeconds(op.delta)
         << " top_k=" << op.top_k;
      break;
    }
    case OpKind::kScan:
      os << " s=" << FormatSeconds(op.s) << " delta=" << FormatSeconds(op.delta)
         << " k=" << op.top_k;
      break;
    case OpKind::kBadQuery:
      os << " variant=" << op.bad_variant;
      break;
    case OpKind::kCheckpointCrash:
    case OpKind::kCheckpointTransient:
      os << " fault_at=" << op.fault_at;
      break;
    case OpKind::kCorruptCheckpoint:
      os << " pick=" << op.corrupt_pick;
      break;
    case OpKind::kRetire:
      if (op.now != op.time) os << " now=" << FormatSeconds(op.now);
      break;
    case OpKind::kCheckpoint:
    case OpKind::kRestore:
    case OpKind::kCheck:
      break;
  }
  return os.str();
}

std::string FormatTrace(const OpSchedule& schedule) {
  std::ostringstream os;
  os << "# seed=" << schedule.seed << " faults=" << schedule.config.faults
     << " rounds=" << schedule.config.rounds
     << " items=" << schedule.config.num_items << "\n";
  for (size_t i = 0; i < schedule.ops.size(); ++i) {
    os << "[" << i << "] " << FormatOp(schedule.ops[i]) << "\n";
  }
  return os.str();
}

}  // namespace horizon::sim
