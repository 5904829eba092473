#include "sim/simulator.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/file_io.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/units.h"
#include "core/trainer.h"
#include "sim/checkers.h"
#include "sim/reference_model.h"

namespace horizon::sim {

namespace {

/// Horizon of the end-of-round divergence query.  Arbitrary; the per-item
/// invariant checkers sweep the full grid anyway.
constexpr double kCheckDelta = 1 * kHour;

/// The service under test (see SimConfig).
constexpr int kNumShards = 5;
constexpr double kIdleRetirementAge = 8 * kHour;
constexpr double kDeathProbabilityThreshold = 0.995;

/// Threads driving the kIngest concurrent-ingest phase.
constexpr size_t kIngestThreads = 4;

/// Re-execution budget of the trace minimizer.
constexpr int kMaxMinimizeRuns = 64;

std::string TrimWs(const std::string& text) {
  size_t b = 0, e = text.size();
  while (b < e && (text[b] == ' ' || text[b] == '\n' || text[b] == '\t')) ++b;
  while (e > b && (text[e - 1] == ' ' || text[e - 1] == '\n' || text[e - 1] == '\t')) --e;
  return text.substr(b, e - b);
}

/// Expected-state ledger the executor keeps alongside the reference.
struct Expected {
  serving::ServiceStats stats;  ///< what service.stats() must report
  // Obs counters are monotone across restores (unlike stats).
  uint64_t obs_registered = 0;
  uint64_t obs_ingested = 0;
  uint64_t obs_queries = 0;
  uint64_t obs_scan_results = 0;
  uint64_t obs_scan_after_s = 0;
  uint64_t obs_retired = 0;
  uint64_t errors[kNumStatusCodes] = {};
  // Histogram sample counts, per instrument (ingest latency is sampled
  // and deliberately unchecked).
  uint64_t ingest_batch_calls = 0;
  uint64_t batch_query_ok = 0;
  uint64_t scan_calls = 0;
  uint64_t retire_calls = 0;
  uint64_t checkpoint_calls = 0;
  uint64_t restore_calls = 0;
};

/// What the executor knows about the last committed checkpoint.
struct CommittedCheckpoint {
  bool exists = false;
  bool corrupt = false;
  ReferenceService::State state;
  serving::ServiceStats stats;
};

/// One schedule execution: fresh service + registry + reference + scratch
/// checkpoint directory, driven op by op.
class Execution {
 public:
  Execution(const SimContext& context, std::string scratch_dir)
      : context_(context),
        scratch_dir_(std::move(scratch_dir)),
        service_config_(MakeServiceConfig(context, &registry_)),
        service_(context.model.get(), context.extractor.get(), service_config_),
        reference_(context.model.get(), context.extractor.get(),
                   service_config_) {
    io::RemoveTree(scratch_dir_);
  }

  ~Execution() {
    io::FaultInjector::Global().Disarm();
    io::RemoveTree(scratch_dir_);
  }

  SimReport Run(const OpSchedule& schedule) {
    io::FaultInjector::Global().Disarm();
    SimReport report;
    report.ok = true;
    report.seed = schedule.seed;
    report.faults = schedule.config.faults;
    for (size_t i = 0; i < schedule.ops.size(); ++i) {
      const Op& op = schedule.ops[i];
      clock_.AdvanceTo(op.time);  // generator must emit a monotone schedule
      const std::string err = Apply(op);
      report.ops_executed = i + 1;
      if (!err.empty()) {
        report.ok = false;
        report.failed_op = static_cast<int>(i);
        std::ostringstream os;
        os << "op [" << i << "] " << FormatOp(op) << ": " << err;
        report.message = os.str();
        break;
      }
    }
    report.final_stats = service_.stats();
    report.checkpoints_attempted = checkpoints_attempted_;
    report.checkpoint_failures = checkpoint_failures_;
    report.transient_retries = transient_retries_;
    report.restores_attempted = restores_attempted_;
    report.restores_failed = restores_failed_;
    for (const uint64_t e : expected_.errors) report.errors_observed += e;
    report.scan_skipped_after_s = expected_.obs_scan_after_s;
    report.retire_kept_after_now = retire_kept_after_now_;
    return report;
  }

 private:
  static serving::ServiceConfig MakeServiceConfig(const SimContext& context,
                                                  obs::MetricsRegistry* registry) {
    serving::ServiceConfig out;
    out.tracker = context.extractor->tracker_config();
    out.idle_retirement_age = kIdleRetirementAge;
    out.death_probability_threshold = kDeathProbabilityThreshold;
    out.num_shards = kNumShards;
    // A PRIVATE registry per execution: the conservation checks demand
    // instrument values that match this run's ledger exactly, which the
    // process-global registry (shared across seeds) cannot provide.
    out.metrics = registry;
    return out;
  }

  /// The item -> profile mapping the generator used.
  const datagen::Cascade& CascadeOf(int64_t item) const {
    return context_.dataset
        .cascades[static_cast<size_t>(item) % context_.dataset.cascades.size()];
  }

  std::string CurrentPointer() const {
    const auto current = io::ReadFile(scratch_dir_ + "/CURRENT");
    return current.ok() ? *current : std::string();
  }

  // --- Per-op handlers: return "" on agreement, a description otherwise.

  std::string Apply(const Op& op) {
    switch (op.kind) {
      case OpKind::kRegister: return DoRegister(op);
      case OpKind::kIngest: return DoIngest(op);
      case OpKind::kIngestBatch: return DoIngestBatch(op);
      case OpKind::kQuery:
        return QueryCompare(op.ids, op.s, op.delta, op.top_k, nullptr);
      case OpKind::kScan: return DoScan(op);
      case OpKind::kBadQuery: return DoBadQuery(op);
      case OpKind::kRetire: return DoRetire(op);
      case OpKind::kCheckpoint:
      case OpKind::kCheckpointCrash:
      case OpKind::kCheckpointTransient: return DoCheckpoint(op);
      case OpKind::kCorruptCheckpoint: return DoCorrupt(op);
      case OpKind::kRestore: return DoRestore(op);
      case OpKind::kCheck: return DoCheck(op);
    }
    return "unknown op kind";
  }

  std::string DoRegister(const Op& op) {
    const datagen::Cascade& cascade = CascadeOf(op.item);
    const datagen::PageProfile& page = context_.dataset.PageOf(cascade.post);
    const StatusCode want =
        reference_.Register(op.item, op.creation_time, page, cascade.post);
    const Status got =
        service_.RegisterItem(op.item, op.creation_time, page, cascade.post);
    if (got.code() != want) {
      return Mismatch("register code", want, got.code());
    }
    if (want == StatusCode::kOk) {
      ++expected_.stats.items_registered;
      ++expected_.obs_registered;
    } else {
      ++expected_.errors[static_cast<int>(want)];
    }
    return "";
  }

  std::string DoIngest(const Op& op) {
    const size_t n = op.events.size();
    // Liveness is static during the phase (no register/retire/restore
    // interleaves), so per-event outcomes are deterministic even though
    // the service-side calls race across threads.
    std::vector<StatusCode> want(n, StatusCode::kOk);
    for (size_t i = 0; i < n; ++i) {
      const serving::IngestEvent& e = op.events[i];
      want[i] = reference_.IngestCode(e.item_id, e.type, e.time);
    }
    std::vector<StatusCode> got(n, StatusCode::kOk);
    // Bucket by item id: per-item order is preserved because each item's
    // events run on exactly one bucket, in schedule order.
    ParallelFor(kIngestThreads, 1, [&](size_t begin, size_t end) {
      for (size_t b = begin; b < end; ++b) {
        for (size_t i = 0; i < n; ++i) {
          const serving::IngestEvent& e = op.events[i];
          if (static_cast<uint64_t>(e.item_id) % kIngestThreads != b) continue;
          got[i] = service_.Ingest(e.item_id, e.type, e.time).code();
        }
      }
    });
    for (size_t i = 0; i < n; ++i) {
      if (got[i] != want[i]) {
        std::ostringstream os;
        os << "ingest event " << i << " (item " << op.events[i].item_id
           << "): " << Mismatch("code", want[i], got[i]);
        return os.str();
      }
      if (want[i] == StatusCode::kOk) {
        ++expected_.stats.events_ingested;
        ++expected_.obs_ingested;
      } else {
        ++expected_.errors[static_cast<int>(want[i])];
      }
    }
    return "";
  }

  std::string DoIngestBatch(const Op& op) {
    size_t want = 0;
    for (const serving::IngestEvent& e : op.events) {
      // Unknown items are dropped silently in batch mode: no error
      // counter.  Invalid events are dropped and counted.
      const StatusCode code = reference_.IngestCode(e.item_id, e.type, e.time);
      if (code == StatusCode::kOk) ++want;
      if (code == StatusCode::kInvalidArgument) {
        ++expected_.errors[static_cast<int>(StatusCode::kInvalidArgument)];
      }
    }
    const size_t got = service_.IngestBatch(op.events);
    ++expected_.ingest_batch_calls;
    if (got != want) {
      std::ostringstream os;
      os << "IngestBatch ingested " << got << ", reference says " << want;
      return os.str();
    }
    expected_.stats.events_ingested += want;
    expected_.obs_ingested += want;
    return "";
  }

  /// Shared by kQuery and the end-of-round check: issues a by-ids
  /// BatchQuery and compares it, element by element and bit by bit,
  /// against the reference.  On success `resolved_out` (if non-null)
  /// receives the reference answers for further invariant checking.
  std::string QueryCompare(
      const std::vector<int64_t>& ids, double s, double delta, size_t top_k,
      std::vector<std::pair<int64_t, RefAnswer>>* resolved_out) {
    struct RefError {
      int64_t id;
      StatusCode code;
    };
    std::vector<std::pair<int64_t, RefAnswer>> resolved;
    std::vector<RefError> ref_errors;
    for (const int64_t id : ids) {
      RefAnswer answer;
      const StatusCode code = reference_.Answer(id, s, delta, &answer);
      if (code == StatusCode::kOk) {
        resolved.emplace_back(id, std::move(answer));
      } else {
        ref_errors.push_back({id, code});
        ++expected_.errors[static_cast<int>(code)];
      }
    }
    // The documented ranking, a total order: larger predicted increment
    // first, then smaller id.  Items that tie on both are the same id
    // asked twice, with the same answer, so any algorithm yields one
    // result list.
    const auto ranks_above = [](const std::pair<int64_t, RefAnswer>& a,
                                const std::pair<int64_t, RefAnswer>& b) {
      const double ia = a.second.predicted - a.second.observed;
      const double ib = b.second.predicted - b.second.observed;
      return ia > ib || (ia == ib && a.first < b.first);
    };
    if (top_k > 0) {
      const size_t take = std::min(top_k, resolved.size());
      std::partial_sort(resolved.begin(),
                        resolved.begin() + static_cast<ptrdiff_t>(take),
                        resolved.end(), ranks_above);
      resolved.resize(take);
    }

    serving::QueryRequest request;
    request.ids = ids;
    request.s = s;
    request.delta = delta;
    request.top_k = top_k;
    const StatusOr<serving::QueryResponse> response =
        service_.BatchQuery(request);
    if (!response.ok()) {
      return "BatchQuery failed: " + response.status().ToString();
    }
    ++expected_.batch_query_ok;
    if (response->errors.size() != ref_errors.size()) {
      std::ostringstream os;
      os << "error count " << response->errors.size() << ", reference "
         << ref_errors.size();
      return os.str();
    }
    for (size_t i = 0; i < ref_errors.size(); ++i) {
      const serving::ItemError& e = response->errors[i];
      if (e.item_id != ref_errors[i].id ||
          e.status.code() != ref_errors[i].code) {
        std::ostringstream os;
        os << "error " << i << ": got (item " << e.item_id << ", "
           << StatusCodeName(e.status.code()) << "), reference (item "
           << ref_errors[i].id << ", " << StatusCodeName(ref_errors[i].code)
           << ")";
        return os.str();
      }
    }
    if (response->results.size() != resolved.size()) {
      std::ostringstream os;
      os << "result count " << response->results.size() << ", reference "
         << resolved.size();
      return os.str();
    }
    for (size_t i = 0; i < resolved.size(); ++i) {
      const serving::ItemPrediction& p = response->results[i];
      const RefAnswer& want = resolved[i].second;
      if (p.item_id != resolved[i].first ||
          p.prediction.observed_views != want.observed ||
          p.prediction.predicted_views != want.predicted ||
          p.prediction.alpha != want.alpha) {
        std::ostringstream os;
        os.precision(17);
        os << "result " << i << " diverges: got (item " << p.item_id
           << ", observed " << p.prediction.observed_views << ", predicted "
           << p.prediction.predicted_views << ", alpha " << p.prediction.alpha
           << "), reference (item " << resolved[i].first << ", observed "
           << want.observed << ", predicted " << want.predicted << ", alpha "
           << want.alpha << ")";
        return os.str();
      }
    }
    expected_.stats.queries_answered += resolved.size();
    expected_.obs_queries += resolved.size();
    if (resolved_out != nullptr) *resolved_out = std::move(resolved);
    return "";
  }

  std::string DoScan(const Op& op) {
    size_t after_s = 0;
    std::vector<std::pair<int64_t, RefAnswer>> all =
        reference_.Scan(op.s, op.delta, &after_s);
    std::vector<double> want_incs;
    want_incs.reserve(all.size());
    for (const auto& [id, answer] : all) want_incs.push_back(answer.increment);
    std::sort(want_incs.begin(), want_incs.end(), std::greater<double>());
    const size_t take = std::min(op.top_k, all.size());
    want_incs.resize(take);

    serving::QueryRequest request;
    request.s = op.s;
    request.delta = op.delta;
    request.top_k = op.top_k;
    const StatusOr<serving::QueryResponse> response =
        service_.BatchQuery(request);
    if (!response.ok()) {
      return "scan BatchQuery failed: " + response.status().ToString();
    }
    ++expected_.batch_query_ok;
    ++expected_.scan_calls;
    if (!response->errors.empty()) {
      return "scan populated errors (it must skip not-yet-live items)";
    }
    if (response->results.size() != take) {
      std::ostringstream os;
      os << "scan returned " << response->results.size() << " items, reference "
         << take << " (of " << all.size() << " live)";
      return os.str();
    }
    // Per returned id: must be a live item, unique, and bit-identical to
    // the reference's answer for that id.  The id SET may legitimately
    // differ from the reference's top-k on increment ties, so rank
    // agreement is checked on the increment values instead.
    std::set<int64_t> seen;
    std::vector<double> got_incs;
    got_incs.reserve(take);
    double prev_inc = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < response->results.size(); ++i) {
      const serving::ItemPrediction& p = response->results[i];
      if (!seen.insert(p.item_id).second) {
        std::ostringstream os;
        os << "scan returned item " << p.item_id << " twice";
        return os.str();
      }
      const auto it = std::find_if(
          all.begin(), all.end(),
          [&](const auto& entry) { return entry.first == p.item_id; });
      if (it == all.end()) {
        std::ostringstream os;
        os << "scan returned item " << p.item_id
           << " which is unknown or not yet live";
        return os.str();
      }
      const RefAnswer& want = it->second;
      if (p.prediction.observed_views != want.observed ||
          p.prediction.predicted_views != want.predicted ||
          p.prediction.alpha != want.alpha) {
        std::ostringstream os;
        os.precision(17);
        os << "scan item " << p.item_id << " diverges: got (observed "
           << p.prediction.observed_views << ", predicted "
           << p.prediction.predicted_views << ", alpha " << p.prediction.alpha
           << "), reference (observed " << want.observed << ", predicted "
           << want.predicted << ", alpha " << want.alpha << ")";
        return os.str();
      }
      if (want.increment > prev_inc) {
        std::ostringstream os;
        os.precision(17);
        os << "scan results not sorted: increment " << want.increment
           << " at rank " << i << " after " << prev_inc;
        return os.str();
      }
      prev_inc = want.increment;
      got_incs.push_back(want.increment);
    }
    std::sort(got_incs.begin(), got_incs.end(), std::greater<double>());
    for (size_t i = 0; i < take; ++i) {
      if (got_incs[i] != want_incs[i]) {
        std::ostringstream os;
        os.precision(17);
        os << "scan rank " << i << " increment " << got_incs[i]
           << ", reference top-k has " << want_incs[i];
        return os.str();
      }
    }
    expected_.obs_scan_results += take;
    expected_.obs_scan_after_s += after_s;
    return "";
  }

  std::string DoBadQuery(const Op& op) {
    serving::QueryRequest request;
    request.s = op.time;
    request.delta = 1 * kHour;
    request.ids.push_back(0);
    switch (op.bad_variant) {
      case 0: request.delta = -1.0; break;
      case 1: request.s = std::numeric_limits<double>::quiet_NaN(); break;
      case 2:
        request.ids.clear();  // scan mode with top_k == 0
        request.top_k = 0;
        break;
      default:
        request.delta = std::numeric_limits<double>::infinity();
        break;
    }
    const StatusOr<serving::QueryResponse> response =
        service_.BatchQuery(request);
    if (response.ok()) {
      return "malformed request was accepted";
    }
    if (response.code() != StatusCode::kInvalidArgument) {
      return Mismatch("bad-query code", StatusCode::kInvalidArgument,
                      response.code());
    }
    ++expected_.errors[static_cast<int>(StatusCode::kInvalidArgument)];
    return "";
  }

  std::string DoRetire(const Op& op) {
    size_t after_now = 0;
    const size_t want = reference_.Retire(op.now, &after_now);
    const size_t got = service_.RetireDeadItems(op.now);
    ++expected_.retire_calls;
    if (got != want) {
      std::ostringstream os;
      os << "retired " << got << " items, reference retired " << want;
      return os.str();
    }
    expected_.stats.items_retired += want;
    expected_.obs_retired += want;
    retire_kept_after_now_ += after_now;
    return "";
  }

  std::string DoCheckpoint(const Op& op) {
    io::FaultInjector& injector = io::FaultInjector::Global();
    ++checkpoints_attempted_;
    const std::string before = CurrentPointer();
    // The service snapshots its counters at the START of Checkpoint; with
    // no ops interleaved, that snapshot is exactly the current ledger.
    const serving::ServiceStats stats_now = expected_.stats;
    if (op.kind == OpKind::kCheckpointCrash) injector.ArmCrashAt(op.fault_at);
    if (op.kind == OpKind::kCheckpointTransient) {
      injector.ArmFailOnce(op.fault_at);
    }
    Status st = service_.Checkpoint(scratch_dir_);
    injector.Disarm();
    ++expected_.checkpoint_calls;
    std::string after = CurrentPointer();
    // The commit point is the CURRENT pointer: a fault can strike AFTER
    // the rename reached the filesystem (the parent-dir fsync), in which
    // case Checkpoint reports kIoError yet IS durably committed.  Disk is
    // the truth; the returned Status only bounds it.
    bool committed_now = after != before && !after.empty();
    if (st.ok()) {
      if (!committed_now) {
        return "checkpoint reported ok but CURRENT did not advance";
      }
    } else {
      ++checkpoint_failures_;
      if (op.kind == OpKind::kCheckpoint) {
        return "unfaulted checkpoint failed: " + st.ToString();
      }
      if (st.code() != StatusCode::kIoError) {
        return Mismatch("faulted checkpoint code", StatusCode::kIoError,
                        st.code());
      }
    }
    if (committed_now) {
      committed_ = {true, false, reference_.SnapshotState(), stats_now};
    }
    if (!st.ok() && op.kind == OpKind::kCheckpointTransient) {
      // The fault was a one-shot IO error, not a crash: the service is
      // obligated to succeed on retry, with nothing lost.
      const Status retry = service_.Checkpoint(scratch_dir_);
      ++expected_.checkpoint_calls;
      if (!retry.ok()) {
        return "retry after transient fault failed: " + retry.ToString();
      }
      ++transient_retries_;
      after = CurrentPointer();
      if (after == before || after.empty()) {
        return "transient retry reported ok but CURRENT did not advance";
      }
      committed_ = {true, false, reference_.SnapshotState(), stats_now};
    }
    return "";
  }

  /// Damages one committed file, each choice taken from the op's pick: the
  /// file, a byte offset in it, and the damage -- the byte flipped, the
  /// file cut there, or a newline appended (which a parser that skips
  /// whitespace would not notice).
  std::string DoCorrupt(const Op& op) {
    if (!committed_.exists) return "";  // nothing committed yet: no-op
    const std::string name = TrimWs(CurrentPointer());
    std::vector<std::string> files;
    files.push_back(scratch_dir_ + "/" + name + "/MANIFEST");
    for (int sh = 0; sh < kNumShards; ++sh) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "shard-%04d", sh);
      files.push_back(scratch_dir_ + "/" + name + "/" + buf);
    }
    const std::string& target =
        files[static_cast<size_t>(op.corrupt_pick % files.size())];
    auto raw = io::ReadFile(target);
    if (!raw.ok() || raw->empty()) {
      return "cannot corrupt " + target + ": missing or empty";
    }
    const size_t at =
        static_cast<size_t>((op.corrupt_pick / 7919) % raw->size());
    switch ((op.corrupt_pick >> 40) % 3) {
      case 0: (*raw)[at] = static_cast<char>((*raw)[at] ^ 0xFF); break;
      case 1: raw->resize(at); break;
      default: raw->push_back('\n'); break;
    }
    std::ofstream out(target, std::ios::binary | std::ios::trunc);
    out.write(raw->data(), static_cast<std::streamsize>(raw->size()));
    out.close();
    if (!out) return "rewriting corrupted " + target + " failed";
    committed_.corrupt = true;
    return "";
  }

  std::string DoRestore(const Op&) {
    ++restores_attempted_;
    const Status st = service_.Restore(scratch_dir_);
    ++expected_.restore_calls;
    if (!committed_.exists) {
      if (st.code() != StatusCode::kNotFound) {
        return Mismatch("restore (nothing committed) code",
                        StatusCode::kNotFound, st.code());
      }
      ++expected_.errors[static_cast<int>(StatusCode::kNotFound)];
      ++restores_failed_;
      return "";
    }
    if (committed_.corrupt) {
      if (st.code() != StatusCode::kCorruption) {
        return Mismatch("restore (corrupted checkpoint) code",
                        StatusCode::kCorruption, st.code());
      }
      ++expected_.errors[static_cast<int>(StatusCode::kCorruption)];
      ++restores_failed_;
      // A failed restore must leave the service untouched; the next
      // kCheck verifies state equality against the UN-rolled-back
      // reference.
      return "";
    }
    if (!st.ok()) {
      return "restore of a clean committed checkpoint failed: " +
             st.ToString();
    }
    reference_.RestoreState(committed_.state);
    expected_.stats = committed_.stats;
    return "";
  }

  std::string DoCheck(const Op& op) {
    if (service_.LiveItems() != reference_.live_items()) {
      std::ostringstream os;
      os << "LiveItems " << service_.LiveItems() << ", reference "
         << reference_.live_items();
      return os.str();
    }
    {
      const serving::ServiceStats got = service_.stats();
      const serving::ServiceStats& want = expected_.stats;
      if (got.items_registered != want.items_registered ||
          got.events_ingested != want.events_ingested ||
          got.queries_answered != want.queries_answered ||
          got.items_retired != want.items_retired) {
        std::ostringstream os;
        os << "stats diverge: got (registered " << got.items_registered
           << ", ingested " << got.events_ingested << ", queries "
           << got.queries_answered << ", retired " << got.items_retired
           << "), expected (" << want.items_registered << ", "
           << want.events_ingested << ", " << want.queries_answered << ", "
           << want.items_retired << ")";
        return os.str();
      }
    }
    // Full-state comparison: every item the reference knows, answered by
    // both sides and compared exactly; then the paper's invariants on
    // each reference answer.
    const std::vector<int64_t> ids = reference_.ItemIds();
    if (!ids.empty()) {
      std::vector<std::pair<int64_t, RefAnswer>> resolved;
      const std::string err =
          QueryCompare(ids, op.time, kCheckDelta, /*top_k=*/0, &resolved);
      if (!err.empty()) return "state check: " + err;
      for (const auto& [id, answer] : resolved) {
        const std::string bad =
            CheckPredictionInvariants(*context_.model, answer, kCheckDelta);
        if (!bad.empty()) {
          std::ostringstream os;
          os << "invariant violated for item " << id << ": " << bad;
          return os.str();
        }
      }
    }
    return CheckMetrics();
  }

  /// Metrics conservation: every obs instrument equals the ledger.
  std::string CheckMetrics() {
    obs::MetricsRegistry& registry = service_.metrics();
    struct CounterCheck {
      const char* name;
      uint64_t want;
    };
    const CounterCheck counters[] = {
        {"horizon_serving_items_registered_total", expected_.obs_registered},
        {"horizon_serving_events_ingested_total", expected_.obs_ingested},
        {"horizon_serving_queries_total", expected_.obs_queries},
        {"horizon_serving_scan_results_total", expected_.obs_scan_results},
        {"horizon_serving_scan_items_with_events_after_s_total",
         expected_.obs_scan_after_s},
        {"horizon_serving_items_retired_total", expected_.obs_retired},
    };
    for (const CounterCheck& check : counters) {
      const uint64_t got = registry.GetCounter(check.name)->Value();
      if (got != check.want) {
        std::ostringstream os;
        os << "metric " << check.name << " = " << got << ", expected "
           << check.want;
        return os.str();
      }
    }
    for (int code = 1; code < kNumStatusCodes; ++code) {
      const std::string name =
          "horizon_serving_errors_" +
          std::string(StatusCodeName(static_cast<StatusCode>(code))) +
          "_total";
      const uint64_t got = registry.GetCounter(name)->Value();
      if (got != expected_.errors[code]) {
        std::ostringstream os;
        os << "metric " << name << " = " << got << ", expected "
           << expected_.errors[code];
        return os.str();
      }
    }
    const double live = registry.GetGauge("horizon_serving_live_items")->Value();
    if (live != static_cast<double>(reference_.live_items())) {
      std::ostringstream os;
      os << "live-items gauge " << live << ", expected "
         << reference_.live_items();
      return os.str();
    }
    struct HistogramCheck {
      const char* name;
      uint64_t want;
    };
    const HistogramCheck histograms[] = {
        {"horizon_serving_ingest_batch_latency_seconds",
         expected_.ingest_batch_calls},
        {"horizon_serving_batch_query_latency_seconds",
         expected_.batch_query_ok},
        {"horizon_serving_query_latency_seconds", 0},  // shim never used
        {"horizon_serving_topk_latency_seconds", expected_.scan_calls},
        {"horizon_serving_retire_latency_seconds", expected_.retire_calls},
        {"horizon_serving_checkpoint_latency_seconds",
         expected_.checkpoint_calls},
        {"horizon_serving_restore_latency_seconds", expected_.restore_calls},
    };
    for (const HistogramCheck& check : histograms) {
      const uint64_t got = registry.GetHistogram(check.name)->Count();
      if (got != check.want) {
        std::ostringstream os;
        os << "histogram " << check.name << " count " << got << ", expected "
           << check.want;
        return os.str();
      }
    }
    return "";
  }

  static std::string Mismatch(const char* what, StatusCode want,
                              StatusCode got) {
    std::ostringstream os;
    os << what << ": got " << StatusCodeName(got) << ", want "
       << StatusCodeName(want);
    return os.str();
  }

  const SimContext& context_;
  std::string scratch_dir_;
  obs::MetricsRegistry registry_;
  serving::ServiceConfig service_config_;
  serving::PredictionService service_;
  ReferenceService reference_;
  VirtualClock clock_;
  Expected expected_;
  CommittedCheckpoint committed_;
  int checkpoints_attempted_ = 0;
  int checkpoint_failures_ = 0;
  int transient_retries_ = 0;
  int restores_attempted_ = 0;
  int restores_failed_ = 0;
  uint64_t retire_kept_after_now_ = 0;
};

}  // namespace

SimContext BuildSimContext() {
  const std::vector<double> reference_horizons = {6 * kHour, 1 * kDay};
  constexpr int kNumTrees = 20;
  SimContext context;
  datagen::GeneratorConfig gen;
  gen.num_pages = 20;
  gen.num_posts = 90;
  gen.base_mean_size = 50.0;
  gen.seed = 991;
  context.dataset = datagen::Generator(gen).Generate();
  context.extractor =
      std::make_unique<features::FeatureExtractor>(stream::TrackerConfig{});

  std::vector<size_t> indices(context.dataset.cascades.size());
  for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  core::ExampleSetOptions options;
  options.reference_horizons = reference_horizons;
  const auto examples = core::BuildExampleSet(context.dataset, indices,
                                              *context.extractor, options);
  core::HawkesPredictorParams params;
  params.reference_horizons = reference_horizons;
  params.gbdt_count.num_trees = kNumTrees;
  params.gbdt_alpha.num_trees = kNumTrees;
  context.model = std::make_unique<core::HawkesPredictor>(params);
  context.model->Fit(examples.x, examples.log1p_increments,
                     examples.alpha_targets);
  return context;
}

std::string SimReport::Summary() const {
  std::ostringstream os;
  os << "seed=" << seed << " faults=" << faults << " ops=" << ops_executed;
  if (ok) {
    os << " OK (registered=" << final_stats.items_registered
       << " ingested=" << final_stats.events_ingested
       << " queries=" << final_stats.queries_answered
       << " retired=" << final_stats.items_retired
       << " checkpoints=" << checkpoints_attempted
       << " ckpt_failures=" << checkpoint_failures
       << " restores=" << restores_attempted
       << " restore_failures=" << restores_failed
       << " errors=" << errors_observed << ")";
  } else {
    os << " FAILED at " << message;
  }
  return os.str();
}

Simulator::Simulator(const SimContext* context, SimConfig config)
    : context_(context), config_(std::move(config)) {
  HORIZON_CHECK(context_ != nullptr);
  HORIZON_CHECK(context_->model != nullptr && context_->model->trained());
  HORIZON_CHECK(context_->extractor != nullptr);
}

SimReport Simulator::Execute(const OpSchedule& schedule) {
  std::ostringstream dir;
  dir << config_.scratch_dir << "/horizon-sim-" << ::getpid() << "-"
      << schedule.seed << "-" << runs_++;
  Execution execution(*context_, dir.str());
  SimReport report = execution.Run(schedule);
  report.trace = FormatTrace(schedule);
  return report;
}

SimReport Simulator::Run(uint64_t seed) {
  OpSchedule schedule =
      GenerateOpSchedule(context_->dataset, config_.schedule, seed);
  SimReport report = Execute(schedule);
  if (!report.ok && report.failed_op >= 0) {
    const OpSchedule minimized = MinimizedSchedule(schedule, report.failed_op);
    report.minimized_trace = FormatTrace(minimized);
  }
  return report;
}

OpSchedule Simulator::MinimizedSchedule(const OpSchedule& schedule,
                                        int failed_op) {
  // Greedy delta-debugging over the op list: keep only the prefix up to
  // the failing op, then repeatedly try dropping chunks (halving the
  // chunk size) as long as SOME failure still reproduces, re-truncating
  // to the new failing op after every successful removal.  Deterministic,
  // bounded by kMaxMinimizeRuns re-executions.
  OpSchedule current = schedule;
  current.ops.resize(static_cast<size_t>(failed_op) + 1);
  int budget = kMaxMinimizeRuns;

  const auto still_fails = [&](const OpSchedule& trial, int* failed) {
    --budget;
    const SimReport report = Execute(trial);
    if (!report.ok && report.failed_op >= 0) {
      *failed = report.failed_op;
      return true;
    }
    return false;
  };

  size_t chunk = std::max<size_t>(1, current.ops.size() / 2);
  while (budget > 0) {
    bool removed_any = false;
    for (size_t begin = 0; begin + 1 < current.ops.size() && budget > 0;) {
      // Never drop the final (failing) op.
      const size_t end = std::min(begin + chunk, current.ops.size() - 1);
      if (begin >= end) break;
      OpSchedule trial = current;
      trial.ops.erase(trial.ops.begin() + static_cast<ptrdiff_t>(begin),
                      trial.ops.begin() + static_cast<ptrdiff_t>(end));
      int failed = -1;
      if (still_fails(trial, &failed)) {
        trial.ops.resize(static_cast<size_t>(failed) + 1);
        current = std::move(trial);
        removed_any = true;  // retry the same position at the new layout
      } else {
        begin = end;
      }
    }
    if (!removed_any) {
      if (chunk == 1) break;
      chunk = std::max<size_t>(1, chunk / 2);
    } else {
      chunk = std::min(chunk, std::max<size_t>(1, current.ops.size() / 2));
    }
  }
  return current;
}

}  // namespace horizon::sim
