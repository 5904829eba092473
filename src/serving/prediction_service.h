// Multi-item prediction service: the deployment shape the paper targets
// (Sec. 1: real-time popularity prediction "at planetary scale").
//
// The service owns one O(1)-state CascadeTracker per live content item,
// ingests the interleaved engagement-event stream, and answers popularity
// queries for any (prediction time, horizon) pair using a trained
// HawkesPredictor.  Idle items are retired either by inactivity age or by
// the model's cascade-death probability (Appendix A.14 closed form), so
// resident state stays proportional to the number of *live* items.
//
// Error model: every fallible entry point returns a typed Status /
// StatusOr (common/status.h) so callers can tell kNotFound (no such item)
// from kNotYetLive (registered, creation time in the future) from
// kCorruption (torn checkpoint) from kConfigMismatch (checkpoint written
// under a different model/tracker layout).  Status converts contextually
// to bool and StatusOr mimics std::optional, so pre-Status call sites
// keep compiling for one release.
//
// Query surface: BatchQuery(QueryRequest) is the single query entry point
// -- per-id lookups, ranked top-k over a requested id set, and the full
// top-k scan (the moderation-queue primitive) are all expressed through
// it, which gives the observability layer one choke point.  Query() and
// TopK() remain as thin shims over it.
//
// Concurrency: the service is internally synchronized.  Item state is
// partitioned into `num_shards` shards keyed by a mixed hash of the item
// id; each shard has its own mutex and tracker map, so Ingest/Query from
// different threads contend only when they hit the same shard.  Every
// Ingest applies under its shard mutex in the caller's thread, so a call
// that returned is visible to every later call.  Query inference
// (feature extraction + forest walks) runs OUTSIDE the shard locks,
// against a tracker snapshot; only RetireDeadItems scores an item's death
// check under the lock of the shard it sweeps.
//
// Observability: the service registers counters, a live-items gauge, and
// per-operation latency histograms in an obs::MetricsRegistry (the
// process-wide default unless ServiceConfig.metrics overrides it).
// Instrument pointers are captured once at construction; the hot paths
// touch only wait-free sharded atomics, and the finest-grained one
// (Ingest) samples its latency histogram 1-in-64 so the clock reads stay
// off the common path.  See DESIGN.md "Observability".
#ifndef HORIZON_SERVING_PREDICTION_SERVICE_H_
#define HORIZON_SERVING_PREDICTION_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/hawkes_predictor.h"
#include "datagen/profiles.h"
#include "features/extractor.h"
#include "obs/metrics.h"
#include "stream/cascade_tracker.h"

namespace horizon::serving {

/// Service configuration.
struct ServiceConfig {
  stream::TrackerConfig tracker;
  /// Items with no engagement for this long are retired by RetireIdle.
  double idle_retirement_age = 14 * kDay;
  /// Items whose probability of any further view (per the decaying
  /// intensity proxy) falls below this are retired eagerly.
  double death_probability_threshold = 0.99;
  /// Number of item shards (>= 1).  More shards mean less lock contention
  /// at slightly more memory; the default suits up to ~32 serving threads.
  int num_shards = 16;
  /// Registry the service instruments into; nullptr means the process
  /// default (obs::MetricsRegistry::Global()).  Two services sharing one
  /// registry share instruments, so per-service assertions in tests
  /// should inject private registries.
  obs::MetricsRegistry* metrics = nullptr;

  /// Rejects malformed configurations: num_shards < 1, non-positive
  /// retirement age, a death-probability threshold outside (0, 1], and --
  /// when an extractor is supplied -- a tracker layout that disagrees
  /// with the extractor's (kConfigMismatch: features would be computed
  /// against the wrong window/landmark layout).
  Status Validate(const features::FeatureExtractor* extractor = nullptr) const;
};

/// One answered query.
struct PredictionResult {
  double observed_views = 0.0;    ///< N(s)
  double predicted_views = 0.0;   ///< predicted N(s + delta)
  double alpha = 0.0;             ///< predicted effective growth exponent
};

/// Aggregate service counters (a stats() snapshot).
struct ServiceStats {
  uint64_t items_registered = 0;
  uint64_t events_ingested = 0;
  uint64_t queries_answered = 0;
  uint64_t items_retired = 0;
};

/// One engagement event of an IngestBatch.
struct IngestEvent {
  int64_t item_id = 0;
  stream::EngagementType type = stream::EngagementType::kView;
  double time = 0.0;
};

/// The unified query: resolves `ids` (or, when `ids` is empty and
/// `top_k` > 0, scans every live item) at prediction time `s` over
/// horizon `delta`, optionally keeping only the `top_k` items with the
/// largest predicted view increment.
struct QueryRequest {
  /// Items to answer for.  Empty selects scan mode (requires top_k > 0),
  /// which ranks ALL live items -- the moderation-queue primitive.
  std::vector<int64_t> ids;
  double s = 0.0;      ///< prediction time (absolute stream time)
  double delta = 0.0;  ///< horizon (seconds, > 0)
  /// 0 keeps every resolved id in request order; > 0 ranks by predicted
  /// increment descending and truncates.
  size_t top_k = 0;
};

/// One successfully answered item of a QueryResponse.
struct ItemPrediction {
  int64_t item_id = 0;
  PredictionResult prediction;
};

/// One per-item failure of a QueryResponse (kNotFound / kNotYetLive).
struct ItemError {
  int64_t item_id = 0;
  Status status;
};

struct QueryResponse {
  /// Answered items: request order in per-id mode, predicted-increment
  /// descending when top_k > 0 (both modes).
  std::vector<ItemPrediction> results;
  /// Ids that could not be answered (never populated in scan mode, which
  /// simply skips not-yet-live items).
  std::vector<ItemError> errors;
  /// Service-side wall time spent answering, also observed into the
  /// horizon_serving_batch_query_latency_seconds histogram.
  uint64_t latency_ns = 0;
};

/// Thread-safe sharded prediction service.  All public methods may be
/// called concurrently from any number of threads; per-item, per-type
/// event times must be non-decreasing for an event to be applied (see
/// Ingest).
class PredictionService {
 public:
  /// The model and extractor must outlive the service.  The configuration
  /// must pass ServiceConfig::Validate(extractor); a rejected config is
  /// a fatal error (construction cannot report Status).
  PredictionService(const core::HawkesPredictor* model,
                    const features::FeatureExtractor* extractor,
                    const ServiceConfig& config);

  /// Defined where Shard is complete.  No method may run concurrently
  /// with destruction.
  ~PredictionService();

  /// Registers a new content item.  kAlreadyExists if the id is taken;
  /// kInvalidArgument for a non-finite `creation_time`.
  Status RegisterItem(int64_t item_id, double creation_time,
                      const datagen::PageProfile& page,
                      const datagen::PostProfile& post);

  bool HasItem(int64_t item_id) const;
  // order: relaxed; monotone gauge paired with the relaxed updates in
  // RegisterItem/RetireDeadItems -- a point-in-time count, no payload.
  size_t LiveItems() const { return live_items_.load(std::memory_order_relaxed); }

  /// Ingests one engagement event.  kNotFound for unknown items (events
  /// for retired items are dropped, which is the intended behavior for
  /// late stragglers).  kInvalidArgument, with the item unchanged, for a
  /// non-finite `t`, a `t` before the item's creation time, and a late
  /// event: one older than the item's last event of the same type.  Late
  /// events are never reordered or clamped; the tracker's windows need
  /// per-type non-decreasing times, so the caller must resend in order.
  Status Ingest(int64_t item_id, stream::EngagementType type, double t);

  /// Ingests a batch of events: events are grouped by shard, each shard is
  /// locked once, and shards are processed in parallel.  Relative order of
  /// a given item's events is preserved.  Returns the number ingested.
  /// Drop policy: an event for an unknown item is dropped uncounted, as in
  /// Ingest; an event Ingest would reject with kInvalidArgument (non-finite
  /// time, before creation, or late relative to the item's events applied
  /// so far, this batch's included) is dropped and counted in
  /// horizon_serving_errors_invalid_argument_total.  The batch's other
  /// events still apply.
  // horizon-lint: allow(serving-status) -- best-effort batch op: returns
  // the applied count; per-item kNotFound is the intended straggler-drop.
  size_t IngestBatch(const std::vector<IngestEvent>& events);

  /// The unified query entry point.  Request-level problems (non-finite
  /// `s`, `delta` < 0, empty ids with top_k == 0) return
  /// kInvalidArgument; per-item problems land in QueryResponse::errors.
  /// Inference is batched: one forest pass over every resolved item.
  StatusOr<QueryResponse> BatchQuery(const QueryRequest& request) const;

  /// Single-item convenience shim over BatchQuery.  kNotFound for unknown
  /// items, kNotYetLive when the item's creation time is after `s`.
  StatusOr<PredictionResult> Query(int64_t item_id, double s,
                                   double delta) const;

  /// Deprecated shim over BatchQuery scan mode: the k live items with the
  /// largest predicted view increment over `delta` as of time `s`, as
  /// (item_id, predicted increment), sorted descending.
  std::vector<std::pair<int64_t, double>> TopK(double s, double delta,
                                               size_t k) const;

  /// Retires items that are idle (no event for idle_retirement_age) or
  /// whose death probability exceeds the configured threshold at `now`.
  /// Returns the number retired; a non-finite `now` retires nothing and
  /// counts an invalid_argument error.
  // horizon-lint: allow(serving-status) -- infallible maintenance sweep:
  // the retired count is the result, there is no failure to report.
  size_t RetireDeadItems(double now);

  /// Coherent snapshot of the service counters.
  ServiceStats stats() const;

  /// The registry this service instruments into.
  obs::MetricsRegistry& metrics() const { return *registry_; }

  // --- Crash-safe persistence -------------------------------------------
  // Checkpoint layout under `dir`:
  //   CURRENT            -> name of the last committed checkpoint directory
  //   ckpt-<epoch>/      -> MANIFEST, model.hwk, shard-NNNN files
  // Every file is CRC32-framed and written atomically (temp -> fsync ->
  // rename); the CURRENT pointer update is the commit point.  A crash at
  // any write/fsync/rename therefore leaves the previous checkpoint fully
  // intact, and Restore never loads a torn file (the CRCs reject it).

  /// Writes a consistent snapshot of every live tracker, the item
  /// profiles, the model, and the service counters.  Shards are
  /// snapshotted under their own locks and serialized/written outside
  /// them, so concurrent Ingest/Query keep running during a checkpoint.
  /// kIoError on any write failure (the previous checkpoint survives).
  Status Checkpoint(const std::string& dir) const;

  /// Restores the checkpoint committed under `dir`.  Verifies the CRC of
  /// every file, that this service uses the same model (bit-identical
  /// serialization), and the same tracker configuration; on any failure
  /// the service is NOT modified and the code says why: kNotFound (no
  /// committed checkpoint there), kCorruption (torn or damaged bytes),
  /// kConfigMismatch (different model or tracker layout).  On success
  /// replaces all live items and counters, and subsequent predictions are
  /// bit-identical to the checkpointed service's.
  Status Restore(const std::string& dir);

  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  /// One lock domain: a mutex and the item map it guards.
  struct Shard;

  /// Scan-mode candidate surviving a per-shard top-k cut: enough state to
  /// finish the full prediction for the global winners.
  struct ScanCandidate {
    int64_t id = 0;
    double observed = 0.0;
    double increment = 0.0;
    std::vector<float> row;
  };

  size_t ShardOf(int64_t item_id) const;

  /// Per-shard scan: snapshots under the lock, batch inference outside
  /// it, returns the shard's k best candidates with their feature rows.
  std::vector<ScanCandidate> ShardScanTopK(const Shard& shard, double s,
                                           double delta, size_t k) const;

  StatusOr<QueryResponse> QueryByIds(const QueryRequest& request) const;
  StatusOr<QueryResponse> QueryScan(const QueryRequest& request) const;

  /// Increments the per-code error counter and forwards `status`.
  Status CountError(Status status) const;

  const core::HawkesPredictor* model_;
  const features::FeatureExtractor* extractor_;
  ServiceConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<size_t> live_items_{0};
  // Counters are independent atomics: cheap on the hot path; stats()
  // assembles a snapshot struct from them.  (The obs counters are shared
  // per registry, so the per-service truth lives here.)
  mutable std::atomic<uint64_t> items_registered_{0};
  mutable std::atomic<uint64_t> events_ingested_{0};
  mutable std::atomic<uint64_t> queries_answered_{0};
  mutable std::atomic<uint64_t> items_retired_{0};

  // Observability instruments, resolved once at construction.
  obs::MetricsRegistry* registry_;
  obs::Counter* m_items_registered_;
  obs::Counter* m_events_ingested_;
  obs::Counter* m_queries_;
  obs::Counter* m_scan_results_;
  obs::Counter* m_items_retired_;
  obs::Counter* m_errors_[10];  // indexed by StatusCode
  obs::Gauge* m_live_items_;
  obs::Counter* m_ingest_commits_;  // IngestBatch shard-lock acquisitions
  obs::Histogram* m_ingest_latency_;
  obs::Histogram* m_ingest_batch_latency_;
  obs::Histogram* m_query_latency_;
  obs::Histogram* m_batch_query_latency_;
  obs::Histogram* m_topk_latency_;
  obs::Histogram* m_retire_latency_;
  obs::Histogram* m_checkpoint_latency_;
  obs::Histogram* m_restore_latency_;
};

}  // namespace horizon::serving

#endif  // HORIZON_SERVING_PREDICTION_SERVICE_H_
