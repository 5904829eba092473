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
// under a different model/tracker layout).
//
// Query surface: BatchQuery(QueryRequest) answers per-id lookups, ranked
// top-k over a requested id set, and the full top-k scan (the
// moderation-queue primitive).  Query() is the point query: it runs the
// per-id routine BatchQuery's per-id mode runs, on one id, without
// building a QueryRequest or QueryResponse, and allocates nothing once its
// thread has answered one query.
//
// Concurrency: the service is internally synchronized.  Item state is
// partitioned into `num_shards` shards keyed by a mixed hash of the item
// id; each shard has its own mutex and item index (serving/item_index.h),
// so Ingest/Query from different threads contend only when they hit the
// same shard.  A caller that finds its shard's mutex held spins a bounded
// budget before it parks (horizon::Mutex): an ingest holds the lock for
// ~0.2-0.3 us, less than a park and wake, so two producers no longer
// convoy on it.  Every Ingest applies under its shard mutex in the
// caller's thread, so a call that returned is visible to every later
// call.  Query inference (feature extraction + forest walks) runs OUTSIDE
// the shard locks, against a tracker snapshot; only RetireDeadItems
// scores an item's death check under the lock of the shard it sweeps.
//
// Observability: the service registers counters, a live-items gauge, and
// per-operation latency histograms in an obs::MetricsRegistry (the
// process-wide default unless ServiceConfig.metrics overrides it).
// Instrument pointers are captured once at construction, and no hot path
// takes a lock for them, but not every update is contention-free: an
// obs::Counter add is one relaxed fetch_add on the caller's own slot
// (the stats() counters are service-owned obs::Counters too), while a
// Histogram::Observe is three relaxed read-modify-writes on cache lines
// every thread shares (bucket, count, and the sum as a CAS loop on an
// atomic<double>).  A point query reads the clock twice and observes one
// histogram (horizon_serving_query_latency_seconds); the finest-grained
// path (Ingest) samples its histogram 1-in-64 so the clock reads stay off
// the common path.  See DESIGN.md "Observability".
#ifndef HORIZON_SERVING_PREDICTION_SERVICE_H_
#define HORIZON_SERVING_PREDICTION_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
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

/// Largest |time| the service accepts, in seconds: 2^50 s, about 36
/// million years.  Every entry point that takes a time (a creation time,
/// an event time, a prediction time `s`, a sweep's `now`) rejects one
/// past it with kInvalidArgument, as it rejects a non-finite one, and
/// counts it.  Ages then stay below 2^51 s, so every feature (an age in
/// hours as a float, a stream's Kahan sum of event ages) stays finite.
inline constexpr double kMaxAbsTime = 0x1p50;

/// Service configuration.
struct ServiceConfig {
  stream::TrackerConfig tracker;
  /// Items with no view for this long (counted from creation if they never
  /// had one) are retired by RetireDeadItems.
  double idle_retirement_age = 14 * kDay;
  /// Items whose probability of no further view (per the decaying
  /// intensity proxy, Appendix A.14) reaches this are retired eagerly by
  /// RetireDeadItems.
  double death_probability_threshold = 0.99;
  /// Number of item shards (>= 1).  More shards mean less lock contention
  /// at slightly more memory.  Measured with two ingest producers only
  /// (bench_e2e ingest_replay, 4-vCPU Xeon): 16 shards ingested 7.79 M
  /// events/s and 64 shards 8.12 M/s, medians of 6 alternating pairs.
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
  /// increment descending, ties by item id ascending, and truncates.
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
  /// Answered items: request order in per-id mode, ranked as `top_k`
  /// says when top_k > 0 (both modes).
  std::vector<ItemPrediction> results;
  /// Ids that could not be answered (never populated in scan mode, which
  /// skips not-yet-live items and items with an event after s).
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
  /// kInvalidArgument for a `creation_time` that is non-finite or past
  /// kMaxAbsTime.
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
  /// `t` that is non-finite or past kMaxAbsTime, a `t` before the item's
  /// creation time, and a late event: one older than the item's last
  /// event of the same type.  Late events are never reordered or clamped;
  /// the tracker's windows need per-type non-decreasing times, so the
  /// caller must resend in order.
  Status Ingest(int64_t item_id, stream::EngagementType type, double t);

  /// Ingests a batch of events: events are grouped by shard, and each
  /// shard's group is applied under one lock acquisition, one shard after
  /// another on the calling thread.  Relative order of a given item's
  /// events is preserved.  Returns the number ingested.
  /// Drop policy: an event for an unknown item is dropped uncounted, as in
  /// Ingest; an event Ingest would reject with kInvalidArgument (a time
  /// that is non-finite or past kMaxAbsTime, before creation, or late
  /// relative to the item's events applied so far, this batch's included)
  /// is dropped and counted in horizon_serving_errors_invalid_argument_total.
  /// The batch's other events still apply.
  // horizon-lint: allow(serving-status) -- best-effort batch op: returns
  // the applied count; per-item kNotFound is the intended straggler-drop.
  size_t IngestBatch(const std::vector<IngestEvent>& events);

  /// The unified query entry point.  Request-level problems (an `s` that
  /// is non-finite or past kMaxAbsTime, a non-finite `delta` or one < 0,
  /// empty ids with top_k == 0) return kInvalidArgument; per-item
  /// problems land in QueryResponse::errors.  A scan skips an item that
  /// is not yet live at `s`, and one with an event of any type after `s`
  /// (whose snapshot at `s` would count later events), counting the
  /// latter in horizon_serving_scan_items_with_events_after_s_total.
  /// Inference is batched, 64 items at a time: ids are resolved under the
  /// shard locks and scored outside them a chunk at a time, and a scan
  /// keeps a running top k per shard.  So a call holds one chunk of
  /// working storage besides its answer (a scan also one 8-byte id per
  /// item of each shard it walks), and a scan reads each chunk at its own
  /// instant, not a shard at one instant.
  StatusOr<QueryResponse> BatchQuery(const QueryRequest& request) const;

  /// The point query: BatchQuery's per-id answer for one id, bit for bit,
  /// with the same codes and error counts -- kInvalidArgument for an `s`
  /// that is non-finite or past kMaxAbsTime, a non-finite `delta` or
  /// `delta` < 0, kNotFound for unknown items, kNotYetLive when the
  /// item's creation time is after `s`.  Timed into
  /// horizon_serving_query_latency_seconds only.
  StatusOr<PredictionResult> Query(int64_t item_id, double s,
                                   double delta) const;

  /// Retires items that are idle (no view for idle_retirement_age) or
  /// whose death probability -- the probability of no further view --
  /// is at least death_probability_threshold at `now`.  An item with an
  /// event of any type after `now` is kept, and nothing is extracted for
  /// it.
  /// Returns the number retired; a `now` that is non-finite or past
  /// kMaxAbsTime retires nothing and counts an invalid_argument error.
  /// Sets the horizon_serving_tracker_bytes gauge to the summed
  /// CascadeTracker::MemoryBytes() of the items it keeps, and the
  /// horizon_serving_item_index_bytes gauge to the summed slot bytes of
  /// the shards' item indexes.
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
  //   ckpt-<epoch>/      -> MANIFEST, shard-NNNN files
  // Every file is CRC32-framed and written atomically (temp -> fsync ->
  // rename); the CURRENT pointer update is the commit point.  A crash at
  // any write/fsync/rename therefore leaves the previous checkpoint fully
  // intact, and Restore never loads a torn file (the CRCs reject it).
  // The model is not written: the MANIFEST records its digest.

  /// Writes a snapshot of every live tracker, each item's static
  /// features, the model's digest, and the service counters (shard files
  /// `shard v3` of `trk v2` tracker blobs).  Each shard's ids are listed
  /// under its lock and its items copied 16 at a time under it; each
  /// chunk is serialized and streamed to the shard file outside the lock,
  /// so concurrent Ingest/Query keep running and a checkpoint holds one
  /// chunk per pool thread, not a copy of the shard.  An item retired mid-checkpoint is
  /// left out; one registered after its shard's listing waits for the
  /// next checkpoint.
  /// kIoError on any write failure (the previous checkpoint survives).
  /// Once it commits, sets the horizon_serving_checkpoint_bytes gauge to
  /// the bytes of the checkpoint's files: shards and manifest.
  Status Checkpoint(const std::string& dir) const;

  /// Restores the checkpoint committed under `dir`.  Verifies the CRC of
  /// every file, that this service uses the same model (the manifest's
  /// digest of its serialization), and the same tracker configuration;
  /// a file the manifest does not list is never read.  On any failure
  /// the service is NOT modified and the code says why: kNotFound (no
  /// committed checkpoint there), kCorruption (torn or damaged bytes, or
  /// shard files or tracker blobs of another format version),
  /// kConfigMismatch (different model or tracker layout).  On success
  /// replaces all live items and counters, and subsequent predictions are
  /// bit-identical to the checkpointed service's.
  Status Restore(const std::string& dir);

  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  /// One lock domain: a mutex and the item index it guards.
  struct Shard;

  /// Scan-mode candidate surviving a per-shard top-k cut, with its whole
  /// answer: the merge ranks by `increment` and needs no more inference.
  struct ScanCandidate {
    int64_t id = 0;
    double observed = 0.0;
    double increment = 0.0;
    double alpha = 0.0;

    /// The scan's ranking, a total order: larger increment first, then
    /// smaller id, so tied items rank alike whatever the shard count, the
    /// slot order or the chunking.
    static bool RanksAbove(const ScanCandidate& a, const ScanCandidate& b) {
      return a.increment > b.increment || (a.increment == b.increment && a.id < b.id);
    }
  };

  /// The shard of the item whose id hashes (MixId) to `hash`.
  size_t ShardIndex(uint64_t hash) const;

  /// Per-shard scan: lists the shard's ids under its lock, then resolves
  /// them a chunk at a time under the lock and extracts and predicts each
  /// chunk outside it, in the extract-and-score step AnswerIds runs,
  /// keeping a running top k.  Skips items not yet live at `s` and,
  /// counted, items with an event after `s`.  Returns the shard's k best
  /// candidates, best first.
  std::vector<ScanCandidate> ShardScanTopK(const Shard& shard, double s,
                                           double delta, size_t k) const;

  /// The per-id path of Query and BatchQuery, for one chunk of at most
  /// 64 ids (kChunkRows in prediction_service.cc): resolves each id under
  /// its shard lock (kNotFound / kNotYetLive, counted into statuses[i]),
  /// then extracts and predicts every resolved id outside the locks in
  /// one PredictStrided pass, into results[i].  Working storage is per
  /// thread and reused.
  void AnswerIds(std::span<const int64_t> ids, double s, double delta,
                 Status* statuses, PredictionResult* results) const;
  /// Adds n answered queries to stats() and horizon_serving_queries_total.
  void CountAnswered(size_t n) const;

  StatusOr<QueryResponse> QueryByIds(const QueryRequest& request) const;
  StatusOr<QueryResponse> QueryScan(const QueryRequest& request) const;

  /// Increments the per-code error counter and forwards `status`.
  Status CountError(Status status) const;

  const core::HawkesPredictor* model_;
  const features::FeatureExtractor* extractor_;
  ServiceConfig config_;
  // config_.tracker, frozen once; every item's tracker shares it.
  std::shared_ptr<const stream::TrackerLayout> tracker_layout_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // An exact fetch_add / fetch_sub source for the live-items gauge, on a
  // cache line of its own: every registration and retirement writes it,
  // and every query reads shards_ just above it.
  alignas(64) std::atomic<size_t> live_items_{0};
  // The stats() counters: like every obs::Counter, one cache-line slot
  // per writer thread (up to obs::kCounterSlots threads), so concurrent
  // writers do not bump a shared line; stats() sums the slots.  (The registry's counters are shared by every service that
  // instruments into it, so the per-service truth lives here.)
  mutable obs::Counter items_registered_;
  mutable obs::Counter events_ingested_;
  mutable obs::Counter queries_answered_;
  mutable obs::Counter items_retired_;

  // Observability instruments, resolved once at construction.
  obs::MetricsRegistry* registry_;
  obs::Counter* m_items_registered_;
  obs::Counter* m_events_ingested_;
  obs::Counter* m_queries_;
  obs::Counter* m_scan_results_;
  obs::Counter* m_items_retired_;
  obs::Counter* m_errors_[kNumStatusCodes];  // indexed by StatusCode
  obs::Gauge* m_live_items_;
  obs::Gauge* m_tracker_bytes_;  // refreshed by RetireDeadItems
  obs::Gauge* m_item_index_bytes_;  // refreshed by RetireDeadItems
  obs::Gauge* m_checkpoint_bytes_;  // set by Checkpoint once it commits
  obs::Counter* m_ingest_commits_;  // IngestBatch shard-lock acquisitions
  obs::Histogram* m_ingest_latency_;
  obs::Histogram* m_ingest_batch_latency_;
  obs::Histogram* m_query_latency_;
  obs::Histogram* m_batch_query_latency_;
  obs::Histogram* m_topk_latency_;
  obs::Histogram* m_retire_latency_;
  obs::Histogram* m_checkpoint_latency_;
  obs::Histogram* m_restore_latency_;
  obs::Counter* m_scan_skipped_after_s_;  // items a scan skipped: events after s
};

}  // namespace horizon::serving

#endif  // HORIZON_SERVING_PREDICTION_SERVICE_H_
