#include "serving/prediction_service.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "common/annotations.h"
#include "common/check.h"
#include "common/file_io.h"
#include "common/text_codec.h"
#include "common/thread_pool.h"
#include "gbdt/forest_kernels.h"
#include "pointprocess/transform.h"
#include "serving/item_index.h"

namespace horizon::serving {

namespace {

/// One live content item: the O(1)-state tracker plus its static
/// features, computed from the page and post profiles at registration
/// (the profiles themselves are not kept).
struct Item {
  stream::CascadeTracker tracker;
  features::StaticFeatures statics;
};

/// Ingest latency is sampled 1-in-kIngestSampleRate: at ~1 us/op, two
/// clock reads per op would cost more than the histogram is worth.
constexpr uint32_t kIngestSampleRate = 64;

using SteadyClock = std::chrono::steady_clock;

uint64_t ElapsedNs(SteadyClock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(SteadyClock::now() -
                                                           start)
          .count());
}

/// By-id top-k ranks as a scan does (ScanCandidate::RanksAbove): larger
/// predicted increment first, then smaller id.
bool RanksAbove(const ItemPrediction& a, const ItemPrediction& b) {
  const double ia = a.prediction.predicted_views - a.prediction.observed_views;
  const double ib = b.prediction.predicted_views - b.prediction.observed_views;
  return ia > ib || (ia == ib && a.item_id < b.item_id);
}

/// Whether the service accepts `t` as a time: |t| <= kMaxAbsTime, which
/// NaN fails.
bool UsableTime(double t) { return std::abs(t) <= kMaxAbsTime; }

/// kInvalidArgument unless the prediction time and horizon are usable.
Status CheckQueryTimes(double s, double delta) {
  if (!UsableTime(s) || !std::isfinite(delta) || delta < 0.0) {
    return Status::InvalidArgument(
        "query: |s| must be at most kMaxAbsTime, delta finite and >= 0");
  }
  return Status::Ok();
}

/// Items a scan, or a by-id query, resolves under a shard lock at a time
/// and then scores together outside it: at least the forest kernels'
/// kSmallBatchRows, so a full chunk takes the SIMD kernel, and few enough
/// that a thread's Scratch stays near 100 KB (~1.5 KB a row).
constexpr size_t kChunkRows = 64;
static_assert(kChunkRows >= gbdt::kernels::kSmallBatchRows);

/// Items a checkpoint copies under a shard lock at a time, to serialize
/// them outside it into one buffer that is then streamed to the file.
constexpr size_t kCheckpointChunkItems = 16;

/// What a query copies out of an item under its shard lock: everything
/// extraction reads.  Built in place in the scratch vector, so the
/// snapshot is written once, into its slot.
struct Resolved {
  Resolved(const Item& item, double s)
      : snapshot(item.tracker.Snapshot(s)), statics(item.statics) {}

  stream::TrackerSnapshot snapshot;
  features::StaticFeatures statics;
};

/// The items of one chunk, resolved under a shard lock, and what
/// ExtractAndScore makes of them.
struct Scratch {
  std::vector<Resolved> resolved;
  /// Column-major: feature f of resolved row r at [f * rows + r].
  std::vector<float> features;
  std::vector<double> deltas;
  std::vector<double> increments;
  std::vector<double> alphas;
};

/// The calling thread's Scratch, which AnswerIds and ShardScanTopK share
/// and reuse: it grows to one chunk, so a thread's point queries allocate
/// nothing once the first has sized it.  The two never run nested on one
/// thread (a chunk's inference fits one PredictStrided chunk and runs
/// inline).
Scratch& ThreadScratch() {
  thread_local Scratch scratch;
  return scratch;
}

/// The extract-and-score step of AnswerIds and ShardScanTopK, run outside
/// the shard locks: extracts every resolved item into one column-major
/// block, which the SIMD kernels read without a transposition pass, and
/// predicts all of them over `delta` in one PredictStrided pass that
/// yields each row's increment and alpha_hat together.
void ExtractAndScore(const features::FeatureExtractor& extractor,
                     const core::HawkesPredictor& model, double delta,
                     Scratch* scratch) {
  // The forests index features by position, so a model trained on
  // another schema must not get here (the constructor refuses one; this
  // catches a model reloaded in place after it).
  const size_t rows = scratch->resolved.size();
  const size_t width = extractor.schema().size();
  HORIZON_CHECK_EQ(width, model.num_features());
  scratch->features.resize(rows * width);
  for (size_t r = 0; r < rows; ++r) {
    const Resolved& item = scratch->resolved[r];
    extractor.ExtractIntoStrided(item.statics, item.snapshot,
                                 scratch->features.data() + r, rows);
  }
  scratch->deltas.assign(rows, delta);
  scratch->increments.resize(rows);
  scratch->alphas.resize(rows);
  model.PredictStrided(scratch->features.data(), rows, 1, rows,
                       scratch->deltas.data(), scratch->increments.data(),
                       scratch->alphas.data());
}

/// What the manifest records of one shard file: its payload's CRC (the
/// one its frame header holds), its size and its item count.
struct ShardFile {
  uint32_t crc = 0;
  uint64_t bytes = 0;
  uint64_t items = 0;
};

}  // namespace

struct PredictionService::Shard {
  mutable Mutex mu;
  ItemIndex<Item> items HORIZON_GUARDED_BY(mu);

  /// The shard's ids, listed under the lock.  A scan or a checkpoint then
  /// reads the items behind them a chunk at a time, so it holds 8 bytes
  /// per item besides its chunk, however large the shard; an id retired
  /// since the listing is skipped, and one registered since is not seen.
  std::vector<int64_t> Ids() const {
    MutexLock lock(mu);
    std::vector<int64_t> ids;
    ids.reserve(items.size());
    items.ForEach([&](int64_t id, const Item&) { ids.push_back(id); });
    return ids;
  }

  /// Streams the `shard v4` file of the shard's items to `path` (see
  /// Checkpoint) and records what the manifest needs of it.
  Status WriteCheckpoint(const std::string& path, ShardFile* file) const;
};

Status ServiceConfig::Validate(const features::FeatureExtractor* extractor) const {
  if (num_shards < 1) {
    return Status::InvalidArgument("ServiceConfig: num_shards must be >= 1");
  }
  if (!(idle_retirement_age > 0.0)) {
    return Status::InvalidArgument(
        "ServiceConfig: idle_retirement_age must be positive");
  }
  if (!(death_probability_threshold > 0.0) || death_probability_threshold > 1.0) {
    return Status::InvalidArgument(
        "ServiceConfig: death_probability_threshold must be in (0, 1]");
  }
  if (tracker.window_lengths.empty() || tracker.landmark_ages.empty()) {
    return Status::InvalidArgument(
        "ServiceConfig: tracker needs at least one window and landmark");
  }
  if (tracker.window_lengths.size() > stream::kMaxTrackerLayout ||
      tracker.landmark_ages.size() > stream::kMaxTrackerLayout) {
    return Status::InvalidArgument(
        "ServiceConfig: tracker has more windows or landmarks than "
        "stream::kMaxTrackerLayout");
  }
  // The rest of what stream::TrackerLayout checks when the service builds
  // its layout.
  for (const double w : tracker.window_lengths) {
    if (!(w > 0.0)) {
      return Status::InvalidArgument("ServiceConfig: window lengths must be positive");
    }
  }
  if (!(tracker.ewma_tau > 0.0) || !(tracker.epsilon >= stream::kMinEpsilon) ||
      tracker.epsilon > 1.0) {
    return Status::InvalidArgument(
        "ServiceConfig: tracker needs ewma_tau > 0 and epsilon in [1/1021, 1]");
  }
  if (extractor != nullptr) {
    const stream::TrackerConfig& other = extractor->tracker_config();
    if (other.window_lengths != tracker.window_lengths ||
        other.landmark_ages != tracker.landmark_ages ||
        other.ewma_tau != tracker.ewma_tau || other.epsilon != tracker.epsilon) {
      return Status::ConfigMismatch(
          "ServiceConfig: extractor was built for a different tracker "
          "window/landmark layout");
    }
  }
  return Status::Ok();
}

PredictionService::PredictionService(const core::HawkesPredictor* model,
                                     const features::FeatureExtractor* extractor,
                                     const ServiceConfig& config)
    : model_(model), extractor_(extractor), config_(config) {
  HORIZON_CHECK(model != nullptr && model->trained());
  HORIZON_CHECK(extractor != nullptr);
  const Status valid = config_.Validate(extractor);
  if (!valid.ok()) {
    std::fprintf(stderr, "rejected ServiceConfig: %s\n", valid.ToString().c_str());
  }
  HORIZON_CHECK(valid.ok());
  // The forests index features by position, so a model trained on
  // another schema is refused here rather than walked past its row.
  if (model->num_features() != extractor->schema().size()) {
    std::fprintf(stderr, "rejected model: it reads %zu features, the extractor writes %zu\n",
                 model->num_features(), extractor->schema().size());
  }
  HORIZON_CHECK_EQ(model->num_features(), extractor->schema().size());
  tracker_layout_ = std::make_shared<const stream::TrackerLayout>(config_.tracker);
  shards_.reserve(static_cast<size_t>(config_.num_shards));
  for (int i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }

  registry_ = config_.metrics != nullptr ? config_.metrics
                                         : &obs::MetricsRegistry::Global();
  m_items_registered_ = registry_->GetCounter("horizon_serving_items_registered_total");
  m_events_ingested_ = registry_->GetCounter("horizon_serving_events_ingested_total");
  m_queries_ = registry_->GetCounter("horizon_serving_queries_total");
  m_scan_results_ = registry_->GetCounter("horizon_serving_scan_results_total");
  m_items_retired_ = registry_->GetCounter("horizon_serving_items_retired_total");
  m_errors_[0] = nullptr;  // kOk is not an error
  for (int c = 1; c < kNumStatusCodes; ++c) {
    m_errors_[c] = registry_->GetCounter(
        "horizon_serving_errors_" +
        std::string(StatusCodeName(static_cast<StatusCode>(c))) + "_total");
  }
  m_live_items_ = registry_->GetGauge("horizon_serving_live_items");
  m_tracker_bytes_ = registry_->GetGauge("horizon_serving_tracker_bytes");
  m_item_index_bytes_ = registry_->GetGauge("horizon_serving_item_index_bytes");
  m_checkpoint_bytes_ = registry_->GetGauge("horizon_serving_checkpoint_bytes");
  m_ingest_commits_ =
      registry_->GetCounter("horizon_serving_ingest_commits_total");
  m_ingest_latency_ = registry_->GetHistogram("horizon_serving_ingest_latency_seconds");
  m_ingest_batch_latency_ =
      registry_->GetHistogram("horizon_serving_ingest_batch_latency_seconds");
  m_query_latency_ = registry_->GetHistogram("horizon_serving_query_latency_seconds");
  m_batch_query_latency_ =
      registry_->GetHistogram("horizon_serving_batch_query_latency_seconds");
  m_topk_latency_ = registry_->GetHistogram("horizon_serving_topk_latency_seconds");
  m_retire_latency_ = registry_->GetHistogram("horizon_serving_retire_latency_seconds");
  m_checkpoint_latency_ =
      registry_->GetHistogram("horizon_serving_checkpoint_latency_seconds");
  m_restore_latency_ =
      registry_->GetHistogram("horizon_serving_restore_latency_seconds");
  m_scan_skipped_after_s_ =
      registry_->GetCounter("horizon_serving_scan_items_with_events_after_s_total");
}

PredictionService::~PredictionService() = default;

Status PredictionService::CountError(Status status) const {
  const int code = static_cast<int>(status.code());
  if (code >= 1 && code < kNumStatusCodes) m_errors_[code]->Increment();
  return status;
}

size_t PredictionService::ShardIndex(uint64_t hash) const {
  return static_cast<size_t>(hash % shards_.size());
}

Status PredictionService::RegisterItem(int64_t item_id, double creation_time,
                                       const datagen::PageProfile& page,
                                       const datagen::PostProfile& post) {
  // A non-finite creation time would fail every later ordering check; one
  // past kMaxAbsTime could make an age feature overflow.
  if (!UsableTime(creation_time)) {
    return CountError(Status::InvalidArgument(
        "RegisterItem: |creation time| must be at most kMaxAbsTime"));
  }
  const uint64_t hash = MixId(item_id);
  Shard& shard = *shards_[ShardIndex(hash)];
  // The item and its static features are built here, outside the shard
  // lock.
  auto item = std::make_unique<Item>(
      Item{stream::CascadeTracker(creation_time, tracker_layout_),
           features::FeatureExtractor::ExtractStatic(page, post)});
  bool inserted = false;
  {
    MutexLock lock(shard.mu);
    inserted = shard.items.Insert(item_id, hash, std::move(item));
  }
  if (!inserted) {
    return CountError(Status::AlreadyExists("item id already registered"));
  }
  items_registered_.Increment();
  m_items_registered_->Increment();
  // order: relaxed; gauge source paired with LiveItems()'s relaxed
  // load; fetch_add only so concurrent registrations count exactly.
  m_live_items_->Set(
      static_cast<double>(live_items_.fetch_add(1, std::memory_order_relaxed) + 1));
  return Status::Ok();
}

bool PredictionService::HasItem(int64_t item_id) const {
  const uint64_t hash = MixId(item_id);
  const Shard& shard = *shards_[ShardIndex(hash)];
  MutexLock lock(shard.mu);
  return shard.items.Find(item_id, hash) != nullptr;
}

Status PredictionService::Ingest(int64_t item_id, stream::EngagementType type,
                                 double t) {
  // A non-finite time would trip the tracker's ordering checks, now or on
  // the item's next event; one past kMaxAbsTime could make an age
  // feature or the age sum overflow.
  if (!UsableTime(t)) {
    return CountError(Status::InvalidArgument(
        "Ingest: |event time| must be at most kMaxAbsTime"));
  }
  const obs::ScopedTimer timer(
      obs::SampleEvery(kIngestSampleRate, m_ingest_latency_));
  const uint64_t hash = MixId(item_id);
  Shard& shard = *shards_[ShardIndex(hash)];
  {
    MutexLock lock(shard.mu);
    Item* item = shard.items.Find(item_id, hash);
    if (item == nullptr) {
      return CountError(Status::NotFound("unknown item (dropped straggler?)"));
    }
    if (!item->tracker.Accepts(type, t)) {
      return CountError(Status::InvalidArgument(
          "Ingest: event before the item's creation time or its last event "
          "of this type"));
    }
    item->tracker.Observe(type, t);
  }
  events_ingested_.Increment();
  m_events_ingested_->Increment();
  return Status::Ok();
}

size_t PredictionService::IngestBatch(const std::vector<IngestEvent>& events) {
  const obs::ScopedTimer timer(m_ingest_batch_latency_);
  // Group event indices by shard (stable, so per-item order is kept),
  // then apply each shard's group under ONE lock acquisition, counted by
  // horizon_serving_ingest_commits_total.  Events Ingest would reject as
  // invalid arguments are dropped like unknown ids, but counted.
  std::vector<std::vector<uint32_t>> by_shard(shards_.size());
  std::vector<uint64_t> hashes(events.size());
  size_t invalid = 0;
  for (uint32_t i = 0; i < events.size(); ++i) {
    if (!UsableTime(events[i].time)) {
      ++invalid;
      continue;
    }
    hashes[i] = MixId(events[i].item_id);
    by_shard[ShardIndex(hashes[i])].push_back(i);
  }
  size_t applied = 0;
  size_t commits = 0;
  for (size_t sh = 0; sh < shards_.size(); ++sh) {
    if (by_shard[sh].empty()) continue;
    Shard& shard = *shards_[sh];
    MutexLock lock(shard.mu);
    for (const uint32_t i : by_shard[sh]) {
      const IngestEvent& e = events[i];
      Item* item = shard.items.Find(e.item_id, hashes[i]);
      if (item == nullptr) continue;  // straggler drop
      if (!item->tracker.Accepts(e.type, e.time)) {
        ++invalid;
        continue;
      }
      item->tracker.Observe(e.type, e.time);
      ++applied;
    }
    ++commits;
  }
  events_ingested_.Add(applied);
  m_events_ingested_->Add(applied);
  m_ingest_commits_->Add(commits);
  if (invalid > 0) {
    m_errors_[static_cast<int>(StatusCode::kInvalidArgument)]->Add(invalid);
  }
  return applied;
}

// ---------------------------------------------------------------------------
// Query surface

void PredictionService::AnswerIds(std::span<const int64_t> ids, double s,
                                  double delta, Status* statuses,
                                  PredictionResult* results) const {
  HORIZON_DCHECK(ids.size() <= kChunkRows);
  Scratch& scratch = ThreadScratch();
  scratch.resolved.clear();
  for (size_t i = 0; i < ids.size(); ++i) {
    const uint64_t hash = MixId(ids[i]);
    const Shard& shard = *shards_[ShardIndex(hash)];
    MutexLock lock(shard.mu);
    const Item* item = shard.items.Find(ids[i], hash);
    if (item == nullptr) {
      statuses[i] = CountError(Status::NotFound("unknown item"));
    } else if (s < item->tracker.creation_time()) {
      statuses[i] = CountError(Status::NotYetLive("item goes live after s"));
    } else {
      statuses[i] = Status::Ok();
      scratch.resolved.emplace_back(*item, s);
    }
  }
  if (scratch.resolved.empty()) return;
  ExtractAndScore(*extractor_, *model_, delta, &scratch);
  for (size_t i = 0, r = 0; i < ids.size(); ++i) {
    if (!statuses[i].ok()) continue;
    const double observed =
        static_cast<double>(scratch.resolved[r].snapshot.views().total);
    results[i] = {observed, observed + scratch.increments[r], scratch.alphas[r]};
    ++r;
  }
}

void PredictionService::CountAnswered(size_t n) const {
  queries_answered_.Add(n);
  m_queries_->Add(n);
}

StatusOr<QueryResponse> PredictionService::QueryByIds(
    const QueryRequest& request) const {
  const std::span<const int64_t> ids(request.ids);
  QueryResponse response;
  response.results.reserve(ids.size());
  // One chunk of ids at a time, so a request of any size holds one
  // chunk's working storage besides its answer.
  std::array<Status, kChunkRows> statuses;
  std::array<PredictionResult, kChunkRows> predictions;
  for (size_t begin = 0; begin < ids.size(); begin += kChunkRows) {
    const std::span<const int64_t> chunk =
        ids.subspan(begin, std::min(kChunkRows, ids.size() - begin));
    AnswerIds(chunk, request.s, request.delta, statuses.data(), predictions.data());
    for (size_t i = 0; i < chunk.size(); ++i) {
      if (statuses[i].ok()) {
        response.results.push_back({chunk[i], predictions[i]});
      } else {
        response.errors.push_back({chunk[i], std::move(statuses[i])});
      }
    }
  }
  if (request.top_k > 0) {
    const size_t take = std::min(request.top_k, response.results.size());
    std::partial_sort(response.results.begin(),
                      response.results.begin() + static_cast<ptrdiff_t>(take),
                      response.results.end(), RanksAbove);
    response.results.resize(take);
  }
  CountAnswered(response.results.size());
  return response;
}

std::vector<PredictionService::ScanCandidate> PredictionService::ShardScanTopK(
    const Shard& shard, double s, double delta, size_t k) const {
  const std::vector<int64_t> ids = shard.Ids();
  Scratch& scratch = ThreadScratch();
  std::array<int64_t, kChunkRows> row_ids;
  // A heap of the best k so far, the lowest-ranked on top.
  std::vector<ScanCandidate> top;
  top.reserve(std::min(k, ids.size()));
  size_t after_s = 0;
  for (size_t begin = 0; begin < ids.size(); begin += kChunkRows) {
    const size_t end = std::min(ids.size(), begin + kChunkRows);
    scratch.resolved.clear();
    {
      MutexLock lock(shard.mu);
      for (size_t i = begin; i < end; ++i) {
        const Item* item = shard.items.Find(ids[i], MixId(ids[i]));
        // Retired since the listing, or not yet live.
        if (item == nullptr || s < item->tracker.creation_time()) continue;
        if (item->tracker.HasEventAfter(s)) {
          ++after_s;
          continue;
        }
        row_ids[scratch.resolved.size()] = ids[i];
        scratch.resolved.emplace_back(*item, s);
      }
    }
    if (scratch.resolved.empty()) continue;
    ExtractAndScore(*extractor_, *model_, delta, &scratch);
    for (size_t r = 0; r < scratch.resolved.size(); ++r) {
      const double observed =
          static_cast<double>(scratch.resolved[r].snapshot.views().total);
      const ScanCandidate c{row_ids[r], observed, scratch.increments[r],
                            scratch.alphas[r]};
      if (top.size() < k) {
        top.push_back(c);
        std::push_heap(top.begin(), top.end(), ScanCandidate::RanksAbove);
      } else if (ScanCandidate::RanksAbove(c, top.front())) {
        std::pop_heap(top.begin(), top.end(), ScanCandidate::RanksAbove);
        top.back() = c;
        std::push_heap(top.begin(), top.end(), ScanCandidate::RanksAbove);
      }
    }
  }
  if (after_s > 0) m_scan_skipped_after_s_->Add(after_s);
  std::sort_heap(top.begin(), top.end(), ScanCandidate::RanksAbove);
  return top;
}

StatusOr<QueryResponse> PredictionService::QueryScan(
    const QueryRequest& request) const {
  const obs::ScopedTimer timer(m_topk_latency_);
  const size_t k = request.top_k;
  std::vector<std::vector<ScanCandidate>> per_shard(shards_.size());
  ParallelFor(shards_.size(), 1, [&](size_t begin, size_t end) {
    for (size_t sh = begin; sh < end; ++sh) {
      per_shard[sh] = ShardScanTopK(*shards_[sh], request.s, request.delta, k);
    }
  });
  std::vector<ScanCandidate> merged;
  for (auto& partial : per_shard) {
    std::move(partial.begin(), partial.end(), std::back_inserter(merged));
  }
  const size_t take = std::min(k, merged.size());
  std::partial_sort(merged.begin(), merged.begin() + static_cast<ptrdiff_t>(take),
                    merged.end(), ScanCandidate::RanksAbove);
  merged.resize(take);

  QueryResponse response;
  response.results.reserve(merged.size());
  for (const ScanCandidate& c : merged) {
    response.results.push_back(
        {c.id, PredictionResult{c.observed, c.observed + c.increment, c.alpha}});
  }
  // Scan answers are deliberately NOT counted into queries_answered; they
  // have their own counter.
  m_scan_results_->Add(response.results.size());
  return response;
}

StatusOr<QueryResponse> PredictionService::BatchQuery(
    const QueryRequest& request) const {
  const auto start = SteadyClock::now();
  HORIZON_RETURN_IF_ERROR(CountError(CheckQueryTimes(request.s, request.delta)));
  if (request.ids.empty() && request.top_k == 0) {
    return CountError(Status::InvalidArgument(
        "QueryRequest: empty ids (scan mode) requires top_k > 0"));
  }
  StatusOr<QueryResponse> response =
      request.ids.empty() ? QueryScan(request) : QueryByIds(request);
  if (response.ok()) {
    const uint64_t ns = ElapsedNs(start);
    response->latency_ns = ns;
    m_batch_query_latency_->Observe(static_cast<double>(ns) * 1e-9);
  }
  return response;
}

StatusOr<PredictionResult> PredictionService::Query(int64_t item_id, double s,
                                                    double delta) const {
  const obs::ScopedTimer timer(m_query_latency_);
  HORIZON_RETURN_IF_ERROR(CountError(CheckQueryTimes(s, delta)));
  Status status;
  PredictionResult result;
  AnswerIds({&item_id, 1}, s, delta, &status, &result);
  if (!status.ok()) return status;
  CountAnswered(1);
  return result;
}

size_t PredictionService::RetireDeadItems(double now) {
  if (!UsableTime(now)) {
    // Counted; retires nothing.
    (void)CountError(Status::InvalidArgument(
        "RetireDeadItems: |now| must be at most kMaxAbsTime"));
    return 0;
  }
  const obs::ScopedTimer timer(m_retire_latency_);
  std::atomic<size_t> retired_total{0};
  // The sweep visits every item under its shard lock anyway, so it is
  // what refreshes the tracker-bytes and item-index-bytes gauges; ingest
  // and query pay nothing.
  std::atomic<size_t> tracker_bytes{0};
  std::atomic<size_t> index_bytes{0};
  ParallelFor(shards_.size(), 1, [&](size_t begin, size_t end) {
    std::vector<float> row(extractor_->schema().size());
    const auto dead = [&](const Item& item) {
      if (now < item.tracker.creation_time()) {
        return false;  // not yet live; nothing to retire
      }
      // An event after `now` makes the item neither idle nor dead, and
      // nothing is extracted for it.
      if (item.tracker.HasEventAfter(now)) return false;
      const auto snapshot = item.tracker.Snapshot(now);
      const auto& views = snapshot.views();
      if (views.last_event_age >= 0.0) {
        const double idle = snapshot.age - views.last_event_age;
        if (idle >= config_.idle_retirement_age) return true;
      } else if (snapshot.age >= config_.idle_retirement_age) {
        return true;  // never received a single view
      }
      if (views.ewma_rate > 0.0) {
        // Eager retirement: with the EWMA rate as the lambda(now) proxy
        // and the model's alpha as the decay scale, the probability that
        // the cascade produces no further views (Appendix A.14, u = 0
        // transform) reaches the threshold.
        extractor_->ExtractIntoStrided(item.statics, snapshot, row.data(), 1);
        const double alpha = model_->PredictAlpha(row.data());
        const double p_dead = pp::ProbabilityNoNewEvents(
            views.ewma_rate, std::numeric_limits<double>::infinity(), alpha);
        if (p_dead >= config_.death_probability_threshold) return true;
      }
      return false;
    };
    for (size_t sh = begin; sh < end; ++sh) {
      Shard& shard = *shards_[sh];
      MutexLock lock(shard.mu);
      size_t bytes = 0;
      const size_t retired = shard.items.EraseIf([&](int64_t, const Item& item) {
        if (dead(item)) return true;
        bytes += item.tracker.MemoryBytes();
        return false;
      });
      // order: relaxed; per-task tally folded after the ParallelFor
      // barrier, which supplies the happens-before edge.
      retired_total.fetch_add(retired, std::memory_order_relaxed);
      // order: relaxed; see above.
      tracker_bytes.fetch_add(bytes, std::memory_order_relaxed);
      // order: relaxed; see above.
      index_bytes.fetch_add(shard.items.SlotBytes(), std::memory_order_relaxed);
    }
  });
  // order: relaxed; read after the ParallelFor join (drain_mu handoff
  // orders it).
  const size_t retired = retired_total.load(std::memory_order_relaxed);
  // order: relaxed; same post-join read as `retired` above.
  m_tracker_bytes_->Set(static_cast<double>(tracker_bytes.load(std::memory_order_relaxed)));
  // order: relaxed; same post-join read as `retired` above.
  m_item_index_bytes_->Set(static_cast<double>(index_bytes.load(std::memory_order_relaxed)));
  items_retired_.Add(retired);
  m_items_retired_->Add(retired);
  // order: relaxed; gauge source paired with LiveItems()'s relaxed
  // load; fetch_sub only so concurrent sweeps count exactly.
  m_live_items_->Set(static_cast<double>(
      live_items_.fetch_sub(retired, std::memory_order_relaxed) - retired));
  return retired;
}

// ---------------------------------------------------------------------------
// Checkpoint / Restore

namespace {

std::string CheckpointDirName(uint64_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt-%09llu",
                static_cast<unsigned long long>(epoch));
  return buf;
}

std::string ShardFileName(size_t shard) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%04zu", shard);
  return buf;
}

std::optional<uint64_t> ParseCheckpointEpoch(const std::string& name) {
  if (name.rfind("ckpt-", 0) != 0 || name.size() <= 5) return std::nullopt;
  uint64_t epoch = 0;
  for (size_t i = 5; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    epoch = epoch * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return epoch;
}

std::string Trim(const std::string& text) {
  size_t b = 0, e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

/// Appends a space and `value`: an integer in decimal, a double at 17
/// significant digits, a list of doubles as its length and its elements.
template <typename T>
void AppendValue(std::string* out, const T& value) {
  out->push_back(' ');
  if constexpr (std::is_floating_point_v<T>) {
    text::AppendDouble(out, value);
  } else if constexpr (std::is_integral_v<T>) {
    text::AppendInt(out, value);
  } else {
    text::AppendInt(out, value.size());
    for (const double element : value) AppendValue(out, element);
  }
}

/// Appends one manifest line: `key`, then `values`, space-separated.
template <typename... T>
void AppendLine(std::string* out, std::string_view key, const T&... values) {
  out->append(key);
  (AppendValue(out, values), ...);
  out->push_back('\n');
}

// A shard file's static-feature record is one line: the kNumStaticFloats
// floats to float precision, so they read back bit for bit, then the
// media type's and the page category's one-hot indices.
constexpr int kStaticDigits = std::numeric_limits<float>::max_digits10;
// A static float at its widest ("-1.17549435e-38"), and a one-hot index
// ("255"), each with the byte after it.
constexpr size_t kStaticFloatBytes = 16, kStaticIndexBytes = 4;

void AppendStatics(std::string* out, const features::StaticFeatures& statics) {
  for (const float value : statics.floats) {
    text::AppendDouble(out, value, kStaticDigits);
    out->push_back(' ');
  }
  text::AppendInt(out, statics.media);
  out->push_back(' ');
  text::AppendInt(out, statics.category);
  out->push_back('\n');
}

/// Whether `hot` is an index of a one-hot group of `size` features, or
/// kNoneHot (the group is all 0).
bool ValidHot(uint8_t hot, size_t size) {
  return hot < size || hot == features::StaticFeatures::kNoneHot;
}

/// Reads the line AppendStatics wrote: false unless it holds exactly
/// kNumStaticFloats floats and two valid one-hot indices.
bool ReadStatics(text::Reader* in, features::StaticFeatures* statics) {
  std::string_view line, extra;
  if (!in->ReadLine(&line)) return false;
  text::Reader fields(line);
  for (float& value : statics->floats) {
    if (!fields.Read(&value)) return false;
  }
  return fields.Read(&statics->media, &statics->category) &&
         ValidHot(statics->media, datagen::kNumMediaTypes) &&
         ValidHot(statics->category, datagen::kNumPageCategories) &&
         !fields.ReadWord(&extra);
}

/// Appends the `shard v4` records of `items` to `out`: per item its id,
/// its static features, and its tracker blob after the blob's byte count,
/// in room reserved before the first.
void AppendRecords(const std::vector<std::pair<int64_t, Item>>& items,
                   std::string* out) {
  // Each id and each blob's byte count: an integer of at most 20 digits
  // and its newline.
  constexpr size_t kInt = 21;
  size_t bound = out->size();
  for (const auto& [id, item] : items) {
    bound += 2 * kInt + kStaticFloatBytes * features::kNumStaticFloats +
             2 * kStaticIndexBytes + item.tracker.SerializedBytesBound();
  }
  out->reserve(bound);
  for (const auto& [id, item] : items) {
    text::AppendInt(out, id);
    out->push_back('\n');
    AppendStatics(out, item.statics);
    // The byte count goes before the blob, so it is inserted once the
    // blob is written; the reservation leaves room for it.
    const size_t blob_at = out->size();
    item.tracker.SerializeTo(out);
    char count[kInt];
    char* end = std::to_chars(count, count + kInt - 1, out->size() - blob_at).ptr;
    *end++ = '\n';
    out->insert(blob_at, count, static_cast<size_t>(end - count));
  }
}

}  // namespace

Status PredictionService::Shard::WriteCheckpoint(const std::string& path,
                                                 ShardFile* file) const {
  // A header line, then the records, a chunk of items at a time: copied
  // under the lock, serialized outside it into one buffer, and streamed
  // to the file.  The item count, known once the last chunk is copied,
  // goes into the manifest.
  const std::vector<int64_t> ids = Ids();
  io::FramedFileWriter writer(path);
  HORIZON_RETURN_IF_ERROR(writer.Append("shard v4\n"));
  std::vector<std::pair<int64_t, Item>> chunk;
  chunk.reserve(kCheckpointChunkItems);
  std::string buffer;
  uint64_t written = 0;
  for (size_t begin = 0; begin < ids.size(); begin += kCheckpointChunkItems) {
    const size_t end = std::min(ids.size(), begin + kCheckpointChunkItems);
    chunk.clear();
    {
      MutexLock lock(mu);
      for (size_t i = begin; i < end; ++i) {
        // An id retired since the listing is skipped.
        if (const Item* item = items.Find(ids[i], MixId(ids[i]))) {
          chunk.emplace_back(ids[i], *item);
        }
      }
    }
    buffer.clear();
    AppendRecords(chunk, &buffer);
    HORIZON_RETURN_IF_ERROR(writer.Append(buffer));
    written += chunk.size();
  }
  HORIZON_RETURN_IF_ERROR(writer.Commit());
  *file = {writer.payload_crc(), writer.file_bytes(), written};
  return Status::Ok();
}

Status PredictionService::Checkpoint(const std::string& dir) const {
  const obs::ScopedTimer latency(m_checkpoint_latency_);
  HORIZON_RETURN_IF_ERROR(io::EnsureDir(dir));
  uint64_t epoch = 1;
  if (const auto current = io::ReadFile(dir + "/CURRENT"); current.ok()) {
    if (const auto prev = ParseCheckpointEpoch(Trim(*current))) epoch = *prev + 1;
  }
  const std::string name = CheckpointDirName(epoch);
  const std::string ckpt = dir + "/" + name;
  HORIZON_RETURN_IF_ERROR(io::EnsureDir(ckpt));

  // One coherent counter snapshot up front; events ingested while the
  // shards are being copied belong to the next checkpoint.
  const ServiceStats counters = stats();

  // Each shard's items are copied a chunk at a time under its lock, then
  // serialized and written outside it, so ingest/query never stall behind
  // disk IO.  Shards proceed in parallel.
  const size_t num_shards = shards_.size();
  std::vector<ShardFile> shard_files(num_shards);
  Mutex error_mu;
  Status shard_error;  // first failure wins
  ParallelFor(num_shards, 1, [&](size_t begin, size_t end) {
    for (size_t sh = begin; sh < end; ++sh) {
      const Status wrote =
          shards_[sh]->WriteCheckpoint(ckpt + "/" + ShardFileName(sh), &shard_files[sh]);
      if (!wrote.ok()) {
        MutexLock lock(error_mu);
        if (shard_error.ok()) shard_error = wrote;
      }
    }
  });
  HORIZON_RETURN_IF_ERROR(shard_error);

  std::string manifest = "manifest v2\n";
  AppendLine(&manifest, "epoch", epoch);
  const core::ModelDigest& model = model_->digest();
  AppendLine(&manifest, "model", model.crc, model.size);
  const stream::TrackerConfig& tracker = config_.tracker;
  AppendLine(&manifest, "windows", tracker.window_lengths);
  AppendLine(&manifest, "landmarks", tracker.landmark_ages);
  AppendLine(&manifest, "ewma_tau", tracker.ewma_tau);
  AppendLine(&manifest, "epsilon", tracker.epsilon);
  AppendLine(&manifest, "counters", counters.items_registered, counters.events_ingested,
             counters.queries_answered, counters.items_retired);
  AppendLine(&manifest, "shards", num_shards);
  uint64_t checkpoint_bytes = 0;
  for (size_t sh = 0; sh < num_shards; ++sh) {
    const ShardFile& file = shard_files[sh];
    AppendLine(&manifest, ShardFileName(sh), file.crc, file.bytes, file.items);
    checkpoint_bytes += file.bytes;
  }
  const std::string manifest_file = io::WrapCrcFrame(manifest);
  HORIZON_RETURN_IF_ERROR(io::WriteFileAtomic(ckpt + "/MANIFEST", manifest_file));
  // Commit point: once CURRENT names the new directory, the checkpoint is
  // the one Restore will load.
  HORIZON_RETURN_IF_ERROR(io::WriteFileAtomic(dir + "/CURRENT", name + "\n"));
  m_checkpoint_bytes_->Set(static_cast<double>(checkpoint_bytes + manifest_file.size()));

  // GC: drop checkpoints older than the committed one's predecessor
  // (including partial directories left by crashed attempts).
  for (const std::string& entry : io::ListDir(dir)) {
    if (const auto e = ParseCheckpointEpoch(entry)) {
      if (*e + 1 < epoch) io::RemoveTree(dir + "/" + entry);
    }
  }
  return Status::Ok();
}

Status PredictionService::Restore(const std::string& dir) {
  const obs::ScopedTimer latency(m_restore_latency_);
  const auto current = io::ReadFile(dir + "/CURRENT");
  if (!current.ok()) {
    if (current.code() == StatusCode::kNotFound) {
      return CountError(
          Status::NotFound("no committed checkpoint under " + dir));
    }
    return CountError(current.status());
  }
  const std::string name = Trim(*current);
  const std::optional<uint64_t> dir_epoch = ParseCheckpointEpoch(name);
  if (!dir_epoch.has_value()) {
    return CountError(Status::Corruption("CURRENT names no valid checkpoint"));
  }
  const std::string ckpt = dir + "/" + name;

  const auto manifest_file = io::ReadFile(ckpt + "/MANIFEST");
  if (!manifest_file.ok()) {
    return CountError(Status::Corruption(
        "checkpoint manifest unreadable: " + manifest_file.status().ToString()));
  }
  const auto manifest = io::UnwrapCrcFrame(*manifest_file);
  if (!manifest.ok()) return CountError(manifest.status());

  text::Reader fields(*manifest);
  std::string_view magic, version, key;
  uint64_t epoch = 0;
  uint32_t model_crc = 0;
  uint64_t model_size = 0;
  if (!fields.ReadWord(&magic) || !fields.ReadWord(&version) || magic != "manifest" ||
      version != "v2") {
    return CountError(Status::Corruption("manifest: bad magic/version"));
  }
  if (!fields.ReadWord(&key) || key != "epoch" || !fields.Read(&epoch)) {
    return CountError(Status::Corruption("manifest: missing epoch"));
  }
  // Checkpoint writes each manifest into the directory named after its
  // epoch.
  if (epoch != *dir_epoch) {
    return CountError(
        Status::Corruption("manifest: epoch differs from its directory's"));
  }
  if (!fields.ReadWord(&key) || key != "model" || !fields.Read(&model_crc, &model_size)) {
    return CountError(Status::Corruption("manifest: missing model digest"));
  }

  // The restored trackers only make sense if this service interprets their
  // state with the same window/landmark layout and EWMA constants.  A key
  // missing or cut short is kCorruption; a value other than the service's,
  // or a list of another length, is kConfigMismatch.
  const auto read_list = [&](std::string_view name, const std::vector<double>& want,
                             const std::string& layout) {
    size_t n = 0;
    if (!fields.ReadWord(&key) || key != name || !fields.Read(&n)) {
      return Status::Corruption("manifest: missing " + std::string(name));
    }
    const Status differs =
        Status::ConfigMismatch("checkpoint uses a different " + layout);
    if (n != want.size()) return differs;
    for (const double expected : want) {
      double value = 0.0;
      if (!fields.Read(&value)) {
        return Status::Corruption("manifest: truncated " + std::string(name));
      }
      if (value != expected) return differs;
    }
    return Status::Ok();
  };
  const auto read_scalar = [&](std::string_view name, double want) {
    double value = 0.0;
    if (!fields.ReadWord(&key) || key != name || !fields.Read(&value)) {
      return Status::Corruption("manifest: missing " + std::string(name));
    }
    if (value != want) {
      return Status::ConfigMismatch("checkpoint uses a different " + std::string(name));
    }
    return Status::Ok();
  };
  const stream::TrackerConfig& tracker = config_.tracker;
  Status layout = read_list("windows", tracker.window_lengths, "window layout");
  if (layout.ok()) {
    layout = read_list("landmarks", tracker.landmark_ages, "landmark layout");
  }
  if (layout.ok()) layout = read_scalar("ewma_tau", tracker.ewma_tau);
  if (layout.ok()) layout = read_scalar("epsilon", tracker.epsilon);
  if (!layout.ok()) return CountError(layout);
  ServiceStats counters;
  if (!fields.ReadWord(&key) || key != "counters" ||
      !fields.Read(&counters.items_registered, &counters.events_ingested,
               &counters.queries_answered, &counters.items_retired)) {
    return CountError(Status::Corruption("manifest: missing counters"));
  }
  size_t num_shard_files = 0;
  if (!fields.ReadWord(&key) || key != "shards" || !fields.Read(&num_shard_files) ||
      num_shard_files > 1u << 20) {
    return CountError(Status::Corruption("manifest: bad shard table"));
  }

  // Bit-identical predictions require the identical model.
  if (model_crc != model_->digest().crc || model_size != model_->digest().size) {
    return CountError(Status::ConfigMismatch(
        "checkpoint was written by a different model (serialization digest "
        "mismatch)"));
  }

  // Stage every item first, into one index per live shard; the live
  // service is only touched once the whole checkpoint has been read and
  // verified.  Items re-shard by id hash, so a restored service may even
  // use a different shard count than the writer.
  std::vector<ItemIndex<Item>> staged(shards_.size());
  size_t staged_items = 0;
  for (size_t f = 0; f < num_shard_files; ++f) {
    std::string_view file;
    uint32_t crc = 0;
    uint64_t bytes = 0, items = 0;
    if (!fields.ReadWord(&file) || !fields.Read(&crc, &bytes, &items)) {
      return CountError(Status::Corruption("manifest: truncated shard table"));
    }
    if (file.find('/') != std::string_view::npos) {
      return CountError(Status::Corruption("manifest: shard name escapes dir"));
    }
    const std::string name(file);
    const auto raw = io::ReadFile(ckpt + "/" + name);
    if (!raw.ok() || raw->size() != bytes) {
      return CountError(
          Status::Corruption("shard file " + name + " missing or damaged"));
    }
    // The frame's CRC, which checking the frame verifies, is the one the
    // manifest lists for the file.
    uint32_t payload_crc = 0;
    const auto payload = io::UnwrapCrcFrame(*raw, &payload_crc);
    if (!payload.ok()) return CountError(payload.status());
    if (payload_crc != crc) {
      return CountError(Status::Corruption("shard file " + name +
                                           " is not the file the manifest lists"));
    }
    // The items are parsed in place, from the bytes `raw` holds: exactly
    // the manifest's count of records, then nothing.
    text::Reader in(*payload);
    std::string_view smagic, sversion, extra;
    if (!in.ReadWord(&smagic) || !in.ReadWord(&sversion) || smagic != "shard" ||
        sversion != "v4") {
      return CountError(Status::Corruption("shard file: bad magic/version"));
    }
    for (uint64_t i = 0; i < items; ++i) {
      int64_t id = 0;
      if (!in.Read(&id)) {
        return CountError(Status::Corruption("shard file: truncated item id"));
      }
      features::StaticFeatures statics;
      if (!ReadStatics(&in, &statics)) {
        return CountError(Status::Corruption("shard file: bad static features"));
      }
      size_t blob_size = 0;
      if (!in.Read(&blob_size) || blob_size > 1u << 24) {
        return CountError(Status::Corruption("shard file: bad tracker size"));
      }
      // The byte after the size is its newline; the blob follows it.
      std::string_view blob;
      if (!in.Take(blob_size + 1, &blob)) {
        return CountError(Status::Corruption("shard file: truncated tracker"));
      }
      blob.remove_prefix(1);
      auto item = std::make_unique<Item>(
          Item{stream::CascadeTracker(0.0, tracker_layout_), statics});
      // RegisterItem and Ingest refuse times past kMaxAbsTime, past which
      // an age feature can overflow; so does Restore.
      if (!item->tracker.Deserialize(blob) ||
          !UsableTime(item->tracker.creation_time()) ||
          item->tracker.HasEventAfter(kMaxAbsTime)) {
        return CountError(Status::Corruption("shard file: bad tracker state"));
      }
      // Shard files written by Checkpoint list each id once; one listed
      // twice would restore one record over the other.
      const uint64_t hash = MixId(id);
      if (!staged[ShardIndex(hash)].Insert(id, hash, std::move(item))) {
        return CountError(Status::Corruption("shard file: item id listed twice"));
      }
      ++staged_items;
    }
    if (in.ReadWord(&extra)) {
      return CountError(Status::Corruption("shard file: bytes after the last record"));
    }
  }

  // Swap the staged indexes in; the replaced items are freed after the
  // locks are released, with `staged`.
  for (size_t sh = 0; sh < shards_.size(); ++sh) {
    MutexLock lock(shards_[sh]->mu);
    std::swap(shards_[sh]->items, staged[sh]);
  }
  // order: relaxed; Restore runs before the service takes traffic --
  // publication to other threads happens when the caller hands the
  // service over, and LiveItems() reads are relaxed-paired.
  live_items_.store(staged_items, std::memory_order_relaxed);
  m_live_items_->Set(static_cast<double>(staged_items));
  const std::pair<obs::Counter*, uint64_t> restored[] = {
      {&items_registered_, counters.items_registered},
      {&events_ingested_, counters.events_ingested},
      {&queries_answered_, counters.queries_answered},
      {&items_retired_, counters.items_retired}};
  for (const auto& [counter, value] : restored) {
    counter->Reset();
    counter->Add(value);
  }
  return Status::Ok();
}

ServiceStats PredictionService::stats() const {
  // Each field sums its counter's slots: fields may be mutually
  // inconsistent by a few events while calls are in flight; the DST
  // reads them at quiescent points.
  ServiceStats out;
  out.items_registered = items_registered_.Value();
  out.events_ingested = events_ingested_.Value();
  out.queries_answered = queries_answered_.Value();
  out.items_retired = items_retired_.Value();
  return out;
}

}  // namespace horizon::serving
