#include "serving/prediction_service.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>

#include "common/annotations.h"
#include "common/check.h"
#include "common/file_io.h"
#include "common/thread_pool.h"
#include "pointprocess/transform.h"

namespace horizon::serving {

namespace {

/// One live content item: the O(1)-state tracker plus the static
/// profiles feature extraction needs.
struct Item {
  stream::CascadeTracker tracker;
  datagen::PageProfile page;
  datagen::PostProfile post;
};

/// SplitMix64 finalizer: item ids are often sequential, so mix before
/// taking the shard residue to spread neighbors across shards.
uint64_t MixId(int64_t id) {
  uint64_t z = static_cast<uint64_t>(id) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

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

double PredictedIncrement(const ItemPrediction& p) {
  return p.prediction.predicted_views - p.prediction.observed_views;
}

}  // namespace

struct PredictionService::Shard {
  mutable Mutex mu;
  std::unordered_map<int64_t, Item> items HORIZON_GUARDED_BY(mu);
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
  HORIZON_CHECK(model != nullptr);
  HORIZON_CHECK(extractor != nullptr);
  HORIZON_CHECK(model->trained());
  const Status valid = config_.Validate(extractor);
  if (!valid.ok()) {
    std::fprintf(stderr, "rejected ServiceConfig: %s\n", valid.ToString().c_str());
  }
  HORIZON_CHECK(valid.ok());
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
  for (int c = 1; c <= 9; ++c) {
    m_errors_[c] = registry_->GetCounter(
        "horizon_serving_errors_" +
        std::string(StatusCodeName(static_cast<StatusCode>(c))) + "_total");
  }
  m_live_items_ = registry_->GetGauge("horizon_serving_live_items");
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
}

PredictionService::~PredictionService() = default;

Status PredictionService::CountError(Status status) const {
  const int code = static_cast<int>(status.code());
  if (code >= 1 && code <= 9) m_errors_[code]->Increment();
  return status;
}

size_t PredictionService::ShardOf(int64_t item_id) const {
  return static_cast<size_t>(MixId(item_id) % shards_.size());
}

Status PredictionService::RegisterItem(int64_t item_id, double creation_time,
                                       const datagen::PageProfile& page,
                                       const datagen::PostProfile& post) {
  // A non-finite creation time would fail every later ordering check.
  if (!std::isfinite(creation_time)) {
    return CountError(
        Status::InvalidArgument("RegisterItem: creation time must be finite"));
  }
  Shard& shard = *shards_[ShardOf(item_id)];
  Item item{stream::CascadeTracker(creation_time, config_.tracker), page, post};
  bool inserted = false;
  {
    MutexLock lock(shard.mu);
    inserted = shard.items.try_emplace(item_id, std::move(item)).second;
  }
  if (!inserted) {
    return CountError(Status::AlreadyExists("item id already registered"));
  }
  // order: relaxed; statistics counter paired with the relaxed load in
  // stats() -- no payload.
  items_registered_.fetch_add(1, std::memory_order_relaxed);
  m_items_registered_->Increment();
  // order: relaxed; gauge source paired with LiveItems()'s relaxed
  // load; fetch_add only so concurrent registrations count exactly.
  m_live_items_->Set(
      static_cast<double>(live_items_.fetch_add(1, std::memory_order_relaxed) + 1));
  return Status::Ok();
}

bool PredictionService::HasItem(int64_t item_id) const {
  const Shard& shard = *shards_[ShardOf(item_id)];
  MutexLock lock(shard.mu);
  return shard.items.count(item_id) > 0;
}

Status PredictionService::Ingest(int64_t item_id, stream::EngagementType type,
                                 double t) {
  // A non-finite time would trip the tracker's ordering checks, now or on
  // the item's next event.
  if (!std::isfinite(t)) {
    return CountError(Status::InvalidArgument("Ingest: event time must be finite"));
  }
  const obs::ScopedTimer timer(
      obs::SampleEvery(kIngestSampleRate, m_ingest_latency_));
  Shard& shard = *shards_[ShardOf(item_id)];
  {
    MutexLock lock(shard.mu);
    const auto it = shard.items.find(item_id);
    if (it == shard.items.end()) {
      return CountError(Status::NotFound("unknown item (dropped straggler?)"));
    }
    stream::CascadeTracker& tracker = it->second.tracker;
    if (!tracker.Accepts(type, t)) {
      return CountError(Status::InvalidArgument(
          "Ingest: event before the item's creation time or its last event "
          "of this type"));
    }
    tracker.Observe(type, t);
  }
  // order: relaxed; statistics counter paired with the relaxed load in
  // stats().
  events_ingested_.fetch_add(1, std::memory_order_relaxed);
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
  size_t non_finite = 0;
  for (uint32_t i = 0; i < events.size(); ++i) {
    if (!std::isfinite(events[i].time)) {
      ++non_finite;
      continue;
    }
    by_shard[ShardOf(events[i].item_id)].push_back(i);
  }
  std::atomic<size_t> ingested{0};
  std::atomic<size_t> out_of_order{0};
  std::atomic<size_t> commits{0};
  ParallelFor(shards_.size(), 1, [&](size_t begin, size_t end) {
    for (size_t sh = begin; sh < end; ++sh) {
      if (by_shard[sh].empty()) continue;
      Shard& shard = *shards_[sh];
      size_t applied = 0;
      size_t rejected = 0;
      {
        MutexLock lock(shard.mu);
        for (const uint32_t i : by_shard[sh]) {
          const IngestEvent& e = events[i];
          const auto it = shard.items.find(e.item_id);
          if (it == shard.items.end()) continue;  // straggler drop
          stream::CascadeTracker& tracker = it->second.tracker;
          if (!tracker.Accepts(e.type, e.time)) {
            ++rejected;
            continue;
          }
          tracker.Observe(e.type, e.time);
          ++applied;
        }
      }
      // order: relaxed (all three); per-task tallies folded after the
      // ParallelFor barrier, which supplies the happens-before edge.
      ingested.fetch_add(applied, std::memory_order_relaxed);
      // order: relaxed; see above.
      out_of_order.fetch_add(rejected, std::memory_order_relaxed);
      // order: relaxed; see above.
      commits.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // order: relaxed; reads after the ParallelFor join (drain_mu handoff
  // orders them); the atomics only arbitrate concurrent adds above.
  const size_t total = ingested.load(std::memory_order_relaxed);
  // order: relaxed; statistics counter paired with stats().
  events_ingested_.fetch_add(total, std::memory_order_relaxed);
  m_events_ingested_->Add(total);
  // order: relaxed; same post-join read as `total` above.
  m_ingest_commits_->Add(commits.load(std::memory_order_relaxed));
  // order: relaxed; same post-join read as `total` above.
  const size_t invalid = non_finite + out_of_order.load(std::memory_order_relaxed);
  if (invalid > 0) {
    m_errors_[static_cast<int>(StatusCode::kInvalidArgument)]->Add(invalid);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Query surface

StatusOr<QueryResponse> PredictionService::QueryByIds(
    const QueryRequest& request) const {
  struct Resolved {
    int64_t id;
    stream::TrackerSnapshot snapshot;
    datagen::PageProfile page;
    datagen::PostProfile post;
  };
  QueryResponse response;
  std::vector<Resolved> resolved;
  resolved.reserve(request.ids.size());
  const auto resolve = [&](int64_t id, const Item* item) {
    if (item == nullptr) {
      response.errors.push_back(
          {id, CountError(Status::NotFound("unknown item"))});
      return;
    }
    if (request.s < item->tracker.creation_time()) {
      response.errors.push_back(
          {id, CountError(Status::NotYetLive("item goes live after s"))});
      return;
    }
    resolved.push_back(
        {id, item->tracker.Snapshot(request.s), item->page, item->post});
  };
  for (const int64_t id : request.ids) {
    const Shard& shard = *shards_[ShardOf(id)];
    MutexLock lock(shard.mu);
    const auto it = shard.items.find(id);
    resolve(id, it == shard.items.end() ? nullptr : &it->second);
  }
  if (resolved.empty()) return response;

  // Inference runs outside the shard locks, batched over every resolved
  // item: one vectorized-forest pass per model.  The extractor writes the
  // column-major SoA batch in place (strided emit), so the SIMD kernels
  // consume it without a transposition pass.
  gbdt::ExampleBatch x(resolved.size(), extractor_->schema().size());
  std::vector<double> observed(resolved.size());
  for (size_t i = 0; i < resolved.size(); ++i) {
    extractor_->ExtractIntoStrided(resolved[i].page, resolved[i].post,
                                   resolved[i].snapshot, x.MutableRowBase(i),
                                   x.feature_stride());
    observed[i] = static_cast<double>(resolved[i].snapshot.views().total);
  }
  const std::vector<double> deltas(resolved.size(), request.delta);
  std::vector<double> alphas;
  const std::vector<double> counts =
      model_->PredictCountBatch(x, observed, deltas, &alphas);

  response.results.reserve(resolved.size());
  for (size_t i = 0; i < resolved.size(); ++i) {
    response.results.push_back(
        {resolved[i].id, PredictionResult{observed[i], counts[i], alphas[i]}});
  }
  if (request.top_k > 0 && response.results.size() > request.top_k) {
    std::partial_sort(response.results.begin(),
                      response.results.begin() +
                          static_cast<ptrdiff_t>(request.top_k),
                      response.results.end(),
                      [](const ItemPrediction& a, const ItemPrediction& b) {
                        return PredictedIncrement(a) > PredictedIncrement(b);
                      });
    response.results.resize(request.top_k);
  } else if (request.top_k > 0) {
    std::sort(response.results.begin(), response.results.end(),
              [](const ItemPrediction& a, const ItemPrediction& b) {
                return PredictedIncrement(a) > PredictedIncrement(b);
              });
  }
  // order: relaxed; statistics counter paired with the relaxed load in
  // stats().
  queries_answered_.fetch_add(response.results.size(), std::memory_order_relaxed);
  m_queries_->Add(response.results.size());
  return response;
}

std::vector<PredictionService::ScanCandidate> PredictionService::ShardScanTopK(
    const Shard& shard, double s, double delta, size_t k) const {
  struct Candidate {
    int64_t id;
    stream::TrackerSnapshot snapshot;
    datagen::PageProfile page;
    datagen::PostProfile post;
  };
  std::vector<Candidate> candidates;
  {
    MutexLock lock(shard.mu);
    candidates.reserve(shard.items.size());
    for (const auto& [id, item] : shard.items) {
      if (s < item.tracker.creation_time()) continue;  // not yet live
      candidates.push_back({id, item.tracker.Snapshot(s), item.page, item.post});
    }
  }
  if (candidates.empty()) return {};

  // Batch the whole shard through the vectorized forests in one pass,
  // extracting straight into the SoA layout the kernels read.
  const size_t width = extractor_->schema().size();
  gbdt::ExampleBatch x(candidates.size(), width);
  for (size_t i = 0; i < candidates.size(); ++i) {
    extractor_->ExtractIntoStrided(candidates[i].page, candidates[i].post,
                                   candidates[i].snapshot, x.MutableRowBase(i),
                                   x.feature_stride());
  }
  const std::vector<double> increments = model_->PredictIncrementBatch(x, delta);

  // Keep only the shard's k best; the winners carry their feature rows so
  // the merge step can finish the full prediction without re-extracting.
  std::vector<size_t> order(candidates.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const size_t take = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<ptrdiff_t>(take),
                    order.end(), [&](size_t a, size_t b) {
                      return increments[a] > increments[b];
                    });
  std::vector<ScanCandidate> out;
  out.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    const size_t idx = order[i];
    std::vector<float> row(width);
    x.CopyRowTo(idx, row.data());
    out.push_back(
        {candidates[idx].id,
         static_cast<double>(candidates[idx].snapshot.views().total),
         increments[idx], std::move(row)});
  }
  return out;
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
                    merged.end(), [](const ScanCandidate& a, const ScanCandidate& b) {
                      return a.increment > b.increment;
                    });
  merged.resize(take);

  QueryResponse response;
  if (merged.empty()) return response;
  // Only the global winners pay for the alpha forest.  Their feature rows
  // were already materialized row-major by the shard scans, so a row-major
  // matrix (strided kernel path) is the no-copy-beyond-this layout here.
  gbdt::DataMatrix x(merged.size(), extractor_->schema().size());
  for (size_t i = 0; i < merged.size(); ++i) {
    std::copy(merged[i].row.begin(), merged[i].row.end(), x.MutableRow(i));
  }
  const std::vector<double> alphas = model_->PredictAlphaBatch(x);
  response.results.reserve(merged.size());
  for (size_t i = 0; i < merged.size(); ++i) {
    response.results.push_back(
        {merged[i].id,
         PredictionResult{merged[i].observed,
                          merged[i].observed + merged[i].increment, alphas[i]}});
  }
  // Scan answers are deliberately NOT counted into queries_answered (the
  // pre-BatchQuery TopK never was); they have their own counter.
  m_scan_results_->Add(response.results.size());
  return response;
}

StatusOr<QueryResponse> PredictionService::BatchQuery(
    const QueryRequest& request) const {
  const auto start = SteadyClock::now();
  if (!std::isfinite(request.s) || !std::isfinite(request.delta) ||
      request.delta < 0.0) {
    return CountError(
        Status::InvalidArgument("QueryRequest: s and delta must be finite, "
                                "delta >= 0"));
  }
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
  QueryRequest request;
  request.ids.push_back(item_id);
  request.s = s;
  request.delta = delta;
  StatusOr<QueryResponse> response = BatchQuery(request);
  if (!response.ok()) return response.status();
  if (!response->errors.empty()) return response->errors.front().status;
  HORIZON_CHECK(!response->results.empty());
  return response->results.front().prediction;
}

std::vector<std::pair<int64_t, double>> PredictionService::TopK(double s,
                                                                double delta,
                                                                size_t k) const {
  if (k == 0) return {};
  QueryRequest request;
  request.s = s;
  request.delta = delta;
  request.top_k = k;
  const StatusOr<QueryResponse> response = BatchQuery(request);
  if (!response.ok()) return {};
  std::vector<std::pair<int64_t, double>> out;
  out.reserve(response->results.size());
  for (const ItemPrediction& p : response->results) {
    out.emplace_back(p.item_id, PredictedIncrement(p));
  }
  return out;
}

size_t PredictionService::RetireDeadItems(double now) {
  if (!std::isfinite(now)) {
    (void)CountError(Status::InvalidArgument(
        "RetireDeadItems: now must be finite"));  // counted; retires nothing
    return 0;
  }
  const obs::ScopedTimer timer(m_retire_latency_);
  std::atomic<size_t> retired_total{0};
  ParallelFor(shards_.size(), 1, [&](size_t begin, size_t end) {
    std::vector<float> row(extractor_->schema().size());
    const auto dead = [&](const Item& item) {
      if (now < item.tracker.creation_time()) {
        return false;  // not yet live; nothing to retire
      }
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
        // transform) exceeds the threshold.
        extractor_->ExtractInto(item.page, item.post, snapshot, row.data());
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
      const size_t retired = std::erase_if(
          shard.items, [&](const auto& entry) { return dead(entry.second); });
      // order: relaxed; per-task tally folded after the ParallelFor
      // barrier, which supplies the happens-before edge.
      retired_total.fetch_add(retired, std::memory_order_relaxed);
    }
  });
  // order: relaxed; read after the ParallelFor join (drain_mu handoff
  // orders it).
  const size_t retired = retired_total.load(std::memory_order_relaxed);
  // order: relaxed; statistics counter paired with stats().
  items_retired_.fetch_add(retired, std::memory_order_relaxed);
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

void SerializePage(std::ostream& os, const datagen::PageProfile& p) {
  os << p.id << " " << p.followers << " " << p.fans << " " << p.posts_last_month
     << " " << p.page_age_days << " " << static_cast<int>(p.category) << " "
     << p.verified << " " << p.hist_mean_views << " " << p.hist_mean_halflife
     << " " << p.hist_share_rate << " " << p.hist_comment_rate << " " << p.quality
     << " " << p.audience_tau << " " << p.shareability << " " << p.alpha_page
     << "\n";
}

bool DeserializePage(std::istream& is, datagen::PageProfile* p) {
  int category = 0;
  if (!(is >> p->id >> p->followers >> p->fans >> p->posts_last_month >>
        p->page_age_days >> category >> p->verified >> p->hist_mean_views >>
        p->hist_mean_halflife >> p->hist_share_rate >> p->hist_comment_rate >>
        p->quality >> p->audience_tau >> p->shareability >> p->alpha_page)) {
    return false;
  }
  if (category < 0 || category >= datagen::kNumPageCategories) return false;
  p->category = static_cast<datagen::PageCategory>(category);
  return true;
}

void SerializePost(std::ostream& os, const datagen::PostProfile& p) {
  os << p.id << " " << p.page_id << " " << static_cast<int>(p.media) << " "
     << p.language << " " << p.num_mentions << " " << p.num_hashtags << " "
     << p.text_length << " " << p.creation_tod << " " << p.day_of_week << " "
     << p.in_group << " " << p.group_members << " " << p.has_question << " "
     << p.creation_time << " " << p.lambda0 << " " << p.beta << " " << p.rho1
     << " " << p.mark_sigma_log << "\n";
}

bool DeserializePost(std::istream& is, datagen::PostProfile* p) {
  int media = 0;
  if (!(is >> p->id >> p->page_id >> media >> p->language >> p->num_mentions >>
        p->num_hashtags >> p->text_length >> p->creation_tod >> p->day_of_week >>
        p->in_group >> p->group_members >> p->has_question >> p->creation_time >>
        p->lambda0 >> p->beta >> p->rho1 >> p->mark_sigma_log)) {
    return false;
  }
  if (media < 0 || media >= datagen::kNumMediaTypes) return false;
  p->media = static_cast<datagen::MediaType>(media);
  return true;
}

}  // namespace

Status PredictionService::Checkpoint(const std::string& dir) const {
  const obs::ScopedTimer latency(m_checkpoint_latency_);
  HORIZON_RETURN_IF_ERROR(io::EnsureDir(dir));
  uint64_t epoch = 1;
  if (const auto current = io::ReadFile(dir + "/CURRENT")) {
    if (const auto prev = ParseCheckpointEpoch(Trim(*current))) epoch = *prev + 1;
  }
  const std::string name = CheckpointDirName(epoch);
  const std::string ckpt = dir + "/" + name;
  HORIZON_RETURN_IF_ERROR(io::EnsureDir(ckpt));

  // One coherent counter snapshot up front; events ingested while the
  // shards are being copied belong to the next checkpoint.
  const ServiceStats counters = stats();
  const std::string model_blob = model_->Serialize();
  // Quantized companions of every forest, in the same epoch dir.  The blob
  // is a deterministic function of the trained model, which is what lets
  // Restore verify it by byte equality instead of a tolerance check.
  const std::string qforest_blob = model_->SerializeQuantized();

  // Snapshot each shard under its lock (a copy of the O(1)-state items),
  // then serialize and write the file outside the lock so ingest/query
  // never stall behind disk IO.  Shards proceed in parallel.
  const size_t num_shards = shards_.size();
  std::vector<uint32_t> shard_crc(num_shards, 0);
  std::vector<size_t> shard_bytes(num_shards, 0);
  std::vector<size_t> shard_items(num_shards, 0);
  Mutex error_mu;
  Status shard_error;  // first failure wins
  ParallelFor(num_shards, 1, [&](size_t begin, size_t end) {
    for (size_t sh = begin; sh < end; ++sh) {
      const Shard& shard = *shards_[sh];
      std::vector<std::pair<int64_t, Item>> snapshot;
      {
        MutexLock lock(shard.mu);
        snapshot.reserve(shard.items.size());
        for (const auto& [id, item] : shard.items) {
          snapshot.emplace_back(id, item);
        }
      }
      std::ostringstream os;
      os.precision(17);
      os << "shard v1\n" << snapshot.size() << "\n";
      for (const auto& [id, item] : snapshot) {
        os << id << "\n";
        SerializePage(os, item.page);
        SerializePost(os, item.post);
        const std::string tracker = item.tracker.Serialize();
        os << tracker.size() << "\n" << tracker;
      }
      const std::string framed = io::WrapCrcFrame(os.str());
      shard_crc[sh] = io::Crc32(framed);
      shard_bytes[sh] = framed.size();
      shard_items[sh] = snapshot.size();
      const Status wrote =
          io::WriteFileAtomic(ckpt + "/" + ShardFileName(sh), framed);
      if (!wrote.ok()) {
        MutexLock lock(error_mu);
        if (shard_error.ok()) shard_error = wrote;
      }
    }
  });
  HORIZON_RETURN_IF_ERROR(shard_error);
  HORIZON_RETURN_IF_ERROR(
      io::WriteFileAtomic(ckpt + "/model.hwk", io::WrapCrcFrame(model_blob)));
  HORIZON_RETURN_IF_ERROR(io::WriteFileAtomic(ckpt + "/model.qforest",
                                              io::WrapCrcFrame(qforest_blob)));

  std::ostringstream manifest;
  manifest.precision(17);
  manifest << "manifest v1\n";
  manifest << "epoch " << epoch << "\n";
  manifest << "model " << io::Crc32(model_blob) << " " << model_blob.size() << "\n";
  manifest << "qforest " << io::Crc32(qforest_blob) << " " << qforest_blob.size()
           << "\n";
  const stream::TrackerConfig& tracker = config_.tracker;
  manifest << "windows " << tracker.window_lengths.size();
  for (double w : tracker.window_lengths) manifest << " " << w;
  manifest << "\n";
  manifest << "landmarks " << tracker.landmark_ages.size();
  for (double l : tracker.landmark_ages) manifest << " " << l;
  manifest << "\n";
  manifest << "ewma_tau " << tracker.ewma_tau << "\n";
  manifest << "epsilon " << tracker.epsilon << "\n";
  manifest << "counters " << counters.items_registered << " "
           << counters.events_ingested << " " << counters.queries_answered << " "
           << counters.items_retired << "\n";
  manifest << "shards " << num_shards << "\n";
  for (size_t sh = 0; sh < num_shards; ++sh) {
    manifest << ShardFileName(sh) << " " << shard_crc[sh] << " " << shard_bytes[sh]
             << " " << shard_items[sh] << "\n";
  }
  HORIZON_RETURN_IF_ERROR(
      io::WriteFileAtomic(ckpt + "/MANIFEST", io::WrapCrcFrame(manifest.str())));
  // Commit point: once CURRENT names the new directory, the checkpoint is
  // the one Restore will load.
  HORIZON_RETURN_IF_ERROR(io::WriteFileAtomic(dir + "/CURRENT", name + "\n"));

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
  if (!ParseCheckpointEpoch(name).has_value()) {
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

  std::istringstream is(*manifest);
  std::string magic, version, key;
  uint64_t epoch = 0;
  uint32_t model_crc = 0;
  size_t model_size = 0;
  if (!(is >> magic >> version) || magic != "manifest" || version != "v1") {
    return CountError(Status::Corruption("manifest: bad magic/version"));
  }
  if (!(is >> key >> epoch) || key != "epoch") {
    return CountError(Status::Corruption("manifest: missing epoch"));
  }
  if (!(is >> key >> model_crc >> model_size) || key != "model") {
    return CountError(Status::Corruption("manifest: missing model digest"));
  }
  uint32_t qforest_crc = 0;
  size_t qforest_size = 0;
  if (!(is >> key >> qforest_crc >> qforest_size) || key != "qforest") {
    return CountError(Status::Corruption("manifest: missing qforest digest"));
  }

  // The restored trackers only make sense if this service interprets their
  // state with the same window/landmark layout and EWMA constants.
  const stream::TrackerConfig& tracker = config_.tracker;
  size_t n = 0;
  if (!(is >> key >> n) || key != "windows") {
    return CountError(Status::Corruption("manifest: missing windows"));
  }
  if (n != tracker.window_lengths.size()) {
    return CountError(
        Status::ConfigMismatch("checkpoint uses a different window layout"));
  }
  for (size_t i = 0; i < n; ++i) {
    double w = 0.0;
    if (!(is >> w)) {
      return CountError(Status::Corruption("manifest: truncated windows"));
    }
    if (w != tracker.window_lengths[i]) {
      return CountError(
          Status::ConfigMismatch("checkpoint uses a different window layout"));
    }
  }
  if (!(is >> key >> n) || key != "landmarks") {
    return CountError(Status::Corruption("manifest: missing landmarks"));
  }
  if (n != tracker.landmark_ages.size()) {
    return CountError(
        Status::ConfigMismatch("checkpoint uses a different landmark layout"));
  }
  for (size_t i = 0; i < n; ++i) {
    double l = 0.0;
    if (!(is >> l)) {
      return CountError(Status::Corruption("manifest: truncated landmarks"));
    }
    if (l != tracker.landmark_ages[i]) {
      return CountError(
          Status::ConfigMismatch("checkpoint uses a different landmark layout"));
    }
  }
  double ewma_tau = 0.0, epsilon = 0.0;
  if (!(is >> key >> ewma_tau) || key != "ewma_tau") {
    return CountError(Status::Corruption("manifest: missing ewma_tau"));
  }
  if (ewma_tau != tracker.ewma_tau) {
    return CountError(
        Status::ConfigMismatch("checkpoint uses a different ewma_tau"));
  }
  if (!(is >> key >> epsilon) || key != "epsilon") {
    return CountError(Status::Corruption("manifest: missing epsilon"));
  }
  if (epsilon != tracker.epsilon) {
    return CountError(
        Status::ConfigMismatch("checkpoint uses a different epsilon"));
  }
  ServiceStats counters;
  if (!(is >> key >> counters.items_registered >> counters.events_ingested >>
        counters.queries_answered >> counters.items_retired) ||
      key != "counters") {
    return CountError(Status::Corruption("manifest: missing counters"));
  }
  size_t num_shard_files = 0;
  if (!(is >> key >> num_shard_files) || key != "shards" ||
      num_shard_files > 1u << 20) {
    return CountError(Status::Corruption("manifest: bad shard table"));
  }

  // Bit-identical predictions require the identical model.
  const std::string model_blob = model_->Serialize();
  if (io::Crc32(model_blob) != model_crc || model_blob.size() != model_size) {
    return CountError(Status::ConfigMismatch(
        "checkpoint was written by a different model (serialization digest "
        "mismatch)"));
  }
  // Same contract for the quantized companions: recompiling them from the
  // live model must reproduce the checkpointed blob byte for byte, or the
  // quantized query path would disagree with whoever wrote the checkpoint.
  const std::string qforest_blob = model_->SerializeQuantized();
  if (io::Crc32(qforest_blob) != qforest_crc ||
      qforest_blob.size() != qforest_size) {
    return CountError(Status::ConfigMismatch(
        "checkpoint was written by a different quantized forest (digest "
        "mismatch)"));
  }
  const auto qforest_file = io::ReadFile(ckpt + "/model.qforest");
  if (!qforest_file.ok()) {
    return CountError(
        Status::Corruption("checkpoint qforest file missing or unreadable"));
  }
  const auto qforest_payload = io::UnwrapCrcFrame(*qforest_file);
  if (!qforest_payload.ok() || *qforest_payload != qforest_blob) {
    return CountError(Status::Corruption("checkpoint qforest file damaged"));
  }

  // Stage every item first; the live service is only touched once the
  // whole checkpoint has been read and verified.
  std::vector<std::pair<int64_t, Item>> staged;
  for (size_t f = 0; f < num_shard_files; ++f) {
    std::string file;
    uint32_t crc = 0;
    size_t bytes = 0, items = 0;
    if (!(is >> file >> crc >> bytes >> items)) {
      return CountError(Status::Corruption("manifest: truncated shard table"));
    }
    if (file.find('/') != std::string::npos) {
      return CountError(Status::Corruption("manifest: shard name escapes dir"));
    }
    const auto raw = io::ReadFile(ckpt + "/" + file);
    if (!raw.ok() || raw->size() != bytes || io::Crc32(*raw) != crc) {
      return CountError(
          Status::Corruption("shard file " + file + " missing or damaged"));
    }
    const auto payload = io::UnwrapCrcFrame(*raw);
    if (!payload.ok()) return CountError(payload.status());
    std::istringstream ss(*payload);
    std::string smagic, sversion;
    size_t num_items = 0;
    if (!(ss >> smagic >> sversion) || smagic != "shard" || sversion != "v1") {
      return CountError(Status::Corruption("shard file: bad magic/version"));
    }
    if (!(ss >> num_items) || num_items != items) {
      return CountError(Status::Corruption("shard file: item count mismatch"));
    }
    for (size_t i = 0; i < num_items; ++i) {
      int64_t id = 0;
      datagen::PageProfile page;
      datagen::PostProfile post;
      if (!(ss >> id)) {
        return CountError(Status::Corruption("shard file: truncated item id"));
      }
      if (!DeserializePage(ss, &page) || !DeserializePost(ss, &post)) {
        return CountError(Status::Corruption("shard file: bad item profile"));
      }
      size_t blob_size = 0;
      if (!(ss >> blob_size) || blob_size > 1u << 24) {
        return CountError(Status::Corruption("shard file: bad tracker size"));
      }
      ss.ignore(1);  // the newline after the size
      std::string blob(blob_size, '\0');
      if (!ss.read(blob.data(), static_cast<std::streamsize>(blob_size))) {
        return CountError(Status::Corruption("shard file: truncated tracker"));
      }
      Item item{stream::CascadeTracker(0.0, tracker), page, post};
      if (!item.tracker.Deserialize(blob)) {
        return CountError(Status::Corruption("shard file: bad tracker state"));
      }
      staged.emplace_back(id, std::move(item));
    }
  }

  // Swap the staged state in.  Items re-shard by id hash, so a restored
  // service may even use a different shard count than the writer.
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->items.clear();
  }
  for (auto& [id, item] : staged) {
    Shard& shard = *shards_[ShardOf(id)];
    MutexLock lock(shard.mu);
    shard.items.insert_or_assign(id, std::move(item));
  }
  // order: relaxed (all five); Restore runs before the service takes
  // traffic -- publication to other threads happens when the caller
  // hands the service over, and stats() reads are relaxed-paired.
  live_items_.store(staged.size(), std::memory_order_relaxed);
  m_live_items_->Set(static_cast<double>(staged.size()));
  // order: relaxed; see above.
  items_registered_.store(counters.items_registered, std::memory_order_relaxed);
  // order: relaxed; see above.
  events_ingested_.store(counters.events_ingested, std::memory_order_relaxed);
  // order: relaxed; see above.
  queries_answered_.store(counters.queries_answered, std::memory_order_relaxed);
  // order: relaxed; see above.
  items_retired_.store(counters.items_retired, std::memory_order_relaxed);
  return Status::Ok();
}

ServiceStats PredictionService::stats() const {
  ServiceStats out;
  // order: relaxed (all four); statistics snapshot paired with the
  // relaxed counter updates -- fields may be mutually inconsistent by
  // a few events while calls are in flight; the DST reads them at
  // quiescent points.
  out.items_registered = items_registered_.load(std::memory_order_relaxed);
  // order: relaxed; see above.
  out.events_ingested = events_ingested_.load(std::memory_order_relaxed);
  // order: relaxed; see above.
  out.queries_answered = queries_answered_.load(std::memory_order_relaxed);
  // order: relaxed; see above.
  out.items_retired = items_retired_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace horizon::serving
