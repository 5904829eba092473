// Serving-API fuzz suite.  A seeded loop sends every public serving entry
// point -- RegisterItem, Ingest, IngestBatch, Query, BatchQuery and
// RetireDeadItems -- hostile inputs: times and horizons that are NaN,
// +-inf, negative, zero or +-1e300 (times past kMaxAbsTime); unknown and
// duplicate ids;
// out-of-order events and events before creation; empty and 10^5-event
// batches; top_k of 0, 1 and SIZE_MAX.  Every call must return, every
// rejection must carry its documented code and bump its
// horizon_serving_errors_* counter, and a second service sent only the
// valid calls must give the same answers, bit for bit.  Restore gets
// re-framed shard files whose payloads are cut, bit-flipped and
// token-swapped.  Labelled fuzz and durability, so the sanitizer CI jobs
// run it.
#include "serving/prediction_service.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "checkpoint_files.h"
#include "common/file_io.h"
#include "common/rng.h"
#include "core/trainer.h"

namespace horizon::serving {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr size_t kAll = std::numeric_limits<size_t>::max();

/// Ids the loop draws from: [0, kIds) may be registered, the rest never.
constexpr int64_t kIds = 40;
constexpr int64_t kIdRange = kIds + 8;

/// The hostile times and horizons every entry point must survive.
constexpr std::array<double, 8> kHostile = {kNaN, kInf,   -kInf,  -1.0 * kDay,
                                            0.0,  1e300, -1e300, -0.0};

/// Whether the service accepts `t` as a time.
bool Usable(double t) { return std::abs(t) <= kMaxAbsTime; }

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void ExpectSameResult(const PredictionResult& a, const PredictionResult& b) {
  EXPECT_TRUE(SameBits(a.observed_views, b.observed_views));
  EXPECT_TRUE(SameBits(a.predicted_views, b.predicted_views));
  EXPECT_TRUE(SameBits(a.alpha, b.alpha));
}

/// What the suite knows of a registered item: enough to predict the code
/// of every call that names it.
struct ShadowItem {
  double creation = 0.0;
  /// Per engagement type, the age of the last applied event (-1: none).
  std::array<double, stream::kNumEngagementTypes> last_age{-1.0, -1.0, -1.0, -1.0};

  /// The ordering contract CascadeTracker::Accepts checks.
  bool Accepts(stream::EngagementType type, double t) const {
    return t >= creation && t - creation >= last_age[static_cast<int>(type)];
  }
};

/// Drives a fuzzed service and a clean one side by side.  Each call goes
/// to the fuzzed service, its code and error counters are checked against
/// the shadow model, and the valid part of it is sent to the clean one.
class Harness {
 public:
  Harness(const core::HawkesPredictor* model,
          const features::FeatureExtractor* extractor,
          const datagen::SyntheticDataset* dataset)
      : dataset_(dataset),
        fuzzed_(model, extractor, WithRegistry(&fuzzed_registry_)),
        clean_(model, extractor, WithRegistry(&clean_registry_)) {}
  // The services hold pointers to the registries beside them.
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  void Register(int64_t id, double creation) {
    const datagen::Cascade& cascade =
        dataset_->cascades[static_cast<size_t>(id) % dataset_->cascades.size()];
    const Status status =
        fuzzed_.RegisterItem(id, creation, dataset_->PageOf(cascade.post), cascade.post);
    if (!Usable(creation)) {
      Expect(status, StatusCode::kInvalidArgument);
    } else if (items_.count(id) > 0) {
      Expect(status, StatusCode::kAlreadyExists);
    } else {
      Expect(status, StatusCode::kOk);
      items_[id].creation = creation;
      EXPECT_TRUE(clean_
                      .RegisterItem(id, creation, dataset_->PageOf(cascade.post),
                                    cascade.post)
                      .ok());
    }
  }

  void Ingest(int64_t id, stream::EngagementType type, double t) {
    const Status status = fuzzed_.Ingest(id, type, t);
    const auto it = items_.find(id);
    if (!Usable(t)) {
      Expect(status, StatusCode::kInvalidArgument);
    } else if (it == items_.end()) {
      Expect(status, StatusCode::kNotFound);
    } else if (!it->second.Accepts(type, t)) {
      Expect(status, StatusCode::kInvalidArgument);
    } else {
      Expect(status, StatusCode::kOk);
      it->second.last_age[static_cast<int>(type)] = t - it->second.creation;
      EXPECT_TRUE(clean_.Ingest(id, type, t).ok());
    }
  }

  void IngestBatch(const std::vector<IngestEvent>& events) {
    // The documented drop policy, event by event in batch order: unknown
    // ids drop uncounted, invalid times drop counted, the rest apply.
    std::vector<IngestEvent> valid;
    for (const IngestEvent& e : events) {
      const auto it = items_.find(e.item_id);
      if (!Usable(e.time)) {
        ++expected_errors_[static_cast<int>(StatusCode::kInvalidArgument)];
      } else if (it == items_.end()) {
        continue;
      } else if (!it->second.Accepts(e.type, e.time)) {
        ++expected_errors_[static_cast<int>(StatusCode::kInvalidArgument)];
      } else {
        it->second.last_age[static_cast<int>(e.type)] = e.time - it->second.creation;
        valid.push_back(e);
      }
    }
    EXPECT_EQ(fuzzed_.IngestBatch(events), valid.size());
    EXPECT_EQ(clean_.IngestBatch(valid), valid.size());
    CheckCounters();
  }

  void Query(int64_t id, double s, double delta) {
    const StatusOr<PredictionResult> result = fuzzed_.Query(id, s, delta);
    const StatusCode code = ExpectedQueryCode(id, s, delta);
    Expect(result.status(), code);
    if (code == StatusCode::kOk && result.ok()) {
      const StatusOr<PredictionResult> clean = clean_.Query(id, s, delta);
      ASSERT_TRUE(clean.ok());
      ExpectSameResult(*result, *clean);
    }
  }

  void BatchQuery(const QueryRequest& request) {
    const StatusOr<QueryResponse> response = fuzzed_.BatchQuery(request);
    if (!Usable(request.s) || !std::isfinite(request.delta) ||
        request.delta < 0.0 || (request.ids.empty() && request.top_k == 0)) {
      Expect(response.status(), StatusCode::kInvalidArgument);
      return;
    }
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    // Per-id failures come back in request order, each counted.
    std::vector<std::pair<int64_t, StatusCode>> errors;
    size_t answerable = 0;
    for (const int64_t id : request.ids) {
      const StatusCode code = ExpectedQueryCode(id, request.s, request.delta);
      if (code == StatusCode::kOk) {
        ++answerable;
      } else {
        errors.emplace_back(id, code);
        ++expected_errors_[static_cast<int>(code)];
      }
    }
    ASSERT_EQ(response->errors.size(), errors.size());
    for (size_t i = 0; i < errors.size(); ++i) {
      EXPECT_EQ(response->errors[i].item_id, errors[i].first);
      EXPECT_EQ(response->errors[i].status.code(), errors[i].second);
    }
    if (!request.ids.empty()) {
      EXPECT_EQ(response->results.size(),
                request.top_k == 0 ? answerable : std::min(answerable, request.top_k));
    }
    CheckCounters();
    const StatusOr<QueryResponse> clean = clean_.BatchQuery(request);
    ASSERT_TRUE(clean.ok());
    ASSERT_EQ(response->results.size(), clean->results.size());
    for (size_t i = 0; i < clean->results.size(); ++i) {
      EXPECT_EQ(response->results[i].item_id, clean->results[i].item_id);
      ExpectSameResult(response->results[i].prediction, clean->results[i].prediction);
    }
  }

  void Retire(double now) {
    const size_t retired = fuzzed_.RetireDeadItems(now);
    if (!Usable(now)) {
      EXPECT_EQ(retired, 0u);
      ++expected_errors_[static_cast<int>(StatusCode::kInvalidArgument)];
      CheckCounters();
      return;
    }
    EXPECT_EQ(retired, clean_.RetireDeadItems(now));
    for (int64_t id = 0; id < kIdRange; ++id) {
      const bool live = fuzzed_.HasItem(id);
      EXPECT_EQ(live, clean_.HasItem(id)) << "item " << id;
      if (!live) items_.erase(id);
    }
    EXPECT_EQ(fuzzed_.LiveItems(), items_.size());
  }

  /// The oracle: both services answer every id and a full scan alike, and
  /// agree on every counter in stats().
  void ExpectSameAnswers(double s, double delta) {
    for (int64_t id = 0; id < kIdRange; ++id) {
      const StatusOr<PredictionResult> a = fuzzed_.Query(id, s, delta);
      const StatusOr<PredictionResult> b = clean_.Query(id, s, delta);
      const StatusCode code = ExpectedQueryCode(id, s, delta);
      EXPECT_EQ(a.code(), code) << "item " << id;
      EXPECT_EQ(b.code(), code) << "item " << id;
      if (code != StatusCode::kOk) ++expected_errors_[static_cast<int>(code)];
      if (a.ok() && b.ok()) ExpectSameResult(*a, *b);
    }
    CheckCounters();
    QueryRequest scan;
    scan.s = s;
    scan.delta = delta;
    scan.top_k = kAll;
    const StatusOr<QueryResponse> a = fuzzed_.BatchQuery(scan);
    const StatusOr<QueryResponse> b = clean_.BatchQuery(scan);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->results.size(), b->results.size());
    for (size_t i = 0; i < a->results.size(); ++i) {
      EXPECT_EQ(a->results[i].item_id, b->results[i].item_id);
      ExpectSameResult(a->results[i].prediction, b->results[i].prediction);
    }
    const ServiceStats fs = fuzzed_.stats();
    const ServiceStats cs = clean_.stats();
    EXPECT_EQ(fs.items_registered, cs.items_registered);
    EXPECT_EQ(fs.events_ingested, cs.events_ingested);
    EXPECT_EQ(fs.queries_answered, cs.queries_answered);
    EXPECT_EQ(fs.items_retired, cs.items_retired);
    EXPECT_EQ(fuzzed_.LiveItems(), clean_.LiveItems());
  }

  const std::map<int64_t, ShadowItem>& items() const { return items_; }

 private:
  static ServiceConfig WithRegistry(obs::MetricsRegistry* registry) {
    ServiceConfig config;
    config.metrics = registry;
    return config;
  }

  StatusCode ExpectedQueryCode(int64_t id, double s, double delta) const {
    if (!Usable(s) || !std::isfinite(delta) || delta < 0.0) {
      return StatusCode::kInvalidArgument;
    }
    const auto it = items_.find(id);
    if (it == items_.end()) return StatusCode::kNotFound;
    if (s < it->second.creation) return StatusCode::kNotYetLive;
    return StatusCode::kOk;
  }

  /// Checks a call's code, counts the rejection, and checks the counters.
  void Expect(const Status& status, StatusCode code) {
    EXPECT_EQ(status.code(), code) << status.ToString();
    if (code != StatusCode::kOk) ++expected_errors_[static_cast<int>(code)];
    CheckCounters();
  }

  void CheckCounters() {
    for (int c = 1; c < static_cast<int>(expected_errors_.size()); ++c) {
      const std::string name = "horizon_serving_errors_" +
                               std::string(StatusCodeName(static_cast<StatusCode>(c))) +
                               "_total";
      EXPECT_EQ(fuzzed_registry_.GetCounter(name)->Value(), expected_errors_[c]) << name;
    }
  }

  const datagen::SyntheticDataset* dataset_;
  obs::MetricsRegistry fuzzed_registry_;
  obs::MetricsRegistry clean_registry_;
  PredictionService fuzzed_;
  PredictionService clean_;
  std::map<int64_t, ShadowItem> items_;
  std::array<uint64_t, 10> expected_errors_{};
};

class ServingFuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::GeneratorConfig config;
    config.num_pages = 20;
    config.num_posts = 120;
    config.base_mean_size = 60.0;
    config.seed = 91;
    dataset_ = new datagen::SyntheticDataset(datagen::Generator(config).Generate());
    extractor_ = new features::FeatureExtractor(stream::TrackerConfig{});
    std::vector<size_t> indices;
    for (size_t i = 0; i < dataset_->cascades.size(); ++i) indices.push_back(i);
    core::ExampleSetOptions options;
    options.reference_horizons = {1 * kDay};
    const auto examples =
        core::BuildExampleSet(*dataset_, indices, *extractor_, options);
    core::HawkesPredictorParams params;
    params.reference_horizons = options.reference_horizons;
    params.gbdt_count.num_trees = 20;
    params.gbdt_alpha.num_trees = 20;
    model_ = new core::HawkesPredictor(params);
    model_->Fit(examples.x, examples.log1p_increments, examples.alpha_targets);
  }

  static void TearDownTestSuite() {
    delete model_;
    delete extractor_;
    delete dataset_;
  }

  Harness MakeHarness() const { return Harness(model_, extractor_, dataset_); }

  static datagen::SyntheticDataset* dataset_;
  static features::FeatureExtractor* extractor_;
  static core::HawkesPredictor* model_;
};

datagen::SyntheticDataset* ServingFuzzTest::dataset_ = nullptr;
features::FeatureExtractor* ServingFuzzTest::extractor_ = nullptr;
core::HawkesPredictor* ServingFuzzTest::model_ = nullptr;

// Every hostile value, at every argument of every entry point that takes
// a time or a horizon, against a service holding live items.
TEST_F(ServingFuzzTest, EveryEntryPointSurvivesEveryHostileTime) {
  Harness h = MakeHarness();
  h.Register(0, 0.0);
  h.Register(1, 1 * kHour);
  for (double t = 60.0; t < 6 * kHour; t += 600.0) {
    h.Ingest(0, stream::EngagementType::kView, t);
    h.Ingest(1, stream::EngagementType::kView, 1 * kHour + t);
  }
  int64_t next_id = 2;
  for (const double v : kHostile) {
    SCOPED_TRACE(v);
    h.Register(next_id++, v);
    for (int type = 0; type < stream::kNumEngagementTypes; ++type) {
      h.Ingest(0, static_cast<stream::EngagementType>(type), v);
    }
    h.IngestBatch({{1, stream::EngagementType::kShare, v}, {kIdRange, stream::EngagementType::kView, v}});
    h.Query(0, v, 1 * kDay);
    h.Query(1, 6 * kHour, v);
    h.Query(kIdRange, v, v);
    for (const size_t top_k : {size_t{0}, size_t{1}, kAll}) {
      QueryRequest ids;
      ids.ids = {0, 1, 0, kIdRange, next_id - 1};
      ids.s = v;
      ids.delta = 1 * kDay;
      ids.top_k = top_k;
      h.BatchQuery(ids);
      ids.s = 8 * kHour;
      ids.delta = v;
      h.BatchQuery(ids);
      QueryRequest scan;
      scan.s = v;
      scan.delta = v;
      scan.top_k = top_k;
      h.BatchQuery(scan);
    }
  }
  h.IngestBatch({});
  h.ExpectSameAnswers(8 * kHour, 1 * kDay);
  for (const double v : kHostile) h.Retire(v);
  h.ExpectSameAnswers(2 * kDay, 1 * kHour);
}

// Every entry point that takes a time rejects one just past kMaxAbsTime
// with kInvalidArgument, and counts it; at the bound, answers are finite,
// and so is every feature of a tracker whose ages reach 2 * kMaxAbsTime.
TEST_F(ServingFuzzTest, TimesPastTheBoundAreRejectedAndCounted) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  PredictionService service(model_, extractor_, config);
  const datagen::Cascade& cascade = dataset_->cascades[0];
  const datagen::PageProfile& page = dataset_->PageOf(cascade.post);
  const double past = 0x1.0000000000001p50;  // the next double up
  ASSERT_GT(past, kMaxAbsTime);
  const auto view = stream::EngagementType::kView;
  for (const double t : {past, -past, 1e300}) {
    SCOPED_TRACE(t);
    EXPECT_EQ(service.RegisterItem(1, t, page, cascade.post).code(),
              StatusCode::kInvalidArgument);
  }
  ASSERT_TRUE(service.RegisterItem(1, -kMaxAbsTime, page, cascade.post).ok());
  ASSERT_TRUE(service.Ingest(1, view, -kMaxAbsTime).ok());
  EXPECT_EQ(service.Ingest(1, view, past).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.IngestBatch({{1, view, past}, {1, view, 1e300}}), 0u);
  ASSERT_TRUE(service.Ingest(1, view, kMaxAbsTime).ok());
  EXPECT_EQ(service.Query(1, past, 0.0).code(), StatusCode::kInvalidArgument);
  QueryRequest request;
  request.ids = {1};
  request.s = past;
  request.delta = kDay;
  EXPECT_EQ(service.BatchQuery(request).code(), StatusCode::kInvalidArgument);
  request.ids.clear();
  request.top_k = 1;
  EXPECT_EQ(service.BatchQuery(request).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.RetireDeadItems(past), 0u);
  EXPECT_EQ(registry.GetCounter("horizon_serving_errors_invalid_argument_total")->Value(),
            10u);
  EXPECT_EQ(service.stats().events_ingested, 2u);

  const StatusOr<PredictionResult> answer = service.Query(1, kMaxAbsTime, kDay);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(std::isfinite(answer->observed_views));
  EXPECT_TRUE(std::isfinite(answer->predicted_views));
  EXPECT_TRUE(std::isfinite(answer->alpha));

  stream::CascadeTracker tracker(-kMaxAbsTime, extractor_->tracker_config());
  for (int type = 0; type < stream::kNumEngagementTypes; ++type) {
    for (const double t : {-kMaxAbsTime, 0.0, kMaxAbsTime, kMaxAbsTime}) {
      tracker.Observe(static_cast<stream::EngagementType>(type), t);
    }
  }
  std::vector<float> row(extractor_->schema().size());
  extractor_->ExtractIntoStrided(page, cascade.post, tracker.Snapshot(kMaxAbsTime),
                                 row.data(), 1);
  for (size_t f = 0; f < row.size(); ++f) {
    EXPECT_TRUE(std::isfinite(row[f])) << extractor_->schema().def(f).name;
  }
}

/// A time for an event of `type` on `id`: mostly the next in-order one,
/// otherwise late, before creation, or hostile.
double EventTime(Rng& rng, const std::map<int64_t, ShadowItem>& items, int64_t id,
                 stream::EngagementType type) {
  const auto it = items.find(id);
  const double u = rng.Uniform();
  if (it == items.end() || u >= 0.9) return kHostile[rng.UniformInt(kHostile.size())];
  const ShadowItem& item = it->second;
  const double last = std::max(item.last_age[static_cast<int>(type)], 0.0);
  if (u < 0.75) return item.creation + last + rng.Exponential(1.0 / 600.0);
  if (u < 0.82) return item.creation + last * rng.Uniform();  // late
  return item.creation - rng.Exponential(1.0 / kHour);          // before creation
}

/// A prediction time or horizon: mostly plausible, sometimes hostile.
double QueryTime(Rng& rng, double hi) {
  if (rng.Bernoulli(0.25)) return kHostile[rng.UniformInt(kHostile.size())];
  return rng.Uniform(0.0, hi);
}

// The seeded loop: random mixes of every entry point, valid and hostile,
// checked call by call and, at the end, against the clean service.
TEST_F(ServingFuzzTest, SeededHostileCallsMatchCleanService) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Harness h = MakeHarness();
    int large_batches = 0;
    for (int step = 0; step < 1500; ++step) {
      const double op = rng.Uniform();
      const int64_t id = static_cast<int64_t>(rng.UniformInt(kIdRange));
      const auto type = static_cast<stream::EngagementType>(
          rng.UniformInt(stream::kNumEngagementTypes));
      if (op < 0.12) {
        h.Register(id, rng.Bernoulli(0.2) ? kHostile[rng.UniformInt(kHostile.size())]
                                          : rng.Uniform(0.0, 3 * kDay));
      } else if (op < 0.55) {
        h.Ingest(id, type, EventTime(rng, h.items(), id, type));
      } else if (op < 0.65) {
        // Empty, small, and (a few times per run) 10^5-event batches.  The
        // batch's own events count for ordering, so times come from a copy
        // of the shadow that the batch advances.
        const double kind = rng.Uniform();
        const size_t n = kind < 0.1 ? 0
                         : kind < 0.12 && large_batches < 3 ? 100000
                                                             : 1 + rng.UniformInt(40);
        if (n == 100000) ++large_batches;
        std::map<int64_t, ShadowItem> batch_items = h.items();
        std::vector<IngestEvent> events;
        events.reserve(n);
        for (size_t i = 0; i < n; ++i) {
          const int64_t e_id = static_cast<int64_t>(rng.UniformInt(kIdRange));
          const auto e_type = static_cast<stream::EngagementType>(
              rng.UniformInt(stream::kNumEngagementTypes));
          const double t = EventTime(rng, batch_items, e_id, e_type);
          const auto it = batch_items.find(e_id);
          if (it != batch_items.end() && Usable(t) && it->second.Accepts(e_type, t)) {
            it->second.last_age[static_cast<int>(e_type)] = t - it->second.creation;
          }
          events.push_back({e_id, e_type, t});
        }
        h.IngestBatch(events);
      } else if (op < 0.8) {
        h.Query(id, QueryTime(rng, 5 * kDay), QueryTime(rng, 7 * kDay));
      } else if (op < 0.95) {
        QueryRequest request;
        if (rng.Bernoulli(0.7)) {
          const size_t n = 1 + rng.UniformInt(8);
          for (size_t i = 0; i < n; ++i) {
            request.ids.push_back(static_cast<int64_t>(rng.UniformInt(kIdRange)));
          }
        }
        const std::array<size_t, 4> top_ks = {0, 1, 3, kAll};
        request.top_k = top_ks[rng.UniformInt(top_ks.size())];
        request.s = QueryTime(rng, 5 * kDay);
        request.delta = QueryTime(rng, 7 * kDay);
        h.BatchQuery(request);
      } else {
        h.Retire(QueryTime(rng, 20 * kDay));
      }
      if (::testing::Test::HasFailure()) return;
    }
    h.ExpectSameAnswers(4 * kDay, 1 * kDay);
    h.ExpectSameAnswers(kMaxAbsTime, 0.0);
  }
}

// --- Restore from re-framed shard payloads ------------------------------
//
// The CRC frames catch bytes damaged at rest, so only a shard re-framed
// with valid CRCs around a changed payload reaches the shard and tracker
// parsers.  Every mutation of a `shard v4` payload -- cut at each line
// boundary, bits flipped, tokens of its static records and tracker blobs
// swapped for extreme ones -- restores into a loaded service either Ok or
// with kCorruption and the service's answers unchanged, and never aborts.

/// Where each whitespace-separated token of `text` starts, and its length.
std::vector<std::pair<size_t, size_t>> TokenSpans(const std::string& text) {
  std::vector<std::pair<size_t, size_t>> spans;
  for (size_t at = 0; at < text.size();) {
    if (std::isspace(static_cast<unsigned char>(text[at]))) {
      ++at;
      continue;
    }
    size_t end = at;
    while (end < text.size() && !std::isspace(static_cast<unsigned char>(text[end]))) {
      ++end;
    }
    spans.emplace_back(at, end - at);
    at = end;
  }
  return spans;
}

TEST_F(ServingFuzzTest, ReframedShardMutationsRestoreOrFailCleanly) {
  const std::string dir = ::testing::TempDir() + "horizon_reframe_fuzz_" +
                          std::to_string(::getpid());
  io::RemoveTree(dir);
  ServiceConfig config;
  config.num_shards = 1;
  // Items with all four engagement streams up to 6 h, some of them empty.
  const auto load = [&](PredictionService* service, int64_t items) {
    for (int64_t id = 0; id < items; ++id) {
      const datagen::Cascade& cascade = dataset_->cascades[static_cast<size_t>(id)];
      ASSERT_TRUE(service->RegisterItem(id, 0.0, dataset_->PageOf(cascade.post),
                                        cascade.post).ok());
      std::vector<IngestEvent> events;
      for (const auto& view : cascade.views) {
        events.push_back({id, stream::EngagementType::kView, view.time});
      }
      const std::vector<double>* others[] = {&cascade.share_times, &cascade.comment_times,
                                             &cascade.reaction_times};
      for (int type = 1; type < stream::kNumEngagementTypes; ++type) {
        for (const double t : *others[type - 1]) {
          events.push_back({id, static_cast<stream::EngagementType>(type), t});
        }
      }
      std::erase_if(events, [](const IngestEvent& e) { return e.time >= 6 * kHour; });
      service->IngestBatch(events);
    }
  };
  PredictionService source(model_, extractor_, config);
  load(&source, 6);
  ASSERT_TRUE(source.Checkpoint(dir).ok());
  const std::string ckpt = test::CommittedCheckpoint(dir);
  const std::string shard_file = io::ReadFile(ckpt + "/shard-0000").value();
  const std::string manifest_file = io::ReadFile(ckpt + "/MANIFEST").value();
  const std::string payload = test::FramedPayload(ckpt + "/shard-0000");
  const test::ShardText shard = test::SplitShard(payload);
  ASSERT_EQ(shard.records.size(), 6u);

  size_t ok = 0, rejected = 0;
  // Re-frames `mutated` in place of the payload and restores it into a
  // service holding 3 items.
  const auto restore = [&](const std::string& mutated) {
    ASSERT_TRUE(io::WriteFileAtomic(ckpt + "/shard-0000", shard_file).ok());
    ASSERT_TRUE(io::WriteFileAtomic(ckpt + "/MANIFEST", manifest_file).ok());
    ASSERT_TRUE(test::ReframeShard(dir, [&](std::string* text) {
      *text = mutated;
      return true;
    }));
    PredictionService restored(model_, extractor_, config);
    load(&restored, 3);
    std::vector<PredictionResult> before;
    for (int64_t id = 0; id < 3; ++id) {
      before.push_back(restored.Query(id, 6 * kHour, kDay).value());
    }
    const Status status = restored.Restore(dir);
    if (status.ok()) {
      ++ok;
      // A restored service serves: a scan at the checkpoint's time, and
      // one a week on, return.
      for (const double s : {6 * kHour, 7 * kDay}) {
        QueryRequest scan;
        scan.s = s;
        scan.delta = kDay;
        scan.top_k = kAll;
        EXPECT_TRUE(restored.BatchQuery(scan).ok());
      }
      return;
    }
    ++rejected;
    EXPECT_EQ(status.code(), StatusCode::kCorruption)
        << status.ToString() << "\n" << mutated;
    ASSERT_EQ(restored.LiveItems(), 3u);
    for (int64_t id = 0; id < 3; ++id) {
      ExpectSameResult(restored.Query(id, 6 * kHour, kDay).value(),
                       before[static_cast<size_t>(id)]);
    }
  };

  // Control: the payload as written restores.
  restore(payload);
  ASSERT_EQ(ok, 1u);
  // The payload cut at every line boundary.
  for (size_t at = 0; at < payload.size(); ++at) {
    if (payload[at] == '\n') restore(payload.substr(0, at + 1));
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Each tracker blob cut at each of its line boundaries, and each static
  // record cut at each token boundary, with the blob's byte count fixed.
  for (size_t r = 0; r < shard.records.size(); ++r) {
    const test::ShardText::Record& record = shard.records[r];
    for (size_t at = 0; at < record.blob.size(); ++at) {
      if (record.blob[at] != '\n') continue;
      test::ShardText cut = shard;
      cut.records[r].blob.resize(at + 1);
      restore(cut.Join());
    }
    for (size_t at = 0; at < record.statics.size(); ++at) {
      if (record.statics[at] != ' ') continue;
      test::ShardText cut = shard;
      cut.records[r].statics.resize(at);
      restore(cut.Join());
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  Rng rng(0x5EF1A3E);
  // Bit flips anywhere in the payload.
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = payload;
    for (int f = 1 + static_cast<int>(rng.UniformInt(3)); f > 0; --f) {
      const size_t pos = rng.UniformInt(mutated.size());
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1u << rng.UniformInt(8)));
    }
    restore(mutated);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Tokens of a static record, or of a tracker blob, swapped for extreme
  // or malformed ones, with the blob's byte count fixed.
  const std::vector<std::string> values = {
      "0", "1", "-1", "2", "3", "4", "5", "6", "7", "254", "255", "256", "64", "1409",
      "1e-300", "-1e300", "1e300", "1e39", "3.4028235e38", "1.7976931348623157e308",
      "18446744073709551615", "9223372036854775808", "-0", "+1", "0.5", "86400",
      "1e-400", "inf", "nan", "0x10", "1e", "trk", "v1", "v3"};
  for (int trial = 0; trial < 600; ++trial) {
    test::ShardText mutated = shard;
    test::ShardText::Record& record =
        mutated.records[rng.UniformInt(mutated.records.size())];
    std::string& field = trial % 2 == 0 ? record.statics : record.blob;
    for (int k = 1 + static_cast<int>(rng.UniformInt(2)); k > 0; --k) {
      const auto spans = TokenSpans(field);
      const auto [at, length] = spans[rng.UniformInt(spans.size())];
      field.replace(at, length, values[rng.UniformInt(values.size())]);
    }
    restore(mutated.Join());
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(ok, 1u);
  EXPECT_GT(rejected, 1000u);
  RecordProperty("restored", std::to_string(ok));
  RecordProperty("rejected", std::to_string(rejected));
  io::RemoveTree(dir);
}

}  // namespace
}  // namespace horizon::serving
