// Serving-API fuzz suite.  A seeded loop sends every public serving entry
// point -- RegisterItem, Ingest, IngestBatch, Query, BatchQuery and
// RetireDeadItems -- hostile inputs: times and horizons that are NaN,
// +-inf, negative, zero or +-1e300 (times past kMaxAbsTime); unknown and
// duplicate ids;
// out-of-order events and events before creation; empty and 10^5-event
// batches; top_k of 0, 1 and SIZE_MAX.  Every call must return, every
// rejection must carry its documented code and bump its
// horizon_serving_errors_* counter, and a second service sent only the
// valid calls must give the same answers, bit for bit.  Labelled fuzz and
// durability, so the sanitizer CI jobs run it.
#include "serving/prediction_service.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace horizon::serving
