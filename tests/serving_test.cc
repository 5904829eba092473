#include "serving/prediction_service.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "common/file_io.h"
#include "common/rng.h"
#include "core/trainer.h"
#include "datagen/event_stream.h"
#include "eval/split.h"
#include "model_of_width.h"

namespace horizon::serving {
namespace {

// Shared fixture: a small trained model plus its extractor and dataset.
class PredictionServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::GeneratorConfig config;
    config.num_pages = 40;
    config.num_posts = 250;
    config.base_mean_size = 80.0;
    config.seed = 55;
    dataset_ = new datagen::SyntheticDataset(datagen::Generator(config).Generate());
    extractor_ = new features::FeatureExtractor(stream::TrackerConfig{});

    std::vector<size_t> indices;
    for (size_t i = 0; i < dataset_->cascades.size(); ++i) indices.push_back(i);
    core::ExampleSetOptions options;
    options.reference_horizons = {6 * kHour, 1 * kDay};
    const auto examples =
        core::BuildExampleSet(*dataset_, indices, *extractor_, options);

    core::HawkesPredictorParams params;
    params.reference_horizons = options.reference_horizons;
    params.gbdt_count.num_trees = 40;
    params.gbdt_alpha.num_trees = 40;
    model_ = new core::HawkesPredictor(params);
    model_->Fit(examples.x, examples.log1p_increments, examples.alpha_targets);
  }

  static void TearDownTestSuite() {
    delete model_;
    delete extractor_;
    delete dataset_;
  }

  PredictionService MakeService(ServiceConfig config = {}) const {
    return PredictionService(model_, extractor_, config);
  }

  static datagen::SyntheticDataset* dataset_;
  static features::FeatureExtractor* extractor_;
  static core::HawkesPredictor* model_;
};

datagen::SyntheticDataset* PredictionServiceTest::dataset_ = nullptr;
features::FeatureExtractor* PredictionServiceTest::extractor_ = nullptr;
core::HawkesPredictor* PredictionServiceTest::model_ = nullptr;

TEST_F(PredictionServiceTest, RegisterAndQueryLifecycle) {
  PredictionService service = MakeService();
  const auto& cascade = dataset_->cascades[0];
  const auto& page = dataset_->PageOf(cascade.post);

  EXPECT_FALSE(service.HasItem(1));
  EXPECT_TRUE(service.RegisterItem(1, 0.0, page, cascade.post).ok());
  EXPECT_FALSE(service.RegisterItem(1, 0.0, page, cascade.post).ok());  // duplicate
  EXPECT_TRUE(service.HasItem(1));
  EXPECT_EQ(service.LiveItems(), 1u);

  size_t ingested = 0;
  for (const auto& e : cascade.views) {
    if (e.time >= 6 * kHour) break;
    EXPECT_TRUE(service.Ingest(1, stream::EngagementType::kView, e.time).ok());
    ++ingested;
  }
  const auto result = service.Query(1, 6 * kHour, 1 * kDay);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->observed_views, static_cast<double>(ingested));
  EXPECT_GE(result->predicted_views, result->observed_views);
  EXPECT_GT(result->alpha, 0.0);

  EXPECT_EQ(service.stats().items_registered, 1u);
  EXPECT_EQ(service.stats().events_ingested, ingested);
  EXPECT_EQ(service.stats().queries_answered, 1u);
}

TEST_F(PredictionServiceTest, IngestUnknownItemDropped) {
  PredictionService service = MakeService();
  EXPECT_FALSE(service.Ingest(42, stream::EngagementType::kView, 1.0).ok());
  EXPECT_FALSE(service.Query(42, 1.0, kDay).ok());
}

TEST_F(PredictionServiceTest, QueryMatchesOfflineReplay) {
  // The service's online answer must equal the offline replay-based
  // prediction used in the experiments.
  PredictionService service = MakeService();
  const auto& cascade = dataset_->cascades[3];
  const auto& page = dataset_->PageOf(cascade.post);
  ASSERT_TRUE(service.RegisterItem(7, 0.0, page, cascade.post).ok());
  const double s = 12 * kHour;
  for (const auto& e : cascade.views) {
    if (e.time >= s) break;
    ASSERT_TRUE(service.Ingest(7, stream::EngagementType::kView, e.time).ok());
  }
  for (double t : cascade.share_times) {
    if (t >= s) break;
    ASSERT_TRUE(service.Ingest(7, stream::EngagementType::kShare, t).ok());
  }
  for (double t : cascade.comment_times) {
    if (t >= s) break;
    ASSERT_TRUE(service.Ingest(7, stream::EngagementType::kComment, t).ok());
  }
  for (double t : cascade.reaction_times) {
    if (t >= s) break;
    ASSERT_TRUE(service.Ingest(7, stream::EngagementType::kReaction, t).ok());
  }
  const auto online = service.Query(7, s, 2 * kDay);
  ASSERT_TRUE(online.ok());

  const auto snapshot = extractor_->ReplaySnapshot(cascade, s);
  const auto row = extractor_->Extract(page, cascade.post, snapshot);
  const double offline = model_->PredictCount(
      row.data(), static_cast<double>(snapshot.views().total), 2 * kDay);
  EXPECT_DOUBLE_EQ(online->predicted_views, offline);
}

TEST_F(PredictionServiceTest, TopKRanksByPredictedIncrement) {
  PredictionService service = MakeService();
  const double s = 6 * kHour;
  for (int64_t i = 0; i < 20; ++i) {
    const auto& cascade = dataset_->cascades[static_cast<size_t>(i)];
    ASSERT_TRUE(service.RegisterItem(i, 0.0, dataset_->PageOf(cascade.post), cascade.post).ok());
    for (const auto& e : cascade.views) {
      if (e.time >= s) break;
      ASSERT_TRUE(service.Ingest(i, stream::EngagementType::kView, e.time).ok());
    }
  }
  QueryRequest scan;
  scan.s = s;
  scan.delta = 1 * kDay;
  scan.top_k = 5;
  const auto top = service.BatchQuery(scan);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->results.size(), 5u);
  const auto increment = [](const ItemPrediction& p) {
    return p.prediction.predicted_views - p.prediction.observed_views;
  };
  for (size_t i = 1; i < top->results.size(); ++i) {
    EXPECT_GE(increment(top->results[i - 1]), increment(top->results[i]));
  }
  // The leader must match the individually queried maximum.
  double best = -1.0;
  for (int64_t i = 0; i < 20; ++i) {
    const auto q = service.Query(i, s, 1 * kDay);
    best = std::max(best, q->predicted_views - q->observed_views);
  }
  EXPECT_DOUBLE_EQ(increment(top->results[0]), best);
}

TEST_F(PredictionServiceTest, RetiresIdleItems) {
  ServiceConfig config;
  config.idle_retirement_age = 2 * kDay;
  PredictionService service = MakeService(config);
  const auto& cascade = dataset_->cascades[0];
  const auto& page = dataset_->PageOf(cascade.post);
  ASSERT_TRUE(service.RegisterItem(1, 0.0, page, cascade.post).ok());   // will go idle
  ASSERT_TRUE(service.RegisterItem(2, 0.0, page, cascade.post).ok());   // stays active
  ASSERT_TRUE(service.Ingest(1, stream::EngagementType::kView, 1 * kHour).ok());
  ASSERT_TRUE(service.Ingest(2, stream::EngagementType::kView, 1 * kHour).ok());
  ASSERT_TRUE(service.Ingest(2, stream::EngagementType::kView, 5 * kDay - kHour).ok());

  const size_t retired = service.RetireDeadItems(5 * kDay);
  EXPECT_EQ(retired, 1u);
  EXPECT_FALSE(service.HasItem(1));
  EXPECT_TRUE(service.HasItem(2));
  EXPECT_EQ(service.stats().items_retired, 1u);
}

TEST_F(PredictionServiceTest, NotYetLiveItemsAreInvisible) {
  // Items created in the future must not be queryable, must be skipped by
  // a top-k scan, and must not be retired before they go live.
  PredictionService service = MakeService();
  const auto& cascade = dataset_->cascades[0];
  const auto& page = dataset_->PageOf(cascade.post);
  ASSERT_TRUE(service.RegisterItem(1, /*creation_time=*/10 * kDay, page, cascade.post).ok());
  EXPECT_FALSE(service.Query(1, 5 * kDay, kDay).ok());
  QueryRequest scan;
  scan.s = 5 * kDay;
  scan.delta = kDay;
  scan.top_k = 3;
  const auto top = service.BatchQuery(scan);
  ASSERT_TRUE(top.ok());
  EXPECT_TRUE(top->results.empty());
  EXPECT_EQ(service.RetireDeadItems(5 * kDay), 0u);
  EXPECT_TRUE(service.HasItem(1));
  // Once live, it becomes queryable.
  EXPECT_TRUE(service.Query(1, 11 * kDay, kDay).ok());
}

TEST_F(PredictionServiceTest, RetiresNeverViewedItems) {
  ServiceConfig config;
  config.idle_retirement_age = 1 * kDay;
  PredictionService service = MakeService(config);
  const auto& cascade = dataset_->cascades[0];
  ASSERT_TRUE(service.RegisterItem(9, 0.0, dataset_->PageOf(cascade.post), cascade.post).ok());
  EXPECT_EQ(service.RetireDeadItems(2 * kDay), 1u);
  EXPECT_EQ(service.LiveItems(), 0u);
}

// -- Typed Status surface ------------------------------------------------

TEST_F(PredictionServiceTest, RegisterDuplicateIsAlreadyExists) {
  PredictionService service = MakeService();
  const auto& cascade = dataset_->cascades[0];
  const auto& page = dataset_->PageOf(cascade.post);
  ASSERT_TRUE(service.RegisterItem(1, 0.0, page, cascade.post).ok());
  const Status dup = service.RegisterItem(1, 0.0, page, cascade.post);
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
}

TEST_F(PredictionServiceTest, IngestUnknownIsNotFound) {
  PredictionService service = MakeService();
  const Status s = service.Ingest(42, stream::EngagementType::kView, 1.0);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST_F(PredictionServiceTest, QueryUnknownIsNotFound) {
  PredictionService service = MakeService();
  const auto result = service.Query(42, 1.0, kDay);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.code(), StatusCode::kNotFound);
}

TEST_F(PredictionServiceTest, QueryFutureItemIsNotYetLive) {
  PredictionService service = MakeService();
  const auto& cascade = dataset_->cascades[0];
  ASSERT_TRUE(service.RegisterItem(1, /*creation_time=*/10 * kDay,
                       dataset_->PageOf(cascade.post), cascade.post).ok());
  const auto result = service.Query(1, 5 * kDay, kDay);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.code(), StatusCode::kNotYetLive);
}

TEST_F(PredictionServiceTest, BatchQueryRejectsBadArguments) {
  PredictionService service = MakeService();
  QueryRequest negative_delta;
  negative_delta.ids = {1};
  negative_delta.s = kHour;
  negative_delta.delta = -1.0;
  EXPECT_EQ(service.BatchQuery(negative_delta).code(),
            StatusCode::kInvalidArgument);

  QueryRequest empty;  // no ids and no top_k: neither lookup nor scan
  empty.s = kHour;
  empty.delta = kDay;
  EXPECT_EQ(service.BatchQuery(empty).code(), StatusCode::kInvalidArgument);

  QueryRequest nan_s;
  nan_s.ids = {1};
  nan_s.s = std::nan("");
  nan_s.delta = kDay;
  EXPECT_EQ(service.BatchQuery(nan_s).code(), StatusCode::kInvalidArgument);
}

TEST_F(PredictionServiceTest, BatchQueryMixesResultsAndTypedErrors) {
  PredictionService service = MakeService();
  const double s = 6 * kHour;
  const auto& cascade = dataset_->cascades[0];
  const auto& page = dataset_->PageOf(cascade.post);
  ASSERT_TRUE(service.RegisterItem(1, 0.0, page, cascade.post).ok());
  ASSERT_TRUE(service.RegisterItem(2, /*creation_time=*/10 * kDay, page, cascade.post).ok());
  for (const auto& e : cascade.views) {
    if (e.time >= s) break;
    ASSERT_TRUE(service.Ingest(1, stream::EngagementType::kView, e.time).ok());
  }

  QueryRequest request;
  request.ids = {1, 2, 99};
  request.s = s;
  request.delta = kDay;
  const auto response = service.BatchQuery(request);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->results.size(), 1u);
  EXPECT_EQ(response->results[0].item_id, 1);
  EXPECT_GT(response->results[0].prediction.predicted_views, 0.0);

  ASSERT_EQ(response->errors.size(), 2u);
  StatusCode code_for_2 = StatusCode::kOk, code_for_99 = StatusCode::kOk;
  for (const auto& e : response->errors) {
    if (e.item_id == 2) code_for_2 = e.status.code();
    if (e.item_id == 99) code_for_99 = e.status.code();
  }
  EXPECT_EQ(code_for_2, StatusCode::kNotYetLive);
  EXPECT_EQ(code_for_99, StatusCode::kNotFound);
}

TEST_F(PredictionServiceTest, BatchQueryTopKOverIdsRanksAndTruncates) {
  PredictionService service = MakeService();
  const double s = 6 * kHour;
  for (int64_t i = 0; i < 12; ++i) {
    const auto& cascade = dataset_->cascades[static_cast<size_t>(i)];
    ASSERT_TRUE(service.RegisterItem(i, 0.0, dataset_->PageOf(cascade.post), cascade.post).ok());
    for (const auto& e : cascade.views) {
      if (e.time >= s) break;
      ASSERT_TRUE(service.Ingest(i, stream::EngagementType::kView, e.time).ok());
    }
  }
  QueryRequest request;
  for (int64_t i = 0; i < 12; ++i) request.ids.push_back(i);
  request.s = s;
  request.delta = kDay;
  request.top_k = 4;
  const auto response = service.BatchQuery(request);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->results.size(), 4u);
  for (size_t i = 1; i < response->results.size(); ++i) {
    const auto& prev = response->results[i - 1].prediction;
    const auto& cur = response->results[i].prediction;
    EXPECT_GE(prev.predicted_views - prev.observed_views,
              cur.predicted_views - cur.observed_views);
  }
}

TEST_F(PredictionServiceTest, ScanOnEmptyServiceReturnsNothing) {
  PredictionService service = MakeService();
  QueryRequest scan;
  scan.s = 6 * kHour;
  scan.delta = kDay;
  scan.top_k = 5;
  const auto response = service.BatchQuery(scan);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->results.empty());
  EXPECT_TRUE(response->errors.empty());
  EXPECT_EQ(service.stats().queries_answered, 0u);
}

TEST_F(PredictionServiceTest, ScanWithKBeyondLiveItemsReturnsAll) {
  PredictionService service = MakeService();
  const double s = 6 * kHour;
  for (int64_t i = 0; i < 4; ++i) {
    const auto& cascade = dataset_->cascades[static_cast<size_t>(i)];
    ASSERT_TRUE(service.RegisterItem(i, 0.0, dataset_->PageOf(cascade.post), cascade.post).ok());
    for (const auto& e : cascade.views) {
      if (e.time >= s) break;
      ASSERT_TRUE(service.Ingest(i, stream::EngagementType::kView, e.time).ok());
    }
  }
  QueryRequest scan;
  scan.s = s;
  scan.delta = kDay;
  scan.top_k = 1000;  // far beyond the 4 live items
  const auto response = service.BatchQuery(scan);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->results.size(), 4u);
  EXPECT_TRUE(response->errors.empty());
  // Still ranked: increments non-increasing over the full result set.
  for (size_t i = 1; i < response->results.size(); ++i) {
    const auto inc = [](const ItemPrediction& p) {
      return p.prediction.predicted_views - p.prediction.observed_views;
    };
    EXPECT_GE(inc(response->results[i - 1]), inc(response->results[i]));
  }
}

TEST_F(PredictionServiceTest, ScanSkipsItemsNotYetLive) {
  PredictionService service = MakeService();
  const double s = kHour;
  // Every registered item goes live AFTER the scan's prediction time; the
  // scan must skip them silently (no results, no errors) rather than
  // reporting kNotYetLive per item.
  for (int64_t i = 0; i < 3; ++i) {
    const auto& cascade = dataset_->cascades[static_cast<size_t>(i)];
    ASSERT_TRUE(service.RegisterItem(i, s + kHour, dataset_->PageOf(cascade.post),
                         cascade.post).ok());
  }
  QueryRequest scan;
  scan.s = s;
  scan.delta = kDay;
  scan.top_k = 10;
  const auto response = service.BatchQuery(scan);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->results.empty());
  EXPECT_TRUE(response->errors.empty());
  // The same ids through the by-ids path DO report the typed error.
  QueryRequest by_ids;
  by_ids.ids = {0, 1, 2};
  by_ids.s = s;
  by_ids.delta = kDay;
  const auto typed = service.BatchQuery(by_ids);
  ASSERT_TRUE(typed.ok());
  EXPECT_EQ(typed->errors.size(), 3u);
  for (const auto& e : typed->errors) {
    EXPECT_EQ(e.status.code(), StatusCode::kNotYetLive);
  }
}

// A snapshot below an item's last event would count that event, and its
// EWMA decays backwards, to inf 40 days out.  A scan skips such an item
// and counts it; a sweep keeps it, and extracts nothing for it.
TEST_F(PredictionServiceTest, ScansSkipAndSweepsKeepItemsWithEventsAfterS) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  PredictionService service = MakeService(config);
  const double s = kDay;
  for (int64_t id = 0; id < 3; ++id) {
    const auto& cascade = dataset_->cascades[static_cast<size_t>(id)];
    ASSERT_TRUE(service.RegisterItem(id, 0.0, dataset_->PageOf(cascade.post),
                                     cascade.post).ok());
    ASSERT_TRUE(service.Ingest(id, stream::EngagementType::kView, kHour).ok());
  }
  // Item 1 has a view 40 days after s.
  ASSERT_TRUE(service.Ingest(1, stream::EngagementType::kView, s + 40 * kDay).ok());

  QueryRequest scan;
  scan.s = s;
  scan.delta = kDay;
  scan.top_k = 10;
  const auto response = service.BatchQuery(scan);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->errors.empty());
  ASSERT_EQ(response->results.size(), 2u);
  for (const ItemPrediction& p : response->results) {
    EXPECT_NE(p.item_id, 1);
    EXPECT_TRUE(std::isfinite(p.prediction.predicted_views));
  }
  const obs::Counter* after_s =
      registry.GetCounter("horizon_serving_scan_items_with_events_after_s_total");
  EXPECT_EQ(after_s->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("horizon_serving_scan_results_total")->Value(), 2u);

  // Item 2 gets a share 40 days after s; its views, like item 0's, are
  // idle 14 days after s.  The sweep retires item 0 and keeps the two
  // with an event after it.
  ASSERT_TRUE(service.Ingest(2, stream::EngagementType::kShare, s + 40 * kDay).ok());
  EXPECT_EQ(service.RetireDeadItems(s + 14 * kDay), 1u);
  EXPECT_FALSE(service.HasItem(0));
  EXPECT_TRUE(service.HasItem(1));
  EXPECT_TRUE(service.HasItem(2));
  // Past their last events, both are scanned, and nothing more is counted.
  scan.s = s + 40 * kDay;
  const auto later = service.BatchQuery(scan);
  ASSERT_TRUE(later.ok());
  EXPECT_EQ(later->results.size(), 2u);
  EXPECT_EQ(after_s->Value(), 1u);
}

// The forests index the extractor's row by position, so the service
// refuses a model trained on a row of another width when it is built, as
// it refuses a bad ServiceConfig, instead of walking past the row (or
// aborting) on the first query.
TEST_F(PredictionServiceTest, ConstructorRefusesAModelOfAnotherWidth) {
  const size_t width = extractor_->schema().size();
  for (const size_t features : {width - 1, width + 1}) {
    const core::HawkesPredictor model = test::ModelOfWidth(features);
    ASSERT_EQ(model.num_features(), features);
    EXPECT_DEATH(PredictionService(&model, extractor_, ServiceConfig{}),
                 "rejected model: it reads [0-9]+ features, the extractor writes");
  }
}

// The service keeps a pointer to a model its caller owns, so one reloaded
// in place at another width after the constructor's check must abort the
// next query instead of walking past the row.
TEST_F(PredictionServiceTest, QueryAbortsOnAModelReloadedAtAnotherWidth) {
  const size_t width = extractor_->schema().size();
  core::HawkesPredictor model = test::ModelOfWidth(width);
  PredictionService service(&model, extractor_, ServiceConfig{});
  const auto& cascade = dataset_->cascades[0];
  ASSERT_TRUE(service.RegisterItem(1, 0.0, dataset_->PageOf(cascade.post), cascade.post).ok());
  ASSERT_TRUE(service.Query(1, kHour, kDay).ok());
  ASSERT_TRUE(model.Deserialize(test::ModelOfWidth(width + 1).Serialize()));
  EXPECT_DEATH((void)service.Query(1, kHour, kDay), "CHECK failed");
}

TEST_F(PredictionServiceTest, ValidateRejectsBadConfigs) {
  ServiceConfig bad_shards;
  bad_shards.num_shards = 0;
  EXPECT_EQ(bad_shards.Validate().code(), StatusCode::kInvalidArgument);

  ServiceConfig bad_age;
  bad_age.idle_retirement_age = 0.0;
  EXPECT_EQ(bad_age.Validate().code(), StatusCode::kInvalidArgument);

  ServiceConfig bad_threshold;
  bad_threshold.death_probability_threshold = 1.5;
  EXPECT_EQ(bad_threshold.Validate().code(), StatusCode::kInvalidArgument);

  // NaN fails the positivity check, not a comparison-order accident.
  ServiceConfig nan_age;
  nan_age.idle_retirement_age = std::nan("");
  EXPECT_EQ(nan_age.Validate().code(), StatusCode::kInvalidArgument);

  ServiceConfig zero_threshold;
  zero_threshold.death_probability_threshold = 0.0;  // (0, 1] excludes 0
  EXPECT_EQ(zero_threshold.Validate().code(), StatusCode::kInvalidArgument);

  ServiceConfig no_windows;
  no_windows.tracker.window_lengths.clear();
  EXPECT_EQ(no_windows.Validate().code(), StatusCode::kInvalidArgument);

  ServiceConfig no_landmarks;
  no_landmarks.tracker.landmark_ages.clear();
  EXPECT_EQ(no_landmarks.Validate().code(), StatusCode::kInvalidArgument);

  // The rest of what the service's shared stream::TrackerLayout checks.
  ServiceConfig zero_window;
  zero_window.tracker.window_lengths[1] = 0.0;
  EXPECT_EQ(zero_window.Validate().code(), StatusCode::kInvalidArgument);
  ServiceConfig zero_tau;
  zero_tau.tracker.ewma_tau = 0.0;
  EXPECT_EQ(zero_tau.Validate().code(), StatusCode::kInvalidArgument);
  // Below kMinEpsilon a window's bucket count could outgrow the 16 bits a
  // stream block keeps it in.
  for (const double epsilon :
       {0.0, 1.5, std::nan(""), 1e-300, stream::kMinEpsilon / 2,
        std::nextafter(stream::kMinEpsilon, 0.0)}) {
    ServiceConfig bad_epsilon;
    bad_epsilon.tracker.epsilon = epsilon;
    EXPECT_EQ(bad_epsilon.Validate().code(), StatusCode::kInvalidArgument) << epsilon;
  }
  ServiceConfig finest_epsilon;
  finest_epsilon.tracker.epsilon = stream::kMinEpsilon;
  EXPECT_TRUE(finest_epsilon.Validate().ok());

  // Snapshots hold at most kMaxTrackerLayout windows and landmarks inline.
  ServiceConfig many_windows;
  many_windows.tracker.window_lengths.assign(stream::kMaxTrackerLayout + 1, kHour);
  EXPECT_EQ(many_windows.Validate().code(), StatusCode::kInvalidArgument);
  ServiceConfig many_landmarks;
  many_landmarks.tracker.landmark_ages.assign(stream::kMaxTrackerLayout + 1, kHour);
  EXPECT_EQ(many_landmarks.Validate().code(), StatusCode::kInvalidArgument);
  ServiceConfig full_layout;
  full_layout.tracker.window_lengths.assign(stream::kMaxTrackerLayout, kHour);
  full_layout.tracker.landmark_ages.assign(stream::kMaxTrackerLayout, kHour);
  EXPECT_TRUE(full_layout.Validate().ok());

  // A tracker layout that disagrees with the extractor's is a config
  // mismatch: features would be computed against the wrong windows.
  ServiceConfig skewed;
  skewed.tracker.window_lengths.push_back(99 * kDay);
  EXPECT_EQ(skewed.Validate(extractor_).code(), StatusCode::kConfigMismatch);

  // So are EWMA constants that differ only in the decay parameters.
  ServiceConfig skewed_tau;
  skewed_tau.tracker.ewma_tau *= 2.0;
  EXPECT_EQ(skewed_tau.Validate(extractor_).code(), StatusCode::kConfigMismatch);

  EXPECT_TRUE(ServiceConfig{}.Validate(extractor_).ok());
  // Without an extractor only the intrinsic checks run.
  EXPECT_TRUE(skewed.Validate().ok());
}

TEST_F(PredictionServiceTest, RestoreReportsTypedFailures) {
  const std::string dir =
      ::testing::TempDir() + "horizon_serving_status_restore";
  io::RemoveTree(dir);

  // No checkpoint at all: kNotFound.
  PredictionService service = MakeService();
  EXPECT_EQ(service.Restore(dir).code(), StatusCode::kNotFound);

  // A CURRENT pointer naming a missing/invalid checkpoint: kCorruption.
  ASSERT_TRUE(io::EnsureDir(dir).ok());
  ASSERT_TRUE(io::WriteFileAtomic(dir + "/CURRENT", "not-a-checkpoint\n").ok());
  EXPECT_EQ(service.Restore(dir).code(), StatusCode::kCorruption);
  io::RemoveTree(dir);
}

TEST_F(PredictionServiceTest, RestoreUnderDifferentLayoutIsConfigMismatch) {
  const std::string dir =
      ::testing::TempDir() + "horizon_serving_status_mismatch";
  io::RemoveTree(dir);
  {
    PredictionService writer = MakeService();
    const auto& cascade = dataset_->cascades[0];
    ASSERT_TRUE(writer.RegisterItem(1, 0.0, dataset_->PageOf(cascade.post), cascade.post).ok());
    ASSERT_TRUE(writer.Ingest(1, stream::EngagementType::kView, kHour).ok());
    ASSERT_TRUE(writer.Checkpoint(dir).ok());
  }
  // A reader configured with an extra tracking window cannot adopt the
  // checkpointed tracker state.
  ServiceConfig skewed;
  skewed.tracker.window_lengths.push_back(99 * kDay);
  const features::FeatureExtractor skewed_extractor(skewed.tracker);
  const core::HawkesPredictor skewed_model =
      test::ModelOfWidth(skewed_extractor.schema().size());
  PredictionService reader(&skewed_model, &skewed_extractor, skewed);
  // The reader's model differs too; the layout is what must be refused.
  const Status restored = reader.Restore(dir);
  EXPECT_EQ(restored.code(), StatusCode::kConfigMismatch);
  EXPECT_NE(restored.message().find("window layout"), std::string::npos)
      << restored.message();
  io::RemoveTree(dir);
}

TEST_F(PredictionServiceTest, ErrorCountersTrackTypedFailures) {
  // A private registry isolates this service's instruments.
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  PredictionService service = MakeService(config);

  (void)service.Query(404, kHour, kDay);                       // not_found
  (void)service.Ingest(404, stream::EngagementType::kView, 1.0);
  QueryRequest bad;
  bad.ids = {404};
  bad.s = kHour;
  bad.delta = -1.0;
  (void)service.BatchQuery(bad);                               // invalid_argument

  EXPECT_EQ(
      registry.GetCounter("horizon_serving_errors_not_found_total")->Value(),
      2u);
  EXPECT_EQ(registry.GetCounter("horizon_serving_errors_invalid_argument_total")
                ->Value(),
            1u);

  const auto& cascade = dataset_->cascades[0];
  ASSERT_TRUE(service.RegisterItem(7, 0.0, dataset_->PageOf(cascade.post), cascade.post).ok());
  ASSERT_TRUE(service.Ingest(7, stream::EngagementType::kView, kHour).ok());
  (void)service.Query(7, 6 * kHour, kDay);
  EXPECT_EQ(registry.GetCounter("horizon_serving_items_registered_total")->Value(),
            1u);
  EXPECT_EQ(registry.GetCounter("horizon_serving_events_ingested_total")->Value(),
            1u);
  EXPECT_EQ(registry.GetCounter("horizon_serving_queries_total")->Value(), 1u);
  EXPECT_DOUBLE_EQ(registry.GetGauge("horizon_serving_live_items")->Value(),
                   1.0);
  // The query latency histogram saw the answered query.
  EXPECT_GE(registry.GetHistogram("horizon_serving_query_latency_seconds")
                ->Count(),
            1u);
}

// The tracker-bytes gauge is written by the retirement sweep only, as the
// summed MemoryBytes() of the items it keeps.
TEST_F(PredictionServiceTest, TrackerBytesGaugeIsRefreshedByRetirement) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  PredictionService service = MakeService(config);
  const obs::Gauge* gauge = registry.GetGauge("horizon_serving_tracker_bytes");
  std::vector<stream::CascadeTracker> shadows;
  for (int64_t id = 0; id < 20; ++id) {
    const auto& cascade = dataset_->cascades[static_cast<size_t>(id)];
    ASSERT_TRUE(service.RegisterItem(id, 0.0, dataset_->PageOf(cascade.post),
                                     cascade.post).ok());
    shadows.emplace_back(0.0, config.tracker);
    for (const auto& e : cascade.views) {
      if (e.time >= 6 * kHour) break;
      ASSERT_TRUE(service.Ingest(id, stream::EngagementType::kView, e.time).ok());
      shadows.back().Observe(stream::EngagementType::kView, e.time);
    }
  }
  EXPECT_EQ(gauge->Value(), 0.0);  // registration and ingest leave it alone

  const size_t retired = service.RetireDeadItems(6 * kHour);
  size_t expected = 0;
  for (int64_t id = 0; id < 20; ++id) {
    if (service.HasItem(id)) expected += shadows[static_cast<size_t>(id)].MemoryBytes();
  }
  EXPECT_EQ(service.LiveItems(), 20u - retired);
  EXPECT_GT(expected, 0u);
  EXPECT_EQ(gauge->Value(), static_cast<double>(expected));

  EXPECT_EQ(service.RetireDeadItems(100 * kDay), 20u - retired);
  EXPECT_EQ(gauge->Value(), 0.0);
}

// The item-index gauge, also written by the sweep only, sums the slot
// bytes of every shard's index: 100 items in one shard fill 128 slots at
// the 7/8 load cap, 16 bytes (an id and a pointer) each.
TEST_F(PredictionServiceTest, ItemIndexBytesGaugeIsRefreshedByRetirement) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  config.num_shards = 1;
  PredictionService service = MakeService(config);
  const obs::Gauge* gauge = registry.GetGauge("horizon_serving_item_index_bytes");
  for (int64_t id = 0; id < 100; ++id) {
    const auto& cascade = dataset_->cascades[static_cast<size_t>(id)];
    ASSERT_TRUE(service.RegisterItem(id, 0.0, dataset_->PageOf(cascade.post),
                                     cascade.post).ok());
  }
  EXPECT_EQ(gauge->Value(), 0.0);  // registration leaves it alone
  EXPECT_EQ(service.RetireDeadItems(0.0), 0u);
  EXPECT_EQ(gauge->Value(), 128.0 * 16.0);
}

// Non-finite times would trip the tracker's ordering checks and abort the
// process (+inf only on the item's NEXT event); the service boundary
// rejects them and counts each as an invalid argument.
TEST_F(PredictionServiceTest, NonFiniteTimesAreRejectedNotFatal) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  PredictionService service = MakeService(config);
  const auto& cascade = dataset_->cascades[0];
  ASSERT_TRUE(service.RegisterItem(1, 0.0, dataset_->PageOf(cascade.post),
                                   cascade.post).ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto view = stream::EngagementType::kView;

  EXPECT_EQ(service.Ingest(1, view, nan).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.Ingest(1, view, inf).code(), StatusCode::kInvalidArgument);
  // The batch drops the bad event, as it drops unknown ids, and applies
  // the rest.
  EXPECT_EQ(service.IngestBatch({{1, view, nan}, {1, view, kHour}}), 1u);
  EXPECT_EQ(service.RetireDeadItems(nan), 0u);
  EXPECT_TRUE(service.HasItem(1));
  // Later events for the item still apply.
  EXPECT_TRUE(service.Ingest(1, view, 2 * kHour).ok());
  EXPECT_EQ(service.stats().events_ingested, 2u);
  EXPECT_EQ(registry.GetCounter("horizon_serving_errors_invalid_argument_total")
                ->Value(),
            4u);
}

// A non-finite creation time used to be accepted, and the item's next
// Ingest or Query then aborted the process in the tracker's checks.
TEST_F(PredictionServiceTest, NonFiniteCreationTimeIsRejectedNotFatal) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  PredictionService service = MakeService(config);
  const auto& cascade = dataset_->cascades[0];
  const auto& page = dataset_->PageOf(cascade.post);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  EXPECT_EQ(service.RegisterItem(1, nan, page, cascade.post).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.RegisterItem(2, inf, page, cascade.post).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.RegisterItem(3, -inf, page, cascade.post).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(service.HasItem(1));
  EXPECT_EQ(service.LiveItems(), 0u);
  // The id stays free: a well-formed registration of it succeeds, and
  // the item then ingests and answers as usual.
  ASSERT_TRUE(service.RegisterItem(1, 0.0, page, cascade.post).ok());
  EXPECT_TRUE(service.Ingest(1, stream::EngagementType::kView, kHour).ok());
  const auto answer = service.Query(1, 2 * kHour, kDay);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->observed_views, 1.0);
  EXPECT_EQ(service.stats().items_registered, 1u);
  EXPECT_EQ(registry.GetCounter("horizon_serving_errors_invalid_argument_total")
                ->Value(),
            3u);
}

// An event before the item's creation time used to trip the tracker's
// creation-time check and abort the process.
TEST_F(PredictionServiceTest, PreCreationEventsAreRejectedNotFatal) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  PredictionService service = MakeService(config);
  const auto& cascade = dataset_->cascades[0];
  const double created = kDay;
  ASSERT_TRUE(service.RegisterItem(1, created, dataset_->PageOf(cascade.post),
                                   cascade.post).ok());
  const auto view = stream::EngagementType::kView;
  const auto share = stream::EngagementType::kShare;

  EXPECT_EQ(service.Ingest(1, view, created - 1.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.Ingest(1, share, 0.0).code(), StatusCode::kInvalidArgument);
  // An event at the creation time itself is on time.
  EXPECT_TRUE(service.Ingest(1, view, created).ok());
  // The batch drops the pre-creation event and applies the rest.
  EXPECT_EQ(service.IngestBatch({{1, share, created - kHour},
                                 {1, share, created + kHour},
                                 {1, view, created + kHour}}),
            2u);
  EXPECT_EQ(service.stats().events_ingested, 3u);
  const auto answer = service.Query(1, created + 2 * kHour, kDay);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->observed_views, 2.0);
  EXPECT_EQ(registry.GetCounter("horizon_serving_errors_invalid_argument_total")
                ->Value(),
            3u);
}

// An event older than the item's last event of the same type used to trip
// the sliding-window ordering check and abort the process.  Each engagement
// type is ordered on its own, so an older event of another type is on time.
TEST_F(PredictionServiceTest, LateEventsAreRejectedNotFatal) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  PredictionService service = MakeService(config);
  const auto& cascade = dataset_->cascades[0];
  ASSERT_TRUE(service.RegisterItem(1, 0.0, dataset_->PageOf(cascade.post),
                                   cascade.post).ok());
  const auto view = stream::EngagementType::kView;
  const auto comment = stream::EngagementType::kComment;

  ASSERT_TRUE(service.Ingest(1, view, 2 * kHour).ok());
  EXPECT_EQ(service.Ingest(1, view, kHour).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(service.Ingest(1, view, 2 * kHour).ok());  // ties are on time
  EXPECT_TRUE(service.Ingest(1, comment, kHour).ok());    // other type
  // Within a batch, lateness is judged against the events applied before
  // it, the batch's own included.
  EXPECT_EQ(service.IngestBatch({{1, view, 4 * kHour},
                                 {1, view, 3 * kHour},
                                 {1, comment, 30 * 60.0},
                                 {1, view, 5 * kHour}}),
            2u);
  EXPECT_EQ(service.stats().events_ingested, 5u);
  const auto answer = service.Query(1, 6 * kHour, kDay);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->observed_views, 4.0);
  EXPECT_EQ(registry.GetCounter("horizon_serving_errors_invalid_argument_total")
                ->Value(),
            3u);
}

// -- The point-query path ------------------------------------------------

/// Items 0..n-1: cascade i created at time 0, its views and shares before
/// `until` ingested.  Returns each item's shadow tracker, fed the same
/// events, for module-level recomputation.
std::vector<stream::CascadeTracker> LoadItems(PredictionService* service,
                                              const datagen::SyntheticDataset& data,
                                              const features::FeatureExtractor& extractor,
                                              int64_t n, double until) {
  std::vector<stream::CascadeTracker> shadows;
  for (int64_t i = 0; i < n; ++i) {
    const auto& cascade = data.cascades[static_cast<size_t>(i)];
    EXPECT_TRUE(service->RegisterItem(i, 0.0, data.PageOf(cascade.post), cascade.post).ok());
    shadows.emplace_back(0.0, extractor.tracker_layout());
    for (const auto& e : cascade.views) {
      if (e.time >= until) break;
      EXPECT_TRUE(service->Ingest(i, stream::EngagementType::kView, e.time).ok());
      shadows.back().Observe(stream::EngagementType::kView, e.time);
    }
    for (const double t : cascade.share_times) {
      if (t >= until) break;
      EXPECT_TRUE(service->Ingest(i, stream::EngagementType::kShare, t).ok());
      shadows.back().Observe(stream::EngagementType::kShare, t);
    }
  }
  return shadows;
}

bool SameBits(const PredictionResult& a, const PredictionResult& b) {
  return std::bit_cast<uint64_t>(a.observed_views) ==
             std::bit_cast<uint64_t>(b.observed_views) &&
         std::bit_cast<uint64_t>(a.predicted_views) ==
             std::bit_cast<uint64_t>(b.predicted_views) &&
         std::bit_cast<uint64_t>(a.alpha) == std::bit_cast<uint64_t>(b.alpha);
}

// After one warm-up call sizes the calling thread's scratch storage, a
// point query touches no heap: no request, response, feature batch or
// ParallelFor closure.  256 rounds pass the extractor's 1-in-64 sample.
TEST_F(PredictionServiceTest, PointQueryAllocatesNothingAfterWarmUp) {
#ifdef HORIZON_TEST_SANITIZED
  GTEST_SKIP() << "the sanitizer runtime owns operator new";
#else
  PredictionService service = MakeService();
  (void)LoadItems(&service, *dataset_, *extractor_, 4, 6 * kHour);
  ASSERT_TRUE(service.Query(2, 6 * kHour, kDay).ok());

  size_t allocations = 0;
  size_t answered = 0;
  for (int i = 0; i < 256; ++i) {
    const size_t before = test::ThreadAllocations();
    const StatusOr<PredictionResult> result =
        service.Query(i % 4, 6 * kHour + i * kMinute, (i % 7) * kHour);
    allocations += test::ThreadAllocations() - before;
    answered += result.ok() ? 1 : 0;
  }
  EXPECT_EQ(answered, 256u);
  EXPECT_EQ(allocations, 0u);
  // The counter itself works: a one-id BatchQuery builds a request and a
  // response.
  const size_t before = test::ThreadAllocations();
  QueryRequest request;
  request.ids = {2};
  request.s = 6 * kHour;
  request.delta = kDay;
  ASSERT_TRUE(service.BatchQuery(request).ok());
  EXPECT_GT(test::ThreadAllocations() - before, 0u);
#endif
}

// Building a service allocates nothing model-sized: the digest a
// checkpoint's manifest records (the CRC-32 and size of the model's
// text) is computed once, when the model is trained or read, and the
// constructor only reads it.  The model here has over 256 KB of text.
TEST_F(PredictionServiceTest, ConstructorAllocatesNothingModelSized) {
#ifdef HORIZON_TEST_SANITIZED
  GTEST_SKIP() << "the sanitizer runtime owns operator new";
#else
  std::vector<size_t> indices(dataset_->cascades.size());
  for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  core::ExampleSetOptions options;
  options.reference_horizons = {6 * kHour, 1 * kDay, 7 * kDay};
  const auto examples = core::BuildExampleSet(*dataset_, indices, *extractor_, options);
  core::HawkesPredictorParams params;
  params.reference_horizons = options.reference_horizons;
  core::HawkesPredictor model(params);
  model.Fit(examples.x, examples.log1p_increments, examples.alpha_targets);
  const std::string text = model.Serialize();
  ASSERT_GE(text.size(), 256u * 1024u);
  EXPECT_EQ(model.digest().size, text.size());
  EXPECT_EQ(model.digest().crc, io::Crc32(text));
  core::HawkesPredictor read;
  ASSERT_TRUE(read.Deserialize(text));
  EXPECT_EQ(read.digest().size, text.size());
  EXPECT_EQ(read.digest().crc, io::Crc32(text));

  // The service's own shards and instruments take ~25 KB.
  const std::ptrdiff_t base = test::ThreadLiveBytes();
  test::ResetThreadPeakLiveBytes();
  {
    const PredictionService service(&model, extractor_, ServiceConfig{});
    EXPECT_LT(test::ThreadPeakLiveBytes() - base,
              static_cast<std::ptrdiff_t>(text.size() / 8));
  }
#endif
}

// Per-item state, what Prop. 3.2 keeps O(1): ~2,000 posts of the shape the
// end-to-end benchmark serves (mean cascade 6, a page per ten posts),
// registered on one thread with all their events ingested, hold at most
// kMaxBytesPerItem live heap bytes per item: the item (its tracker and
// static-feature record), its streams' blocks and its index slot.
TEST_F(PredictionServiceTest, LiveHeapBytesPerItemStayBounded) {
#ifdef HORIZON_TEST_SANITIZED
  GTEST_SKIP() << "the sanitizer runtime owns operator new";
#else
  // Measured 451.2 bytes.  A 32-float record, 112-byte block headers and
  // regions that doubled read 550.8.
  constexpr double kMaxBytesPerItem = 465.0;
  datagen::GeneratorConfig config;
  config.num_posts = 2000;
  config.num_pages = 200;
  config.base_mean_size = 6.0;
  config.seed = 30;
  const datagen::SyntheticDataset data = datagen::Generator(config).Generate();
  const std::vector<datagen::PlatformEvent> events = datagen::BuildEventStream(data);
  PredictionService service = MakeService();
  const std::ptrdiff_t base = test::ThreadLiveBytes();
  for (const auto& cascade : data.cascades) {
    ASSERT_TRUE(service
                    .RegisterItem(cascade.post.id, cascade.post.creation_time,
                                  data.PageOf(cascade.post), cascade.post)
                    .ok());
  }
  for (const datagen::PlatformEvent& e : events) {
    ASSERT_TRUE(service.Ingest(e.post_id, e.type, e.time).ok());
  }
  ASSERT_EQ(service.LiveItems(), data.cascades.size());
  const double per_item = static_cast<double>(test::ThreadLiveBytes() - base) /
                          static_cast<double>(service.LiveItems());
  EXPECT_LE(per_item, kMaxBytesPerItem);
  RecordProperty("bytes_per_item", std::to_string(per_item));
#endif
}

// Query and BatchQuery share one per-id routine: over random (id, s,
// delta) triples, delta = 0 included, Query equals BatchQuery({id}) and
// the module-level recomputation (snapshot -> extract ->
// PredictCountBatch) bit for bit.  So does one BatchQuery over 300 ids,
// which it answers 64 at a time.
TEST_F(PredictionServiceTest, QueryEqualsBatchQueryAndRecomputation) {
  constexpr int64_t kItems = 24;
  PredictionService service = MakeService();
  const std::vector<stream::CascadeTracker> shadows =
      LoadItems(&service, *dataset_, *extractor_, kItems, 12 * kHour);
  Rng rng(2024);
  for (int trial = 0; trial < 1200; ++trial) {
    const auto id = static_cast<int64_t>(rng.UniformInt(kItems));
    const double s = rng.Uniform(12 * kHour, 5 * kDay);
    const double delta =
        trial % 8 == 0 ? 0.0 : std::exp(rng.Uniform(std::log(kMinute), std::log(30 * kDay)));

    const StatusOr<PredictionResult> one = service.Query(id, s, delta);
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    QueryRequest request;
    request.ids = {id};
    request.s = s;
    request.delta = delta;
    const StatusOr<QueryResponse> batch = service.BatchQuery(request);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->results.size(), 1u);

    const stream::TrackerSnapshot snapshot = shadows[static_cast<size_t>(id)].Snapshot(s);
    const auto& cascade = dataset_->cascades[static_cast<size_t>(id)];
    gbdt::ExampleBatch x(1, extractor_->schema().size());
    extractor_->ExtractIntoStrided(dataset_->PageOf(cascade.post), cascade.post, snapshot,
                                   x.MutableRowBase(0), x.feature_stride());
    const double observed = static_cast<double>(snapshot.views().total);
    std::vector<double> alphas;
    const std::vector<double> counts = model_->PredictCountBatch(x, {observed}, {delta}, &alphas);
    const PredictionResult expected{observed, counts[0], alphas[0]};

    ASSERT_TRUE(SameBits(*one, batch->results[0].prediction))
        << "id " << id << " s " << s << " delta " << delta;
    ASSERT_TRUE(SameBits(*one, expected)) << "id " << id << " s " << s << " delta " << delta;
  }

  QueryRequest many;
  for (int i = 0; i < 300; ++i) many.ids.push_back(i % kItems);
  many.s = 2 * kDay;
  many.delta = 3 * kDay;
  const StatusOr<QueryResponse> batch = service.BatchQuery(many);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->results.size(), many.ids.size());
  for (size_t i = 0; i < many.ids.size(); ++i) {
    const StatusOr<PredictionResult> one = service.Query(many.ids[i], many.s, many.delta);
    ASSERT_TRUE(one.ok());
    EXPECT_EQ(batch->results[i].item_id, many.ids[i]);
    EXPECT_TRUE(SameBits(*one, batch->results[i].prediction)) << "row " << i;
  }
}

// A scan scores every live item in the extract-and-score step a point
// query runs, so each answer equals Query(id, s, delta) bit for bit, both
// when every item is returned and after a top-5 cut.  One shard of 320
// items makes five 64-row chunks, each two 32-row SIMD groups.  Each
// forest scores each live row once: the winners get no second alpha
// walk.
TEST_F(PredictionServiceTest, ScanAnswersMatchPointQueriesBitForBit) {
  constexpr size_t kItems = 320;  // ids past 250 reuse the fixture's cascades
  ServiceConfig config;
  config.num_shards = 1;
  PredictionService service = MakeService(config);
  const double s = 12 * kHour;
  const double delta = 2 * kDay;
  for (size_t i = 0; i < kItems; ++i) {
    const auto& cascade = dataset_->cascades[i % dataset_->cascades.size()];
    const auto id = static_cast<int64_t>(i);
    ASSERT_TRUE(service.RegisterItem(id, 0.0, dataset_->PageOf(cascade.post), cascade.post).ok());
    for (const auto& e : cascade.views) {
      if (e.time >= s) break;
      ASSERT_TRUE(service.Ingest(id, stream::EngagementType::kView, e.time).ok());
    }
  }
  const auto increment = [](const ItemPrediction& p) {
    return p.prediction.predicted_views - p.prediction.observed_views;
  };
  obs::Counter* const rows_scored =
      obs::MetricsRegistry::Global().GetCounter("horizon_gbdt_rows_scored_total");
  for (const size_t top_k : {kItems, size_t{5}}) {
    SCOPED_TRACE(testing::Message() << "top_k " << top_k);
    QueryRequest scan;
    scan.s = s;
    scan.delta = delta;
    scan.top_k = top_k;
    const uint64_t before = rows_scored->Value();
    const StatusOr<QueryResponse> response = service.BatchQuery(scan);
    EXPECT_EQ(rows_scored->Value() - before,
              kItems * (model_->num_reference_horizons() + 1));
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->results.size(), top_k);
    for (size_t i = 0; i < top_k; ++i) {
      const ItemPrediction& got = response->results[i];
      if (i > 0) {
        EXPECT_GE(increment(response->results[i - 1]), increment(got));
      }
      const StatusOr<PredictionResult> one = service.Query(got.item_id, s, delta);
      ASSERT_TRUE(one.ok());
      ASSERT_TRUE(SameBits(*one, got.prediction)) << "rank " << i << " id " << got.item_id;
    }
  }
}

// Every way a point query can fail gets the same code, and the same
// error-counter increments, through Query and a one-id BatchQuery.
TEST_F(PredictionServiceTest, QueryAndBatchQueryFailAlike) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  PredictionService service = MakeService(config);
  const auto& cascade = dataset_->cascades[0];
  ASSERT_TRUE(service.RegisterItem(1, 0.0, dataset_->PageOf(cascade.post), cascade.post).ok());
  ASSERT_TRUE(
      service.RegisterItem(2, 10 * kDay, dataset_->PageOf(cascade.post), cascade.post).ok());
  const auto error_counts = [&] {
    std::array<uint64_t, 10> counts{};
    for (int code = 1; code <= 9; ++code) {
      counts[static_cast<size_t>(code)] =
          registry
              .GetCounter("horizon_serving_errors_" +
                          std::string(StatusCodeName(static_cast<StatusCode>(code))) +
                          "_total")
              ->Value();
    }
    return counts;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* what;
    int64_t id;
    double s;
    double delta;
    StatusCode code;
  };
  const Case cases[] = {
      {"unknown id", 404, kDay, kDay, StatusCode::kNotFound},
      {"not yet live", 2, kDay, kDay, StatusCode::kNotYetLive},
      {"NaN s", 1, nan, kDay, StatusCode::kInvalidArgument},
      {"infinite s", 1, inf, kDay, StatusCode::kInvalidArgument},
      {"NaN delta", 1, kDay, nan, StatusCode::kInvalidArgument},
      {"infinite delta", 1, kDay, inf, StatusCode::kInvalidArgument},
      {"negative delta", 1, kDay, -kHour, StatusCode::kInvalidArgument},
      {"unknown id, NaN s", 404, nan, kDay, StatusCode::kInvalidArgument},
  };
  for (const Case& c : cases) {
    const auto before_query = error_counts();
    const StatusOr<PredictionResult> one = service.Query(c.id, c.s, c.delta);
    const auto after_query = error_counts();

    QueryRequest request;
    request.ids = {c.id};
    request.s = c.s;
    request.delta = c.delta;
    const StatusOr<QueryResponse> batch = service.BatchQuery(request);
    const auto after_batch = error_counts();
    Status batch_status = batch.status();
    if (batch.ok()) {
      ASSERT_EQ(batch->errors.size(), 1u) << c.what;
      EXPECT_TRUE(batch->results.empty()) << c.what;
      batch_status = batch->errors[0].status;
    }

    EXPECT_EQ(one.code(), c.code) << c.what;
    EXPECT_EQ(batch_status.code(), c.code) << c.what;
    for (size_t code = 1; code <= 9; ++code) {
      const uint64_t by_query = after_query[code] - before_query[code];
      EXPECT_EQ(by_query, code == static_cast<size_t>(c.code) ? 1u : 0u)
          << c.what << ", counter " << code;
      EXPECT_EQ(after_batch[code] - after_query[code], by_query)
          << c.what << ", counter " << code;
    }
  }
  EXPECT_EQ(service.stats().queries_answered, 0u);
}

}  // namespace
}  // namespace horizon::serving
