#include "serving/prediction_service.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/file_io.h"
#include "core/trainer.h"
#include "eval/split.h"

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
  EXPECT_TRUE(service.RegisterItem(1, 0.0, page, cascade.post));
  EXPECT_FALSE(service.RegisterItem(1, 0.0, page, cascade.post));  // duplicate
  EXPECT_TRUE(service.HasItem(1));
  EXPECT_EQ(service.LiveItems(), 1u);

  size_t ingested = 0;
  for (const auto& e : cascade.views) {
    if (e.time >= 6 * kHour) break;
    EXPECT_TRUE(service.Ingest(1, stream::EngagementType::kView, e.time));
    ++ingested;
  }
  const auto result = service.Query(1, 6 * kHour, 1 * kDay);
  ASSERT_TRUE(result.has_value());
  EXPECT_DOUBLE_EQ(result->observed_views, static_cast<double>(ingested));
  EXPECT_GE(result->predicted_views, result->observed_views);
  EXPECT_GT(result->alpha, 0.0);

  EXPECT_EQ(service.stats().items_registered, 1u);
  EXPECT_EQ(service.stats().events_ingested, ingested);
  EXPECT_EQ(service.stats().queries_answered, 1u);
}

TEST_F(PredictionServiceTest, IngestUnknownItemDropped) {
  PredictionService service = MakeService();
  EXPECT_FALSE(service.Ingest(42, stream::EngagementType::kView, 1.0));
  EXPECT_FALSE(service.Query(42, 1.0, kDay).has_value());
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
  ASSERT_TRUE(online.has_value());

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
  const auto top = service.TopK(s, 1 * kDay, 5);
  ASSERT_EQ(top.size(), 5u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].second, top[i].second);
  }
  // The leader must match the individually queried maximum.
  double best = -1.0;
  for (int64_t i = 0; i < 20; ++i) {
    const auto q = service.Query(i, s, 1 * kDay);
    best = std::max(best, q->predicted_views - q->observed_views);
  }
  EXPECT_DOUBLE_EQ(top[0].second, best);
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
  // TopK, and must not be retired before they go live.
  PredictionService service = MakeService();
  const auto& cascade = dataset_->cascades[0];
  const auto& page = dataset_->PageOf(cascade.post);
  ASSERT_TRUE(service.RegisterItem(1, /*creation_time=*/10 * kDay, page, cascade.post).ok());
  EXPECT_FALSE(service.Query(1, 5 * kDay, kDay).has_value());
  EXPECT_TRUE(service.TopK(5 * kDay, kDay, 3).empty());
  EXPECT_EQ(service.RetireDeadItems(5 * kDay), 0u);
  EXPECT_TRUE(service.HasItem(1));
  // Once live, it becomes queryable.
  EXPECT_TRUE(service.Query(1, 11 * kDay, kDay).has_value());
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

TEST_F(PredictionServiceTest, BatchQueryScanMatchesTopKShim) {
  PredictionService service = MakeService();
  const double s = 6 * kHour;
  for (int64_t i = 0; i < 10; ++i) {
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
  scan.top_k = 3;
  const auto response = service.BatchQuery(scan);
  ASSERT_TRUE(response.ok());
  const auto top = service.TopK(s, kDay, 3);
  ASSERT_EQ(response->results.size(), top.size());
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(response->results[i].item_id, top[i].first);
    EXPECT_DOUBLE_EQ(response->results[i].prediction.predicted_views -
                         response->results[i].prediction.observed_views,
                     top[i].second);
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
  PredictionService reader(model_, &skewed_extractor, skewed);
  EXPECT_EQ(reader.Restore(dir).code(), StatusCode::kConfigMismatch);
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

}  // namespace
}  // namespace horizon::serving
