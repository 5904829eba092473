// Durability tests for PredictionService::Checkpoint / Restore.
//
// The load-bearing test is CrashAtEveryFaultPointNeverCorrupts: it arms
// the deterministic crash injector at every successive write/fsync/rename
// point of a checkpoint and proves that (a) the torn checkpoint is never
// loaded and (b) the previous valid checkpoint still restores to
// bit-identical predictions.  The suite is also registered with
// HORIZON_THREADS=1 and =8 (see tests/CMakeLists.txt) so the round-trip
// guarantees hold at any pool width.
#include "serving/prediction_service.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "checkpoint_files.h"
#include "common/file_io.h"
#include "common/rng.h"
#include "core/trainer.h"
#include "model_of_width.h"
#include "obs/metrics.h"

namespace horizon::serving {
namespace {

using test::CommittedCheckpoint;
using test::FramedPayload;
using test::ReframeShard;
using test::ReframeShards;
using test::ShardText;
using test::SplitShard;

// Shared fixture: a small trained model plus its extractor and dataset.
class CheckpointTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::GeneratorConfig config;
    config.num_pages = 20;
    config.num_posts = 120;
    config.base_mean_size = 60.0;
    config.seed = 77;
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
    params.gbdt_count.num_trees = 25;
    params.gbdt_alpha.num_trees = 25;
    model_ = new core::HawkesPredictor(params);
    model_->Fit(examples.x, examples.log1p_increments, examples.alpha_targets);
  }

  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
    delete extractor_;
    extractor_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  void TearDown() override {
    io::FaultInjector::Global().Disarm();
    if (!dir_.empty()) io::RemoveTree(dir_);
  }

  /// Fresh scratch checkpoint directory for this test.  Keyed by pid as
  /// well as test name: ctest runs this binary concurrently under several
  /// HORIZON_THREADS settings, and those processes must not share paths.
  const std::string& Dir() {
    if (dir_.empty()) {
      dir_ = ::testing::TempDir() + "horizon_ckpt_" +
             std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name();
      io::RemoveTree(dir_);
    }
    return dir_;
  }

  PredictionService MakeService(ServiceConfig config = {}) const {
    return PredictionService(model_, extractor_, config);
  }

  /// Registers `items` items and ingests all four engagement streams up to
  /// event time `age`.
  void Load(PredictionService* service, int64_t items, double age) const {
    for (int64_t id = 0; id < items; ++id) {
      const auto& cascade =
          dataset_->cascades[static_cast<size_t>(id) % dataset_->cascades.size()];
      ASSERT_TRUE(service->RegisterItem(id, 0.0, dataset_->PageOf(cascade.post),
                                        cascade.post).ok());
      for (const auto& e : cascade.views) {
        if (e.time >= age) break;
        ASSERT_TRUE(service->Ingest(id, stream::EngagementType::kView, e.time).ok());
      }
      for (double t : cascade.share_times) {
        if (t >= age) break;
        ASSERT_TRUE(service->Ingest(id, stream::EngagementType::kShare, t).ok());
      }
      for (double t : cascade.comment_times) {
        if (t >= age) break;
        ASSERT_TRUE(service->Ingest(id, stream::EngagementType::kComment, t).ok());
      }
      for (double t : cascade.reaction_times) {
        if (t >= age) break;
        ASSERT_TRUE(service->Ingest(id, stream::EngagementType::kReaction, t).ok());
      }
    }
  }

  /// Every item's full query answer at (s, delta), in id order.
  static std::vector<PredictionResult> Snapshot(const PredictionService& service,
                                                int64_t items, double s,
                                                double delta) {
    std::vector<PredictionResult> out;
    out.reserve(static_cast<size_t>(items));
    for (int64_t id = 0; id < items; ++id) {
      const auto q = service.Query(id, s, delta);
      EXPECT_TRUE(q.ok()) << "item " << id;
      out.push_back(q.ok() ? *q : PredictionResult{});
    }
    return out;
  }

  /// Bit-identical comparison of two snapshots.
  static void ExpectIdentical(const std::vector<PredictionResult>& a,
                              const std::vector<PredictionResult>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].observed_views, b[i].observed_views) << "item " << i;
      EXPECT_EQ(a[i].predicted_views, b[i].predicted_views) << "item " << i;
      EXPECT_EQ(a[i].alpha, b[i].alpha) << "item " << i;
    }
  }

  static datagen::SyntheticDataset* dataset_;
  static features::FeatureExtractor* extractor_;
  static core::HawkesPredictor* model_;
  std::string dir_;
};

datagen::SyntheticDataset* CheckpointTest::dataset_ = nullptr;
features::FeatureExtractor* CheckpointTest::extractor_ = nullptr;
core::HawkesPredictor* CheckpointTest::model_ = nullptr;

constexpr int64_t kItems = 48;
constexpr double kAge = 6 * kHour;

TEST_F(CheckpointTest, RoundTripBitIdenticalPredictions) {
  PredictionService source = MakeService();
  Load(&source, kItems, kAge);
  ASSERT_TRUE(source.Checkpoint(Dir()).ok());

  PredictionService restored = MakeService();
  ASSERT_TRUE(restored.Restore(Dir()).ok());
  EXPECT_EQ(restored.LiveItems(), source.LiveItems());
  EXPECT_EQ(restored.stats().events_ingested, source.stats().events_ingested);
  EXPECT_EQ(restored.stats().items_registered, source.stats().items_registered);

  for (const double delta : {1 * kHour, 1 * kDay, 7 * kDay}) {
    ExpectIdentical(Snapshot(source, kItems, kAge, delta),
                    Snapshot(restored, kItems, kAge, delta));
  }
  // The moderation-queue primitive agrees too (ids and scores).
  QueryRequest scan;
  scan.s = kAge;
  scan.delta = 1 * kDay;
  scan.top_k = 10;
  const auto top_a = source.BatchQuery(scan);
  const auto top_b = restored.BatchQuery(scan);
  ASSERT_TRUE(top_a.ok());
  ASSERT_TRUE(top_b.ok());
  ASSERT_EQ(top_a->results.size(), top_b->results.size());
  std::vector<PredictionResult> ranked_a, ranked_b;
  for (size_t i = 0; i < top_a->results.size(); ++i) {
    EXPECT_EQ(top_a->results[i].item_id, top_b->results[i].item_id)
        << "rank " << i;
    ranked_a.push_back(top_a->results[i].prediction);
    ranked_b.push_back(top_b->results[i].prediction);
  }
  ExpectIdentical(ranked_a, ranked_b);
}

TEST_F(CheckpointTest, IngestionContinuesIdenticallyAfterRestore) {
  PredictionService source = MakeService();
  Load(&source, kItems, kAge);
  ASSERT_TRUE(source.Checkpoint(Dir()).ok());
  PredictionService restored = MakeService();
  ASSERT_TRUE(restored.Restore(Dir()).ok());

  // Feed the same post-checkpoint traffic to both services; the restored
  // tracker state must evolve bit-identically, not just answer queries.
  for (int64_t id = 0; id < kItems; ++id) {
    const auto& cascade =
        dataset_->cascades[static_cast<size_t>(id) % dataset_->cascades.size()];
    for (const auto& e : cascade.views) {
      if (e.time < kAge) continue;
      if (e.time >= 12 * kHour) break;
      EXPECT_TRUE(source.Ingest(id, stream::EngagementType::kView, e.time).ok());
      EXPECT_TRUE(restored.Ingest(id, stream::EngagementType::kView, e.time).ok());
    }
  }
  ExpectIdentical(Snapshot(source, kItems, 12 * kHour, 1 * kDay),
                  Snapshot(restored, kItems, 12 * kHour, 1 * kDay));
}

TEST_F(CheckpointTest, RestoreAcrossDifferentShardCounts) {
  ServiceConfig wide;
  wide.num_shards = 16;
  PredictionService source = MakeService(wide);
  Load(&source, kItems, kAge);
  ASSERT_TRUE(source.Checkpoint(Dir()).ok());

  ServiceConfig narrow;
  narrow.num_shards = 3;
  PredictionService restored = MakeService(narrow);
  ASSERT_TRUE(restored.Restore(Dir()).ok());
  EXPECT_EQ(restored.LiveItems(), source.LiveItems());
  ExpectIdentical(Snapshot(source, kItems, kAge, 1 * kDay),
                  Snapshot(restored, kItems, kAge, 1 * kDay));
}

TEST_F(CheckpointTest, SecondCheckpointSupersedesFirst) {
  PredictionService service = MakeService();
  Load(&service, kItems, kAge);
  ASSERT_TRUE(service.Checkpoint(Dir()).ok());
  // More traffic, then a second checkpoint into the same directory.
  for (int64_t id = 0; id < kItems; ++id) {
    ASSERT_TRUE(service.Ingest(id, stream::EngagementType::kView, 7 * kHour).ok());
  }
  ASSERT_TRUE(service.Checkpoint(Dir()).ok());

  PredictionService restored = MakeService();
  ASSERT_TRUE(restored.Restore(Dir()).ok());
  ExpectIdentical(Snapshot(service, kItems, 7 * kHour, 1 * kDay),
                  Snapshot(restored, kItems, 7 * kHour, 1 * kDay));
}

TEST_F(CheckpointTest, CrashAtEveryFaultPointNeverCorrupts) {
  // Keep the service small: the fault loop re-checkpoints and re-restores
  // once per injected fault point.
  constexpr int64_t kSmallItems = 24;
  ServiceConfig config;
  config.num_shards = 4;
  PredictionService service = MakeService(config);
  Load(&service, kSmallItems, kAge);
  ASSERT_TRUE(service.Checkpoint(Dir()).ok());
  const auto predictions_a = Snapshot(service, kSmallItems, kAge, 1 * kDay);
  const uint64_t events_a = service.stats().events_ingested;

  // Advance the service state so the next checkpoint differs.
  for (int64_t id = 0; id < kSmallItems; ++id) {
    ASSERT_TRUE(service.Ingest(id, stream::EngagementType::kView, 7 * kHour).ok());
    ASSERT_TRUE(service.Ingest(id, stream::EngagementType::kComment, 7 * kHour).ok());
  }
  const auto predictions_b = Snapshot(service, kSmallItems, 7 * kHour, 1 * kDay);
  const uint64_t events_b = service.stats().events_ingested;
  ASSERT_NE(events_a, events_b);

  auto& injector = io::FaultInjector::Global();
  bool committed = false;
  int points_exercised = 0;
  for (int n = 0; n < 500 && !committed; ++n, ++points_exercised) {
    injector.ArmCrashAt(n);
    const bool ok = service.Checkpoint(Dir()).ok();
    injector.Disarm();

    PredictionService restored = MakeService(config);
    ASSERT_TRUE(restored.Restore(Dir()).ok())
        << "checkpoint unloadable after crash at fault point " << n;
    if (ok) {
      // The crash point lies beyond this checkpoint's operations: the new
      // checkpoint committed and must be the one restored.
      ExpectIdentical(Snapshot(restored, kSmallItems, 7 * kHour, 1 * kDay),
                      predictions_b);
      committed = true;
    } else {
      // Torn mid-write: what restores must be a complete checkpoint --
      // normally the previous one (state A), or, when the crash hit the
      // final directory fsync AFTER the CURRENT rename published the new
      // pointer, the fully written new one (state B).  Never a mixture,
      // never a torn file.  The checkpointed event counter identifies
      // which of the two legitimately restored.
      const uint64_t events = restored.stats().events_ingested;
      if (events == events_b) {
        ExpectIdentical(Snapshot(restored, kSmallItems, 7 * kHour, 1 * kDay),
                        predictions_b);
      } else {
        EXPECT_EQ(events, events_a)
            << "restored state matches neither checkpoint after crash at "
               "fault point " << n;
        ExpectIdentical(Snapshot(restored, kSmallItems, kAge, 1 * kDay),
                        predictions_a);
      }
    }
  }
  EXPECT_TRUE(committed) << "checkpoint never committed within 500 fault points";
  // Sanity: the loop actually walked through a multi-file protocol.
  EXPECT_GT(points_exercised, 10);
}

// horizon_serving_checkpoint_bytes holds the bytes of the last committed
// checkpoint: its shard files and manifest, as they lie on disk.
TEST_F(CheckpointTest, CheckpointBytesGaugeMatchesTheFilesOnDisk) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  const obs::Gauge* gauge = registry.GetGauge("horizon_serving_checkpoint_bytes");
  EXPECT_EQ(gauge->Value(), 0.0);
  for (const int64_t items : {kItems, 3 * kItems}) {
    PredictionService service = MakeService(config);
    Load(&service, items, kAge);
    ASSERT_TRUE(service.Checkpoint(Dir()).ok());
    const std::string ckpt = CommittedCheckpoint(Dir());
    size_t bytes = 0, shard_files = 0;
    for (const std::string& name : io::ListDir(ckpt)) {
      bytes += io::ReadFile(ckpt + "/" + name).value().size();
      shard_files += name.rfind("shard-", 0) == 0;
    }
    EXPECT_EQ(shard_files, static_cast<size_t>(service.num_shards()));
    EXPECT_EQ(gauge->Value(), static_cast<double>(bytes)) << items << " items";
    // A checkpoint that fails to commit leaves the gauge alone.
    io::FaultInjector::Global().ArmCrashAt(0);
    EXPECT_FALSE(service.Checkpoint(Dir()).ok());
    io::FaultInjector::Global().Disarm();
    EXPECT_EQ(gauge->Value(), static_cast<double>(bytes));
  }
}

// What a checkpoint writes per item: the suite's corpus (120 posts, all
// four engagement streams up to 6 h) holds at most kMaxBytesPerItem
// checkpoint bytes (horizon_serving_checkpoint_bytes) per live item.
TEST_F(CheckpointTest, CheckpointBytesPerItemStayBounded) {
  // Measured 1,248.5 bytes.  Shard v2 files of trk v1 blobs, which wrote
  // every empty stream's placeholder windows, 32 expanded static values
  // and copies of values the tracker derives, read 1,806.8.
  constexpr double kMaxBytesPerItem = 1373.0;
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  PredictionService service = MakeService(config);
  const auto items = static_cast<int64_t>(dataset_->cascades.size());
  Load(&service, items, kAge);
  ASSERT_TRUE(service.Checkpoint(Dir()).ok());
  const double per_item =
      registry.GetGauge("horizon_serving_checkpoint_bytes")->Value() /
      static_cast<double>(service.LiveItems());
  EXPECT_LE(per_item, kMaxBytesPerItem);
  RecordProperty("checkpoint_bytes_per_item", std::to_string(per_item));
}

// A checkpoint copies each shard's items under its lock, then builds the
// shard's file in one buffer sized up front.  Past the item copies (a
// tracker copy allocates one block per stream with events), what it
// allocates on the thread that serializes does not grow with the item
// count: no string per item.  With one shard, that thread is the
// caller's.
TEST_F(CheckpointTest, CheckpointAllocatesNoStringPerItem) {
#ifdef HORIZON_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes own operator new";
#else
  ServiceConfig config;
  config.num_shards = 1;
  const auto allocations_past_item_copies = [&](int64_t items) -> std::ptrdiff_t {
    PredictionService service = MakeService(config);
    Load(&service, items, kAge);
    size_t blocks = 0;
    for (int64_t id = 0; id < items; ++id) {
      const auto& cascade =
          dataset_->cascades[static_cast<size_t>(id) % dataset_->cascades.size()];
      blocks += !cascade.views.empty() && cascade.views.front().time < kAge;
      for (const auto* times : {&cascade.share_times, &cascade.comment_times,
                                &cascade.reaction_times}) {
        blocks += !times->empty() && times->front() < kAge;
      }
    }
    const size_t before = test::ThreadAllocations();
    EXPECT_TRUE(service.Checkpoint(Dir() + "/" + std::to_string(items)).ok());
    return static_cast<std::ptrdiff_t>(test::ThreadAllocations() - before) -
           static_cast<std::ptrdiff_t>(blocks);
  };
  const std::ptrdiff_t few = allocations_past_item_copies(8);
  const std::ptrdiff_t many = allocations_past_item_copies(960);
  EXPECT_GT(few, 0);
  // A string per item would add ~950; a payload grown by doubling, ~7.
  EXPECT_LE(many - few, 2) << few << " allocations past the item copies at 8 items, "
                           << many << " at 960";
#endif
}

// A checkpoint records the model's digest, made once when the service is
// built, and neither serializes the model nor writes it: what a
// checkpoint, the first or a later one, holds at its peak does not grow
// with the model's size, and the checkpoint holds only the manifest and
// the shard files.  Two services hold the same items, one over the
// suite's model and one over a model with 16x the trees.
TEST_F(CheckpointTest, SecondCheckpointDoesNotSerializeTheModelAgain) {
#ifdef HORIZON_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes own operator new";
#else
  core::HawkesPredictorParams params;
  params.reference_horizons = {1 * kDay};
  params.gbdt_count.num_trees = 400;
  params.gbdt_alpha.num_trees = 400;
  core::HawkesPredictor large(params);
  {
    std::vector<size_t> indices(dataset_->cascades.size());
    for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
    core::ExampleSetOptions options;
    options.reference_horizons = params.reference_horizons;
    const auto examples =
        core::BuildExampleSet(*dataset_, indices, *extractor_, options);
    large.Fit(examples.x, examples.log1p_increments, examples.alpha_targets);
  }
  const auto extra_model_bytes = static_cast<std::ptrdiff_t>(
      large.Serialize().size() - model_->Serialize().size());
  ASSERT_GT(extra_model_bytes, 100'000);

  ServiceConfig config;
  config.num_shards = 1;
  const auto checkpoint_peaks = [&](const core::HawkesPredictor* model,
                                    const std::string& dir) {
    PredictionService service(model, extractor_, config);
    Load(&service, 8, kAge);
    std::vector<std::ptrdiff_t> peaks;
    for (int round = 0; round < 2; ++round) {
      test::ResetThreadPeakLiveBytes();
      const std::ptrdiff_t before = test::ThreadLiveBytes();
      EXPECT_TRUE(service.Checkpoint(dir).ok());
      peaks.push_back(test::ThreadPeakLiveBytes() - before);
    }
    for (const std::string& name : io::ListDir(CommittedCheckpoint(dir))) {
      EXPECT_TRUE(name == "MANIFEST" || name.rfind("shard-", 0) == 0) << name;
    }
    PredictionService restored(model, extractor_, config);
    EXPECT_TRUE(restored.Restore(dir).ok());
    ExpectIdentical(Snapshot(service, 8, kAge, 1 * kDay),
                    Snapshot(restored, 8, kAge, 1 * kDay));
    return peaks;
  };
  const std::vector<std::ptrdiff_t> small_peaks = checkpoint_peaks(model_, Dir() + "/a");
  const std::vector<std::ptrdiff_t> large_peaks = checkpoint_peaks(&large, Dir() + "/b");
  // The manifest's digest has a few more digits with the larger model.
  constexpr std::ptrdiff_t kDigits = 1024;
  for (size_t round = 0; round < 2; ++round) {
    EXPECT_LE(large_peaks[round] - small_peaks[round], kDigits)
        << "checkpoint " << round << ": peaks " << small_peaks[round] << " and "
        << large_peaks[round] << " B, models " << extra_model_bytes << " B apart";
  }
#endif
}

#ifndef HORIZON_TEST_SANITIZED
/// The heap bytes `op` held at its peak, less the bytes of the answer it
/// built (which `op` returns).  It runs on a thread of its own, so
/// storage it keeps after it returns, such as a per-thread scratch,
/// counts, and none is left over from an earlier call.
template <typename Op>
std::ptrdiff_t HeldBytes(const Op& op) {
  std::ptrdiff_t held = 0;
  std::thread([&] {
    const std::ptrdiff_t before = test::ThreadLiveBytes();
    test::ResetThreadPeakLiveBytes();
    const std::ptrdiff_t answer = op();
    held = test::ThreadPeakLiveBytes() - before - answer;
  }).join();
  return held;
}

/// The heap bytes of `response`'s vectors.
std::ptrdiff_t AnswerBytes(const StatusOr<QueryResponse>& response) {
  return static_cast<std::ptrdiff_t>(
      response->results.capacity() * sizeof(ItemPrediction) +
      response->errors.capacity() * sizeof(ItemError));
}
#endif

// A scan, a checkpoint and a BatchQuery over every live id each walk the
// shard a chunk at a time.  On a one-shard service, whose one pool task
// runs on the calling thread, the heap bytes each holds at its peak past
// its answer grow from 500 to 4,000 items by at most the shard's id
// list, 8 bytes an item.  Holding every item's snapshot row, for the
// call or in a scratch kept after it, would add ~1.5 KB an item.  Every
// item is the same cascade, so every full chunk is the same size and the
// growth is only what scales with the item count.  No call is warmed up:
// each starts a thread's scratch, the same bytes at both sizes.
TEST_F(CheckpointTest, ScanCheckpointAndBatchQueryHoldTheIdListAndOneChunk) {
#ifdef HORIZON_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes own operator new";
#else
  ServiceConfig config;
  config.num_shards = 1;
  const datagen::Cascade& cascade = dataset_->cascades[0];
  struct Held {
    std::ptrdiff_t scan, checkpoint, batch;
  };
  // `leaf` names the checkpoint directory: one length at both sizes.
  const auto held = [&](int64_t items, const char* leaf) {
    PredictionService service = MakeService(config);
    for (int64_t id = 0; id < items; ++id) {
      EXPECT_TRUE(service.RegisterItem(id, 0.0, dataset_->PageOf(cascade.post),
                                       cascade.post).ok());
      for (const auto& e : cascade.views) {
        if (e.time >= kAge) break;
        EXPECT_TRUE(service.Ingest(id, stream::EngagementType::kView, e.time).ok());
      }
    }
    QueryRequest scan;
    scan.s = kAge;
    scan.delta = 1 * kDay;
    scan.top_k = 10;
    QueryRequest batch = scan;
    batch.top_k = 0;
    for (int64_t id = 0; id < items; ++id) batch.ids.push_back(id);
    const std::string dir = Dir() + leaf;
    Held h{};
    h.scan = HeldBytes([&] {
      const StatusOr<QueryResponse> response = service.BatchQuery(scan);
      EXPECT_EQ(response->results.size(), scan.top_k);
      return AnswerBytes(response);
    });
    h.checkpoint = HeldBytes([&] {
      EXPECT_TRUE(service.Checkpoint(dir).ok());
      return std::ptrdiff_t{0};
    });
    h.batch = HeldBytes([&] {
      const StatusOr<QueryResponse> response = service.BatchQuery(batch);
      EXPECT_EQ(response->results.size(), batch.ids.size());
      return AnswerBytes(response);
    });
    return h;
  };
  const Held few = held(500, "/a");
  const Held many = held(4000, "/b");
  const std::ptrdiff_t id_list = 8 * (4000 - 500);
  EXPECT_LE(many.scan - few.scan, id_list) << few.scan << " B at 500 items";
  // The checkpoint's manifest also holds the counters, which have more
  // digits at 4,000 items: a few bytes, not a few per item.
  constexpr std::ptrdiff_t kDigits = 1024;
  EXPECT_LE(many.checkpoint - few.checkpoint, id_list + kDigits)
      << few.checkpoint << " B at 500 items";
  EXPECT_LE(many.batch - few.batch, id_list) << few.batch << " B at 500 items";
#endif
}

TEST_F(CheckpointTest, RestoreRejectsCorruptedShardFile) {
  PredictionService source = MakeService();
  Load(&source, kItems, kAge);
  ASSERT_TRUE(source.Checkpoint(Dir()).ok());

  // Flip one payload byte in a shard file of the committed checkpoint.
  const std::string ckpt_dir = CommittedCheckpoint(Dir());
  std::string shard_file;
  for (const auto& name : io::ListDir(ckpt_dir)) {
    if (name.rfind("shard-", 0) == 0) shard_file = ckpt_dir + "/" + name;
  }
  ASSERT_FALSE(shard_file.empty());
  auto bytes = io::ReadFile(shard_file);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[bytes->size() / 2] = static_cast<char>((*bytes)[bytes->size() / 2] ^ 0x01);
  {
    std::ofstream out(shard_file, std::ios::binary | std::ios::trunc);
    out.write(bytes->data(), static_cast<std::streamsize>(bytes->size()));
  }

  PredictionService restored = MakeService();
  Load(&restored, 3, kAge);  // pre-existing state must survive the failure
  const auto before = Snapshot(restored, 3, kAge, 1 * kDay);
  EXPECT_FALSE(restored.Restore(Dir()).ok());
  EXPECT_EQ(restored.LiveItems(), 3u);
  ExpectIdentical(Snapshot(restored, 3, kAge, 1 * kDay), before);
}

// Restore checks each shard file's frame, whose CRC the manifest lists
// for the file.  A validly framed shard file of another checkpoint,
// copied in with the manifest left as it was, is still refused: the two
// services hold the same items, created at 1 s and at 2 s, so their shard
// files are as long and differ only in each tracker's creation time.
TEST_F(CheckpointTest, RestoreRejectsAShardFileFromAnotherCheckpoint) {
  ServiceConfig config;
  config.num_shards = 2;
  const auto checkpoint = [&](double creation_time, const std::string& dir) {
    PredictionService service = MakeService(config);
    for (int64_t id = 0; id < 12; ++id) {
      const auto& cascade = dataset_->cascades[static_cast<size_t>(id)];
      EXPECT_TRUE(service.RegisterItem(id, creation_time, dataset_->PageOf(cascade.post),
                                       cascade.post).ok());
    }
    EXPECT_TRUE(service.Checkpoint(dir).ok());
    return CommittedCheckpoint(dir) + "/shard-0000";
  };
  const std::string ours = checkpoint(1.0, Dir() + "/ours");
  const std::string theirs = checkpoint(2.0, Dir() + "/theirs");
  const std::string copied = io::ReadFile(theirs).value();
  ASSERT_TRUE(io::UnwrapCrcFrame(copied).ok());
  ASSERT_EQ(copied.size(), io::ReadFile(ours).value().size());
  ASSERT_NE(copied, io::ReadFile(ours).value());
  ASSERT_TRUE(io::WriteFileAtomic(ours, copied).ok());

  PredictionService restored = MakeService(config);
  Load(&restored, 3, kAge);
  const auto before = Snapshot(restored, 3, kAge, 1 * kDay);
  const Status status = restored.Restore(Dir() + "/ours");
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  EXPECT_EQ(restored.LiveItems(), 3u);
  ExpectIdentical(Snapshot(restored, 3, kAge, 1 * kDay), before);
}

// The CRCs catch bytes flipped at rest, not a shard re-framed with valid
// CRCs around inconsistent tracker state.  A view window whose newest
// bucket is later than its stream's last event holds a state no event
// sequence produces, and the item's next event would put its buckets out
// of time order; Restore must refuse it with kCorruption and leave the
// service untouched.
TEST_F(CheckpointTest, RestoreRejectsReframedShardWithTamperedTracker) {
  PredictionService source = MakeService();
  Load(&source, kItems, kAge);
  ASSERT_TRUE(source.Checkpoint(Dir()).ok());

  // Control: re-framing a shard without changing it restores fine.
  ASSERT_TRUE(ReframeShard(Dir(), [](std::string*) { return true; }));
  {
    PredictionService control = MakeService();
    ASSERT_TRUE(control.Restore(Dir()).ok());
    EXPECT_EQ(control.LiveItems(), static_cast<size_t>(kItems));
  }

  // A tracker blob's third line is its view stream's "total first_age
  // last_age ...", and for a non-empty stream the fourth is its first
  // window's bucket count.  That window's newest bucket holds the last
  // event; raise its time's leading digit (byte counts unchanged).
  const auto tamper = [](std::string* payload) {
    for (size_t at = payload->find("trk v2\n"); at != std::string::npos;
         at = payload->find("trk v2\n", at + 1)) {
      size_t line = at;
      for (int i = 0; i < 2; ++i) line = payload->find('\n', line) + 1;
      std::istringstream scalars(payload->substr(line, payload->find('\n', line) - line));
      uint64_t total = 0;
      scalars >> total;
      if (total == 0) continue;
      line = payload->find('\n', line) + 1;
      const size_t buckets =
          std::stoul(payload->substr(line, payload->find('\n', line) - line));
      if (buckets == 0) continue;
      // Buckets are written oldest first, so `buckets` lines on from the
      // count is the newest bucket's line.
      for (size_t b = 0; b < buckets; ++b) line = payload->find('\n', line) + 1;
      if ((*payload)[line] >= '1' && (*payload)[line] <= '8') {
        (*payload)[line] = '9';
        return true;
      }
    }
    return false;
  };
  ASSERT_TRUE(ReframeShard(Dir(), tamper));

  PredictionService restored = MakeService();
  Load(&restored, 3, kAge);
  const auto before = Snapshot(restored, 3, kAge, 1 * kDay);
  const Status status = restored.Restore(Dir());
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  EXPECT_EQ(restored.LiveItems(), 3u);
  ExpectIdentical(Snapshot(restored, 3, kAge, 1 * kDay), before);
}

// A re-framed shard can list one item id twice with valid CRCs.  Restore
// used to load both records, the second over the first, and then report
// one live item more than the service held; it must refuse the
// checkpoint with kCorruption and leave the service untouched.
TEST_F(CheckpointTest, RestoreRejectsAnItemIdListedTwice) {
  PredictionService source = MakeService();
  Load(&source, kItems, kAge);
  ASSERT_TRUE(source.Checkpoint(Dir()).ok());

  // Give the second item the first item's id.
  const auto duplicate = [](std::string* payload) {
    ShardText shard = SplitShard(*payload);
    if (shard.records.size() < 2) return false;
    shard.records[1].id = shard.records[0].id;
    *payload = shard.Join();
    return true;
  };
  ASSERT_TRUE(ReframeShard(Dir(), duplicate));

  PredictionService restored = MakeService();
  Load(&restored, 3, kAge);
  const auto before = Snapshot(restored, 3, kAge, 1 * kDay);
  const Status status = restored.Restore(Dir());
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  EXPECT_EQ(restored.LiveItems(), 3u);
  ExpectIdentical(Snapshot(restored, 3, kAge, 1 * kDay), before);
}

// A re-framed shard can carry bytes after its last record, where the
// manifest's count of records stops.  Restore used to read that many
// records and never look further, so each of these restored all 48
// items; it must refuse the checkpoint with kCorruption and leave the
// service untouched.
TEST_F(CheckpointTest, RestoreRejectsReframedShardWithBytesAfterTheLastRecord) {
  PredictionService source = MakeService();
  Load(&source, kItems, kAge);
  for (const std::string extra : {"7\n", "garbage\n", "1\n2 3 4\n"}) {
    SCOPED_TRACE(extra);
    ASSERT_TRUE(source.Checkpoint(Dir()).ok());
    ASSERT_TRUE(ReframeShard(Dir(), [&](std::string* payload) {
      *payload += extra;
      return true;
    }));
    PredictionService restored = MakeService();
    Load(&restored, 3, kAge);
    const auto before = Snapshot(restored, 3, kAge, 1 * kDay);
    const Status status = restored.Restore(Dir());
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
    EXPECT_EQ(restored.LiveItems(), 3u);
    ExpectIdentical(Snapshot(restored, 3, kAge, 1 * kDay), before);
  }
}

// A re-framed shard whose view stream carries an EWMA rate of 1e300: a
// value no event sequence produces, which used to restore fine and then
// read as an infinite feature.  Restore must refuse it with kCorruption.
TEST_F(CheckpointTest, RestoreRejectsReframedShardWithImpossibleEwmaRate) {
  PredictionService source = MakeService();
  Load(&source, kItems, kAge);
  ASSERT_TRUE(source.Checkpoint(Dir()).ok());

  // A tracker blob's third line is its view stream's scalars: "total
  // first_age last_age ewma_rate ...".  Zero-pad "1e300" to the width of
  // a non-empty stream's rate so the blob's byte count stays the same.
  const auto tamper = [](std::string* payload) {
    for (size_t at = payload->find("trk v2\n"); at != std::string::npos;
         at = payload->find("trk v2\n", at + 1)) {
      size_t line = at;
      for (int i = 0; i < 2; ++i) line = payload->find('\n', line) + 1;
      std::istringstream scalars(
          payload->substr(line, payload->find('\n', line) - line));
      uint64_t total = 0;
      std::string first_age, last_age, rate;
      scalars >> total >> first_age >> last_age >> rate;
      if (total == 0 || rate.size() < 5) continue;
      size_t rate_at = line;
      for (int i = 0; i < 3; ++i) rate_at = payload->find(' ', rate_at) + 1;
      payload->replace(rate_at, rate.size(),
                       std::string(rate.size() - 5, '0') + "1e300");
      return true;
    }
    return false;
  };
  ASSERT_TRUE(ReframeShard(Dir(), tamper));

  PredictionService restored = MakeService();
  Load(&restored, 3, kAge);
  const auto before = Snapshot(restored, 3, kAge, 1 * kDay);
  const Status status = restored.Restore(Dir());
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  EXPECT_EQ(restored.LiveItems(), 3u);
  ExpectIdentical(Snapshot(restored, 3, kAge, 1 * kDay), before);
}

// RegisterItem and Ingest refuse times past kMaxAbsTime.  A re-framed
// tracker whose creation time (-1e300) or last event (1e300 s after
// creation) lies past it would restore, and the next scan of a Debug
// build would abort on an infinite age feature; Restore must refuse it
// with kCorruption and leave the service untouched.
TEST_F(CheckpointTest, RestoreRejectsReframedShardWithTimesPastTheBound) {
  ServiceConfig config;
  config.num_shards = 1;
  PredictionService source = MakeService(config);
  const auto& cascade = dataset_->cascades[0];
  ASSERT_TRUE(source.RegisterItem(7, 0.0, dataset_->PageOf(cascade.post), cascade.post)
                  .ok());
  ASSERT_TRUE(source.Ingest(7, stream::EngagementType::kView, 60.0).ok());
  // The item's blob: created at 0, one view at age 60.
  const std::string blob =
      "trk v2\n0 4 4\n1 60 60 0.00027777777777777778 60 0 0 0 0 0\n"
      "1\n60 1\n1\n60 1\n1\n60 1\n1\n60 1\n0\n0\n0\n";
  std::string late_view = blob;
  for (size_t at = late_view.find("60"); at != std::string::npos;
       at = late_view.find("60", at)) {
    late_view.replace(at, 2, "1e300");
  }
  for (const std::string& tampered :
       {"trk v2\n-1e300" + blob.substr(blob.find(" 4 4\n")), late_view}) {
    SCOPED_TRACE(tampered);
    ASSERT_TRUE(source.Checkpoint(Dir()).ok());
    ASSERT_TRUE(ReframeShard(Dir(), [&](std::string* payload) {
      const size_t at = payload->find(std::to_string(blob.size()) + "\n" + blob);
      if (at == std::string::npos) return false;
      payload->replace(at, payload->size() - at,
                       std::to_string(tampered.size()) + "\n" + tampered);
      return true;
    }));
    PredictionService restored = MakeService(config);
    Load(&restored, 3, kAge);
    const auto before = Snapshot(restored, 3, kAge, 1 * kDay);
    const Status status = restored.Restore(Dir());
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
    EXPECT_EQ(restored.LiveItems(), 3u);
    ExpectIdentical(Snapshot(restored, 3, kAge, 1 * kDay), before);
  }
}

// A re-framed shard whose tracker has a passed landmark counting more
// events than its stream holds: a count no event sequence produces, which
// used to restore fine and then feed the landmark features.  Restore must
// refuse it with kCorruption.
TEST_F(CheckpointTest, RestoreRejectsReframedShardWithLandmarkCountAboveTotal) {
  PredictionService source = MakeService();
  Load(&source, kItems, kAge);
  ASSERT_TRUE(source.Checkpoint(Dir()).ok());

  // A tracker blob's third line is its view stream's "total first_age
  // last_age ewma_rate age_sum compensation", then its landmark counts.
  // Where the first landmark (30 min) is done, raise its count to
  // total + 1 (Join writes the blob's new byte count).
  const auto tamper = [](std::string* payload) {
    ShardText shard = SplitShard(*payload);
    for (ShardText::Record& record : shard.records) {
      std::string& blob = record.blob;
      size_t line = 0;
      for (int i = 0; i < 2; ++i) line = blob.find('\n', line) + 1;
      std::istringstream scalars(blob.substr(line, blob.find('\n', line) - line));
      uint64_t total = 0, count = 0;
      double first_age = 0.0, last_age = 0.0, rate = 0.0, sum = 0.0, comp = 0.0;
      scalars >> total >> first_age >> last_age >> rate >> sum >> comp >> count;
      if (total == 0 || last_age <= 30 * kMinute) continue;
      size_t landmark = line;
      for (int i = 0; i < 6; ++i) landmark = blob.find(' ', landmark) + 1;
      blob.replace(landmark, std::to_string(count).size(), std::to_string(total + 1));
      *payload = shard.Join();
      return true;
    }
    return false;
  };
  ASSERT_TRUE(ReframeShard(Dir(), tamper));

  PredictionService restored = MakeService();
  Load(&restored, 3, kAge);
  const auto before = Snapshot(restored, 3, kAge, 1 * kDay);
  const Status status = restored.Restore(Dir());
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  EXPECT_EQ(restored.LiveItems(), 3u);
  ExpectIdentical(Snapshot(restored, 3, kAge, 1 * kDay), before);
}

/// ReframeShard with the first item's static-feature line replaced by
/// tamper(line).
bool ReframeFirstStatics(const std::string& dir,
                         const std::function<std::string(const std::string&)>& tamper) {
  return ReframeShard(dir, [&](std::string* payload) {
    ShardText shard = SplitShard(*payload);
    if (shard.records.empty()) return false;
    shard.records[0].statics = tamper(shard.records[0].statics);
    *payload = shard.Join();
    return true;
  });
}

// A shard v4 item's static features are one line of kNumStaticFloats
// finite floats and the two one-hot indices.  A line with a non-finite or
// out-of-range value, or with a value missing or one too many, fails
// Restore with kCorruption and leaves the service untouched.
TEST_F(CheckpointTest, RestoreRejectsReframedShardWithBadStaticFeatures) {
  PredictionService source = MakeService();
  Load(&source, kItems, kAge);
  struct Row {
    const char* what;
    std::function<std::string(const std::string&)> tamper;
  };
  const auto set_first = [](const char* value) {
    return [value](const std::string& line) {
      return value + line.substr(line.find(' '));
    };
  };
  const Row rows[] = {
      {"nan value", set_first("nan")},
      {"infinite value", set_first("-inf")},
      {"value beyond float range", set_first("1e39")},
      {"truncated record",
       [](const std::string& line) { return line.substr(0, line.rfind(' ')); }},
      {"extra value", [](const std::string& line) { return line + " 0"; }},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.what);
    ASSERT_TRUE(source.Checkpoint(Dir()).ok());
    ASSERT_TRUE(ReframeFirstStatics(Dir(), row.tamper));

    PredictionService restored = MakeService();
    Load(&restored, 3, kAge);
    const auto before = Snapshot(restored, 3, kAge, 1 * kDay);
    const Status status = restored.Restore(Dir());
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
    EXPECT_EQ(restored.LiveItems(), 3u);
    ExpectIdentical(Snapshot(restored, 3, kAge, 1 * kDay), before);
  }
}

// A shard v4 record ends with the media type's and the page category's
// one-hot groups as the index of their 1, or 255 (kNoneHot) for a group
// of all 0s.  A re-framed record whose index is at or above its group's
// size, other than 255, or is no index at all, fails Restore with
// kCorruption and leaves the service untouched; an all-0 group restores,
// and checkpoints back to the line it was read from.
TEST_F(CheckpointTest, RestoreRejectsReframedShardWithMalformedOneHotGroup) {
  PredictionService source = MakeService();
  Load(&source, kItems, kAge);
  // The record's tokens: the floats, then the media and category indices.
  constexpr size_t kMedia = features::kNumStaticFloats, kCategory = kMedia + 1;
  const auto set = [](size_t index, std::string value) {
    return [index, value](const std::string& line) {
      std::vector<std::string> tokens;
      std::istringstream is(line);
      for (std::string token; is >> token;) tokens.push_back(token);
      EXPECT_EQ(tokens.size(), kCategory + 1) << line;
      tokens.at(index) = value;
      std::string out;
      for (const std::string& token : tokens) out += (out.empty() ? "" : " ") + token;
      return out;
    };
  };
  struct Row {
    const char* what;
    std::function<std::string(const std::string&)> tamper;
  };
  const Row rows[] = {
      {"media past its group", set(kMedia, std::to_string(datagen::kNumMediaTypes))},
      {"media 254", set(kMedia, "254")},
      {"media past a byte", set(kMedia, "256")},
      {"media -1", set(kMedia, "-1")},
      {"category past its group",
       set(kCategory, std::to_string(datagen::kNumPageCategories))},
      {"category 254", set(kCategory, "254")},
      {"category 1.5", set(kCategory, "1.5")},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.what);
    ASSERT_TRUE(source.Checkpoint(Dir()).ok());
    ASSERT_TRUE(ReframeFirstStatics(Dir(), row.tamper));
    PredictionService restored = MakeService();
    Load(&restored, 3, kAge);
    const auto before = Snapshot(restored, 3, kAge, 1 * kDay);
    const Status status = restored.Restore(Dir());
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
    EXPECT_EQ(restored.LiveItems(), 3u);
    ExpectIdentical(Snapshot(restored, 3, kAge, 1 * kDay), before);
  }

  ASSERT_TRUE(source.Checkpoint(Dir()).ok());
  std::string zeroed;
  ASSERT_TRUE(ReframeFirstStatics(Dir(), [&](const std::string& line) {
    zeroed = set(kMedia, "255")(line);
    return zeroed;
  }));
  PredictionService restored = MakeService();
  ASSERT_TRUE(restored.Restore(Dir()).ok());
  EXPECT_EQ(restored.LiveItems(), static_cast<size_t>(kItems));
  ASSERT_TRUE(restored.Checkpoint(Dir()).ok());
  const std::string ckpt = CommittedCheckpoint(Dir());
  size_t found = 0;
  for (const std::string& name : io::ListDir(ckpt)) {
    if (name.rfind("shard-", 0) == 0) {
      found += FramedPayload(ckpt + "/" + name).find("\n" + zeroed + "\n") !=
               std::string::npos;
    }
  }
  EXPECT_EQ(found, 1u);
}

/// Rewrites the checkpoint committed under `dir` as it was written before
/// `shard v4`: each shard file `shard v3`, its item count on the line
/// after the header, zero-padded to 20 digits, and framed with a padded
/// size; the manifest `manifest v1`, listing each file by the CRC of the
/// whole file.
void RewriteAsShardV3(const std::string& dir) {
  const std::string ckpt = CommittedCheckpoint(dir);
  std::istringstream lines(FramedPayload(ckpt + "/MANIFEST"));
  std::string manifest;
  for (std::string line; std::getline(lines, line);) {
    std::istringstream entry(line);
    std::string name;
    uint32_t crc = 0;
    size_t bytes = 0, items = 0;
    if (line.rfind("shard-", 0) == 0 && entry >> name >> crc >> bytes >> items) {
      const std::string payload = FramedPayload(ckpt + "/" + name);
      char count[32], header[64];
      std::snprintf(count, sizeof(count), "%020zu\n", items);
      const std::string v3 = "shard v3\n" + std::string(count) + payload.substr(9);
      std::snprintf(header, sizeof(header), "hzf1 %020zu %08x\n", v3.size(),
                    io::Crc32(v3));
      const std::string file = header + v3;
      EXPECT_TRUE(io::WriteFileAtomic(ckpt + "/" + name, file).ok());
      line = name + " " + std::to_string(io::Crc32(file)) + " " +
             std::to_string(file.size()) + " " + std::to_string(items);
    }
    manifest += (line == "manifest v2" ? "manifest v1" : line) + "\n";
  }
  EXPECT_TRUE(io::WriteFileAtomic(ckpt + "/MANIFEST", io::WrapCrcFrame(manifest)).ok());
}

// Restore reads one format: a `manifest v2` over `shard v4` files holding
// `trk v2` blobs.  A checkpoint written before them gets kCorruption and
// leaves the service untouched: a `shard v2` file of 32-value static
// records and `trk v1` blobs, a v4 file holding a `trk v1` blob, a
// manifest with the `qforest <crc> <size>` line that checkpoints carried
// while the service kept quantized forests, and a `manifest v1` over
// `shard v3` files that carry their item count.
TEST_F(CheckpointTest, RestoreReadsOnlyTheCurrentFormats) {
  ServiceConfig config;
  config.num_shards = 1;
  PredictionService source = MakeService(config);
  const auto& cascade = dataset_->cascades[0];
  ASSERT_TRUE(source.RegisterItem(7, 0.0, dataset_->PageOf(cascade.post), cascade.post)
                  .ok());
  // An empty tracker of the default layout as `trk v1` wrote it: per
  // stream its scalars, landmark (count, done) pairs, window count and
  // per window "total last_time buckets".
  std::string trk_v1 = "trk v1\n0 4 4\n";
  for (int type = 0; type < stream::kNumEngagementTypes; ++type) {
    trk_v1 += "0 -1 -1 0 0 0 0\n0 0 0 0 0 0 0 0 \n4\n";
    for (int window = 0; window < 4; ++window) trk_v1 += "0 -1.0000000000000001e+300 0\n";
  }
  std::string statics_v2;
  for (size_t i = 0; i < features::kNumStaticFeatures; ++i) {
    statics_v2 += i == 0 ? "0" : " 0";
  }
  // Restores the committed checkpoint into a service holding 3 items.
  const auto expect_refused = [&] {
    PredictionService restored = MakeService(config);
    Load(&restored, 3, kAge);
    const auto before = Snapshot(restored, 3, kAge, 1 * kDay);
    const Status status = restored.Restore(Dir());
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
    EXPECT_EQ(restored.LiveItems(), 3u);
    ExpectIdentical(Snapshot(restored, 3, kAge, 1 * kDay), before);
  };
  const struct {
    const char* what;
    std::function<std::string(const std::string&)> payload;
  } cases[] = {
      {"shard v2 of trk v1",
       [&](const std::string&) {
         return ShardText{"shard v2\n1\n", {{"7", statics_v2, trk_v1}}}.Join();
       }},
      {"shard v4 of trk v1",
       [&](const std::string& v4) {
         ShardText shard = SplitShard(v4);
         shard.records.at(0).blob = trk_v1;
         return shard.Join();
       }},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    ASSERT_TRUE(source.Checkpoint(Dir()).ok());
    ASSERT_TRUE(ReframeShard(Dir(), [&](std::string* payload) {
      *payload = c.payload(*payload);
      return true;
    }));
    expect_refused();
  }

  ASSERT_TRUE(source.Checkpoint(Dir()).ok());
  const std::string ckpt = CommittedCheckpoint(Dir());
  const std::string manifest = FramedPayload(ckpt + "/MANIFEST");
  const size_t windows = manifest.find("\nwindows ") + 1;
  ASSERT_NE(windows, 0u);
  ASSERT_TRUE(io::WriteFileAtomic(ckpt + "/MANIFEST",
                                  io::WrapCrcFrame(manifest.substr(0, windows) +
                                                   "qforest 17 4\n" +
                                                   manifest.substr(windows)))
                  .ok());
  expect_refused();

  SCOPED_TRACE("manifest v1 of shard v3");
  ASSERT_TRUE(source.Checkpoint(Dir()).ok());
  RewriteAsShardV3(Dir());
  expect_refused();
}

/// Replaces the MANIFEST of the committed checkpoint under `dir` with a
/// fresh CRC frame around `payload`: a re-framed, not a torn, manifest.
void ReframeManifest(const std::string& dir, const std::string& payload) {
  const std::string framed = io::WrapCrcFrame(payload);
  std::ofstream out(CommittedCheckpoint(dir) + "/MANIFEST",
                    std::ios::binary | std::ios::trunc);
  out.write(framed.data(), static_cast<std::streamsize>(framed.size()));
}

// The manifest parser reads tokens as operator>> read them but for four
// input classes (common/text_codec.h), which a re-framed manifest may
// carry.  Each is kCorruption, with the service left untouched; the old
// parser read "1model", "+1", "-1" and "shards -0" (the last restoring
// an empty service), and took "0x1p3" and "1e-400" for a differing
// ewma_tau and epsilon (kConfigMismatch).
TEST_F(CheckpointTest, RestoreRejectsManifestTokensOfTheNewlyRejectedClasses) {
  PredictionService source = MakeService();
  Load(&source, kItems, kAge);
  ASSERT_TRUE(source.Checkpoint(Dir()).ok());
  const std::string manifest = FramedPayload(CommittedCheckpoint(Dir()) + "/MANIFEST");
  ASSERT_EQ(manifest.rfind("manifest v2\nepoch 1\nmodel ", 0), 0u);
  const auto replace = [&](const std::string& from, const std::string& to) {
    const size_t at = manifest.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return manifest.substr(0, at) + to + manifest.substr(at + from.size());
  };
  const std::string epsilon = manifest.substr(manifest.find("\nepsilon "));
  const std::string cases[] = {
      replace("epoch 1\nmodel", "epoch 1model"),  // no separator
      replace("ewma_tau 3600\n", "ewma_tau 0x1p3\n"),
      replace("epoch 1\n", "epoch +1\n"),          // a leading '+'
      replace("epoch 1\n", "epoch -1\n"),          // '-' in an unsigned field
      replace("\nshards 16\n", "\nshards -0\n"),
      replace(epsilon.substr(0, epsilon.find('\n', 1)), "\nepsilon 1e-400"),  // underflow
  };
  for (const std::string& text : cases) {
    SCOPED_TRACE(text.substr(0, 120));
    ReframeManifest(Dir(), text);
    PredictionService restored = MakeService();
    Load(&restored, 3, kAge);
    const auto before = Snapshot(restored, 3, kAge, 1 * kDay);
    const Status status = restored.Restore(Dir());
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
    EXPECT_EQ(restored.LiveItems(), 3u);
    ExpectIdentical(Snapshot(restored, 3, kAge, 1 * kDay), before);
  }
}

// Checkpoint writes each manifest into the directory named after its
// epoch.  A re-framed manifest whose epoch differs from its directory's
// fails Restore with kCorruption and leaves the service untouched.
TEST_F(CheckpointTest, RestoreRejectsAManifestEpochOtherThanItsDirectorys) {
  PredictionService source = MakeService();
  Load(&source, kItems, kAge);
  ASSERT_TRUE(source.Checkpoint(Dir()).ok());
  const std::string manifest = FramedPayload(CommittedCheckpoint(Dir()) + "/MANIFEST");
  const std::string head = "manifest v2\nepoch 1\n";
  ASSERT_EQ(manifest.rfind(head, 0), 0u);
  for (const char* epoch : {"0", "2", "18446744073709551615"}) {
    SCOPED_TRACE(epoch);
    ReframeManifest(Dir(), "manifest v2\nepoch " + std::string(epoch) + "\n" +
                               manifest.substr(head.size()));
    PredictionService restored = MakeService();
    Load(&restored, 3, kAge);
    const auto before = Snapshot(restored, 3, kAge, 1 * kDay);
    const ServiceStats stats = restored.stats();
    const Status status = restored.Restore(Dir());
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
    EXPECT_EQ(restored.LiveItems(), 3u);
    EXPECT_EQ(restored.stats().items_registered, stats.items_registered);
    EXPECT_EQ(restored.stats().events_ingested, stats.events_ingested);
    ExpectIdentical(Snapshot(restored, 3, kAge, 1 * kDay), before);
  }
  ReframeManifest(Dir(), manifest);
  PredictionService restored = MakeService();
  ASSERT_TRUE(restored.Restore(Dir()).ok());
  EXPECT_EQ(restored.LiveItems(), static_cast<size_t>(kItems));
}

// A re-framed manifest cut short anywhere, or with tokens swapped for
// extreme or malformed ones, never aborts Restore: a truncated one fails
// with kCorruption or kConfigMismatch, and a swap that fails leaves the
// service untouched.  (A swap may also restore, e.g. another counter
// value: the counters are not checked against the shard files.)
TEST_F(CheckpointTest, TruncatedOrSwappedManifestFailsCleanly) {
  ServiceConfig config;
  config.num_shards = 2;
  PredictionService source = MakeService(config);
  Load(&source, 12, kAge);
  ASSERT_TRUE(source.Checkpoint(Dir()).ok());
  const std::string manifest = FramedPayload(CommittedCheckpoint(Dir()) + "/MANIFEST");
  ASSERT_EQ(manifest.back(), '\n');
  // Restores `text` as the manifest into a service holding 3 items.
  const auto restore = [&](const std::string& text) {
    ReframeManifest(Dir(), text);
    PredictionService restored = MakeService(config);
    Load(&restored, 3, kAge);
    const uint64_t events = restored.stats().events_ingested;
    const Status status = restored.Restore(Dir());
    if (status.ok()) {
      EXPECT_EQ(restored.LiveItems(), 12u) << text;
    } else {
      EXPECT_TRUE(status.code() == StatusCode::kCorruption ||
                  status.code() == StatusCode::kConfigMismatch)
          << status.ToString() << "\n" << text;
      EXPECT_EQ(restored.LiveItems(), 3u) << text;
      EXPECT_EQ(restored.stats().events_ingested, events) << text;
    }
    return status;
  };
  ASSERT_TRUE(restore(manifest).ok());
  // Every prefix short of the last line's newline.
  for (size_t len = 0; len + 1 < manifest.size(); ++len) {
    EXPECT_FALSE(restore(manifest.substr(0, len)).ok()) << "prefix of " << len;
  }
  std::vector<std::string> tokens;
  {
    std::istringstream is(manifest);
    for (std::string token; is >> token;) tokens.push_back(token);
  }
  const std::vector<std::string> values = {
      "0", "1", "-1", "+1", "-0", "2", "16", "3600", "1e-400", "1e300", "inf", "nan",
      "0x10", "5-3", "1.5", "4294967296", "18446744073709551615", "shard-0000",
      "../shard-0000", "model", "qforest", "windows", "shards"};
  Rng rng(0x3A41F357);
  size_t failed = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::string> mutated = tokens;
    for (int k = 1 + static_cast<int>(rng.UniformInt(2)); k > 0; --k) {
      mutated[rng.UniformInt(mutated.size())] = values[rng.UniformInt(values.size())];
    }
    std::string text;
    for (const std::string& token : mutated) text += token + (rng.Bernoulli(0.5) ? " " : "\n");
    failed += !restore(text).ok();
  }
  EXPECT_GT(failed, 200u);
}

// The scan ranks by increment descending, then by id ascending: a total
// order.  Items with identical profiles, one creation time and no events
// tie on every feature, so they come back in id order however the shards
// and their slots hold them: with 1 shard (300 items, five chunks), with
// 16, and after a checkpoint and a restore.
TEST_F(CheckpointTest, ScanRanksTiedItemsById) {
  const auto& cascade = dataset_->cascades[0];
  std::vector<int64_t> ids;
  for (int64_t i = 0; i < 300; ++i) ids.push_back(1000 + 37 * i);
  Rng rng(27);
  for (size_t i = ids.size() - 1; i > 0; --i) {
    std::swap(ids[i], ids[rng.UniformInt(i + 1)]);
  }
  std::vector<int64_t> want = ids;
  std::sort(want.begin(), want.end());
  const auto scan_ids = [&](const PredictionService& service, size_t top_k) {
    QueryRequest scan;
    scan.s = 2 * kHour;
    scan.delta = 1 * kDay;
    scan.top_k = top_k;
    const StatusOr<QueryResponse> response = service.BatchQuery(scan);
    EXPECT_TRUE(response.ok());
    std::vector<int64_t> got;
    for (const ItemPrediction& p : response->results) {
      EXPECT_EQ(p.prediction.predicted_views,
                response->results[0].prediction.predicted_views);
      got.push_back(p.item_id);
    }
    return got;
  };
  const std::vector<int64_t> top_20(want.begin(), want.begin() + 20);
  for (const int shards : {1, 16}) {
    SCOPED_TRACE(testing::Message() << shards << " shards");
    ServiceConfig config;
    config.num_shards = shards;
    PredictionService service = MakeService(config);
    for (const int64_t id : ids) {
      ASSERT_TRUE(service.RegisterItem(id, 0.0, dataset_->PageOf(cascade.post),
                                       cascade.post).ok());
    }
    EXPECT_EQ(scan_ids(service, 20), top_20);
    EXPECT_EQ(scan_ids(service, ids.size()), want);
    ASSERT_TRUE(service.Checkpoint(Dir()).ok());
    for (const int restored_shards : {1, 3}) {
      config.num_shards = restored_shards;
      PredictionService restored = MakeService(config);
      ASSERT_TRUE(restored.Restore(Dir()).ok());
      EXPECT_EQ(scan_ids(restored, 20), top_20) << restored_shards << " restored shards";
    }
  }
}

/// The ids of the records of the `shard v4` payload `payload`, in file
/// order.
std::vector<int64_t> ShardRecordIds(const std::string& payload) {
  const ShardText shard = SplitShard(payload);
  EXPECT_EQ(shard.header, "shard v4\n");
  std::vector<int64_t> ids;
  for (const ShardText::Record& record : shard.records) {
    ids.push_back(std::stoll(record.id));
  }
  return ids;
}

/// The item count the manifest of the checkpoint `ckpt` lists for its
/// shard file `name`.
size_t ManifestItems(const std::string& ckpt, const std::string& name) {
  std::istringstream manifest(FramedPayload(ckpt + "/MANIFEST"));
  for (std::string line; std::getline(manifest, line);) {
    std::istringstream entry(line);
    std::string file;
    uint32_t crc = 0;
    size_t bytes = 0, items = 0;
    if (entry >> file >> crc >> bytes >> items && file == name) return items;
  }
  ADD_FAILURE() << name << " has no manifest entry";
  return 0;
}

// Shard files stream with the frame size zero-padded to 20 digits.  It
// reads back as an ordinary integer: a checkpoint re-framed unpadded
// ("hzf1 1234 <crc>") restores to bit-identical answers.
TEST_F(CheckpointTest, RestoresUnpaddedFrameSizesBitIdentically) {
  PredictionService source = MakeService();
  Load(&source, kItems, kAge);
  ASSERT_TRUE(source.Checkpoint(Dir()).ok());
  const std::string ckpt = CommittedCheckpoint(Dir());
  size_t records = 0;
  for (const std::string& name : io::ListDir(ckpt)) {
    if (name.rfind("shard-", 0) != 0) continue;
    const std::string file = io::ReadFile(ckpt + "/" + name).value();
    ASSERT_GT(file.size(), 35u);
    EXPECT_EQ(file.substr(0, 5), "hzf1 ");
    EXPECT_EQ(file.find_first_not_of("0123456789", 5), 25u) << name;
    records += ShardRecordIds(FramedPayload(ckpt + "/" + name)).size();
  }
  EXPECT_EQ(records, static_cast<size_t>(kItems));

  const size_t shards =
      ReframeShards(Dir(), [](std::string*) { return true; }, /*every_shard=*/true);
  ASSERT_EQ(shards, static_cast<size_t>(source.num_shards()));
  const std::string reframed = io::ReadFile(ckpt + "/shard-0000").value();
  ASSERT_EQ(reframed.substr(0, reframed.find('\n') + 1),
            io::CrcFrameHeader(FramedPayload(ckpt + "/shard-0000")));

  PredictionService restored = MakeService();
  const Status status = restored.Restore(Dir());
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(restored.LiveItems(), source.LiveItems());
  for (const double delta : {1 * kHour, 1 * kDay, 7 * kDay}) {
    ExpectIdentical(Snapshot(source, kItems, kAge, delta),
                    Snapshot(restored, kItems, kAge, delta));
  }
}

// Scans and checkpoints run while other threads register, ingest and
// retire.  A scan lists each shard's ids once, so no id comes back twice;
// a checkpoint skips an id retired mid-way, so each shard file holds the
// count of records its manifest entry lists, no id is listed twice, and
// every checkpoint restores.
TEST_F(CheckpointTest, ScansAndCheckpointsRaceRegistrationIngestAndRetirement) {
  ServiceConfig config;
  config.num_shards = 4;
  config.idle_retirement_age = 2 * kHour;
  PredictionService service = MakeService(config);
  constexpr int64_t kPreloaded = 300;
  Load(&service, kPreloaded, kAge);

  std::atomic<bool> done{false};
  std::atomic<int64_t> next_id{kPreloaded};
  std::vector<std::thread> threads;
  // Registers new items, each with a few views.
  threads.emplace_back([&] {
    while (!done.load()) {
      const int64_t id = next_id.fetch_add(1);
      const auto& cascade =
          dataset_->cascades[static_cast<size_t>(id) % dataset_->cascades.size()];
      EXPECT_TRUE(service.RegisterItem(id, 0.0, dataset_->PageOf(cascade.post),
                                       cascade.post).ok());
      for (size_t e = 0; e < 3 && e < cascade.views.size(); ++e) {
        (void)service.Ingest(id, stream::EngagementType::kView, cascade.views[e].time);
      }
    }
  });
  // Ingests late views into random items; retired ones answer kNotFound.
  threads.emplace_back([&] {
    Rng rng(271);
    for (double t = kAge; !done.load(); t += kMinute) {
      const auto id = static_cast<int64_t>(rng.UniformInt(
          static_cast<uint64_t>(next_id.load())));
      (void)service.Ingest(id, stream::EngagementType::kView, t);
    }
  });
  // Retires idle items, at ever later times.
  threads.emplace_back([&] {
    for (double now = kAge; !done.load(); now += 10 * kMinute) {
      (void)service.RetireDeadItems(now);
    }
  });
  // Scans every live item.
  threads.emplace_back([&] {
    while (!done.load()) {
      QueryRequest scan;
      scan.s = kAge;
      scan.delta = 1 * kDay;
      scan.top_k = 1u << 20;
      const StatusOr<QueryResponse> response = service.BatchQuery(scan);
      ASSERT_TRUE(response.ok());
      std::set<int64_t> seen;
      for (const ItemPrediction& p : response->results) {
        EXPECT_TRUE(seen.insert(p.item_id).second)
            << "scan returned " << p.item_id << " twice";
      }
    }
  });

  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE(testing::Message() << "checkpoint " << round);
    ASSERT_TRUE(service.Checkpoint(Dir()).ok());
    const std::string ckpt = CommittedCheckpoint(Dir());
    std::set<int64_t> listed;
    for (const std::string& name : io::ListDir(ckpt)) {
      if (name.rfind("shard-", 0) != 0) continue;
      const std::vector<int64_t> ids = ShardRecordIds(FramedPayload(ckpt + "/" + name));
      EXPECT_EQ(ids.size(), ManifestItems(ckpt, name)) << name;
      for (const int64_t id : ids) {
        EXPECT_TRUE(listed.insert(id).second) << "item " << id << " listed twice";
      }
    }
    PredictionService restored = MakeService(config);
    const Status status = restored.Restore(Dir());
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(restored.LiveItems(), listed.size());
  }
  done.store(true);
  for (std::thread& thread : threads) thread.join();
}

TEST_F(CheckpointTest, RestoreRejectsMismatchedModel) {
  PredictionService source = MakeService();
  Load(&source, 8, kAge);
  ASSERT_TRUE(source.Checkpoint(Dir()).ok());

  // A service bound to a differently trained model must refuse the
  // checkpoint outright (predictions would not be bit-identical).
  core::HawkesPredictorParams params;
  params.reference_horizons = {1 * kDay};
  params.gbdt_count.num_trees = 5;
  params.gbdt_alpha.num_trees = 5;
  core::HawkesPredictor other(params);
  {
    std::vector<size_t> indices;
    for (size_t i = 0; i < 30; ++i) indices.push_back(i);
    core::ExampleSetOptions options;
    options.reference_horizons = {1 * kDay};
    const auto examples =
        core::BuildExampleSet(*dataset_, indices, *extractor_, options);
    other.Fit(examples.x, examples.log1p_increments, examples.alpha_targets);
  }
  PredictionService restored(&other, extractor_, ServiceConfig{});
  EXPECT_FALSE(restored.Restore(Dir()).ok());
  EXPECT_EQ(restored.LiveItems(), 0u);
}

TEST_F(CheckpointTest, RestoreRejectsMismatchedTrackerConfig) {
  PredictionService source = MakeService();
  Load(&source, 8, kAge);
  ASSERT_TRUE(source.Checkpoint(Dir()).ok());

  ServiceConfig other;
  other.tracker.window_lengths = {1 * kHour};  // different window layout
  features::FeatureExtractor other_extractor(other.tracker);
  const core::HawkesPredictor other_model =
      test::ModelOfWidth(other_extractor.schema().size());
  PredictionService restored(&other_model, &other_extractor, other);
  // The model differs too; the window layout is what must be refused.
  const Status status = restored.Restore(Dir());
  EXPECT_EQ(status.code(), StatusCode::kConfigMismatch);
  EXPECT_NE(status.message().find("window layout"), std::string::npos)
      << status.message();
  EXPECT_EQ(restored.LiveItems(), 0u);
}

TEST_F(CheckpointTest, RestoreFromMissingOrEmptyDirFails) {
  PredictionService service = MakeService();
  EXPECT_FALSE(service.Restore(Dir() + "/does-not-exist").ok());
  ASSERT_TRUE(io::EnsureDir(Dir()).ok());
  EXPECT_FALSE(service.Restore(Dir()).ok());  // no CURRENT yet
  EXPECT_EQ(service.LiveItems(), 0u);
}

TEST_F(CheckpointTest, CheckpointWhileServingKeepsWorking) {
  // Not a stress test (serving_concurrency_test covers races under TSan);
  // this just proves the API contract that ingest continues during and
  // after a checkpoint and the checkpoint stays loadable.
  PredictionService service = MakeService();
  Load(&service, kItems, kAge);
  ASSERT_TRUE(service.Checkpoint(Dir()).ok());
  for (int64_t id = 0; id < kItems; ++id) {
    EXPECT_TRUE(service.Ingest(id, stream::EngagementType::kView, 7 * kHour).ok());
  }
  ASSERT_TRUE(service.Checkpoint(Dir()).ok());
  PredictionService restored = MakeService();
  EXPECT_TRUE(restored.Restore(Dir()).ok());
  EXPECT_EQ(restored.LiveItems(), static_cast<size_t>(kItems));
}

// tests/data/golden_checkpoint is a checkpoint of 12 items (static
// features and all four engagement streams up to 6 h) on 2 shards,
// served by a small model over the full feature schema (3 trees of depth
// 3 per forest, reference horizons 6 h and 1 d, trained on 120 generated
// posts of seed 2028).  It was written by the code that still stored the
// model's file, model.hwk, beside the manifest, in `shard v2` files of
// `trk v1` blobs; it was converted once to `shard v3` / `trk v2` by
// restoring it with the reader of those formats and checkpointing it
// again, on 2 shards, with the writer of these, and once more to
// `manifest v2` / `shard v4` by cutting each shard payload's count line,
// re-framing it and listing its new CRC and size in the manifest.  Its
// model.hwk and the answers recorded from the service that first wrote
// it were kept as they were.  It pins, with no training: the model codec
// (model.hwk's payload reads and writes back byte for byte); that the
// checkpoint restores, model.hwk ignored; the recorded answers, bit for
// bit; and the manifest and shard writers' bytes.
const std::string kGoldenCheckpoint =
    std::string(HORIZON_TEST_DATA_DIR) + "/golden_checkpoint";

/// The payload of the fixture's model.hwk.
std::string GoldenModelText() {
  return FramedPayload(kGoldenCheckpoint + "/ckpt-000000001/model.hwk");
}

TEST(GoldenCheckpointTest, ModelReadsAndWritesBackByteForByte) {
  const std::string text = GoldenModelText();
  core::HawkesPredictor model;
  ASSERT_TRUE(model.Deserialize(text));
  const features::FeatureExtractor extractor{stream::TrackerConfig{}};
  EXPECT_EQ(model.alpha_model().num_features(), extractor.schema().size());
  EXPECT_EQ(model.num_reference_horizons(), 2u);
  EXPECT_EQ(model.Serialize(), text);
}

TEST(GoldenCheckpointTest, RestoresToTheRecordedAnswers) {
  core::HawkesPredictor model;
  ASSERT_TRUE(model.Deserialize(GoldenModelText()));
  const features::FeatureExtractor extractor{stream::TrackerConfig{}};
  PredictionService service(&model, &extractor, ServiceConfig{});
  const Status status = service.Restore(kGoldenCheckpoint);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(service.LiveItems(), 12u);
  EXPECT_EQ(service.stats().items_registered, 12u);
  EXPECT_EQ(service.stats().events_ingested, 391u);
  const struct {
    int64_t id;
    double delta, observed, predicted, alpha;
  } answers[] = {
      {100, 1 * kDay, 0x1.4p+3, 0x1.14b45b06dad8cp+5, 0x1.66f7172cb922dp-17},
      {107, 7 * kDay, 0x1.3p+4, 0x1.0cbb2cf5f191cp+6, 0x1.4c2b56e0b8d2bp-17},
      {121, 1 * kHour, 0x1p+0, 0x1.ed0cd5bb9bc24p+0, 0x1.9e3e544f7ce18p-17},
      {142, 1 * kDay, 0x1.bcp+6, 0x1.462f33ff421f8p+7, 0x1.cd7a4eb31bae3p-18},
      {149, 7 * kDay, 0x1.28p+7, 0x1.6227810f2e59fp+8, 0x1.6297407b47338p-18},
      {170, 1 * kHour, 0x1.4p+5, 0x1.53590952d742bp+5, 0x1.4c2b56e0b8d2bp-17},
      {177, 1 * kDay, 0x1.cp+2, 0x1.68ea581d1e24ap+4, 0x1.948b7f2eebb25p-17},
  };
  for (const auto& want : answers) {
    const StatusOr<PredictionResult> got = service.Query(want.id, 6 * kHour, want.delta);
    ASSERT_TRUE(got.ok()) << want.id << ": " << got.status().ToString();
    EXPECT_EQ(got->observed_views, want.observed) << want.id;
    EXPECT_EQ(got->predicted_views, want.predicted) << want.id;
    EXPECT_EQ(got->alpha, want.alpha) << want.id;
  }
}

// Restored onto as many shards, the fixture checkpoints again to the
// same manifest and shard files, byte for byte (less model.hwk): the
// manifest and shard writers write what they wrote when it was converted.
TEST(GoldenCheckpointTest, RestoredFixtureCheckpointsToTheSameBytes) {
  core::HawkesPredictor model;
  ASSERT_TRUE(model.Deserialize(GoldenModelText()));
  const features::FeatureExtractor extractor{stream::TrackerConfig{}};
  ServiceConfig config;
  config.num_shards = 2;
  PredictionService service(&model, &extractor, config);
  ASSERT_TRUE(service.Restore(kGoldenCheckpoint).ok());
  const std::string dir = ::testing::TempDir() + "horizon_golden_" +
                          std::to_string(::getpid());
  io::RemoveTree(dir);
  ASSERT_TRUE(service.Checkpoint(dir).ok());
  const std::string golden = kGoldenCheckpoint + "/ckpt-000000001/";
  EXPECT_EQ(io::ListDir(dir + "/ckpt-000000001"),
            (std::vector<std::string>{"MANIFEST", "shard-0000", "shard-0001"}));
  for (const char* name : {"MANIFEST", "shard-0000", "shard-0001"}) {
    EXPECT_EQ(io::ReadFile(dir + "/ckpt-000000001/" + name).value(),
              io::ReadFile(golden + name).value())
        << name;
  }
  io::RemoveTree(dir);
}

}  // namespace
}  // namespace horizon::serving
