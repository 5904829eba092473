// Hammers one PredictionService from many threads and checks the counter
// and retirement invariants.  This binary is also the ThreadSanitizer
// target of the CI concurrency job.
#include "serving/prediction_service.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "datagen/event_stream.h"

namespace horizon::serving {
namespace {

constexpr int kNumThreads = 8;

// Shared fixture: a small trained model plus its extractor and dataset
// (kept small so the TSan run stays fast).
class ServingConcurrencyTest : public ::testing::Test {
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
    params.gbdt_count.num_trees = 15;
    params.gbdt_alpha.num_trees = 15;
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

  const datagen::Cascade& CascadeFor(int64_t item) const {
    return dataset_->cascades[static_cast<size_t>(item) %
                              dataset_->cascades.size()];
  }

  static datagen::SyntheticDataset* dataset_;
  static features::FeatureExtractor* extractor_;
  static core::HawkesPredictor* model_;
};

datagen::SyntheticDataset* ServingConcurrencyTest::dataset_ = nullptr;
features::FeatureExtractor* ServingConcurrencyTest::extractor_ = nullptr;
core::HawkesPredictor* ServingConcurrencyTest::model_ = nullptr;

TEST_F(ServingConcurrencyTest, EightThreadIngestQueryHammer) {
  PredictionService service = MakeService();
  constexpr int64_t kItems = 160;
  for (int64_t id = 0; id < kItems; ++id) {
    const auto& cascade = CascadeFor(id);
    ASSERT_TRUE(service.RegisterItem(id, 0.0, dataset_->PageOf(cascade.post),
                                     cascade.post).ok());
  }

  // Each item is written by exactly one thread (the tracker requires
  // non-decreasing per-item event times); reads go anywhere.
  std::atomic<uint64_t> ingests{0};
  std::atomic<uint64_t> queries{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kNumThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t my_ingests = 0, my_queries = 0;
      for (int64_t id = t; id < kItems; id += kNumThreads) {
        const auto& cascade = CascadeFor(id);
        size_t fed = 0;
        for (const auto& e : cascade.views) {
          if (e.time >= 6 * kHour || fed >= 50) break;
          if (service.Ingest(id, stream::EngagementType::kView, e.time).ok()) {
            ++my_ingests;
          }
          ++fed;
        }
        // Interleave reads on items owned by other threads.
        const int64_t other = (id * 7 + 3) % kItems;
        if (service.Query(other, 6 * kHour, 1 * kDay).ok()) ++my_queries;
        if (id % 20 == static_cast<int64_t>(t % 20)) {
          QueryRequest scan;
          scan.s = 6 * kHour;
          scan.delta = 1 * kDay;
          scan.top_k = 5;
          const auto top = service.BatchQuery(scan);
          ASSERT_TRUE(top.ok());
          EXPECT_LE(top->results.size(), 5u);
        }
      }
      ingests.fetch_add(my_ingests);
      queries.fetch_add(my_queries);
    });
  }
  for (auto& th : threads) th.join();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.items_registered, static_cast<uint64_t>(kItems));
  EXPECT_EQ(stats.events_ingested, ingests.load());
  // Scan answers don't count as queries; every per-item Query that
  // returned a value must have been counted exactly once.
  EXPECT_EQ(stats.queries_answered, queries.load());
  EXPECT_EQ(service.LiveItems(), static_cast<size_t>(kItems));

  // Retirement invariant: far in the future everything is idle-dead.
  const size_t retired = service.RetireDeadItems(1000 * kDay);
  EXPECT_EQ(retired, static_cast<size_t>(kItems));
  EXPECT_EQ(service.LiveItems(), 0u);
  EXPECT_EQ(service.stats().items_retired, static_cast<uint64_t>(kItems));
}

// ingest_replay's shape: two producers split a generated stream by
// id % 2, each registering an item when its creation time comes up and
// then sending its events in stream order, into a 16-shard service.  Any
// interleaving of the two must leave the service where a one-thread
// replay of the stream leaves it: every answer bit for bit, and the same
// stats().
TEST_F(ServingConcurrencyTest, InterleavedProducersReachTheSerialState) {
  struct Op {
    double time;
    int32_t id;
    int type;  // < 0: RegisterItem
  };
  const auto& cascades = dataset_->cascades;
  for (size_t i = 0; i < cascades.size(); ++i) {
    ASSERT_EQ(cascades[i].post.id, static_cast<int32_t>(i));
  }
  std::vector<int32_t> by_creation(cascades.size());
  std::iota(by_creation.begin(), by_creation.end(), 0);
  std::stable_sort(by_creation.begin(), by_creation.end(), [&](int32_t a, int32_t b) {
    return cascades[static_cast<size_t>(a)].post.creation_time <
           cascades[static_cast<size_t>(b)].post.creation_time;
  });
  std::vector<Op> serial;
  std::array<std::vector<Op>, 2> split;
  const auto add = [&](const Op& op) {
    serial.push_back(op);
    split[static_cast<size_t>(op.id % 2)].push_back(op);
  };
  size_t next = 0;
  const auto register_through = [&](double t) {
    for (; next < by_creation.size(); ++next) {
      const datagen::PostProfile& post =
          cascades[static_cast<size_t>(by_creation[next])].post;
      if (post.creation_time > t) break;
      add({post.creation_time, post.id, -1});
    }
  };
  const std::vector<datagen::PlatformEvent> events = datagen::BuildEventStream(*dataset_);
  ASSERT_FALSE(events.empty());
  for (const datagen::PlatformEvent& e : events) {
    register_through(e.time);
    add({e.time, e.post_id, static_cast<int>(e.type)});
  }
  register_through(std::numeric_limits<double>::infinity());

  const auto replay = [&](PredictionService& service, const std::vector<Op>& ops) {
    uint64_t failed = 0;
    for (const Op& op : ops) {
      const datagen::PostProfile& post = cascades[static_cast<size_t>(op.id)].post;
      const Status status =
          op.type < 0
              ? service.RegisterItem(op.id, op.time, dataset_->PageOf(post), post)
              : service.Ingest(op.id, static_cast<stream::EngagementType>(op.type),
                               op.time);
      failed += status.ok() ? 0 : 1;
    }
    return failed;
  };
  ServiceConfig config;
  config.num_shards = 16;
  PredictionService want = MakeService(config);
  EXPECT_EQ(replay(want, serial), 0u);
  PredictionService got = MakeService(config);
  std::array<uint64_t, 2> failed{};
  std::vector<std::thread> producers;
  for (size_t p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] { failed[p] = replay(got, split[p]); });
  }
  for (auto& th : producers) th.join();
  EXPECT_EQ(failed[0] + failed[1], 0u);

  const double s = events.back().time;  // past every event
  for (int32_t id = 0; id < static_cast<int32_t>(cascades.size()); ++id) {
    for (const double delta : {1 * kHour, 1 * kDay, 7 * kDay}) {
      const auto a = got.Query(id, s, delta);
      const auto b = want.Query(id, s, delta);
      ASSERT_TRUE(a.ok() && b.ok()) << "item " << id;
      EXPECT_EQ(a->observed_views, b->observed_views) << "item " << id;
      EXPECT_EQ(a->predicted_views, b->predicted_views) << "item " << id;
      EXPECT_EQ(a->alpha, b->alpha) << "item " << id;
    }
  }
  const ServiceStats a = got.stats();
  const ServiceStats b = want.stats();
  EXPECT_EQ(a.items_registered, b.items_registered);
  EXPECT_EQ(a.events_ingested, b.events_ingested);
  EXPECT_EQ(a.events_ingested, events.size());
  EXPECT_EQ(a.queries_answered, b.queries_answered);
  EXPECT_EQ(a.items_retired, b.items_retired);
}

TEST_F(ServingConcurrencyTest, ConcurrentRegisterQueryRetire) {
  ServiceConfig config;
  config.idle_retirement_age = 1 * kDay;
  config.num_shards = 4;
  PredictionService service = MakeService(config);

  std::atomic<uint64_t> registered{0};
  std::atomic<uint64_t> retired{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kNumThreads - 1; ++t) {
    threads.emplace_back([&, t] {
      for (int64_t i = 0; i < 40; ++i) {
        const int64_t id = t * 1000 + i;
        const auto& cascade = CascadeFor(id);
        if (service.RegisterItem(id, 0.0, dataset_->PageOf(cascade.post),
                                 cascade.post)
                .ok()) {
          registered.fetch_add(1);
        }
        // Hammer test: outcomes race with other threads on purpose; the
        // counter conservation checks below are the assertions.
        (void)service.Ingest(id, stream::EngagementType::kView, 1.0);
        (void)service.Query(id, 2.0, 1 * kDay);
        service.HasItem(id);
      }
    });
  }
  // One thread retires concurrently (at a time past every event, per the
  // tracker's snapshot contract).  Whether or not the eager death test
  // fires for any item, the counters must stay coherent.
  threads.emplace_back([&] {
    for (int rep = 0; rep < 10; ++rep) {
      retired.fetch_add(service.RetireDeadItems(2.0));
      std::this_thread::yield();
    }
  });
  for (auto& th : threads) th.join();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.items_registered, registered.load());
  EXPECT_EQ(stats.items_retired, retired.load());
  EXPECT_EQ(service.LiveItems(),
            static_cast<size_t>(registered.load() - retired.load()));
}

TEST_F(ServingConcurrencyTest, IngestBatchMatchesSerialIngest) {
  PredictionService serial = MakeService();
  PredictionService batched = MakeService();
  constexpr int64_t kItems = 24;
  std::vector<IngestEvent> events;
  for (int64_t id = 0; id < kItems; ++id) {
    const auto& cascade = CascadeFor(id);
    ASSERT_TRUE(
        serial.RegisterItem(id, 0.0, dataset_->PageOf(cascade.post), cascade.post)
            .ok());
    ASSERT_TRUE(
        batched.RegisterItem(id, 0.0, dataset_->PageOf(cascade.post), cascade.post)
            .ok());
    size_t fed = 0;
    for (const auto& e : cascade.views) {
      if (e.time >= 6 * kHour || fed >= 80) break;
      events.push_back({id, stream::EngagementType::kView, e.time});
      ++fed;
    }
  }
  // Unknown items are dropped, not counted.
  events.push_back({9999, stream::EngagementType::kView, 1.0});

  size_t serial_ok = 0;
  for (const auto& e : events) {
    if (serial.Ingest(e.item_id, e.type, e.time).ok()) ++serial_ok;
  }
  const size_t batch_ok = batched.IngestBatch(events);
  EXPECT_EQ(batch_ok, serial_ok);
  EXPECT_EQ(batched.stats().events_ingested, serial.stats().events_ingested);

  for (int64_t id = 0; id < kItems; ++id) {
    const auto a = serial.Query(id, 6 * kHour, 1 * kDay);
    const auto b = batched.Query(id, 6 * kHour, 1 * kDay);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_DOUBLE_EQ(a->observed_views, b->observed_views);
    EXPECT_DOUBLE_EQ(a->predicted_views, b->predicted_views);
    EXPECT_DOUBLE_EQ(a->alpha, b->alpha);
  }
}

TEST_F(ServingConcurrencyTest, ParallelTopKMatchesSingleShardService) {
  ServiceConfig many;
  many.num_shards = 16;
  ServiceConfig one;
  one.num_shards = 1;
  PredictionService sharded = MakeService(many);
  PredictionService flat = MakeService(one);
  for (int64_t id = 0; id < 40; ++id) {
    const auto& cascade = CascadeFor(id);
    ASSERT_TRUE(
        sharded.RegisterItem(id, 0.0, dataset_->PageOf(cascade.post), cascade.post)
            .ok());
    ASSERT_TRUE(
        flat.RegisterItem(id, 0.0, dataset_->PageOf(cascade.post), cascade.post)
            .ok());
    for (const auto& e : cascade.views) {
      if (e.time >= 3 * kHour) break;
      ASSERT_TRUE(sharded.Ingest(id, stream::EngagementType::kView, e.time).ok());
      ASSERT_TRUE(flat.Ingest(id, stream::EngagementType::kView, e.time).ok());
    }
  }
  QueryRequest scan;
  scan.s = 3 * kHour;
  scan.delta = 1 * kDay;
  scan.top_k = 7;
  const auto a = sharded.BatchQuery(scan);
  const auto b = flat.BatchQuery(scan);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->results.size(), b->results.size());
  for (size_t i = 0; i < a->results.size(); ++i) {
    const PredictionResult& pa = a->results[i].prediction;
    const PredictionResult& pb = b->results[i].prediction;
    EXPECT_EQ(a->results[i].item_id, b->results[i].item_id) << "rank " << i;
    EXPECT_DOUBLE_EQ(pa.predicted_views - pa.observed_views,
                     pb.predicted_views - pb.observed_views)
        << "rank " << i;
  }
}

// Group commit must coalesce a whole batch into O(shard groups) lock
// acquisitions, not one per event.  The
// commits counter increments once per shard-lock acquisition, so with a
// single shard a 300-event batch that costs more than one commit IS the
// old lock-per-group regression.
TEST_F(ServingConcurrencyTest, IngestBatchGroupCommitCoalescesLockAcquisitions) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.num_shards = 1;
  config.metrics = &registry;
  PredictionService service = MakeService(config);

  constexpr int64_t kItems = 12;
  std::vector<IngestEvent> events;
  for (int64_t id = 0; id < kItems; ++id) {
    const auto& cascade = CascadeFor(id);
    ASSERT_TRUE(service.RegisterItem(id, 0.0, dataset_->PageOf(cascade.post),
                                     cascade.post)
                    .ok());
    size_t fed = 0;
    for (const auto& e : cascade.views) {
      if (e.time >= 6 * kHour || fed >= 25) break;
      events.push_back({id, stream::EngagementType::kView, e.time});
      ++fed;
    }
  }
  ASSERT_GE(events.size(), 100u);

  const auto* commits =
      registry.GetCounter("horizon_serving_ingest_commits_total");
  const uint64_t commits_before = commits->Value();
  const size_t ok = service.IngestBatch(events);
  EXPECT_EQ(ok, events.size());
  // One shard, one group, ONE lock acquisition for the whole batch.
  EXPECT_EQ(commits->Value() - commits_before, 1u)
      << "IngestBatch took " << (commits->Value() - commits_before)
      << " commits for " << events.size() << " events on one shard";

  // Across shards the bound is one commit per NON-EMPTY shard group, not
  // per event: a second service with 4 shards may spend at most 4.
  obs::MetricsRegistry sharded_registry;
  ServiceConfig sharded_config;
  sharded_config.num_shards = 4;
  sharded_config.metrics = &sharded_registry;
  PredictionService sharded = MakeService(sharded_config);
  for (int64_t id = 0; id < kItems; ++id) {
    const auto& cascade = CascadeFor(id);
    ASSERT_TRUE(sharded.RegisterItem(id, 0.0, dataset_->PageOf(cascade.post),
                                     cascade.post)
                    .ok());
  }
  const auto* sharded_commits =
      sharded_registry.GetCounter("horizon_serving_ingest_commits_total");
  EXPECT_EQ(sharded.IngestBatch(events), events.size());
  EXPECT_GE(sharded_commits->Value(), 1u);
  EXPECT_LE(sharded_commits->Value(), 4u)
      << sharded_commits->Value() << " commits for " << events.size()
      << " events over 4 shards";
}

// stats() sums per-thread counter slots; once the writers have joined it
// must equal what each call reported, exactly.  8 threads on disjoint
// ids run every entry point that moves a counter.  Each round a thread
// registers two items that go live at kBirth and get events and queries,
// and one created at 0 that never gets a view: any thread's sweep at
// kSweep (past the 14-day idle age, before kBirth) retires those and
// leaves the rest alone.
TEST_F(ServingConcurrencyTest, StatsEqualPerThreadTalliesExactly) {
  PredictionService service = MakeService();
  constexpr double kBirth = 100 * kDay;
  constexpr double kSweep = 30 * kDay;
  constexpr int kRounds = 25;
  struct Tally {
    uint64_t registered = 0, ingested = 0, answered = 0, retired = 0;
  };
  std::vector<Tally> tallies(kNumThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kNumThreads; ++t) {
    threads.emplace_back([&, t] {
      Tally& tally = tallies[static_cast<size_t>(t)];
      for (int round = 0; round < kRounds; ++round) {
        const int64_t base = (static_cast<int64_t>(t) * kRounds + round) * 3;
        const int64_t live[2] = {base, base + 1};
        const int64_t doomed = base + 2;
        for (const int64_t id : {live[0], live[1], doomed}) {
          const auto& cascade = CascadeFor(id);
          const double creation = id == doomed ? 0.0 : kBirth;
          if (service.RegisterItem(id, creation, dataset_->PageOf(cascade.post),
                                   cascade.post)
                  .ok()) {
            ++tally.registered;
          }
        }
        std::vector<IngestEvent> batch;
        for (int k = 0; k < 6; ++k) {
          const double at = kBirth + 60.0 * (k + 1);
          if (service.Ingest(live[0], stream::EngagementType::kView, at).ok()) {
            ++tally.ingested;
          }
          batch.push_back({live[1], stream::EngagementType::kView, at});
          batch.push_back({live[1], stream::EngagementType::kShare, at});
        }
        batch.push_back({live[1], stream::EngagementType::kView, kBirth});  // late
        tally.ingested += service.IngestBatch(batch);
        if (service.Query(live[0], kBirth + kHour, kDay).ok()) ++tally.answered;
        QueryRequest request;
        request.ids = {live[0], live[1], doomed, -1};
        request.s = kBirth + kHour;
        request.delta = kDay;
        const auto response = service.BatchQuery(request);
        if (response.ok()) tally.answered += response->results.size();
        if (round % 5 == 4) tally.retired += service.RetireDeadItems(kSweep);
      }
    });
  }
  for (auto& th : threads) th.join();

  Tally sum;
  for (const Tally& tally : tallies) {
    sum.registered += tally.registered;
    sum.ingested += tally.ingested;
    sum.answered += tally.answered;
    sum.retired += tally.retired;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.items_registered, sum.registered);
  EXPECT_EQ(stats.events_ingested, sum.ingested);
  EXPECT_EQ(stats.queries_answered, sum.answered);
  EXPECT_EQ(stats.items_retired, sum.retired);
  EXPECT_EQ(sum.registered, static_cast<uint64_t>(kNumThreads * kRounds * 3));
  EXPECT_EQ(sum.ingested, static_cast<uint64_t>(kNumThreads * kRounds * 18));
  EXPECT_EQ(service.LiveItems(), sum.registered - sum.retired);
  // Each thread's last sweep ran after its own last registration, so at
  // least that round's doomed item is gone; every live item stays.
  EXPECT_GE(sum.retired, static_cast<uint64_t>(kNumThreads));
  EXPECT_GE(service.LiveItems(), static_cast<size_t>(kNumThreads * kRounds * 2));
}

}  // namespace
}  // namespace horizon::serving
