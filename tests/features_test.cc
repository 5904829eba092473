#include "features/extractor.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/file_io.h"
#include "common/units.h"
#include "datagen/generator.h"
#include "features/schema.h"

// Heap allocations made by the current thread, counted through the global
// operator new this binary replaces.  Sanitizer runtimes own operator new,
// so sanitized builds keep the default and skip the test that reads this.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HORIZON_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define HORIZON_TEST_SANITIZED 1
#endif
#endif

#ifndef HORIZON_TEST_SANITIZED
namespace {
thread_local size_t t_allocations = 0;
}  // namespace

// Every replacement stays out of line: inlined into a caller, its malloc()
// or free() meets the other side's new-expression or delete-expression,
// and GCC's -Wmismatched-new-delete reports the pair.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t size, std::align_val_t align) {
  ++t_allocations;
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}
#endif

namespace horizon::features {
namespace {

datagen::SyntheticDataset SmallDataset() {
  datagen::GeneratorConfig config;
  config.num_pages = 20;
  config.num_posts = 50;
  config.base_mean_size = 60.0;
  config.seed = 77;
  return datagen::Generator(config).Generate();
}

TEST(FeatureSchemaTest, AddAndQuery) {
  FeatureSchema schema;
  EXPECT_EQ(schema.Add("a", FeatureCategory::kContent), 0u);
  EXPECT_EQ(schema.Add("b", FeatureCategory::kPage), 1u);
  EXPECT_EQ(schema.Add("c", FeatureCategory::kContent), 2u);
  EXPECT_EQ(schema.size(), 3u);
  EXPECT_EQ(schema.CountOf(FeatureCategory::kContent), 2u);
  EXPECT_EQ(schema.IndicesOf(FeatureCategory::kPage), std::vector<size_t>{1});
  EXPECT_EQ(schema.def(0).name, "a");
}

TEST(FeatureCategoryTest, AllNamesDistinct) {
  std::set<std::string> names;
  for (int c = 0; c < kNumFeatureCategories; ++c) {
    names.insert(FeatureCategoryName(static_cast<FeatureCategory>(c)));
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kNumFeatureCategories));
}

TEST(FeatureExtractorTest, SchemaCoversAllCategories) {
  FeatureExtractor extractor(stream::TrackerConfig{});
  const FeatureSchema& schema = extractor.schema();
  EXPECT_GT(schema.size(), 60u);
  for (int c = 0; c < kNumFeatureCategories; ++c) {
    EXPECT_GT(schema.CountOf(static_cast<FeatureCategory>(c)), 0u)
        << FeatureCategoryName(static_cast<FeatureCategory>(c));
  }
}

TEST(FeatureExtractorTest, UniqueFeatureNames) {
  FeatureExtractor extractor(stream::TrackerConfig{});
  std::set<std::string> names;
  for (size_t i = 0; i < extractor.schema().size(); ++i) {
    names.insert(extractor.schema().def(i).name);
  }
  EXPECT_EQ(names.size(), extractor.schema().size());
}

// Pins the default schema, the (name, category) list in order, across
// commits: models, checkpoints and Table 2 index features by position.
// To regenerate after an INTENTIONAL schema change:
// HORIZON_PRINT_GOLDEN=1 ./features_test
// --gtest_filter=FeatureExtractorTest.SchemaGolden, then paste the printed
// constants below.
TEST(FeatureExtractorTest, SchemaGolden) {
  constexpr uint32_t kSchemaCrc = 0xA4521E6Du;
  constexpr size_t kFeatures = 111;
  const FeatureExtractor extractor(stream::TrackerConfig{});
  const FeatureSchema& schema = extractor.schema();
  std::string joined;
  for (size_t i = 0; i < schema.size(); ++i) {
    joined += schema.def(i).name + "\t" +
              FeatureCategoryName(schema.def(i).category) + "\n";
  }
  const uint32_t crc = io::Crc32(joined);
  if (std::getenv("HORIZON_PRINT_GOLDEN") != nullptr) {
    std::printf("  constexpr uint32_t kSchemaCrc = 0x%08Xu;\n"
                "  constexpr size_t kFeatures = %zu;\n",
                crc, schema.size());
    return;
  }
  EXPECT_EQ(crc, kSchemaCrc) << "rerun with HORIZON_PRINT_GOLDEN=1 to regenerate";
  EXPECT_EQ(schema.size(), kFeatures);
}

// The point-query hot path: a tracker snapshot and one extracted row touch
// no heap.  256 rounds pass the extractor's 1-in-64 latency sample.
TEST(FeatureExtractorTest, SnapshotAndExtractAllocateNothing) {
#ifdef HORIZON_TEST_SANITIZED
  GTEST_SKIP() << "the sanitizer runtime owns operator new";
#else
  const auto data = SmallDataset();
  const FeatureExtractor extractor(stream::TrackerConfig{});
  const auto& cascade = data.cascades[0];
  const auto& page = data.PageOf(cascade.post);
  stream::CascadeTracker tracker(0.0, extractor.tracker_config());
  for (const auto& e : cascade.views) {
    tracker.Observe(stream::EngagementType::kView, e.time);
  }
  for (const double t : cascade.share_times) {
    tracker.Observe(stream::EngagementType::kShare, t);
  }
  const double s = std::max(cascade.views.empty() ? 0.0 : cascade.views.back().time,
                            cascade.share_times.empty() ? 0.0 : cascade.share_times.back());
  std::vector<float> row(extractor.schema().size());
  // Warm up: the first extraction resolves the extractor's instruments.
  extractor.ExtractIntoStrided(page, cascade.post, tracker.Snapshot(s), row.data(), 1);

  size_t snapshot_allocations = 0;
  size_t extract_allocations = 0;
  for (int i = 0; i < 256; ++i) {
    const size_t before = t_allocations;
    const stream::TrackerSnapshot snapshot = tracker.Snapshot(s + i * kHour);
    const size_t between = t_allocations;
    extractor.ExtractIntoStrided(page, cascade.post, snapshot, row.data(), 1);
    snapshot_allocations += between - before;
    extract_allocations += t_allocations - between;
  }
  EXPECT_EQ(snapshot_allocations, 0u);
  EXPECT_EQ(extract_allocations, 0u);
  // The counter itself works: a vector allocates.
  const size_t before = t_allocations;
  std::vector<float> copy = row;
  EXPECT_EQ(t_allocations - before, 1u);
#endif
}

TEST(FeatureExtractorTest, ExtractMatchesSchemaSizeAndIsFinite) {
  const auto data = SmallDataset();
  FeatureExtractor extractor(stream::TrackerConfig{});
  const auto& cascade = data.cascades[0];
  const auto snap = extractor.ReplaySnapshot(cascade, 6 * kHour);
  const auto row = extractor.Extract(data.PageOf(cascade.post), cascade.post, snap);
  ASSERT_EQ(row.size(), extractor.schema().size());
  for (float v : row) EXPECT_TRUE(std::isfinite(v));
}

TEST(FeatureExtractorTest, ReplaySnapshotCountsMatchCascade) {
  const auto data = SmallDataset();
  FeatureExtractor extractor(stream::TrackerConfig{});
  for (size_t i = 0; i < 10; ++i) {
    const auto& cascade = data.cascades[i];
    const double s = 12 * kHour;
    const auto snap = extractor.ReplaySnapshot(cascade, s);
    EXPECT_EQ(snap.views().total, cascade.ViewsBefore(s));
    size_t shares = 0;
    for (double t : cascade.share_times) shares += t < s ? 1 : 0;
    EXPECT_EQ(snap.shares().total, shares);
  }
}

TEST(FeatureExtractorTest, TotalsMonotoneInObservationAge) {
  const auto data = SmallDataset();
  FeatureExtractor extractor(stream::TrackerConfig{});
  const auto& cascade = data.cascades[1];
  uint64_t prev = 0;
  for (double age : {1 * kHour, 6 * kHour, 1 * kDay, 4 * kDay}) {
    const auto snap = extractor.ReplaySnapshot(cascade, age);
    EXPECT_GE(snap.views().total, prev);
    prev = snap.views().total;
  }
}

TEST(FeatureExtractorTest, DeterministicExtraction) {
  const auto data = SmallDataset();
  FeatureExtractor extractor(stream::TrackerConfig{});
  const auto& cascade = data.cascades[2];
  const auto snap_a = extractor.ReplaySnapshot(cascade, kDay);
  const auto snap_b = extractor.ReplaySnapshot(cascade, kDay);
  const auto row_a = extractor.Extract(data.PageOf(cascade.post), cascade.post, snap_a);
  const auto row_b = extractor.Extract(data.PageOf(cascade.post), cascade.post, snap_b);
  EXPECT_EQ(row_a, row_b);
}

TEST(FeatureExtractorTest, MediaOneHotMatchesPost) {
  const auto data = SmallDataset();
  FeatureExtractor extractor(stream::TrackerConfig{});
  const auto& schema = extractor.schema();
  const auto& cascade = data.cascades[3];
  const auto snap = extractor.ReplaySnapshot(cascade, kHour);
  const auto row = extractor.Extract(data.PageOf(cascade.post), cascade.post, snap);
  int hot = 0;
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema.def(i).name.rfind("content/media_", 0) == 0) {
      hot += row[i] > 0.5f ? 1 : 0;
    }
  }
  EXPECT_EQ(hot, 1);
}

TEST(FeatureExtractorTest, EngagementFeaturesReflectActivity) {
  // A later snapshot of an active cascade has a larger views total feature.
  const auto data = SmallDataset();
  FeatureExtractor extractor(stream::TrackerConfig{});
  const auto& schema = extractor.schema();
  size_t total_idx = schema.size();
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema.def(i).name == "views/log1p_total") total_idx = i;
  }
  ASSERT_LT(total_idx, schema.size());

  // Find a cascade with meaningful growth.
  for (const auto& cascade : data.cascades) {
    if (cascade.ViewsBefore(kDay) > cascade.ViewsBefore(kHour) + 10) {
      const auto early = extractor.Extract(
          data.PageOf(cascade.post), cascade.post, extractor.ReplaySnapshot(cascade, kHour));
      const auto late = extractor.Extract(
          data.PageOf(cascade.post), cascade.post, extractor.ReplaySnapshot(cascade, kDay));
      EXPECT_GT(late[total_idx], early[total_idx]);
      return;
    }
  }
  FAIL() << "no growing cascade found";
}

}  // namespace
}  // namespace horizon::features
