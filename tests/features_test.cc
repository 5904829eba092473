#include "features/extractor.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "common/file_io.h"
#include "common/units.h"
#include "datagen/generator.h"
#include "features/schema.h"
#include "obs/metrics.h"

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
  // Warm up the calling thread before counting.
  extractor.ExtractIntoStrided(page, cascade.post, tracker.Snapshot(s), row.data(), 1);

  size_t snapshot_allocations = 0;
  size_t extract_allocations = 0;
  for (int i = 0; i < 256; ++i) {
    const size_t before = test::ThreadAllocations();
    const stream::TrackerSnapshot snapshot = tracker.Snapshot(s + i * kHour);
    const size_t between = test::ThreadAllocations();
    extractor.ExtractIntoStrided(page, cascade.post, snapshot, row.data(), 1);
    snapshot_allocations += between - before;
    extract_allocations += test::ThreadAllocations() - between;
  }
  EXPECT_EQ(snapshot_allocations, 0u);
  EXPECT_EQ(extract_allocations, 0u);
  // The counter itself works: a vector allocates.
  const size_t before = test::ThreadAllocations();
  std::vector<float> copy = row;
  EXPECT_EQ(test::ThreadAllocations() - before, 1u);
#endif
}

// The extraction instruments are registered when the extractor is built,
// so that no extraction takes the registry lock: RetireDeadItems extracts
// under a shard lock.
TEST(FeatureExtractorTest, ConstructorRegistersExtractionInstruments) {
  const FeatureExtractor extractor(stream::TrackerConfig{});
  const std::string dump = obs::MetricsRegistry::Global().DumpPrometheus();
  EXPECT_NE(dump.find("horizon_features_rows_extracted_total"), std::string::npos);
  EXPECT_NE(dump.find("horizon_features_extract_latency_seconds"), std::string::npos);
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

// The static-feature record holds exactly the values a profile-taking
// extraction writes at the static schema indices -- the first kStaticHead
// and the last kNumStaticFeatures - kStaticHead, none of them a tracker
// feature -- and a row extracted from the record is the profile row, bit
// for bit.
TEST(FeatureExtractorTest, StaticRecordRowMatchesProfileRow) {
  const auto data = SmallDataset();
  FeatureExtractor extractor(stream::TrackerConfig{});
  const FeatureSchema& schema = extractor.schema();
  const size_t tail = schema.size() - (kNumStaticFeatures - kStaticHead);
  for (size_t k = 0; k < kNumStaticFeatures; ++k) {
    const size_t i = k < kStaticHead ? k : tail + k - kStaticHead;
    const std::string& name = schema.def(i).name;
    EXPECT_TRUE(name.rfind("content/", 0) == 0 || name.rfind("page", 0) == 0 ||
                name == "other/creation_tod" || name == "other/day_of_week" ||
                name == "other/log1p_group_members")
        << name;
  }
  for (size_t c = 0; c < data.cascades.size(); c += 7) {
    const auto& cascade = data.cascades[c];
    const auto& page = data.PageOf(cascade.post);
    const StaticFeatures statics = FeatureExtractor::ExtractStatic(page, cascade.post);
    for (const double age : {0.0, kHour, 3 * kDay}) {
      const auto snap = extractor.ReplaySnapshot(cascade, age);
      const std::vector<float> expected = extractor.Extract(page, cascade.post, snap);
      std::vector<float> row(schema.size());
      extractor.ExtractIntoStrided(statics, snap, row.data(), 1);
      ASSERT_EQ(row.size(), expected.size());
      for (size_t i = 0; i < row.size(); ++i) {
        EXPECT_EQ(std::bit_cast<uint32_t>(row[i]), std::bit_cast<uint32_t>(expected[i]))
            << schema.def(i).name;
      }
      size_t k = 0;
      ForEachStaticValue(statics, [&](float value) {
        const size_t i = k < kStaticHead ? k : tail + k - kStaticHead;
        EXPECT_EQ(std::bit_cast<uint32_t>(value), std::bit_cast<uint32_t>(row[i]));
        ++k;
      });
      EXPECT_EQ(k, kNumStaticFeatures);
    }
  }
}

// The record keeps the media type and the page category as indices and
// expands their one-hot groups into each row.  Over every MediaType and
// PageCategory, and one out-of-range value of each (an all-0 group), the
// row extracted from the record is the row of the 32-float record it
// replaced, bit for bit: the hashes below were recorded with that record.
// Each group also reads as the profile's value, by feature name.
TEST(FeatureExtractorTest, RecordRowsEqualTheFloatRecordsRows) {
  const auto data = SmallDataset();
  FeatureExtractor extractor(stream::TrackerConfig{});
  const FeatureSchema& schema = extractor.schema();
  EXPECT_EQ(sizeof(StaticFeatures), 84u);
  constexpr int kMedia[] = {0, 1, 2, 3, 4, datagen::kNumMediaTypes, 0, 1};
  constexpr int kCategory[] = {0, 1, 2, 3, 4, 5, 6, datagen::kNumPageCategories};
  // An FNV-1a hash of each row's float bits, a 32-bit word at a time.
  constexpr uint64_t kRowHash[] = {
      0x784982daf0a11e41ull, 0x6fd9cf849afb2363ull, 0xa4c5f7df0eb71afeull,
      0x557afe5f2a892c79ull, 0x8cfec674f5986e98ull, 0xf0d8aa867773f8e4ull,
      0xe819c296bd106c45ull, 0xfbb4a4483841c874ull};
  const auto index_of = [&](const std::string& name) {
    for (size_t i = 0; i < schema.size(); ++i) {
      if (schema.def(i).name == name) return i;
    }
    ADD_FAILURE() << "no feature " << name;
    return size_t{0};
  };
  for (size_t j = 0; j < std::size(kRowHash); ++j) {
    const auto& cascade = data.cascades[j];
    datagen::PostProfile post = cascade.post;
    datagen::PageProfile page = data.PageOf(post);
    post.media = static_cast<datagen::MediaType>(kMedia[j]);
    page.category = static_cast<datagen::PageCategory>(kCategory[j]);
    const StaticFeatures statics = FeatureExtractor::ExtractStatic(page, post);
    std::vector<float> row(schema.size());
    extractor.ExtractIntoStrided(statics, extractor.ReplaySnapshot(cascade, kHour),
                                 row.data(), 1);
    uint64_t hash = 14695981039346656037ull;
    for (const float value : row) {
      hash ^= std::bit_cast<uint32_t>(value);
      hash *= 1099511628211ull;
    }
    EXPECT_EQ(hash, kRowHash[j]) << "case " << j;
    for (int m = 0; m < datagen::kNumMediaTypes; ++m) {
      const std::string name = std::string("content/media_") +
                               datagen::MediaTypeName(static_cast<datagen::MediaType>(m));
      EXPECT_EQ(row[index_of(name)], m == kMedia[j] ? 1.0f : 0.0f) << name;
    }
    for (int c = 0; c < datagen::kNumPageCategories; ++c) {
      const std::string name =
          std::string("page/category_") +
          datagen::PageCategoryName(static_cast<datagen::PageCategory>(c));
      EXPECT_EQ(row[index_of(name)], c == kCategory[j] ? 1.0f : 0.0f) << name;
    }
  }
}

// A count's feature is float(log1p(n)) whether the table answers (below
// kLog1pTableCounts) or log1p runs (above): every count from 0 to well
// past the bound, and a few far above it, bit for bit.
TEST(FeatureExtractorTest, Log1pCountIsTheLog1pOfEveryCount) {
  const auto log1p_of = [](uint64_t n) {
    return std::bit_cast<uint32_t>(static_cast<float>(std::log1p(static_cast<double>(n))));
  };
  for (uint64_t n = 0; n < 4 * kLog1pTableCounts; ++n) {
    ASSERT_EQ(std::bit_cast<uint32_t>(Log1pCount(n)), log1p_of(n)) << n;
  }
  for (const uint64_t n : {uint64_t{1} << 32, uint64_t{1} << 53, ~uint64_t{0}}) {
    EXPECT_EQ(std::bit_cast<uint32_t>(Log1pCount(n)), log1p_of(n)) << n;
  }
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
