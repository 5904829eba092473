#include "datagen/io.h"

#include <gtest/gtest.h>

#include "common/file_io.h"

namespace horizon::datagen {
namespace {

SyntheticDataset SmallDataset() {
  GeneratorConfig config;
  config.num_pages = 10;
  config.num_posts = 25;
  config.base_mean_size = 40.0;
  config.seed = 99;
  return Generator(config).Generate();
}

TEST(DatagenIoTest, SaveFailsOnBadDirectory) {
  EXPECT_FALSE(SaveDatasetCsv(SmallDataset(), "/nonexistent_dir_zzz"));
}

TEST(DatagenIoTest, LoadFailsOnMissingFiles) {
  EXPECT_FALSE(LoadDatasetCsv("/nonexistent_dir_zzz").has_value());
}

TEST(DatagenIoTest, RoundTripsExactly) {
  const SyntheticDataset original = SmallDataset();
  // A test-private directory: the suite's tests run as separate ctest
  // entries that may execute concurrently, so they must not share files.
  const std::string dir = ::testing::TempDir() + "datagen_io_round_trip";
  ASSERT_TRUE(io::EnsureDir(dir).ok());
  ASSERT_TRUE(SaveDatasetCsv(original, dir));
  const auto loaded = LoadDatasetCsv(dir);
  ASSERT_TRUE(loaded.has_value());

  // Config.
  EXPECT_EQ(loaded->config.num_pages, original.config.num_pages);
  EXPECT_EQ(loaded->config.seed, original.config.seed);
  EXPECT_DOUBLE_EQ(loaded->config.tracking_window, original.config.tracking_window);

  // Pages.
  ASSERT_EQ(loaded->pages.size(), original.pages.size());
  for (size_t i = 0; i < original.pages.size(); ++i) {
    const PageProfile& a = original.pages[i];
    const PageProfile& b = loaded->pages[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_DOUBLE_EQ(a.followers, b.followers);
    EXPECT_DOUBLE_EQ(a.hist_mean_halflife, b.hist_mean_halflife);
    EXPECT_EQ(a.category, b.category);
    EXPECT_DOUBLE_EQ(a.quality, b.quality);
    EXPECT_DOUBLE_EQ(a.alpha_page, b.alpha_page);
  }

  // Posts + cascades.
  ASSERT_EQ(loaded->cascades.size(), original.cascades.size());
  for (size_t i = 0; i < original.cascades.size(); ++i) {
    const Cascade& a = original.cascades[i];
    const Cascade& b = loaded->cascades[i];
    EXPECT_EQ(a.post.id, b.post.id);
    EXPECT_EQ(a.post.page_id, b.post.page_id);
    EXPECT_EQ(a.post.media, b.post.media);
    EXPECT_DOUBLE_EQ(a.post.lambda0, b.post.lambda0);
    EXPECT_DOUBLE_EQ(a.post.beta, b.post.beta);
    EXPECT_DOUBLE_EQ(a.post.rho1, b.post.rho1);

    ASSERT_EQ(a.views.size(), b.views.size());
    for (size_t j = 0; j < a.views.size(); ++j) {
      EXPECT_DOUBLE_EQ(a.views[j].time, b.views[j].time);
      EXPECT_DOUBLE_EQ(a.views[j].mark, b.views[j].mark);
      EXPECT_EQ(a.views[j].parent, b.views[j].parent);
      EXPECT_EQ(a.views[j].generation, b.views[j].generation);
      EXPECT_EQ(a.is_share[j], b.is_share[j]);
      EXPECT_EQ(a.reshare_depth[j], b.reshare_depth[j]);
    }
    ASSERT_EQ(a.comment_times.size(), b.comment_times.size());
    for (size_t j = 0; j < a.comment_times.size(); ++j) {
      EXPECT_DOUBLE_EQ(a.comment_times[j], b.comment_times[j]);
    }
    ASSERT_EQ(a.reaction_times.size(), b.reaction_times.size());
  }
}

TEST(DatagenIoTest, LoadedDatasetBehavesLikeOriginal) {
  const SyntheticDataset original = SmallDataset();
  const std::string dir = ::testing::TempDir() + "datagen_io_behaves";
  ASSERT_TRUE(io::EnsureDir(dir).ok());
  ASSERT_TRUE(SaveDatasetCsv(original, dir));
  const auto loaded = LoadDatasetCsv(dir);
  ASSERT_TRUE(loaded.has_value());
  for (size_t i = 0; i < original.cascades.size(); ++i) {
    EXPECT_EQ(loaded->cascades[i].ViewsBefore(6 * kHour),
              original.cascades[i].ViewsBefore(6 * kHour));
    EXPECT_DOUBLE_EQ(loaded->cascades[i].DurationAtFraction(0.95),
                     original.cascades[i].DurationAtFraction(0.95));
  }
}

}  // namespace
}  // namespace horizon::datagen
