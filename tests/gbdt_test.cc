#include "gbdt/gbdt.h"

#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/rng.h"
#include "core/hawkes_predictor.h"
#include "core/trainer.h"
#include "datagen/generator.h"
#include "features/extractor.h"
#include "gbdt/block_forest.h"
#include "gbdt/dataset.h"
#include "gbdt/tree.h"
#include "reference_forest.h"
#include "reference_tree_learner.h"

namespace horizon::gbdt {
namespace {

TEST(DataMatrixTest, SetGetRow) {
  DataMatrix m(2, 3);
  m.Set(0, 0, 1.0f);
  m.Set(1, 2, 5.0f);
  EXPECT_EQ(m.Get(0, 0), 1.0f);
  EXPECT_EQ(m.Get(1, 2), 5.0f);
  EXPECT_EQ(m.Row(1)[2], 5.0f);
}

TEST(DataMatrixTest, AppendRowInfersWidth) {
  DataMatrix m(0, 0);
  m.AppendRow({1.0f, 2.0f});
  m.AppendRow({3.0f, 4.0f});
  EXPECT_EQ(m.num_rows(), 2u);
  EXPECT_EQ(m.num_features(), 2u);
  EXPECT_EQ(m.Get(1, 1), 4.0f);
}

TEST(BinnedDatasetTest, FewDistinctValuesExactBins) {
  DataMatrix m(6, 1);
  const float vals[] = {3.0f, 1.0f, 2.0f, 1.0f, 3.0f, 2.0f};
  for (size_t i = 0; i < 6; ++i) m.Set(i, 0, vals[i]);
  const BinnedDataset binned = BinnedDataset::Create(m, 255);
  EXPECT_EQ(binned.NumBins(0), 3);
  // Codes ordered by value.
  EXPECT_LT(binned.Code(1, 0), binned.Code(2, 0));
  EXPECT_LT(binned.Code(2, 0), binned.Code(0, 0));
}

TEST(BinnedDatasetTest, ManyValuesRespectMaxBins) {
  DataMatrix m(5000, 1);
  Rng rng(1);
  for (size_t i = 0; i < 5000; ++i) {
    m.Set(i, 0, static_cast<float>(rng.Uniform()));
  }
  const BinnedDataset binned = BinnedDataset::Create(m, 64);
  EXPECT_LE(binned.NumBins(0), 64);
  EXPECT_GE(binned.NumBins(0), 32);
  // Every value lands in a bin whose upper edge covers it.
  for (size_t i = 0; i < 5000; ++i) {
    const int code = binned.Code(i, 0);
    EXPECT_LE(m.Get(i, 0), binned.BinUpperEdge(0, code));
    if (code > 0) {
      EXPECT_GT(m.Get(i, 0), binned.BinUpperEdge(0, code - 1));
    }
  }
}

TEST(BinnedDatasetTest, ConstantFeatureSingleBin) {
  DataMatrix m(10, 1);
  for (size_t i = 0; i < 10; ++i) m.Set(i, 0, 7.0f);
  const BinnedDataset binned = BinnedDataset::Create(m);
  EXPECT_EQ(binned.NumBins(0), 1);
}

TEST(TreeLearnerTest, FitsStepFunctionExactly) {
  // y = 10 if x > 0.5 else -10: one split suffices.
  DataMatrix m(200, 1);
  std::vector<double> y(200);
  for (size_t i = 0; i < 200; ++i) {
    const float x = static_cast<float>(i) / 200.0f;
    m.Set(i, 0, x);
    y[i] = x > 0.5f ? 10.0 : -10.0;
  }
  const BinnedDataset binned = BinnedDataset::Create(m);
  TreeParams params;
  params.max_depth = 2;
  params.min_samples_leaf = 5;
  params.l2_reg = 0.0;
  TreeLearner learner(binned, params);
  std::vector<uint32_t> rows(200);
  for (uint32_t i = 0; i < 200; ++i) rows[i] = i;
  const RegressionTree tree = learner.Fit(rows, y);
  float lo[1] = {0.2f}, hi[1] = {0.8f};
  EXPECT_NEAR(tree.Predict(lo), -10.0, 1e-9);
  EXPECT_NEAR(tree.Predict(hi), 10.0, 1e-9);
}

TEST(TreeLearnerTest, RespectsMaxDepth) {
  DataMatrix m(512, 1);
  std::vector<double> y(512);
  Rng rng(3);
  for (size_t i = 0; i < 512; ++i) {
    m.Set(i, 0, static_cast<float>(rng.Uniform()));
    y[i] = rng.Normal();
  }
  const BinnedDataset binned = BinnedDataset::Create(m);
  TreeParams params;
  params.max_depth = 3;
  params.min_samples_leaf = 1;
  params.min_gain = 0.0;
  TreeLearner learner(binned, params);
  std::vector<uint32_t> rows(512);
  for (uint32_t i = 0; i < 512; ++i) rows[i] = i;
  const RegressionTree tree = learner.Fit(rows, y);
  EXPECT_LE(tree.MaxDepth(), 3);
}

TEST(TreeLearnerTest, PureTargetsMakeLeaf) {
  DataMatrix m(50, 1);
  std::vector<double> y(50, 0.0);
  for (size_t i = 0; i < 50; ++i) m.Set(i, 0, static_cast<float>(i));
  const BinnedDataset binned = BinnedDataset::Create(m);
  TreeLearner learner(binned, TreeParams{});
  std::vector<uint32_t> rows(50);
  for (uint32_t i = 0; i < 50; ++i) rows[i] = i;
  const RegressionTree tree = learner.Fit(rows, y);
  EXPECT_EQ(tree.num_nodes(), 1u);
}

void ExpectSameTree(const RegressionTree& got, const RegressionTree& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  for (size_t i = 0; i < got.num_nodes(); ++i) {
    const TreeNode& a = got.nodes()[i];
    const TreeNode& b = want.nodes()[i];
    EXPECT_EQ(a.feature, b.feature) << "node " << i;
    EXPECT_EQ(a.threshold, b.threshold) << "node " << i;
    EXPECT_EQ(a.left, b.left) << "node " << i;
    EXPECT_EQ(a.right, b.right) << "node " << i;
    EXPECT_EQ(a.value, b.value) << "node " << i;
  }
}

/// Runs `rounds` boosting rounds in which TreeLearner and the depth-first
/// reference fit the same residuals on the same row subsample, and expects
/// every tree to match bit for bit.  Residuals advance with the reference's
/// tree, so a mismatch cannot compound.
void ExpectMatchesReference(const DataMatrix& x, const std::vector<double>& y,
                            const TreeParams& params, double subsample,
                            int max_bins, int rounds) {
  const BinnedDataset binned = BinnedDataset::Create(x, max_bins);
  const TreeLearner learner(binned, params);
  const ReferenceTreeLearner reference(binned, params);
  const double base = std::accumulate(y.begin(), y.end(), 0.0) / y.size();
  std::vector<double> pred(y.size(), base), residual(y.size());
  Rng rng(101);
  for (int round = 0; round < rounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    for (size_t i = 0; i < y.size(); ++i) residual[i] = y[i] - pred[i];
    std::vector<uint32_t> rows;
    for (uint32_t r = 0; r < y.size(); ++r) {
      if (subsample >= 1.0 || rng.Bernoulli(subsample)) rows.push_back(r);
    }
    const RegressionTree want = reference.Fit(rows, residual);
    ExpectSameTree(learner.Fit(rows, residual), want);
    for (size_t i = 0; i < y.size(); ++i) pred[i] += 0.3 * want.Predict(x.Row(i));
  }
}

TEST(TreeLearnerTest, MatchesReferenceLearner) {
  // Columns: repeated values, an exact copy (ties between features), its
  // mirror, binary, constant, 256 distinct values, small integers and two
  // continuous columns.  Integer-valued targets make equal gains common.
  constexpr size_t kRows = 700;
  Rng rng(41);
  DataMatrix x(kRows, 9);
  std::vector<double> smooth(kRows), integer(kRows);
  std::vector<float> distinct(kRows);
  for (size_t i = 0; i < kRows; ++i) distinct[i] = static_cast<float>(i % 256);
  for (size_t i = kRows - 1; i > 0; --i) {
    std::swap(distinct[i], distinct[rng.UniformInt(i + 1)]);
  }
  for (size_t i = 0; i < kRows; ++i) {
    const float coarse = std::floor(static_cast<float>(rng.Uniform()) * 8.0f) / 8.0f;
    const float binary = rng.Bernoulli(0.3) ? 1.0f : 0.0f;
    const float cont = static_cast<float>(rng.Uniform());
    x.Set(i, 0, coarse);
    x.Set(i, 1, coarse);
    x.Set(i, 2, -coarse);
    x.Set(i, 3, binary);
    x.Set(i, 4, 2.5f);
    x.Set(i, 5, distinct[i]);
    x.Set(i, 6, static_cast<float>(rng.UniformInt(5)));
    x.Set(i, 7, cont);
    x.Set(i, 8, static_cast<float>(rng.Normal()));
    smooth[i] = 3.0 * coarse + 2.0 * binary + std::sin(6.0 * cont) + 0.01 * distinct[i] +
                rng.Normal(0.0, 0.3);
    integer[i] = std::round(2.0 * coarse + binary + x.Get(i, 6) / 2.0);
  }
  // No features at all: every tree is one leaf.
  ExpectMatchesReference(DataMatrix(kRows, 0), smooth, TreeParams{}, 0.7, 255, 2);
  for (const auto* y : {&smooth, &integer}) {
    for (const int max_depth : {1, 5, 8}) {
      for (const int min_leaf : {1, 20, static_cast<int>(kRows / 2) + 1}) {
        for (const double subsample : {1.0, 0.7}) {
          for (const int max_bins : {255, 256}) {
            SCOPED_TRACE(::testing::Message()
                         << (y == &smooth ? "smooth" : "integer") << " depth " << max_depth
                         << " min_leaf " << min_leaf << " subsample " << subsample
                         << " max_bins " << max_bins);
            TreeParams params;
            params.max_depth = max_depth;
            params.min_samples_leaf = min_leaf;
            ExpectMatchesReference(x, *y, params, subsample, max_bins, /*rounds=*/3);
          }
        }
      }
    }
  }
}

TEST(TreeLearnerTest, MatchesReferenceLearnerOnTrainingMatrix) {
  // bench_e2e's training matrix (2,000 posts on 200 pages, mean cascade 6,
  // seed 20211215) with the default forest settings, on the count and the
  // alpha targets.
  datagen::GeneratorConfig config;
  config.num_posts = 2000;
  config.num_pages = 200;
  config.base_mean_size = 6.0;
  config.seed = 20211215;
  const datagen::SyntheticDataset data = datagen::Generator(config).Generate();
  std::vector<size_t> indices(data.cascades.size());
  std::iota(indices.begin(), indices.end(), size_t{0});
  const features::FeatureExtractor extractor{stream::TrackerConfig{}};
  const core::ExampleSet examples =
      core::BuildExampleSet(data, indices, extractor, core::ExampleSetOptions{});
  const core::HawkesPredictorParams defaults;
  std::vector<double> log_alpha(examples.alpha_targets.size());
  for (size_t i = 0; i < log_alpha.size(); ++i) {
    log_alpha[i] =
        std::log(Clamp(examples.alpha_targets[i], defaults.alpha_min, defaults.alpha_max));
  }
  const GbdtParams gbdt = defaults.gbdt_count;
  SCOPED_TRACE("count target");
  ExpectMatchesReference(examples.x, examples.log1p_increments[0], gbdt.tree,
                         gbdt.subsample, gbdt.max_bins, /*rounds=*/4);
  SCOPED_TRACE("alpha target");
  ExpectMatchesReference(examples.x, log_alpha, defaults.gbdt_alpha.tree,
                         defaults.gbdt_alpha.subsample, defaults.gbdt_alpha.max_bins,
                         /*rounds=*/4);
}

double TestFunction(double a, double b) {
  return 3.0 * a + std::sin(6.0 * b) + a * b;
}

GbdtParams SmallParams() {
  GbdtParams params;
  params.num_trees = 80;
  params.learning_rate = 0.15;
  params.subsample = 1.0;
  params.tree.max_depth = 4;
  params.tree.min_samples_leaf = 5;
  return params;
}

TEST(GbdtRegressorTest, LearnsSmoothFunction) {
  Rng rng(7);
  const size_t n = 3000;
  DataMatrix x(n, 3);  // third feature is noise
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    const double a = rng.Uniform(), b = rng.Uniform(), c = rng.Uniform();
    x.Set(i, 0, static_cast<float>(a));
    x.Set(i, 1, static_cast<float>(b));
    x.Set(i, 2, static_cast<float>(c));
    y[i] = TestFunction(a, b);
  }
  GbdtRegressor model(SmallParams());
  model.Fit(x, y);

  double mse = 0.0;
  Rng test_rng(8);
  const int n_test = 500;
  for (int i = 0; i < n_test; ++i) {
    const float a = static_cast<float>(test_rng.Uniform());
    const float b = static_cast<float>(test_rng.Uniform());
    const float row[3] = {a, b, 0.5f};
    const double d = model.Predict(row) - TestFunction(a, b);
    mse += d * d;
  }
  mse /= n_test;
  // Target variance is ~1.3; the model must explain most of it.
  EXPECT_LT(mse, 0.05);
}

TEST(GbdtRegressorTest, BaseScoreIsTargetMean) {
  DataMatrix x(4, 1);
  for (size_t i = 0; i < 4; ++i) x.Set(i, 0, static_cast<float>(i));
  GbdtParams params = SmallParams();
  params.num_trees = 1;
  GbdtRegressor model(params);
  model.Fit(x, {1.0, 2.0, 3.0, 6.0});
  EXPECT_DOUBLE_EQ(model.base_score(), 3.0);
}

TEST(GbdtRegressorTest, DeterministicWithSeed) {
  Rng rng(9);
  DataMatrix x(500, 2);
  std::vector<double> y(500);
  for (size_t i = 0; i < 500; ++i) {
    x.Set(i, 0, static_cast<float>(rng.Uniform()));
    x.Set(i, 1, static_cast<float>(rng.Uniform()));
    y[i] = x.Get(i, 0) * 2.0 + rng.Normal(0, 0.1);
  }
  GbdtParams params = SmallParams();
  params.subsample = 0.7;
  params.seed = 1234;
  GbdtRegressor a(params), b(params);
  a.Fit(x, y);
  b.Fit(x, y);
  const float row[2] = {0.3f, 0.6f};
  EXPECT_DOUBLE_EQ(a.Predict(row), b.Predict(row));
}

TEST(GbdtRegressorTest, SerializeDeserializeRoundTrip) {
  Rng rng(13);
  DataMatrix x(400, 2);
  std::vector<double> y(400);
  for (size_t i = 0; i < 400; ++i) {
    x.Set(i, 0, static_cast<float>(rng.Uniform()));
    x.Set(i, 1, static_cast<float>(rng.Uniform()));
    y[i] = std::sin(5.0 * x.Get(i, 0)) + x.Get(i, 1);
  }
  GbdtRegressor model(SmallParams());
  model.Fit(x, y);
  const std::string text = model.Serialize();

  GbdtRegressor restored;
  ASSERT_TRUE(restored.Deserialize(text));
  for (int i = 0; i < 20; ++i) {
    const float row[2] = {static_cast<float>(rng.Uniform()),
                          static_cast<float>(rng.Uniform())};
    EXPECT_DOUBLE_EQ(model.Predict(row), restored.Predict(row));
  }
}

// Fit could otherwise grow trees too deep for the blocked layout every
// prediction walks; the constructor refuses such a max_depth up front.
TEST(GbdtRegressorDeathTest, MaxDepthPastTheBlockedLayoutAborts) {
  GbdtParams params;
  params.tree.max_depth = BlockForest::kMaxBlockedDepth;
  GbdtRegressor at_bound(params);
  EXPECT_FALSE(at_bound.trained());
  params.tree.max_depth = BlockForest::kMaxBlockedDepth + 1;
  EXPECT_DEATH(GbdtRegressor{params},
               "CHECK failed at .*gbdt\\.cc:[0-9]+: .*kMaxBlockedDepth");
}

TEST(GbdtRegressorTest, DeserializeRejectsGarbage) {
  GbdtRegressor model;
  EXPECT_FALSE(model.Deserialize("not a model"));
  EXPECT_FALSE(model.Deserialize("gbdt v2\n"));
  EXPECT_FALSE(model.trained());
}

TEST(GbdtRegressorTest, MoreTreesReduceTrainingError) {
  Rng rng(17);
  const size_t n = 1000;
  DataMatrix x(n, 2);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    x.Set(i, 0, static_cast<float>(rng.Uniform()));
    x.Set(i, 1, static_cast<float>(rng.Uniform()));
    y[i] = TestFunction(x.Get(i, 0), x.Get(i, 1));
  }
  auto train_mse = [&](int trees) {
    GbdtParams params = SmallParams();
    params.num_trees = trees;
    GbdtRegressor model(params);
    model.Fit(x, y);
    double mse = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double d = model.Predict(x.Row(i)) - y[i];
      mse += d * d;
    }
    return mse / static_cast<double>(n);
  };
  EXPECT_LT(train_mse(60), train_mse(5));
}

TEST(GbdtRegressorTest, PredictBatchMatchesSinglePredictions) {
  Rng rng(19);
  DataMatrix x(100, 2);
  std::vector<double> y(100);
  for (size_t i = 0; i < 100; ++i) {
    x.Set(i, 0, static_cast<float>(rng.Uniform()));
    x.Set(i, 1, static_cast<float>(rng.Uniform()));
    y[i] = x.Get(i, 0);
  }
  GbdtRegressor model(SmallParams());
  model.Fit(x, y);
  ExampleBatch soa(100, 2);
  for (size_t i = 0; i < 100; ++i) {
    soa.Set(i, 0, x.Get(i, 0));
    soa.Set(i, 1, x.Get(i, 1));
  }
  const auto batch = model.PredictBatch(soa);
  std::vector<double> strided(100);
  model.PredictStrided(x.Row(0), 100, 2, 1, strided.data());
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(batch[i], model.Predict(x.Row(i)));
    EXPECT_EQ(batch[i], reference::TreeWalk(model, x.Row(i)));
    EXPECT_EQ(strided[i], batch[i]);
  }
}

TEST(GbdtRegressorTest, PreBinnedFitMatchesFit) {
  Rng rng(43);
  DataMatrix x(500, 3);
  std::vector<double> y(500);
  for (size_t i = 0; i < 500; ++i) {
    for (size_t f = 0; f < 3; ++f) x.Set(i, f, static_cast<float>(rng.Uniform()));
    y[i] = TestFunction(x.Get(i, 0), x.Get(i, 1));
  }
  GbdtParams params = SmallParams();
  params.subsample = 0.8;
  GbdtRegressor a(params), b(params);
  a.Fit(x, y);
  b.Fit(x, BinnedDataset::Create(x, params.max_bins), y);
  EXPECT_EQ(a.Serialize(), b.Serialize());
}

}  // namespace
}  // namespace horizon::gbdt

