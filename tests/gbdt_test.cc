#include "gbdt/gbdt.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gbdt/dataset.h"
#include "gbdt/tree.h"

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

TEST(GbdtRegressorTest, GainImportanceConcentratesOnSignal) {
  Rng rng(11);
  const size_t n = 2000;
  DataMatrix x(n, 4);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t f = 0; f < 4; ++f) x.Set(i, f, static_cast<float>(rng.Uniform()));
    y[i] = 10.0 * x.Get(i, 2);  // only feature 2 matters
  }
  GbdtRegressor model(SmallParams());
  model.Fit(x, y);
  const auto importance = model.GainImportance();
  EXPECT_GT(importance[2], 0.9);
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
  const auto batch = model.PredictBatch(x);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(batch[i], model.Predict(x.Row(i)));
    EXPECT_EQ(batch[i], model.flat_forest().Predict(x.Row(i)));
  }
}

TEST(GbdtRegressorTest, EarlyStoppingLimitsTrees) {
  // Tiny noisy dataset: more trees overfit; validation must stop growth.
  Rng rng(23);
  const size_t n = 300;
  DataMatrix x(n, 2), xv(100, 2);
  std::vector<double> y(n), yv(100);
  auto fill = [&](DataMatrix& m, std::vector<double>& t, size_t rows) {
    for (size_t i = 0; i < rows; ++i) {
      m.Set(i, 0, static_cast<float>(rng.Uniform()));
      m.Set(i, 1, static_cast<float>(rng.Uniform()));
      t[i] = m.Get(i, 0) + rng.Normal(0.0, 0.5);  // heavy noise
    }
  };
  fill(x, y, n);
  fill(xv, yv, 100);

  GbdtParams params = SmallParams();
  params.num_trees = 400;
  params.tree.min_samples_leaf = 2;
  GbdtRegressor model(params);
  const int kept = model.FitWithValidation(x, y, xv, yv, /*early_stopping_rounds=*/8);
  EXPECT_LT(kept, 400);
  EXPECT_EQ(model.trees().size(), static_cast<size_t>(kept));
  EXPECT_TRUE(model.trained());
}

TEST(GbdtRegressorTest, EarlyStoppingNoWorseThanFullFitOnValidation) {
  Rng rng(29);
  const size_t n = 600;
  DataMatrix x(n, 2), xv(200, 2);
  std::vector<double> y(n), yv(200);
  auto fill = [&](DataMatrix& m, std::vector<double>& t, size_t rows) {
    for (size_t i = 0; i < rows; ++i) {
      m.Set(i, 0, static_cast<float>(rng.Uniform()));
      m.Set(i, 1, static_cast<float>(rng.Uniform()));
      t[i] = std::sin(6.0 * m.Get(i, 0)) + rng.Normal(0.0, 0.4);
    }
  };
  fill(x, y, n);
  fill(xv, yv, 200);

  auto valid_mse = [&](const GbdtRegressor& model) {
    double mse = 0.0;
    for (size_t i = 0; i < 200; ++i) {
      const double d = model.Predict(xv.Row(i)) - yv[i];
      mse += d * d;
    }
    return mse / 200.0;
  };
  GbdtParams params = SmallParams();
  params.num_trees = 300;
  params.tree.min_samples_leaf = 2;
  GbdtRegressor stopped(params), full(params);
  stopped.FitWithValidation(x, y, xv, yv, 10);
  full.Fit(x, y);
  EXPECT_LE(valid_mse(stopped), valid_mse(full) + 1e-9);
}

TEST(GbdtRegressorTest, EarlyStoppedModelSerializes) {
  Rng rng(31);
  DataMatrix x(200, 1), xv(50, 1);
  std::vector<double> y(200), yv(50);
  for (size_t i = 0; i < 200; ++i) {
    x.Set(i, 0, static_cast<float>(rng.Uniform()));
    y[i] = x.Get(i, 0);
  }
  for (size_t i = 0; i < 50; ++i) {
    xv.Set(i, 0, static_cast<float>(rng.Uniform()));
    yv[i] = xv.Get(i, 0);
  }
  GbdtRegressor model(SmallParams());
  model.FitWithValidation(x, y, xv, yv, 5);
  GbdtRegressor restored;
  ASSERT_TRUE(restored.Deserialize(model.Serialize()));
  const float row[1] = {0.4f};
  EXPECT_DOUBLE_EQ(model.Predict(row), restored.Predict(row));
}

}  // namespace
}  // namespace horizon::gbdt

