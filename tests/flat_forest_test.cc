#include "gbdt/flat_forest.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gbdt/gbdt.h"

namespace horizon::gbdt {
namespace {

DataMatrix RandomMatrix(size_t rows, size_t features, uint64_t seed,
                        double lo = -2.0, double hi = 2.0) {
  Rng rng(seed);
  DataMatrix x(rows, features);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t f = 0; f < features; ++f) {
      x.Set(i, f, static_cast<float>(rng.Uniform(lo, hi)));
    }
  }
  return x;
}

GbdtRegressor TrainRandomModel(uint64_t seed, int num_trees = 60, int depth = 6) {
  const size_t rows = 3000, features = 25;
  Rng rng(seed);
  DataMatrix x(rows, features);
  std::vector<double> y(rows);
  for (size_t i = 0; i < rows; ++i) {
    double target = 0.0;
    for (size_t f = 0; f < features; ++f) {
      const double v = rng.Uniform(-1.0, 1.0);
      x.Set(i, f, static_cast<float>(v));
      if (f < 6) target += (f % 2 == 0 ? v : v * v);
    }
    y[i] = target + rng.Normal(0.0, 0.05);
  }
  GbdtParams params;
  params.num_trees = num_trees;
  params.tree.max_depth = depth;
  params.seed = seed;
  GbdtRegressor model(params);
  model.Fit(x, y);
  return model;
}

/// Every row of `x` through one PredictStrided call, row-major.
template <typename Forest>
std::vector<double> PredictRows(const Forest& forest, const DataMatrix& x) {
  std::vector<double> out(x.num_rows());
  forest.PredictStrided(x.Row(0), x.num_rows(), x.num_features(), 1, out.data());
  return out;
}

/// The pre-FlatForest reference path: walk the stored per-tree node
/// vectors row by row, accumulating in boosting order.
double ReferencePredict(const GbdtRegressor& model, const float* row) {
  double out = model.base_score();
  for (const RegressionTree& tree : model.trees()) {
    out += model.params().learning_rate * tree.Predict(row);
  }
  return out;
}

TEST(FlatForestTest, CompileCountsNodesAndTrees) {
  const GbdtRegressor model = TrainRandomModel(3);
  const FlatForest& flat = model.flat_forest();
  ASSERT_TRUE(flat.compiled());
  EXPECT_EQ(flat.num_trees(), model.trees().size());
  size_t total_nodes = 0;
  for (const auto& tree : model.trees()) total_nodes += tree.num_nodes();
  EXPECT_EQ(flat.num_nodes(), total_nodes);
}

TEST(FlatForestTest, BitExactParityOn10kRandomRows) {
  const GbdtRegressor model = TrainRandomModel(7);
  // Rows beyond the training range exercise every threshold direction.
  const DataMatrix x = RandomMatrix(10000, model.num_features(), 99);
  const std::vector<double> batch = PredictRows(model, x);
  const std::vector<double> flat = PredictRows(model.flat_forest(), x);
  ASSERT_EQ(batch.size(), x.num_rows());
  for (size_t i = 0; i < x.num_rows(); ++i) {
    const double expected = ReferencePredict(model, x.Row(i));
    // Bit-exact: same accumulation order, no tolerance.
    ASSERT_EQ(batch[i], expected) << "row " << i;
    ASSERT_EQ(flat[i], expected) << "row " << i;
    ASSERT_EQ(model.Predict(x.Row(i)), expected) << "row " << i;
  }
}

TEST(FlatForestTest, ParityAfterSerializeDeserializeRoundTrip) {
  const GbdtRegressor model = TrainRandomModel(11);
  GbdtRegressor restored;
  ASSERT_TRUE(restored.Deserialize(model.Serialize()));
  const DataMatrix x = RandomMatrix(10000, model.num_features(), 123);
  const std::vector<double> a = PredictRows(model, x);
  const std::vector<double> b = PredictRows(restored, x);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "row " << i;
    ASSERT_EQ(b[i], ReferencePredict(model, x.Row(i))) << "row " << i;
  }
}

TEST(FlatForestTest, EmptyEnsembleIsTheConstantModel) {
  const FlatForest flat = FlatForest::Compile({}, 3.25, 0.1);
  ASSERT_TRUE(flat.compiled());
  EXPECT_EQ(flat.num_trees(), 0u);
  const float row[1] = {0.0f};
  EXPECT_EQ(flat.Predict(row), 3.25);
}

TEST(FlatForestTest, PredictRowsMatchesPerRowOnOddBlockSizes) {
  // Row counts that straddle the internal block size (64), row-major and
  // column-major through the strided walk.
  const GbdtRegressor model = TrainRandomModel(13, /*num_trees=*/20, /*depth=*/4);
  const FlatForest& flat = model.flat_forest();
  for (const size_t n : {1u, 63u, 64u, 65u, 130u}) {
    const DataMatrix x = RandomMatrix(n, model.num_features(), 1000 + n);
    ExampleBatch soa(n, x.num_features());
    for (size_t i = 0; i < n; ++i) {
      for (size_t f = 0; f < x.num_features(); ++f) soa.Set(i, f, x.Get(i, f));
    }
    std::vector<double> out(n);
    std::vector<double> col_major(n);
    flat.PredictStrided(x.Row(0), n, x.num_features(), 1, out.data());
    flat.PredictStrided(soa.data(), n, 1, soa.feature_stride(), col_major.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], flat.Predict(x.Row(i))) << "n=" << n << " row " << i;
      ASSERT_EQ(col_major[i], out[i]) << "n=" << n << " row " << i;
    }
  }
}

TEST(FlatForestTest, SingleLeafTreesCompile) {
  // Trees that never split (max_depth reached immediately via tiny data).
  std::vector<TreeNode> leaf(1);
  leaf[0].feature = -1;
  leaf[0].value = 2.5;
  std::vector<RegressionTree> trees;
  trees.emplace_back(leaf);
  trees.emplace_back(leaf);
  const FlatForest flat = FlatForest::Compile(trees, 1.0, 0.5);
  const float row[1] = {0.0f};
  EXPECT_DOUBLE_EQ(flat.Predict(row), 1.0 + 0.5 * 2.5 + 0.5 * 2.5);
}

}  // namespace
}  // namespace horizon::gbdt
