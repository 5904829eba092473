#include "gbdt/block_forest.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gbdt/forest_kernels.h"
#include "gbdt/gbdt.h"
#include "gbdt/tree.h"

// This suite deliberately does NOT guard HORIZON_SIMD: the ctest variants
// (block_forest_test_simd_*) pin it per process to sweep every kernel
// flavor, and every flavor is bit-exact, so the assertions below hold no
// matter which one is active.

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

GbdtRegressor TrainRandomModel(uint64_t seed, int num_trees = 60,
                               int depth = 6) {
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

/// Puts NaN, +inf or -inf (rotating by row) into one or two features of
/// every row.
void SprinkleNonFinite(DataMatrix* x) {
  const float inf = std::numeric_limits<float>::infinity();
  const float values[] = {std::numeric_limits<float>::quiet_NaN(), inf, -inf};
  const size_t features = x->num_features();
  for (size_t r = 0; r < x->num_rows(); ++r) {
    x->Set(r, r % features, values[r % 3]);
    if (features > 1) x->Set(r, (r + 1) % features, values[(r + 1) % 3]);
  }
}

/// Batches of 1 to kernels::kSmallBatchRows rows of `pool`, row-major and
/// column-major, through PredictStrided: sizes below the threshold take
/// the tree-interleaved scalar walk under every flavor, the last one the
/// pinned flavor's kernel.  Every output must equal the flat forest's
/// depth-first walk bit for bit.
void ExpectSmallBatchesMatchFlat(const FlatForest& flat, const BlockForest& blocked,
                                 const DataMatrix& pool) {
  ASSERT_GE(pool.num_rows(), kernels::kSmallBatchRows);
  for (size_t n = 1; n <= kernels::kSmallBatchRows; ++n) {
    ExampleBatch soa(n, pool.num_features());
    for (size_t r = 0; r < n; ++r) {
      for (size_t f = 0; f < pool.num_features(); ++f) soa.Set(r, f, pool.Get(r, f));
    }
    std::vector<double> row_major(n);
    std::vector<double> col_major(n);
    blocked.PredictStrided(pool.Row(0), n, pool.num_features(), 1, row_major.data());
    blocked.PredictStrided(soa.data(), n, 1, soa.feature_stride(), col_major.data());
    for (size_t r = 0; r < n; ++r) {
      const double expected = flat.Predict(pool.Row(r));
      ASSERT_EQ(row_major[r], expected) << "n=" << n << " row " << r;
      ASSERT_EQ(col_major[r], expected) << "n=" << n << " row " << r;
    }
  }
}

TEST(BlockForestTest, CompilesTrainedModel) {
  const GbdtRegressor model = TrainRandomModel(3);
  const BlockForest& blocked = model.block_forest();
  ASSERT_TRUE(blocked.compiled());
  EXPECT_EQ(blocked.num_trees(), model.trees().size());
  EXPECT_GT(blocked.depth(), 0);
  EXPECT_LE(blocked.depth(), BlockForest::kMaxBlockedDepth);
  EXPECT_EQ(blocked.base_score(), model.base_score());
  EXPECT_EQ(blocked.nodes_per_tree() + 1, blocked.leaves_per_tree());
}

TEST(BlockForestTest, BitExactVsFlatForestOn10kRandomRows) {
  const GbdtRegressor model = TrainRandomModel(7);
  const DataMatrix x = RandomMatrix(10000, model.num_features(), 99);
  const std::vector<double> reference = model.flat_forest().PredictBatch(x);
  const std::vector<double> blocked = model.block_forest().PredictBatch(x);
  ASSERT_EQ(blocked.size(), reference.size());
  for (size_t i = 0; i < blocked.size(); ++i) {
    // Bit-exact: same predicate, same accumulation order, no tolerance.
    ASSERT_EQ(blocked[i], reference[i]) << "row " << i;
  }
}

TEST(BlockForestTest, ColumnMajorBatchMatchesRowMajorBitExact) {
  const GbdtRegressor model = TrainRandomModel(11);
  const DataMatrix x = RandomMatrix(4097, model.num_features(), 5);
  ExampleBatch soa(x.num_rows(), x.num_features());
  for (size_t r = 0; r < x.num_rows(); ++r) {
    for (size_t f = 0; f < x.num_features(); ++f) soa.Set(r, f, x.Get(r, f));
  }
  const std::vector<double> row_major = model.block_forest().PredictBatch(x);
  const std::vector<double> col_major = model.block_forest().PredictBatch(soa);
  ASSERT_EQ(col_major.size(), row_major.size());
  for (size_t i = 0; i < col_major.size(); ++i) {
    ASSERT_EQ(col_major[i], row_major[i]) << "row " << i;
  }
}

TEST(BlockForestTest, RegressorBatchPathsAreBitExactVsPerRowPredict) {
  const GbdtRegressor model = TrainRandomModel(13);
  const DataMatrix x = RandomMatrix(777, model.num_features(), 21);
  ExampleBatch soa(x.num_rows(), x.num_features());
  for (size_t r = 0; r < x.num_rows(); ++r) {
    for (size_t f = 0; f < x.num_features(); ++f) soa.Set(r, f, x.Get(r, f));
  }
  const std::vector<double> via_matrix = model.PredictBatch(x);
  const std::vector<double> via_batch = model.PredictBatch(soa);
  for (size_t r = 0; r < x.num_rows(); ++r) {
    // The flat forest's depth-first walk is the oracle: per-row Predict
    // itself runs the blocked scalar walk under test.
    const double expected = model.flat_forest().Predict(x.Row(r));
    ASSERT_EQ(via_matrix[r], expected) << "row " << r;
    ASSERT_EQ(via_batch[r], expected) << "row " << r;
    ASSERT_EQ(model.Predict(x.Row(r)), expected) << "row " << r;
  }
}

TEST(BlockForestTest, OddSizesCoverSimdTails) {
  const GbdtRegressor model = TrainRandomModel(17, /*num_trees=*/20);
  // Below kSmallBatchRows (32) every flavor runs the scalar walk; 32..71
  // span the SIMD kernels' remainders mod 32/8/4 within a 64-row block.
  for (size_t n : {0u, 1u, 2u, 3u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 32u,
                   35u, 40u, 47u, 63u, 71u}) {
    const DataMatrix x = RandomMatrix(n, model.num_features(), 1000 + n);
    const std::vector<double> got = model.block_forest().PredictBatch(x);
    ASSERT_EQ(got.size(), n);
    for (size_t r = 0; r < n; ++r) {
      ASSERT_EQ(got[r], model.flat_forest().Predict(x.Row(r)))
          << "n=" << n << " row " << r;
    }
  }
}

TEST(BlockForestTest, NonFiniteFeaturesMatchScalarSemantics) {
  const GbdtRegressor model = TrainRandomModel(19, /*num_trees=*/10);
  DataMatrix x = RandomMatrix(64, model.num_features(), 4);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (size_t r = 0; r < x.num_rows(); ++r) {
    // Sprinkle NaN/inf over a rotating subset of features: NaN must go
    // right at every real split in every kernel flavor.
    x.Set(r, r % x.num_features(), r % 2 == 0 ? nan : inf);
    x.Set(r, (r + 3) % x.num_features(), -inf);
  }
  const std::vector<double> got = model.block_forest().PredictBatch(x);
  for (size_t r = 0; r < x.num_rows(); ++r) {
    ASSERT_EQ(got[r], model.flat_forest().Predict(x.Row(r))) << "row " << r;
  }
}

// The scalar walk takes trees 8 at a time, so the counts straddle
// multiples of that lane width: fewer trees than one group, exactly one,
// one group plus a remainder, and the default ensemble size.
TEST(BlockForestTest, SmallBatchesMatchFlatForestAcrossTreeCounts) {
  for (const int num_trees : {1, 7, 8, 9, 120}) {
    SCOPED_TRACE(testing::Message() << num_trees << " trees");
    const GbdtRegressor model = TrainRandomModel(23, num_trees);
    ASSERT_EQ(model.block_forest().num_trees(), static_cast<size_t>(num_trees));
    DataMatrix pool = RandomMatrix(kernels::kSmallBatchRows, model.num_features(),
                                   static_cast<uint64_t>(num_trees));
    ExpectSmallBatchesMatchFlat(model.flat_forest(), model.block_forest(), pool);
    SprinkleNonFinite(&pool);
    ExpectSmallBatchesMatchFlat(model.flat_forest(), model.block_forest(), pool);
  }
}

/// Builds a degenerate left-spine tree of the given internal depth.
RegressionTree MakeChainTree(int depth) {
  std::vector<TreeNode> nodes;
  const int32_t num_internal = depth;
  for (int32_t i = 0; i < num_internal; ++i) {
    TreeNode n;
    n.feature = 0;
    n.threshold = -static_cast<float>(i);  // descending: left goes deeper
    n.left = (i + 1 < num_internal) ? (i + 1) : num_internal;
    n.right = num_internal + 1 + i;
    nodes.push_back(n);
  }
  // Leaf reached by the full left spine, then one right leaf per level.
  for (int32_t i = 0; i <= num_internal; ++i) {
    TreeNode leaf;
    leaf.feature = -1;
    leaf.left = -1;
    leaf.right = -1;
    leaf.value = static_cast<double>(i);
    nodes.push_back(leaf);
  }
  return RegressionTree(std::move(nodes));
}

TEST(BlockForestTest, OverDeepEnsembleStaysUncompiledAndRegressorFallsBack) {
  std::vector<RegressionTree> trees;
  trees.push_back(MakeChainTree(BlockForest::kMaxBlockedDepth + 1));
  const FlatForest flat = FlatForest::Compile(trees, 0.5, 0.1);
  const BlockForest blocked = BlockForest::Compile(flat);
  EXPECT_FALSE(blocked.compiled());
}

TEST(BlockForestTest, MaxDepthEnsembleCompilesAndMatches) {
  // Nine trees: one full group of the scalar walk plus a remainder.
  std::vector<RegressionTree> trees;
  for (int t = 0; t < 9; ++t) {
    trees.push_back(MakeChainTree(BlockForest::kMaxBlockedDepth - t % 3));
  }
  const FlatForest flat = FlatForest::Compile(trees, 0.5, 0.1);
  const BlockForest blocked = BlockForest::Compile(flat);
  ASSERT_TRUE(blocked.compiled());
  EXPECT_EQ(blocked.depth(), BlockForest::kMaxBlockedDepth);
  DataMatrix x(40, 1);
  Rng rng(77);
  for (size_t r = 0; r < x.num_rows(); ++r) {
    x.Set(r, 0, static_cast<float>(rng.Uniform(-20.0, 5.0)));
  }
  const std::vector<double> got = blocked.PredictBatch(x);
  for (size_t r = 0; r < x.num_rows(); ++r) {
    ASSERT_EQ(got[r], flat.Predict(x.Row(r))) << "row " << r;
  }
  ExpectSmallBatchesMatchFlat(flat, blocked, x);
  SprinkleNonFinite(&x);
  ExpectSmallBatchesMatchFlat(flat, blocked, x);
}

/// A single-node tree: the root is a leaf with the given value.
RegressionTree MakeLeafTree(double value) {
  std::vector<TreeNode> leaf_only(1);
  leaf_only[0].feature = -1;
  leaf_only[0].left = -1;
  leaf_only[0].right = -1;
  leaf_only[0].value = value;
  return RegressionTree(std::move(leaf_only));
}

TEST(BlockForestTest, ConstantModelRootLeafTrees) {
  // A single-node (root leaf) tree exercises depth 0: no internal nodes,
  // one leaf slot per tree.
  std::vector<RegressionTree> trees;
  trees.push_back(MakeLeafTree(2.5));
  const FlatForest flat = FlatForest::Compile(trees, 1.0, 0.5);
  const BlockForest blocked = BlockForest::Compile(flat);
  ASSERT_TRUE(blocked.compiled());
  EXPECT_EQ(blocked.depth(), 0);
  DataMatrix x = RandomMatrix(kernels::kSmallBatchRows, 3, 8);
  const std::vector<double> got = blocked.PredictBatch(x);
  for (const double v : got) ASSERT_EQ(v, 1.0 + 0.5 * 2.5);
  ExpectSmallBatchesMatchFlat(flat, blocked, x);

  // Nine leaf-only trees: a full group of the scalar walk and a
  // remainder, accumulated in tree order.
  for (int t = 1; t < 9; ++t) trees.push_back(MakeLeafTree(0.1 * t - 0.35));
  const FlatForest flat9 = FlatForest::Compile(trees, 1.0, 0.5);
  const BlockForest blocked9 = BlockForest::Compile(flat9);
  ASSERT_TRUE(blocked9.compiled());
  EXPECT_EQ(blocked9.depth(), 0);
  ExpectSmallBatchesMatchFlat(flat9, blocked9, x);
  SprinkleNonFinite(&x);
  ExpectSmallBatchesMatchFlat(flat9, blocked9, x);
}

}  // namespace
}  // namespace horizon::gbdt
