#include "gbdt/block_forest.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gbdt/forest_kernels.h"
#include "gbdt/gbdt.h"
#include "gbdt/tree.h"
#include "reference_forest.h"

// This suite deliberately does NOT guard HORIZON_SIMD: the ctest variants
// (block_forest_test_simd_*) pin it per process to sweep both kernel
// flavors, and the two are bit-exact, so the assertions below hold no
// matter which one is active.

namespace horizon::gbdt {
namespace {

using reference::GbdtText;
using reference::MakeChainTree;
using reference::TreeWalk;

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

/// Every row of `x` through one PredictStrided call, row-major.  Works for
/// BlockForest and GbdtRegressor alike.
template <typename Forest>
std::vector<double> PredictRows(const Forest& forest, const DataMatrix& x) {
  std::vector<double> out(x.num_rows());
  if (x.num_rows() > 0) {
    forest.PredictStrided(x.Row(0), x.num_rows(), x.num_features(), 1, out.data());
  }
  return out;
}

/// The first `n` rows of `x`, column-major.
ExampleBatch ColumnMajor(const DataMatrix& x, size_t n) {
  ExampleBatch soa(n, x.num_features());
  for (size_t r = 0; r < n; ++r) {
    for (size_t f = 0; f < x.num_features(); ++f) soa.Set(r, f, x.Get(r, f));
  }
  return soa;
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

/// Sets every feature some split of `trees` reads to one of that feature's
/// thresholds, rotating by row, so rows sit exactly on split points: the
/// one input on which `v <= t` and `v < t` part ways.
void SnapToThresholds(const std::vector<RegressionTree>& trees, DataMatrix* x) {
  std::vector<std::vector<float>> thresholds(x->num_features());
  for (const RegressionTree& tree : trees) {
    for (const TreeNode& n : tree.nodes()) {
      if (n.feature >= 0) thresholds[static_cast<size_t>(n.feature)].push_back(n.threshold);
    }
  }
  for (size_t r = 0; r < x->num_rows(); ++r) {
    for (size_t f = 0; f < x->num_features(); ++f) {
      const std::vector<float>& t = thresholds[f];
      if (!t.empty()) x->Set(r, f, t[(r * 7 + f) % t.size()]);
    }
  }
}

/// Batches of 1 to kernels::kSmallBatchRows rows of `pool`, row-major and
/// column-major, through `blocked`'s PredictStrided: sizes below the
/// threshold take the tree-interleaved scalar walk under every flavor, the
/// last one the pinned flavor's kernel.  Every output must equal the walk
/// of the ensemble (`trees`, `base_score`, `learning_rate`) bit for bit.
void ExpectSmallBatchesMatchTreeWalk(const std::vector<RegressionTree>& trees,
                                     double base_score, double learning_rate,
                                     const BlockForest& blocked,
                                     const DataMatrix& pool) {
  ASSERT_GE(pool.num_rows(), kernels::kSmallBatchRows);
  for (size_t n = 1; n <= kernels::kSmallBatchRows; ++n) {
    const ExampleBatch soa = ColumnMajor(pool, n);
    std::vector<double> row_major(n);
    std::vector<double> col_major(n);
    blocked.PredictStrided(pool.Row(0), n, pool.num_features(), 1, row_major.data());
    blocked.PredictStrided(soa.data(), n, 1, soa.feature_stride(), col_major.data());
    for (size_t r = 0; r < n; ++r) {
      const double expected =
          TreeWalk(trees, base_score, learning_rate, pool.Row(r));
      ASSERT_EQ(row_major[r], expected) << "n=" << n << " row " << r;
      ASSERT_EQ(col_major[r], expected) << "n=" << n << " row " << r;
    }
  }
}

/// The same, for a model's own trees and blocked forest.
void ExpectSmallBatchesMatchTreeWalk(const GbdtRegressor& model,
                                     const DataMatrix& pool) {
  ExpectSmallBatchesMatchTreeWalk(model.trees(), model.base_score(),
                                  model.params().learning_rate,
                                  model.block_forest(), pool);
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

TEST(BlockForestTest, BitExactVsTreeWalkOn10kRandomRows) {
  const GbdtRegressor model = TrainRandomModel(7);
  // Rows beyond the training range exercise every threshold direction.
  const DataMatrix x = RandomMatrix(10000, model.num_features(), 99);
  const std::vector<double> blocked = PredictRows(model.block_forest(), x);
  const std::vector<double> regressor = PredictRows(model, x);
  ASSERT_EQ(blocked.size(), x.num_rows());
  for (size_t i = 0; i < x.num_rows(); ++i) {
    // Bit-exact: same predicate, same accumulation order, no tolerance.
    const double expected = TreeWalk(model, x.Row(i));
    ASSERT_EQ(blocked[i], expected) << "row " << i;
    ASSERT_EQ(regressor[i], expected) << "row " << i;
    ASSERT_EQ(model.Predict(x.Row(i)), expected) << "row " << i;
  }
}

TEST(BlockForestTest, ParityAfterSerializeDeserializeRoundTrip) {
  const GbdtRegressor model = TrainRandomModel(11);
  GbdtRegressor restored;
  ASSERT_TRUE(restored.Deserialize(model.Serialize()));
  const DataMatrix x = RandomMatrix(10000, model.num_features(), 123);
  const std::vector<double> a = PredictRows(model, x);
  const std::vector<double> b = PredictRows(restored, x);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "row " << i;
    ASSERT_EQ(b[i], TreeWalk(model, x.Row(i))) << "row " << i;
  }
}

TEST(BlockForestTest, ColumnMajorBatchMatchesRowMajorBitExact) {
  const GbdtRegressor model = TrainRandomModel(11);
  const DataMatrix x = RandomMatrix(4097, model.num_features(), 5);
  const ExampleBatch soa = ColumnMajor(x, x.num_rows());
  const std::vector<double> row_major = PredictRows(model.block_forest(), x);
  std::vector<double> col_major(x.num_rows());
  model.block_forest().PredictStrided(soa.data(), soa.num_rows(), 1, soa.feature_stride(),
                                      col_major.data());
  ASSERT_EQ(col_major.size(), row_major.size());
  for (size_t i = 0; i < col_major.size(); ++i) {
    ASSERT_EQ(col_major[i], row_major[i]) << "row " << i;
  }
}

TEST(BlockForestTest, RegressorBatchPathsAreBitExactVsPerRowPredict) {
  const GbdtRegressor model = TrainRandomModel(13);
  const DataMatrix x = RandomMatrix(777, model.num_features(), 21);
  const ExampleBatch soa = ColumnMajor(x, x.num_rows());
  const std::vector<double> via_matrix = PredictRows(model, x);
  const std::vector<double> via_batch = model.PredictBatch(soa);
  for (size_t r = 0; r < x.num_rows(); ++r) {
    // The trees' own walk is the oracle: per-row Predict itself runs the
    // blocked scalar walk under test.
    const double expected = TreeWalk(model, x.Row(r));
    ASSERT_EQ(via_matrix[r], expected) << "row " << r;
    ASSERT_EQ(via_batch[r], expected) << "row " << r;
    ASSERT_EQ(model.Predict(x.Row(r)), expected) << "row " << r;
  }
}

TEST(BlockForestTest, OddSizesCoverSimdTails) {
  const GbdtRegressor model = TrainRandomModel(17, /*num_trees=*/20);
  // Below kSmallBatchRows (32) both flavors run the scalar walk; 32..71
  // span the AVX2 kernel's 32-row groups and scalar remainders within a
  // 64-row block, and 130 two whole blocks and a remainder.
  for (size_t n : {0u, 1u, 2u, 3u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 32u,
                   35u, 40u, 47u, 63u, 64u, 65u, 71u, 130u}) {
    const DataMatrix x = RandomMatrix(n, model.num_features(), 1000 + n);
    const std::vector<double> got = PredictRows(model.block_forest(), x);
    ASSERT_EQ(got.size(), n);
    for (size_t r = 0; r < n; ++r) {
      ASSERT_EQ(got[r], TreeWalk(model, x.Row(r))) << "n=" << n << " row " << r;
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
  const std::vector<double> got = PredictRows(model.block_forest(), x);
  for (size_t r = 0; r < x.num_rows(); ++r) {
    ASSERT_EQ(got[r], TreeWalk(model, x.Row(r))) << "row " << r;
  }
}

// The scalar walk takes trees 8 at a time, so the counts straddle
// multiples of that lane width: fewer trees than one group, exactly one,
// one group plus a remainder, and the default ensemble size.  Each pool
// runs random, then on split thresholds, then with non-finite values too.
TEST(BlockForestTest, SmallBatchesMatchTreeWalkAcrossTreeCounts) {
  for (const int num_trees : {1, 7, 8, 9, 120}) {
    SCOPED_TRACE(testing::Message() << num_trees << " trees");
    const GbdtRegressor model = TrainRandomModel(23, num_trees);
    ASSERT_EQ(model.block_forest().num_trees(), static_cast<size_t>(num_trees));
    DataMatrix pool = RandomMatrix(kernels::kSmallBatchRows, model.num_features(),
                                   static_cast<uint64_t>(num_trees));
    ExpectSmallBatchesMatchTreeWalk(model, pool);
    SnapToThresholds(model.trees(), &pool);
    ExpectSmallBatchesMatchTreeWalk(model, pool);
    SprinkleNonFinite(&pool);
    ExpectSmallBatchesMatchTreeWalk(model, pool);
  }
}

/// Two levels on features 1 and 2.
RegressionTree MakeShallowTree() {
  std::vector<TreeNode> nodes(5);
  nodes[0] = {1, 0.5f, 1, 2, 0.0};
  nodes[1] = {-1, 0.0f, -1, -1, 0.75};
  nodes[2] = {2, -0.25f, 3, 4, 0.0};
  nodes[3] = {-1, 0.0f, -1, -1, -1.5};
  nodes[4] = {-1, 0.0f, -1, -1, 2.25};
  return RegressionTree(std::move(nodes));
}

// A blob whose deepest tree sits exactly at kMaxBlockedDepth loads, and
// every entry point of the loaded model -- per-row Predict,
// PredictStrided in both layouts, and PredictBatch -- walks it as the
// trees do, at sizes around the 32-row SIMD group and past one 256-row
// chunk, with NaN and +-inf features in half the runs.  One level deeper
// is refused (FuzzGbdtDeserialize.TreeDeeperThanTheBlockedLayoutRejected).
TEST(BlockForestTest, MaxDepthBlobLoadsAndMatchesTreeWalk) {
  std::vector<RegressionTree> trees;
  trees.push_back(MakeChainTree(BlockForest::kMaxBlockedDepth));
  trees.push_back(MakeShallowTree());
  GbdtRegressor model;
  ASSERT_TRUE(model.Deserialize(GbdtText(trees, 3, 0.5, 0.1)));
  ASSERT_TRUE(model.block_forest().compiled());
  EXPECT_EQ(model.block_forest().depth(), BlockForest::kMaxBlockedDepth);
  for (const bool non_finite : {false, true}) {
    DataMatrix pool(300, 3);
    Rng rng(91);
    for (size_t r = 0; r < pool.num_rows(); ++r) {
      pool.Set(r, 0, static_cast<float>(rng.Uniform(-20.0, 5.0)));
      pool.Set(r, 1, static_cast<float>(rng.Uniform(-1.0, 2.0)));
      pool.Set(r, 2, static_cast<float>(rng.Uniform(-1.0, 1.0)));
    }
    if (non_finite) SprinkleNonFinite(&pool);
    for (const size_t n : {1u, 31u, 32u, 33u, 300u}) {
      SCOPED_TRACE(testing::Message() << n << " rows, non-finite " << non_finite);
      const ExampleBatch soa = ColumnMajor(pool, n);
      std::vector<double> row_major(n);
      std::vector<double> col_major(n);
      model.PredictStrided(pool.Row(0), n, pool.num_features(), 1, row_major.data());
      model.PredictStrided(soa.data(), n, 1, soa.feature_stride(), col_major.data());
      const std::vector<double> batch = model.PredictBatch(soa);
      for (size_t r = 0; r < n; ++r) {
        const double expected = TreeWalk(trees, 0.5, 0.1, pool.Row(r));
        ASSERT_EQ(model.Predict(pool.Row(r)), expected) << "row " << r;
        ASSERT_EQ(row_major[r], expected) << "row " << r;
        ASSERT_EQ(col_major[r], expected) << "row " << r;
        ASSERT_EQ(batch[r], expected) << "row " << r;
      }
    }
  }
}

TEST(BlockForestTest, MaxDepthEnsembleCompilesAndMatches) {
  // Nine trees: one full group of the scalar walk plus a remainder.
  std::vector<RegressionTree> trees;
  for (int t = 0; t < 9; ++t) {
    trees.push_back(MakeChainTree(BlockForest::kMaxBlockedDepth - t % 3));
  }
  const BlockForest blocked = BlockForest::Compile(trees, 0.5, 0.1);
  ASSERT_TRUE(blocked.compiled());
  EXPECT_EQ(blocked.depth(), BlockForest::kMaxBlockedDepth);
  DataMatrix x(40, 1);
  Rng rng(77);
  for (size_t r = 0; r < x.num_rows(); ++r) {
    x.Set(r, 0, static_cast<float>(rng.Uniform(-20.0, 5.0)));
  }
  const std::vector<double> got = PredictRows(blocked, x);
  for (size_t r = 0; r < x.num_rows(); ++r) {
    ASSERT_EQ(got[r], TreeWalk(trees, 0.5, 0.1, x.Row(r))) << "row " << r;
  }
  ExpectSmallBatchesMatchTreeWalk(trees, 0.5, 0.1, blocked, x);
  SprinkleNonFinite(&x);
  ExpectSmallBatchesMatchTreeWalk(trees, 0.5, 0.1, blocked, x);

  // One level more and the ensemble does not compile.
  trees.push_back(MakeChainTree(BlockForest::kMaxBlockedDepth + 1));
  EXPECT_FALSE(BlockForest::Compile(trees, 0.5, 0.1).compiled());
}

/// Grows, from `level`, a random subtree of `nodes` that stops at
/// `depth`: a node off the left spine becomes a leaf early at random.
/// Splits read a random feature of `features` at a threshold in [-1, 1].
/// Returns the subtree root's index (nodes are in preorder).
int32_t GrowRandomTree(int level, int depth, bool spine, size_t features, Rng* rng,
                       std::vector<TreeNode>* nodes) {
  const auto idx = static_cast<int32_t>(nodes->size());
  nodes->emplace_back();
  if (level == depth || (!spine && rng->Bernoulli(0.3))) {
    (*nodes)[static_cast<size_t>(idx)].value = rng->Uniform(-1.0, 1.0);
    return idx;
  }
  const auto feature = static_cast<int32_t>(rng->UniformInt(features));
  const auto threshold = static_cast<float>(rng->Uniform(-1.0, 1.0));
  const int32_t left = GrowRandomTree(level + 1, depth, spine, features, rng, nodes);
  const int32_t right = GrowRandomTree(level + 1, depth, false, features, rng, nodes);
  (*nodes)[static_cast<size_t>(idx)] = {feature, threshold, left, right, 0.0};
  return idx;
}

/// A random tree exactly `depth` levels deep: its left spine reaches it.
RegressionTree RandomTreeOfDepth(int depth, size_t features, Rng* rng) {
  std::vector<TreeNode> nodes;
  GrowRandomTree(0, depth, /*spine=*/true, features, rng, &nodes);
  return RegressionTree(std::move(nodes));
}

// The scalar kernel has one walk per padded depth, each with its level
// loops fixed at compile time.  A forest of each depth 0..kMaxBlockedDepth
// -- nine random trees, one exactly that deep and the others up to two
// levels shallower, so one 8-tree group and a remainder -- goes through
// PredictFloatScalar itself, on one row and on odd batch sizes, row-major
// and column-major, on random rows, rows on split thresholds and rows with
// NaN and +-inf, and must match the trees' own walk bit for bit.
TEST(BlockForestTest, ScalarWalkMatchesTreeWalkAtEveryPaddedDepth) {
  constexpr size_t kFeatures = 6;
  for (int depth = 0; depth <= BlockForest::kMaxBlockedDepth; ++depth) {
    SCOPED_TRACE(testing::Message() << "depth " << depth);
    Rng rng(static_cast<uint64_t>(depth) + 500);
    std::vector<RegressionTree> trees;
    for (int t = 0; t < 9; ++t) {
      trees.push_back(RandomTreeOfDepth(std::max(depth - t % 3, 0), kFeatures, &rng));
    }
    const BlockForest blocked = BlockForest::Compile(trees, 0.25, 0.1);
    ASSERT_TRUE(blocked.compiled());
    ASSERT_EQ(blocked.depth(), depth);
    const kernels::FloatForestSpan span{
        blocked.raw_features().data(), blocked.raw_thresholds().data(),
        blocked.raw_leaves().data(),   blocked.num_trees(),
        blocked.depth(),               blocked.base_score(),
        blocked.learning_rate()};
    DataMatrix pool = RandomMatrix(33, kFeatures, static_cast<uint64_t>(depth));
    for (int variant = 0; variant < 3; ++variant) {
      if (variant == 1) SnapToThresholds(trees, &pool);
      if (variant == 2) SprinkleNonFinite(&pool);
      for (const size_t n : {1u, 3u, 7u, 9u, 33u}) {
        SCOPED_TRACE(testing::Message() << n << " rows, variant " << variant);
        const ExampleBatch soa = ColumnMajor(pool, n);
        std::vector<double> row_major(n);
        std::vector<double> col_major(n);
        kernels::PredictFloatScalar(span, pool.Row(0), n, kFeatures, 1,
                                    row_major.data());
        kernels::PredictFloatScalar(span, soa.data(), n, 1, soa.feature_stride(),
                                    col_major.data());
        for (size_t r = 0; r < n; ++r) {
          const double expected = TreeWalk(trees, 0.25, 0.1, pool.Row(r));
          ASSERT_EQ(row_major[r], expected) << "row " << r;
          ASSERT_EQ(col_major[r], expected) << "row " << r;
        }
      }
    }
  }
}

// No BlockForest is deeper than kMaxBlockedDepth, so no walk is compiled
// past it: a span that claims a deeper (or negative) depth is refused
// before any node is read.
TEST(BlockForestTest, ScalarWalkRefusesASpanDeeperThanTheBound) {
  const float row[1] = {0.0f};
  double out = 0.0;
  for (const int depth : {BlockForest::kMaxBlockedDepth + 1, -1}) {
    kernels::FloatForestSpan span;
    span.depth = depth;
    EXPECT_DEATH(kernels::PredictFloatScalar(span, row, 1, 1, 1, &out), "CHECK failed")
        << depth;
  }
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
  const BlockForest blocked = BlockForest::Compile(trees, 1.0, 0.5);
  ASSERT_TRUE(blocked.compiled());
  EXPECT_EQ(blocked.depth(), 0);
  DataMatrix x = RandomMatrix(kernels::kSmallBatchRows, 3, 8);
  const std::vector<double> got = PredictRows(blocked, x);
  for (const double v : got) ASSERT_EQ(v, 1.0 + 0.5 * 2.5);
  ExpectSmallBatchesMatchTreeWalk(trees, 1.0, 0.5, blocked, x);

  // Nine leaf-only trees: a full group of the scalar walk and a
  // remainder, accumulated in tree order.
  for (int t = 1; t < 9; ++t) trees.push_back(MakeLeafTree(0.1 * t - 0.35));
  const BlockForest blocked9 = BlockForest::Compile(trees, 1.0, 0.5);
  ASSERT_TRUE(blocked9.compiled());
  EXPECT_EQ(blocked9.depth(), 0);
  ExpectSmallBatchesMatchTreeWalk(trees, 1.0, 0.5, blocked9, x);
  SprinkleNonFinite(&x);
  ExpectSmallBatchesMatchTreeWalk(trees, 1.0, 0.5, blocked9, x);
}

// A blob with no trees is the constant model: it loads, compiles to a
// depth-0 forest with no trees, and predicts its base score for every row
// and batch size, non-finite features included.
TEST(BlockForestTest, EmptyEnsembleIsTheConstantModel) {
  GbdtRegressor model;
  ASSERT_TRUE(model.Deserialize("gbdt v1\n1 3.25 0.1 0\n"));
  const BlockForest& blocked = model.block_forest();
  ASSERT_TRUE(blocked.compiled());
  EXPECT_EQ(blocked.num_trees(), 0u);
  EXPECT_EQ(blocked.depth(), 0);
  DataMatrix x = RandomMatrix(70, 1, 6);
  SprinkleNonFinite(&x);
  for (const size_t n : {1u, 70u}) {
    std::vector<double> out(n);
    model.PredictStrided(x.Row(0), n, x.num_features(), 1, out.data());
    for (size_t r = 0; r < n; ++r) ASSERT_EQ(out[r], 3.25) << "n=" << n << " row " << r;
  }
  const float row[1] = {0.0f};
  EXPECT_EQ(model.Predict(row), 3.25);
}

}  // namespace
}  // namespace horizon::gbdt
