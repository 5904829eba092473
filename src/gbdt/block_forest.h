// Breadth-first blocked forest layout for data-parallel inference.
//
// A trained RegressionTree is a node vector with explicit child indices,
// so walking it is one dependent load chain per row: each level reads the
// child index before the next level can start.  BlockForest lays every
// tree out as an implicit heap ("breadth-first blocked") padded to the
// forest's maximum depth D:
//
//   - internal node i of a tree lives at slot i of a (2^D - 1)-entry
//     level-order array; its children are ALWAYS at 2i+1 and 2i+2, so no
//     child index is stored and the traversal step is pure arithmetic:
//
//       idx = 2*idx + 1 + (x[feat[idx]] > thresh[idx])
//
//   - leaves live in a separate 2^D-entry array of doubles; after D
//     steps, idx - (2^D - 1) indexes it directly.
//
//   - a leaf reached before depth D is padded into a pseudo-subtree whose
//     internal slots compare against +inf (every row goes left) and whose
//     descendant leaf slots all carry the leaf's value, so traversal never
//     branches on "is this a leaf".
//
// The fixed-depth, branchless step makes batches of rows traverse in
// lockstep, which is what the AVX2 kernel (forest_kernels.h) exploits:
// 8 rows per AVX2 vector walk one tree with three gathers per level.
// Predictions are bit-identical to walking the trees themselves
// (base score, then += learning_rate * RegressionTree::Predict per tree
// in boosting order, as GbdtRegressor::Fit accumulates): the comparison
// predicate and the per-row accumulation order are preserved exactly.
//
// Cost: padding a tree to depth D wastes slots when the tree is
// unbalanced, bounded by the trained max_depth (default 5; 2^5 = 32
// leaf slots per tree).  Ensembles deeper than kMaxBlockedDepth do not
// compile, and GbdtRegressor neither trains nor loads them.
#ifndef HORIZON_GBDT_BLOCK_FOREST_H_
#define HORIZON_GBDT_BLOCK_FOREST_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gbdt/tree.h"

namespace horizon::gbdt {

/// Immutable blocked ensemble.  Cheap to move; safe to share across
/// threads (all methods const, no mutable state).
class BlockForest {
 public:
  /// The deepest tree that compiles (padding is 2^depth per tree, so the
  /// blow-up must be capped).  Far above the trained default
  /// (TreeParams.max_depth = 5); GbdtRegressor rejects a deeper max_depth.
  static constexpr int kMaxBlockedDepth = 12;

  BlockForest() = default;

  /// Lays out `trees` (each a well-formed binary tree: every node reached
  /// once from the root through its left/right indices).  `trees` may be
  /// empty (the constant model).  The result is uncompiled() when any
  /// tree is deeper than kMaxBlockedDepth; this is the one place a tree's
  /// depth is measured against the bound.
  static BlockForest Compile(const std::vector<RegressionTree>& trees,
                             double base_score, double learning_rate);

  bool compiled() const { return compiled_; }
  int depth() const { return depth_; }
  size_t num_trees() const { return num_trees_; }
  double base_score() const { return base_score_; }
  double learning_rate() const { return learning_rate_; }
  /// Largest feature index any node reads (-1 for a constant model).
  int32_t max_feature() const { return max_feature_; }

  /// Predicts rows laid out at data[r*row_stride + f*feat_stride] through
  /// the runtime-dispatched kernel (scalar/AVX2 per simd_dispatch.h),
  /// writing out[0..num_rows).  Batches narrower than
  /// kernels::kSmallBatchRows take the scalar kernel under every flavor.
  /// Runs on the calling thread; the one entry point to the blocked
  /// kernels, reached through GbdtRegressor::PredictStrided.
  /// Row-major matrices pass (num_features, 1); column-major SoA batches
  /// pass (1, num_rows).
  void PredictStrided(const float* data, size_t num_rows, size_t row_stride,
                      size_t feat_stride, double* out) const;

  // --- Raw node pools ----------------------------------------------------
  // For the traversal kernels in src/gbdt; enforced out of bounds
  // elsewhere by the `forest-traversal` lint rule.
  const std::vector<int32_t>& raw_features() const { return feat_; }
  const std::vector<float>& raw_thresholds() const { return thresh_; }
  const std::vector<double>& raw_leaves() const { return leaves_; }
  size_t nodes_per_tree() const { return nodes_per_tree_; }
  size_t leaves_per_tree() const { return leaves_per_tree_; }

 private:
  bool compiled_ = false;
  int depth_ = 0;               ///< internal levels; leaves sit at level depth_
  size_t num_trees_ = 0;
  size_t nodes_per_tree_ = 0;   ///< 2^depth - 1
  size_t leaves_per_tree_ = 0;  ///< 2^depth
  double base_score_ = 0.0;
  double learning_rate_ = 0.0;
  int32_t max_feature_ = -1;
  // Level-order node pools, one contiguous block per tree.
  std::vector<int32_t> feat_;   ///< split feature (pseudo nodes: 0)
  std::vector<float> thresh_;   ///< split threshold (pseudo nodes: +inf)
  std::vector<double> leaves_;  ///< leaf outputs at the bottom level
};

}  // namespace horizon::gbdt

#endif  // HORIZON_GBDT_BLOCK_FOREST_H_
