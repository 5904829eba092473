// Regression tree representation and the level-wise histogram learner.
#ifndef HORIZON_GBDT_TREE_H_
#define HORIZON_GBDT_TREE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "gbdt/dataset.h"

namespace horizon::gbdt {

/// One node of a binary regression tree.  Leaves have feature == -1.
struct TreeNode {
  int32_t feature = -1;     ///< split feature, -1 for leaf
  float threshold = 0.0f;   ///< go left iff x[feature] <= threshold
  int32_t left = -1;        ///< child indices (leaves: -1)
  int32_t right = -1;
  double value = 0.0;       ///< leaf output (weight)
};

/// Immutable trained regression tree.
class RegressionTree {
 public:
  RegressionTree() = default;
  explicit RegressionTree(std::vector<TreeNode> nodes);

  /// Predicts for a dense feature row.
  double Predict(const float* row) const;

  const std::vector<TreeNode>& nodes() const { return nodes_; }
  size_t num_nodes() const { return nodes_.size(); }
  int MaxDepth() const;

 private:
  std::vector<TreeNode> nodes_;
};

/// Hyper-parameters of the tree learner.
struct TreeParams {
  int max_depth = 5;
  int min_samples_leaf = 20;
  double l2_reg = 1.0;        ///< lambda in the leaf/gain formulas
  double min_gain = 1e-9;     ///< minimum gain to accept a split
};

/// Histogram-based greedy learner for squared-error regression on
/// gradient targets, grown one depth at a time.
///
/// Fits a tree approximating the targets `grad_targets` (for gradient
/// boosting these are the negative gradients / residuals); leaf values are
/// the regularized means  sum(t) / (count + l2_reg).
///
/// Each depth is one pass: a ParallelFor over feature blocks builds and
/// scans the histograms of every splittable node at that depth from the
/// row-major bin codes, then each node takes its best split serially.  The
/// trees are those of a depth-first, node-at-a-time search
/// (tests/reference_tree_learner.h), bit for bit: every bin, node and leaf
/// sum adds the node's rows in their order, the gain expression and the
/// first-max tie-break (lowest feature, then lowest bin) are unchanged,
/// and nodes are numbered in depth-first order, right child popped first.
/// Its working buffers live for one Fit call.
class TreeLearner {
 public:
  TreeLearner(const BinnedDataset& binned, TreeParams params);

  /// Learns a tree on the given subset of rows.  `row_indices` may be a
  /// subsample; `grad_targets` is indexed by absolute row id.
  RegressionTree Fit(const std::vector<uint32_t>& row_indices,
                     const std::vector<double>& grad_targets) const;

 private:
  const BinnedDataset& binned_;
  TreeParams params_;
};

}  // namespace horizon::gbdt

#endif  // HORIZON_GBDT_TREE_H_
