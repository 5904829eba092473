// Inference-optimized compiled form of a boosted tree ensemble.
//
// A trained GbdtRegressor stores one pointer-chasing node vector per tree;
// FlatForest flattens every tree into a single contiguous
// structure-of-arrays node pool (split feature, threshold, left-child
// index; sibling children are adjacent so only the left index is stored).
// Traversal touches four parallel arrays that stay resident in cache, and
// PredictStrided walks rows in blocks tree-by-tree so the node pool is
// streamed once per block instead of once per row.
//
// Inference normally runs the BlockForest kernels.  The depth-first walk
// stays as the reference they are checked against (the DST reference
// model scores every row through Predict) and as GbdtRegressor's fallback
// for ensembles too deep to block.  Predictions are bit-identical to the
// blocked kernels: the accumulation order (base score, then trees in
// boosting order, each scaled by the learning rate) is preserved exactly.
#ifndef HORIZON_GBDT_FLAT_FOREST_H_
#define HORIZON_GBDT_FLAT_FOREST_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gbdt/tree.h"

namespace horizon::gbdt {

/// Immutable flattened ensemble.  Cheap to copy/move; safe to share across
/// threads (all methods are const and touch no mutable state).
class FlatForest {
 public:
  FlatForest() = default;

  /// Compiles an ensemble.  `trees` may be empty (constant model).
  static FlatForest Compile(const std::vector<RegressionTree>& trees,
                            double base_score, double learning_rate);

  bool compiled() const { return compiled_; }
  size_t num_trees() const { return roots_.size(); }
  size_t num_nodes() const { return feature_.size(); }
  double base_score() const { return base_score_; }
  double learning_rate() const { return learning_rate_; }

  /// Predicts one dense feature row.
  double Predict(const float* row) const;

  /// Predicts rows laid out at data[r*row_stride + f*feat_stride] -- the
  /// addressing of BlockForest::PredictStrided -- writing into
  /// out[0..num_rows).  Runs on the calling thread (block-at-a-time
  /// kernel).
  void PredictStrided(const float* data, size_t num_rows, size_t row_stride,
                      size_t feat_stride, double* out) const;

  // --- Raw node pools ----------------------------------------------------
  // For the blocked-layout compiler (BlockForest) and the traversal
  // kernels, all of which live in src/gbdt.  Code above the
  // forest must use the Predict* traversal API instead of indexing node
  // arrays -- enforced by the `forest-traversal` rule of
  // tools/horizon_lint.py.
  const std::vector<int32_t>& raw_features() const { return feature_; }
  const std::vector<float>& raw_thresholds() const { return threshold_; }
  const std::vector<int32_t>& raw_left() const { return left_; }
  const std::vector<double>& raw_values() const { return value_; }
  const std::vector<int32_t>& raw_roots() const { return roots_; }

 private:
  bool compiled_ = false;
  double base_score_ = 0.0;
  double learning_rate_ = 0.0;
  // Node pool (SoA).  feature_[i] < 0 marks a leaf whose output is
  // value_[i]; otherwise children live at left_[i] (<=) and left_[i] + 1.
  std::vector<int32_t> feature_;
  std::vector<float> threshold_;
  std::vector<int32_t> left_;
  std::vector<double> value_;
  std::vector<int32_t> roots_;  ///< root node index of each tree
};

}  // namespace horizon::gbdt

#endif  // HORIZON_GBDT_FLAT_FOREST_H_
