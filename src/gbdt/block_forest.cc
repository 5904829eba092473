#include "gbdt/block_forest.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/check.h"
#include "gbdt/forest_kernels.h"
#include "gbdt/simd_dispatch.h"

namespace horizon::gbdt {

BlockForest BlockForest::Compile(const std::vector<RegressionTree>& trees,
                                 double base_score, double learning_rate) {
  BlockForest out;

  // Pass 1: forest-wide padded depth = deepest leaf level of any tree.
  int depth = 0;
  {
    std::vector<std::pair<int32_t, int>> stack;  // (tree node, level)
    for (const RegressionTree& tree : trees) {
      const std::vector<TreeNode>& nodes = tree.nodes();
      stack.emplace_back(0, 0);
      while (!stack.empty()) {
        const auto [idx, level] = stack.back();
        stack.pop_back();
        const TreeNode& n = nodes[static_cast<size_t>(idx)];
        if (n.feature < 0) {
          depth = std::max(depth, level);
          continue;
        }
        if (level >= kMaxBlockedDepth) return out;  // too deep: uncompiled
        stack.emplace_back(n.left, level + 1);
        stack.emplace_back(n.right, level + 1);
      }
    }
  }

  out.depth_ = depth;
  out.num_trees_ = trees.size();
  out.nodes_per_tree_ = (size_t{1} << depth) - 1;
  out.leaves_per_tree_ = size_t{1} << depth;
  out.base_score_ = base_score;
  out.learning_rate_ = learning_rate;
  // Pseudo-node defaults: feature 0, threshold +inf -- every row compares
  // <= +inf and goes left, so padded levels are decision-free.
  out.feat_.assign(out.num_trees_ * out.nodes_per_tree_, 0);
  out.thresh_.assign(out.num_trees_ * out.nodes_per_tree_,
                     std::numeric_limits<float>::infinity());
  out.leaves_.assign(out.num_trees_ * out.leaves_per_tree_, 0.0);

  // Pass 2: place each tree.  `pos` is the node's 0-based position within
  // its level; internal slot = 2^level - 1 + pos, and a leaf reached at
  // `level` owns leaf positions [pos << (depth-level), (pos+1) << ...).
  struct Frame {
    int32_t idx;
    int level;
    size_t pos;
  };
  std::vector<Frame> stack;
  for (size_t t = 0; t < out.num_trees_; ++t) {
    const std::vector<TreeNode>& nodes = trees[t].nodes();
    int32_t* tf = out.feat_.data() + t * out.nodes_per_tree_;
    float* tt = out.thresh_.data() + t * out.nodes_per_tree_;
    double* tl = out.leaves_.data() + t * out.leaves_per_tree_;
    stack.push_back(Frame{0, 0, 0});
    while (!stack.empty()) {
      const Frame fr = stack.back();
      stack.pop_back();
      const TreeNode& n = nodes[static_cast<size_t>(fr.idx)];
      if (n.feature < 0) {
        const size_t lo = fr.pos << (depth - fr.level);
        const size_t hi = (fr.pos + 1) << (depth - fr.level);
        for (size_t p = lo; p < hi; ++p) tl[p] = n.value;
        continue;
      }
      const size_t slot = (size_t{1} << fr.level) - 1 + fr.pos;
      tf[slot] = n.feature;
      tt[slot] = n.threshold;
      out.max_feature_ = std::max(out.max_feature_, n.feature);
      stack.push_back(Frame{n.left, fr.level + 1, 2 * fr.pos});
      stack.push_back(Frame{n.right, fr.level + 1, 2 * fr.pos + 1});
    }
  }

  out.compiled_ = true;
  return out;
}

void BlockForest::PredictStrided(const float* data, size_t num_rows,
                                 size_t row_stride, size_t feat_stride,
                                 double* out) const {
  HORIZON_DCHECK(compiled_);
  if (num_rows == 0) return;
  const kernels::FloatForestSpan span{
      feat_.data(),  thresh_.data(), leaves_.data(), num_trees_,
      depth_,        base_score_,    learning_rate_};
  SimdKernel kernel = ActiveKernel();
  // AVX2 gathers address elements through int32 offsets; oversized
  // batches take the (size_t-addressed) scalar kernel instead, and so do
  // batches too small for the AVX2 kernel to win.
  const uint64_t max_offset =
      static_cast<uint64_t>(num_rows - 1) * row_stride +
      (max_feature_ > 0
           ? static_cast<uint64_t>(max_feature_) * feat_stride
           : 0);
  if (num_rows < kernels::kSmallBatchRows ||
      max_offset > static_cast<uint64_t>(std::numeric_limits<int32_t>::max())) {
    kernel = SimdKernel::kScalar;
  }
  switch (kernel) {
    case SimdKernel::kAvx2:
      kernels::PredictFloatAvx2(span, data, num_rows, row_stride, feat_stride,
                                out);
      break;
    case SimdKernel::kScalar:
      kernels::PredictFloatScalar(span, data, num_rows, row_stride,
                                  feat_stride, out);
      break;
  }
}

}  // namespace horizon::gbdt
