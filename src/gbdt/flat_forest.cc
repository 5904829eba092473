#include "gbdt/flat_forest.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace horizon::gbdt {

namespace {

/// Rows per block of the batch kernel: small enough that the per-row
/// traversal state stays in L1, large enough to amortize streaming the
/// node pool across rows.
constexpr size_t kBlockRows = 64;

}  // namespace

FlatForest FlatForest::Compile(const std::vector<RegressionTree>& trees,
                               double base_score, double learning_rate) {
  FlatForest out;
  out.compiled_ = true;
  out.base_score_ = base_score;
  out.learning_rate_ = learning_rate;

  size_t total_nodes = 0;
  for (const RegressionTree& tree : trees) total_nodes += tree.num_nodes();
  out.feature_.reserve(total_nodes);
  out.threshold_.reserve(total_nodes);
  out.left_.reserve(total_nodes);
  out.value_.reserve(total_nodes);
  out.roots_.reserve(trees.size());

  // Pre-order renumbering per tree: each internal node's children are
  // written adjacently (left, then right), so right = left + 1 and the
  // flat node only records the left index.
  for (const RegressionTree& tree : trees) {
    const std::vector<TreeNode>& nodes = tree.nodes();
    const auto emit = [&out](const TreeNode& n) {
      out.feature_.push_back(n.feature);
      out.threshold_.push_back(n.threshold);
      out.left_.push_back(-1);
      out.value_.push_back(n.value);
    };
    const int32_t root = static_cast<int32_t>(out.feature_.size());
    out.roots_.push_back(root);
    emit(nodes[0]);
    // Work stack of (source node, flat slot whose children to place).
    std::vector<std::pair<int32_t, int32_t>> stack;
    if (nodes[0].feature >= 0) stack.emplace_back(0, root);
    while (!stack.empty()) {
      const auto [src, slot] = stack.back();
      stack.pop_back();
      const TreeNode& n = nodes[static_cast<size_t>(src)];
      const int32_t left_slot = static_cast<int32_t>(out.feature_.size());
      out.left_[static_cast<size_t>(slot)] = left_slot;
      emit(nodes[static_cast<size_t>(n.left)]);
      emit(nodes[static_cast<size_t>(n.right)]);
      if (nodes[static_cast<size_t>(n.right)].feature >= 0) {
        stack.emplace_back(n.right, left_slot + 1);
      }
      if (nodes[static_cast<size_t>(n.left)].feature >= 0) {
        stack.emplace_back(n.left, left_slot);
      }
    }
  }
  HORIZON_CHECK_EQ(out.feature_.size(), total_nodes);
  return out;
}

double FlatForest::Predict(const float* row) const {
  HORIZON_DCHECK(compiled_);
  double out = base_score_;
  for (const int32_t root : roots_) {
    size_t idx = static_cast<size_t>(root);
    int32_t f;
    while ((f = feature_[idx]) >= 0) {
      const size_t left = static_cast<size_t>(left_[idx]);
      idx = row[f] <= threshold_[idx] ? left : left + 1;
    }
    out += learning_rate_ * value_[idx];
  }
  return out;
}

void FlatForest::PredictStrided(const float* data, size_t num_rows,
                                size_t row_stride, size_t feat_stride,
                                double* out) const {
  HORIZON_DCHECK(compiled_);
  const size_t num_trees = roots_.size();
  for (size_t block = 0; block < num_rows; block += kBlockRows) {
    const size_t block_end = std::min(block + kBlockRows, num_rows);
    for (size_t r = block; r < block_end; ++r) out[r] = base_score_;
    for (size_t t = 0; t < num_trees; ++t) {
      const size_t root = static_cast<size_t>(roots_[t]);
      for (size_t r = block; r < block_end; ++r) {
        const float* row = data + r * row_stride;
        size_t idx = root;
        int32_t f;
        while ((f = feature_[idx]) >= 0) {
          const size_t left = static_cast<size_t>(left_[idx]);
          idx = row[static_cast<size_t>(f) * feat_stride] <= threshold_[idx]
                    ? left
                    : left + 1;
        }
        out[r] += learning_rate_ * value_[idx];
      }
    }
  }
}

}  // namespace horizon::gbdt
