// The depth-first, node-at-a-time tree learner that gbdt::TreeLearner's
// level-wise pass replaced, kept as the oracle the learner must match node
// for node (gbdt_test, TreeLearnerTest).
//
// It pops one node at a time (right child first), sums its rows, builds and
// scans one histogram per feature over the node's rows, and takes the first
// maximum gain in ascending feature order.  The original fanned the
// per-feature searches of large nodes over the thread pool and reduced them
// in the same order; this copy runs them serially, which is the result that
// fan-out was defined to reproduce.
#ifndef HORIZON_TESTS_REFERENCE_TREE_LEARNER_H_
#define HORIZON_TESTS_REFERENCE_TREE_LEARNER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "gbdt/dataset.h"
#include "gbdt/tree.h"

namespace horizon::gbdt {

class ReferenceTreeLearner {
 public:
  ReferenceTreeLearner(const BinnedDataset& binned, TreeParams params)
      : binned_(binned), params_(params) {}

  /// Same contract as TreeLearner::Fit.
  RegressionTree Fit(const std::vector<uint32_t>& row_indices,
                     const std::vector<double>& grad_targets) const {
    HORIZON_CHECK(!row_indices.empty());
    std::vector<TreeNode> nodes;

    struct Work {
      int node_idx;
      std::vector<uint32_t> rows;
      int depth;
    };

    std::vector<Work> stack;
    nodes.emplace_back();
    stack.push_back({0, row_indices, 0});

    while (!stack.empty()) {
      Work work = std::move(stack.back());
      stack.pop_back();
      TreeNode& node = nodes[static_cast<size_t>(work.node_idx)];

      double sum = 0.0;
      for (uint32_t r : work.rows) sum += grad_targets[r];

      const bool can_split =
          work.depth < params_.max_depth &&
          work.rows.size() >= 2 * static_cast<size_t>(params_.min_samples_leaf);
      SplitResult split;
      if (can_split) split = FindBestSplit(work.rows, sum, grad_targets);

      if (!can_split || split.feature < 0) {
        node.feature = -1;
        node.value = sum / (static_cast<double>(work.rows.size()) + params_.l2_reg);
        continue;
      }

      node.feature = split.feature;
      node.threshold =
          binned_.BinUpperEdge(static_cast<size_t>(split.feature), split.bin);

      std::vector<uint32_t> left_rows, right_rows;
      left_rows.reserve(work.rows.size());
      right_rows.reserve(work.rows.size());
      for (uint32_t r : work.rows) {
        if (binned_.Code(r, static_cast<size_t>(split.feature)) <=
            static_cast<uint8_t>(split.bin)) {
          left_rows.push_back(r);
        } else {
          right_rows.push_back(r);
        }
      }

      const int left_idx = static_cast<int>(nodes.size());
      nodes.emplace_back();
      const int right_idx = static_cast<int>(nodes.size());
      nodes.emplace_back();
      nodes[static_cast<size_t>(work.node_idx)].left = left_idx;
      nodes[static_cast<size_t>(work.node_idx)].right = right_idx;

      stack.push_back({left_idx, std::move(left_rows), work.depth + 1});
      stack.push_back({right_idx, std::move(right_rows), work.depth + 1});
    }
    return RegressionTree(std::move(nodes));
  }

 private:
  struct SplitResult {
    int feature = -1;
    int bin = -1;
    double gain = 0.0;
  };

  SplitResult BestSplitForFeature(size_t f, const std::vector<uint32_t>& rows,
                                  double sum,
                                  const std::vector<double>& grad_targets) const {
    SplitResult best;
    const int num_bins = binned_.NumBins(f);
    if (num_bins < 2) return best;
    const double n = static_cast<double>(rows.size());
    const double lam = params_.l2_reg;
    const double parent_score = sum * sum / (n + lam);

    double hist_sum[256];
    uint32_t hist_cnt[256];
    std::fill(hist_sum, hist_sum + num_bins, 0.0);
    std::fill(hist_cnt, hist_cnt + num_bins, 0u);
    for (uint32_t r : rows) {
      const uint8_t code = binned_.Code(r, f);
      hist_sum[code] += grad_targets[r];
      ++hist_cnt[code];
    }
    // Scan split points: left = bins [0..b], right = rest.
    double left_sum = 0.0;
    uint32_t left_cnt = 0;
    for (int b = 0; b + 1 < num_bins; ++b) {
      left_sum += hist_sum[b];
      left_cnt += hist_cnt[b];
      const uint32_t right_cnt = static_cast<uint32_t>(rows.size()) - left_cnt;
      if (left_cnt < static_cast<uint32_t>(params_.min_samples_leaf)) continue;
      if (right_cnt < static_cast<uint32_t>(params_.min_samples_leaf)) break;
      const double right_sum = sum - left_sum;
      const double gain = left_sum * left_sum / (left_cnt + lam) +
                          right_sum * right_sum / (right_cnt + lam) - parent_score;
      if (gain > best.gain) {
        best.feature = static_cast<int>(f);
        best.bin = b;
        best.gain = gain;
      }
    }
    return best;
  }

  SplitResult FindBestSplit(const std::vector<uint32_t>& rows, double sum,
                            const std::vector<double>& grad_targets) const {
    SplitResult best;
    for (size_t f = 0; f < binned_.num_features(); ++f) {
      const SplitResult r = BestSplitForFeature(f, rows, sum, grad_targets);
      if (r.gain > best.gain) best = r;
    }
    if (best.gain < params_.min_gain) best.feature = -1;
    return best;
  }

  const BinnedDataset& binned_;
  TreeParams params_;
};

}  // namespace horizon::gbdt

#endif  // HORIZON_TESTS_REFERENCE_TREE_LEARNER_H_
