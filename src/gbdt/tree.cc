#include "gbdt/tree.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"

namespace horizon::gbdt {

namespace {

/// Each depth's pass fans out over this many feature blocks; one
/// ParallelFor chunk builds and scans every histogram of one block.
constexpr size_t kFeatureBlocks = 16;
/// Histogram slots per feature: one per uint8_t code, plus one cache line
/// so that the same code of neighbouring features lands neither in one L1
/// set nor 4 KB apart (where a load waits on an unrelated store).
constexpr size_t kSlotStride = 256 + 4;

struct Split {
  int feature = -1;
  int bin = -1;
  double gain = 0.0;
};

/// Two doubles added, multiplied or divided lane by lane (one SSE2
/// instruction on x86-64), each lane with the IEEE operation its scalar
/// form would do.
using Lanes = double __attribute__((vector_size(16)));

/// One histogram slot: lane 0 sums the bin's gradients, lane 1 counts its
/// rows (exactly, far below 2^53), so one vector add updates both.
/// Uninitialized until the pass zeroes a node's bins.
using HistBin = Lanes;

/// A node of the tree being grown, numbered in creation order.
struct GrowNode {
  size_t begin = 0;  ///< its rows: [begin, end) of its depth's row buffer
  size_t end = 0;
  double sum = 0.0;
  Split split;       ///< feature < 0: a leaf
  size_t left = 0;   ///< its left child; the right child is left + 1
};

/// Best split of one feature from its histogram: left = bins [0..b].
Split ScanHistogram(const HistBin* hist, int num_bins, size_t feature,
                    size_t num_rows, double sum, const TreeParams& params) {
  Split best;
  if (num_bins < 2) return best;
  const double n = static_cast<double>(num_rows);
  const double lam = params.l2_reg;
  const double parent_score = sum * sum / (n + lam);
  double left_sum = 0.0;
  uint32_t left_cnt = 0;
  for (int b = 0; b + 1 < num_bins; ++b) {
    left_sum += hist[b][0];
    left_cnt += static_cast<uint32_t>(hist[b][1]);
    const uint32_t right_cnt = static_cast<uint32_t>(num_rows) - left_cnt;
    if (left_cnt < static_cast<uint32_t>(params.min_samples_leaf)) continue;
    if (right_cnt < static_cast<uint32_t>(params.min_samples_leaf)) break;
    const double right_sum = sum - left_sum;
    // Both sides' L^2 / (n + lambda) in one vector division.
    const Lanes sides = Lanes{left_sum, right_sum};
    const Lanes score = sides * sides / Lanes{left_cnt + lam, right_cnt + lam};
    const double gain = score[0] + score[1] - parent_score;
    if (gain > best.gain) {
      best.feature = static_cast<int>(feature);
      best.bin = b;
      best.gain = gain;
    }
  }
  return best;
}

}  // namespace

RegressionTree::RegressionTree(std::vector<TreeNode> nodes) : nodes_(std::move(nodes)) {
  HORIZON_CHECK(!nodes_.empty());
}

double RegressionTree::Predict(const float* row) const {
  HORIZON_DCHECK(!nodes_.empty());
  int idx = 0;
  for (;;) {
    const TreeNode& node = nodes_[static_cast<size_t>(idx)];
    if (node.feature < 0) return node.value;
    idx = row[node.feature] <= node.threshold ? node.left : node.right;
  }
}

int RegressionTree::MaxDepth() const {
  if (nodes_.empty()) return 0;
  std::function<int(int)> depth = [&](int idx) -> int {
    const TreeNode& node = nodes_[static_cast<size_t>(idx)];
    if (node.feature < 0) return 0;
    return 1 + std::max(depth(node.left), depth(node.right));
  };
  return depth(0);
}

TreeLearner::TreeLearner(const BinnedDataset& binned, TreeParams params)
    : binned_(binned), params_(params) {
  HORIZON_CHECK_GE(params_.max_depth, 1);
  HORIZON_CHECK_GE(params_.min_samples_leaf, 1);
  HORIZON_CHECK_GE(params_.l2_reg, 0.0);
}

RegressionTree TreeLearner::Fit(const std::vector<uint32_t>& row_indices,
                                const std::vector<double>& grad_targets) const {
  HORIZON_CHECK(!row_indices.empty());
  const size_t num_features = binned_.num_features();
  const size_t num_blocks = std::clamp<size_t>(num_features, 1, kFeatureBlocks);
  const size_t block_slots =
      (num_features + num_blocks - 1) / num_blocks * kSlotStride;
  const size_t min_leaf = static_cast<size_t>(params_.min_samples_leaf);

  std::vector<GrowNode> grown(1);
  grown[0].end = row_indices.size();
  for (uint32_t r : row_indices) grown[0].sum += grad_targets[r];
  // The rows of one depth's nodes, each node's in the order the root's were
  // given: a split partitions them stably into its children.
  std::vector<uint32_t> rows = row_indices;
  std::vector<uint32_t> next_rows(rows.size()), right_rows(rows.size());
  std::vector<size_t> searched;  // grown ids of the depth's splittable nodes
  std::vector<Split> splits;     // [k * num_features + f] for searched[k]
  const auto hist = std::make_unique_for_overwrite<HistBin[]>(num_blocks * block_slots);

  // Builds and scans block b's histograms for every searched node.  A bin
  // sums its rows in their order, as a per-node histogram would.
  const auto search_block = [&](size_t b) {
    const size_t f_begin = b * num_features / num_blocks;
    const size_t f_end = (b + 1) * num_features / num_blocks;
    const size_t width = f_end - f_begin;
    HistBin* h = hist.get() + b * block_slots;
    for (size_t k = 0; k < searched.size(); ++k) {
      const GrowNode& node = grown[searched[k]];
      for (size_t j = 0; j < width; ++j) {
        std::fill_n(h + j * kSlotStride, binned_.NumBins(f_begin + j), HistBin{});
      }
      for (size_t i = node.begin; i < node.end; ++i) {
        const uint32_t r = rows[i];
        const HistBin row = {grad_targets[r], 1.0};
        const uint8_t* codes = binned_.RowCodes(r) + f_begin;
        for (size_t j = 0; j < width; ++j) h[j * kSlotStride + codes[j]] += row;
      }
      for (size_t j = 0; j < width; ++j) {
        splits[k * num_features + f_begin + j] =
            ScanHistogram(h + j * kSlotStride, binned_.NumBins(f_begin + j),
                          f_begin + j, node.end - node.begin, node.sum, params_);
      }
    }
  };

  for (size_t level_begin = 0, level_end = 1, depth = 0; level_begin < level_end;
       ++depth) {
    searched.clear();
    for (size_t g = level_begin; g < level_end; ++g) {
      if (depth < static_cast<size_t>(params_.max_depth) &&
          grown[g].end - grown[g].begin >= 2 * min_leaf) {
        searched.push_back(g);
      }
    }
    if (searched.empty()) break;

    splits.assign(searched.size() * num_features, Split{});
    ParallelFor(num_blocks, 1, [&](size_t begin, size_t end) {
      for (size_t b = begin; b < end; ++b) search_block(b);
    });
    // Max gain, lowest feature on ties: the features' first-max.
    for (size_t k = 0; k < searched.size(); ++k) {
      Split best;
      for (size_t f = 0; f < num_features; ++f) {
        const Split& s = splits[k * num_features + f];
        if (s.gain > best.gain) best = s;
      }
      if (best.gain < params_.min_gain) best.feature = -1;
      grown[searched[k]].split = best;
    }

    // Partition each split node's rows stably into its children, and sum
    // each child's gradients over its rows in that order.
    size_t out = 0;
    for (const size_t g : searched) {
      const Split split = grown[g].split;
      if (split.feature < 0) continue;
      const size_t f = static_cast<size_t>(split.feature);
      const uint8_t bin = static_cast<uint8_t>(split.bin);
      const size_t left_begin = out;
      size_t num_right = 0;
      double left_sum = 0.0, right_sum = 0.0;
      for (size_t i = grown[g].begin; i < grown[g].end; ++i) {
        const uint32_t r = rows[i];
        if (binned_.Code(r, f) <= bin) {
          next_rows[out++] = r;
          left_sum += grad_targets[r];
        } else {
          right_rows[num_right++] = r;
          right_sum += grad_targets[r];
        }
      }
      const size_t right_begin = out;
      out = std::copy_n(right_rows.begin(), num_right, next_rows.begin() + out) -
            next_rows.begin();
      HORIZON_DCHECK(left_begin < right_begin && right_begin < out);
      grown[g].left = grown.size();
      grown.push_back({left_begin, right_begin, left_sum, {}, 0});
      grown.push_back({right_begin, out, right_sum, {}, 0});
    }
    rows.swap(next_rows);
    level_begin = level_end;
    level_end = grown.size();
  }

  // Number the nodes in depth-first order, right child popped first: the
  // order a node-at-a-time learner met them in.
  std::vector<TreeNode> nodes(1);
  std::vector<std::pair<size_t, size_t>> stack{{0, 0}};  // (grown id, node id)
  while (!stack.empty()) {
    const auto [g, id] = stack.back();
    stack.pop_back();
    const GrowNode& node = grown[g];
    if (node.split.feature < 0) {
      nodes[id].value = node.sum / (static_cast<double>(node.end - node.begin) +
                                    params_.l2_reg);
      continue;
    }
    const size_t f = static_cast<size_t>(node.split.feature);
    const size_t left_id = nodes.size();
    nodes.resize(left_id + 2);
    nodes[id].feature = node.split.feature;
    nodes[id].threshold = binned_.BinUpperEdge(f, node.split.bin);
    nodes[id].left = static_cast<int32_t>(left_id);
    nodes[id].right = static_cast<int32_t>(left_id + 1);
    stack.push_back({node.left, left_id});
    stack.push_back({node.left + 1, left_id + 1});
  }
  return RegressionTree(std::move(nodes));
}

}  // namespace horizon::gbdt
