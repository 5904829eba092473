#include "gbdt/gbdt.h"

#include <cmath>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/text_codec.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace horizon::gbdt {

namespace {
/// Row ranges below this size are updated serially; the per-chunk dispatch
/// cost is not worth it.
constexpr size_t kRowGrain = 1024;
/// Rows per PredictBatch chunk.
constexpr size_t kPredictGrain = 256;
}  // namespace

GbdtRegressor::GbdtRegressor(GbdtParams params) : params_(std::move(params)) {
  HORIZON_CHECK_GE(params_.num_trees, 1);
  HORIZON_CHECK_GT(params_.learning_rate, 0.0);
  HORIZON_CHECK(params_.subsample > 0.0 && params_.subsample <= 1.0);
  // The trees Fit grows must compile into the blocked layout.
  HORIZON_CHECK_LE(params_.tree.max_depth, BlockForest::kMaxBlockedDepth);
}

void GbdtRegressor::Fit(const DataMatrix& x, const std::vector<double>& y) {
  Fit(x, BinnedDataset::Create(x, params_.max_bins), y);
}

void GbdtRegressor::Fit(const DataMatrix& x, const BinnedDataset& binned,
                        const std::vector<double>& y) {
  HORIZON_CHECK_EQ(binned.num_rows(), x.num_rows());
  HORIZON_CHECK_EQ(binned.num_features(), x.num_features());
  HORIZON_CHECK_EQ(binned.max_bins(), params_.max_bins);
  HORIZON_CHECK_EQ(x.num_rows(), y.size());
  HORIZON_CHECK_GT(x.num_rows(), 0u);
  num_features_ = x.num_features();
  trees_.clear();

  TreeLearner learner(binned, params_.tree);
  Rng rng(params_.seed);

  // Base score: mean target (optimal constant under squared loss).
  base_score_ = std::accumulate(y.begin(), y.end(), 0.0) /
                static_cast<double>(y.size());

  std::vector<double> pred(y.size(), base_score_);
  std::vector<double> residual(y.size());
  for (size_t i = 0; i < y.size(); ++i) residual[i] = y[i] - pred[i];
  std::vector<uint32_t> all_rows(y.size());
  std::iota(all_rows.begin(), all_rows.end(), 0u);

  for (int m = 0; m < params_.num_trees; ++m) {
    std::vector<uint32_t> rows;
    if (params_.subsample < 1.0) {
      rows.reserve(static_cast<size_t>(params_.subsample * y.size()) + 1);
      for (uint32_t r : all_rows) {
        if (rng.Bernoulli(params_.subsample)) rows.push_back(r);
      }
      if (rows.empty()) rows = all_rows;
    } else {
      rows = all_rows;
    }

    RegressionTree tree = learner.Fit(rows, residual);
    // Update predictions on ALL rows with the shrunken tree output, and
    // the residuals the next tree fits.
    ParallelFor(y.size(), kRowGrain, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        pred[i] += params_.learning_rate * tree.Predict(x.Row(i));
        residual[i] = y[i] - pred[i];
      }
    });
    trees_.push_back(std::move(tree));
  }
  blocked_ = BlockForest::Compile(trees_, base_score_, params_.learning_rate);
  trained_ = true;
}

double GbdtRegressor::Predict(const float* row) const {
  double out = 0.0;
  PredictStrided(row, 1, num_features_, 1, &out);
  return out;
}

void GbdtRegressor::PredictStrided(const float* data, size_t num_rows,
                                   size_t row_stride, size_t feat_stride,
                                   double* out) const {
  HORIZON_DCHECK(trained_);
  blocked_.PredictStrided(data, num_rows, row_stride, feat_stride, out);
}

std::vector<double> GbdtRegressor::PredictBatch(const ExampleBatch& x) const {
  static obs::Histogram* const batch_latency =
      obs::MetricsRegistry::Global().GetHistogram(
          "horizon_gbdt_batch_inference_latency_seconds");
  static obs::Counter* const rows_scored =
      obs::MetricsRegistry::Global().GetCounter("horizon_gbdt_rows_scored_total");
  HORIZON_CHECK_EQ(x.num_features(), num_features_);
  const obs::ScopedTimer timer(batch_latency);
  rows_scored->Add(x.num_rows());
  std::vector<double> out(x.num_rows());
  ParallelFor(x.num_rows(), kPredictGrain, [&](size_t begin, size_t end) {
    PredictStrided(x.data() + begin, end - begin, 1, x.feature_stride(),
                   out.data() + begin);
  });
  return out;
}

std::string GbdtRegressor::Serialize() const {
  HORIZON_CHECK(trained_);
  std::string out = "gbdt v1\n";
  const auto space = [&out] { out.push_back(' '); };
  const auto newline = [&out] { out.push_back('\n'); };
  text::AppendInt(&out, num_features_);
  space();
  text::AppendDouble(&out, base_score_);
  space();
  text::AppendDouble(&out, params_.learning_rate);
  space();
  text::AppendInt(&out, trees_.size());
  newline();
  for (const RegressionTree& tree : trees_) {
    text::AppendInt(&out, tree.num_nodes());
    newline();
    for (const TreeNode& n : tree.nodes()) {
      text::AppendInt(&out, n.feature);
      space();
      text::AppendDouble(&out, n.threshold);  // a float widens exactly
      space();
      text::AppendInt(&out, n.left);
      space();
      text::AppendInt(&out, n.right);
      space();
      text::AppendDouble(&out, n.value);
      newline();
    }
  }
  return out;
}

bool GbdtRegressor::Deserialize(std::string_view text) {
  // Deserialization must be safe on untrusted bytes (truncated, bit-flipped
  // or garbage input): every count is bounded before allocation and every
  // node is validated before BlockForest::Compile walks the tree, so a
  // malformed blob returns false instead of corrupting memory or looping.
  constexpr size_t kMaxFeatures = 1u << 20;
  constexpr size_t kMaxTrees = 1u << 20;
  constexpr size_t kMaxNodes = 1u << 22;
  text::Reader in(text);
  std::string_view magic, version;
  if (!in.ReadWord(&magic) || !in.ReadWord(&version) || magic != "gbdt" ||
      version != "v1") {
    return false;
  }
  size_t num_features = 0, num_trees = 0;
  double base = 0.0, lr = 0.0;
  if (!in.Read(&num_features, &base, &lr, &num_trees)) return false;
  if (num_features == 0 || num_features > kMaxFeatures || num_trees > kMaxTrees ||
      !std::isfinite(base) || !std::isfinite(lr) || lr <= 0.0) {
    return false;
  }
  std::vector<RegressionTree> trees;
  trees.reserve(num_trees);
  for (size_t t = 0; t < num_trees; ++t) {
    size_t num_nodes = 0;
    if (!in.Read(&num_nodes) || num_nodes == 0 || num_nodes > kMaxNodes) return false;
    std::vector<TreeNode> nodes(num_nodes);
    // Reachability from the root: BlockForest::Compile requires the nodes
    // to form EXACTLY a binary tree (every node reachable once).  Children
    // pointing forward rules out cycles; the in-degree accounting below
    // rules out orphaned and shared nodes.
    std::vector<char> reachable(num_nodes, 0);
    reachable[0] = 1;
    for (size_t i = 0; i < num_nodes; ++i) {
      TreeNode& n = nodes[i];
      if (!in.Read(&n.feature, &n.threshold, &n.left, &n.right, &n.value)) return false;
      if (!std::isfinite(n.threshold) || !std::isfinite(n.value)) return false;
      if (!reachable[i]) return false;  // orphan: no earlier parent points here
      if (n.feature < 0) {
        // Leaf: no children.
        if (n.left != -1 || n.right != -1) return false;
      } else {
        // Internal node: the learner always emits children after their
        // parent, so requiring strictly increasing child indices both
        // accepts every legitimately serialized tree and guarantees that
        // traversal and compilation terminate (no cycles).
        if (static_cast<size_t>(n.feature) >= num_features) return false;
        if (n.left <= static_cast<int32_t>(i) ||
            static_cast<size_t>(n.left) >= num_nodes ||
            n.right <= static_cast<int32_t>(i) ||
            static_cast<size_t>(n.right) >= num_nodes || n.left == n.right) {
          return false;
        }
        // Each node may have at most one parent (a tree, not a DAG).
        if (reachable[static_cast<size_t>(n.left)] ||
            reachable[static_cast<size_t>(n.right)]) {
          return false;
        }
        reachable[static_cast<size_t>(n.left)] = 1;
        reachable[static_cast<size_t>(n.right)] = 1;
      }
    }
    trees.emplace_back(std::move(nodes));
  }
  // The blob is untrusted: Compile measures depth iteratively and stops
  // at kMaxBlockedDepth, where the recursive RegressionTree::MaxDepth
  // could exhaust the stack on a long chain.
  BlockForest blocked = BlockForest::Compile(trees, base, lr);
  if (!blocked.compiled()) return false;  // a tree too deep to serve
  num_features_ = num_features;
  base_score_ = base;
  params_.learning_rate = lr;
  trees_ = std::move(trees);
  blocked_ = std::move(blocked);
  trained_ = true;
  return true;
}

}  // namespace horizon::gbdt
