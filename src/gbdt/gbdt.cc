#include "gbdt/gbdt.h"

#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "common/check.h"
#include "common/thread_pool.h"

namespace horizon::gbdt {

namespace {
/// Row ranges below this size are updated serially; the per-chunk dispatch
/// cost is not worth it.
constexpr size_t kRowGrain = 1024;
}  // namespace

GbdtRegressor::GbdtRegressor(GbdtParams params) : params_(std::move(params)) {
  HORIZON_CHECK_GE(params_.num_trees, 1);
  HORIZON_CHECK_GT(params_.learning_rate, 0.0);
  HORIZON_CHECK(params_.subsample > 0.0 && params_.subsample <= 1.0);
}

void GbdtRegressor::Fit(const DataMatrix& x, const std::vector<double>& y) {
  FitInternal(x, y, nullptr, nullptr, 0);
}

int GbdtRegressor::FitWithValidation(const DataMatrix& x, const std::vector<double>& y,
                                     const DataMatrix& x_valid,
                                     const std::vector<double>& y_valid,
                                     int early_stopping_rounds) {
  HORIZON_CHECK_EQ(x_valid.num_rows(), y_valid.size());
  HORIZON_CHECK_GT(x_valid.num_rows(), 0u);
  HORIZON_CHECK_EQ(x_valid.num_features(), x.num_features());
  HORIZON_CHECK_GE(early_stopping_rounds, 1);
  FitInternal(x, y, &x_valid, &y_valid, early_stopping_rounds);
  return static_cast<int>(trees_.size());
}

void GbdtRegressor::FitInternal(const DataMatrix& x, const std::vector<double>& y,
                                const DataMatrix* x_valid,
                                const std::vector<double>* y_valid,
                                int early_stopping_rounds) {
  HORIZON_CHECK_EQ(x.num_rows(), y.size());
  HORIZON_CHECK_GT(x.num_rows(), 0u);
  num_features_ = x.num_features();
  trees_.clear();
  gains_.assign(num_features_, 0.0);

  const BinnedDataset binned = BinnedDataset::Create(x, params_.max_bins);
  TreeLearner learner(binned, params_.tree);
  Rng rng(params_.seed);

  // Base score: mean target (optimal constant under squared loss).
  base_score_ = std::accumulate(y.begin(), y.end(), 0.0) /
                static_cast<double>(y.size());

  std::vector<double> pred(y.size(), base_score_);
  std::vector<double> residual(y.size());
  std::vector<uint32_t> all_rows(y.size());
  std::iota(all_rows.begin(), all_rows.end(), 0u);

  // Early-stopping state.
  std::vector<double> valid_pred;
  double best_valid_mse = std::numeric_limits<double>::infinity();
  size_t best_num_trees = 0;
  int rounds_since_best = 0;
  if (x_valid != nullptr) valid_pred.assign(y_valid->size(), base_score_);

  for (int m = 0; m < params_.num_trees; ++m) {
    ParallelFor(y.size(), kRowGrain, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) residual[i] = y[i] - pred[i];
    });

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

    RegressionTree tree = learner.Fit(rows, residual, &gains_);
    // Update predictions on ALL rows with the shrunken tree output.
    ParallelFor(y.size(), kRowGrain, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        pred[i] += params_.learning_rate * tree.Predict(x.Row(i));
      }
    });
    trees_.push_back(std::move(tree));

    if (x_valid != nullptr) {
      double mse = 0.0;
      for (size_t i = 0; i < y_valid->size(); ++i) {
        valid_pred[i] +=
            params_.learning_rate * trees_.back().Predict(x_valid->Row(i));
        const double d = valid_pred[i] - (*y_valid)[i];
        mse += d * d;
      }
      mse /= static_cast<double>(y_valid->size());
      if (mse < best_valid_mse) {
        best_valid_mse = mse;
        best_num_trees = trees_.size();
        rounds_since_best = 0;
      } else if (++rounds_since_best >= early_stopping_rounds) {
        break;
      }
    }
  }
  if (x_valid != nullptr && best_num_trees > 0) {
    trees_.resize(best_num_trees);
  }
  flat_ = FlatForest::Compile(trees_, base_score_, params_.learning_rate);
  CompileInferenceForests();
  trained_ = true;
}

void GbdtRegressor::CompileInferenceForests() {
  blocked_ = BlockForest::Compile(flat_);
  quant_ = blocked_.compiled()
               ? QuantizedForest::Compile(blocked_, num_features_)
               : QuantizedForest();
}

double GbdtRegressor::Predict(const float* row) const {
  HORIZON_DCHECK(trained_);
  if (!blocked_.compiled()) return flat_.Predict(row);
  double out = 0.0;
  blocked_.PredictStrided(row, 1, num_features_, 1, &out);
  return out;
}

std::vector<double> GbdtRegressor::PredictBatch(const DataMatrix& x) const {
  HORIZON_CHECK_EQ(x.num_features(), num_features_);
  // The blocked layout is bit-identical to the flat walk; the flat path
  // only serves over-deep ensembles the blocked compiler refused.
  if (blocked_.compiled()) return blocked_.PredictBatch(x);
  return flat_.PredictBatch(x);
}

std::vector<double> GbdtRegressor::PredictBatch(const ExampleBatch& x) const {
  HORIZON_CHECK_EQ(x.num_features(), num_features_);
  if (blocked_.compiled()) return blocked_.PredictBatch(x);
  // Over-deep fallback: materialize rows for the flat kernel.
  DataMatrix rows(x.num_rows(), x.num_features());
  for (size_t r = 0; r < x.num_rows(); ++r) x.CopyRowTo(r, rows.MutableRow(r));
  return flat_.PredictBatch(rows);
}

std::vector<double> GbdtRegressor::PredictBatchQuantized(
    const ExampleBatch& x) const {
  HORIZON_CHECK_EQ(x.num_features(), num_features_);
  if (quant_.compiled()) return quant_.PredictBatch(x);
  return PredictBatch(x);
}

std::vector<double> GbdtRegressor::GainImportance() const {
  std::vector<double> out = gains_;
  const double total = std::accumulate(out.begin(), out.end(), 0.0);
  if (total > 0.0) {
    for (double& g : out) g /= total;
  }
  return out;
}

std::string GbdtRegressor::Serialize() const {
  HORIZON_CHECK(trained_);
  std::ostringstream os;
  os.precision(17);
  os << "gbdt v1\n";
  os << num_features_ << " " << base_score_ << " " << params_.learning_rate << " "
     << trees_.size() << "\n";
  for (const RegressionTree& tree : trees_) {
    os << tree.num_nodes() << "\n";
    for (const TreeNode& n : tree.nodes()) {
      os << n.feature << " " << n.threshold << " " << n.left << " " << n.right << " "
         << n.value << "\n";
    }
  }
  return os.str();
}

bool GbdtRegressor::Deserialize(const std::string& text) {
  // Deserialization must be safe on untrusted bytes (truncated, bit-flipped
  // or garbage input): every count is bounded before allocation and every
  // node is validated before FlatForest::Compile walks the tree, so a
  // malformed blob returns false instead of corrupting memory or looping.
  constexpr size_t kMaxFeatures = 1u << 20;
  constexpr size_t kMaxTrees = 1u << 20;
  constexpr size_t kMaxNodes = 1u << 22;
  std::istringstream is(text);
  std::string magic, version;
  if (!(is >> magic >> version) || magic != "gbdt" || version != "v1") return false;
  size_t num_features = 0, num_trees = 0;
  double base = 0.0, lr = 0.0;
  if (!(is >> num_features >> base >> lr >> num_trees)) return false;
  if (num_features == 0 || num_features > kMaxFeatures || num_trees > kMaxTrees ||
      !std::isfinite(base) || !std::isfinite(lr) || lr <= 0.0) {
    return false;
  }
  std::vector<RegressionTree> trees;
  trees.reserve(num_trees);
  for (size_t t = 0; t < num_trees; ++t) {
    size_t num_nodes = 0;
    if (!(is >> num_nodes) || num_nodes == 0 || num_nodes > kMaxNodes) return false;
    std::vector<TreeNode> nodes(num_nodes);
    // Reachability from the root: FlatForest::Compile requires the nodes
    // to form EXACTLY a binary tree (every node reachable once).  Children
    // pointing forward rules out cycles; the in-degree accounting below
    // rules out orphaned and shared nodes.
    std::vector<char> reachable(num_nodes, 0);
    reachable[0] = 1;
    for (size_t i = 0; i < num_nodes; ++i) {
      TreeNode& n = nodes[i];
      if (!(is >> n.feature >> n.threshold >> n.left >> n.right >> n.value)) {
        return false;
      }
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
  num_features_ = num_features;
  base_score_ = base;
  params_.learning_rate = lr;
  trees_ = std::move(trees);
  gains_.assign(num_features_, 0.0);
  flat_ = FlatForest::Compile(trees_, base_score_, params_.learning_rate);
  CompileInferenceForests();
  trained_ = true;
  return true;
}

}  // namespace horizon::gbdt
