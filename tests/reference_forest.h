// The oracle the blocked forest kernels are checked against: a model's
// trained trees walked one by one through RegressionTree::Predict, the
// base score plus learning_rate * each tree's leaf in boosting order --
// the sum GbdtRegressor::Fit accumulates.  It shares no code with
// BlockForest or forest_kernels (block_forest_test, gbdt_test,
// fuzz_deserialize_test).
//
// Also the hand-built shapes the depth-bound tests feed it: a left-spine
// chain of any depth, and an ensemble as the `gbdt v1` text Deserialize
// reads.
#ifndef HORIZON_TESTS_REFERENCE_FOREST_H_
#define HORIZON_TESTS_REFERENCE_FOREST_H_

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gbdt/gbdt.h"
#include "gbdt/tree.h"

namespace horizon::gbdt::reference {

/// The ensemble (`trees`, `base_score`, `learning_rate`) at `row`.
inline double TreeWalk(const std::vector<RegressionTree>& trees,
                       double base_score, double learning_rate,
                       const float* row) {
  double out = base_score;
  for (const RegressionTree& tree : trees) {
    out += learning_rate * tree.Predict(row);
  }
  return out;
}

/// A trained or deserialized model at `row`.
inline double TreeWalk(const GbdtRegressor& model, const float* row) {
  return TreeWalk(model.trees(), model.base_score(),
                  model.params().learning_rate, row);
}

/// A degenerate left-spine tree on feature 0 with `depth` internal
/// levels: internal node i splits at -i, so smaller values go deeper.
inline RegressionTree MakeChainTree(int depth) {
  std::vector<TreeNode> nodes;
  const int32_t num_internal = depth;
  for (int32_t i = 0; i < num_internal; ++i) {
    TreeNode n;
    n.feature = 0;
    n.threshold = -static_cast<float>(i);  // descending: left goes deeper
    n.left = (i + 1 < num_internal) ? (i + 1) : num_internal;
    n.right = num_internal + 1 + i;
    nodes.push_back(n);
  }
  // Leaf reached by the full left spine, then one right leaf per level.
  for (int32_t i = 0; i <= num_internal; ++i) {
    TreeNode leaf;
    leaf.feature = -1;
    leaf.left = -1;
    leaf.right = -1;
    leaf.value = static_cast<double>(i);
    nodes.push_back(leaf);
  }
  return RegressionTree(std::move(nodes));
}

/// `trees` as the text GbdtRegressor::Serialize writes (`gbdt v1`).
inline std::string GbdtText(const std::vector<RegressionTree>& trees,
                            size_t num_features, double base_score,
                            double learning_rate) {
  std::ostringstream os;
  os.precision(17);
  os << "gbdt v1\n"
     << num_features << " " << base_score << " " << learning_rate << " "
     << trees.size() << "\n";
  for (const RegressionTree& tree : trees) {
    os << tree.num_nodes() << "\n";
    for (const TreeNode& n : tree.nodes()) {
      os << n.feature << " " << n.threshold << " " << n.left << " " << n.right
         << " " << n.value << "\n";
    }
  }
  return os.str();
}

}  // namespace horizon::gbdt::reference

#endif  // HORIZON_TESTS_REFERENCE_FOREST_H_
