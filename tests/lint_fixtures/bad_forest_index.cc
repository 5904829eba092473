// Known-bad fixture for horizon_lint rule `forest-traversal`.  NOT
// compiled; consumed by `horizon_lint.py --self-test` only.
//
// Direct node-array indexing outside src/gbdt/ hard-codes one forest
// layout; the traversal API is the only stable surface.
struct FakeForest {
  const int* raw_features() const { return nullptr; }
  const float* raw_thresholds() const { return nullptr; }
  const int* raw_left() const { return nullptr; }
  const double* raw_values() const { return nullptr; }
  const int* raw_roots() const { return nullptr; }
  const double* raw_leaves() const { return nullptr; }
};

double WalkByHand(const FakeForest& forest) {
  int idx = forest.raw_roots()[0];                  // bad: layout assumption
  while (forest.raw_features()[idx] >= 0) {         // bad
    const float t = forest.raw_thresholds()[idx];   // bad
    idx = forest.raw_left()[idx] + (0.5f <= t ? 0 : 1);  // bad
  }
  return forest.raw_values()[idx];                  // bad
}

double PeekBlocked(const FakeForest& forest) {
  return forest.raw_leaves()[0];                    // bad
}
