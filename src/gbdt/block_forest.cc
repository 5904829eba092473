#include "gbdt/block_forest.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "gbdt/forest_kernels.h"
#include "gbdt/simd_dispatch.h"
#include "obs/metrics.h"

namespace horizon::gbdt {

namespace {

/// Minimum rows per ParallelFor chunk (matches FlatForest::PredictBatch).
constexpr size_t kParallelGrain = 256;

}  // namespace

BlockForest BlockForest::Compile(const FlatForest& flat) {
  BlockForest out;
  if (!flat.compiled()) return out;

  const std::vector<int32_t>& feature = flat.raw_features();
  const std::vector<float>& threshold = flat.raw_thresholds();
  const std::vector<int32_t>& left = flat.raw_left();
  const std::vector<double>& value = flat.raw_values();
  const std::vector<int32_t>& roots = flat.raw_roots();

  // Pass 1: forest-wide padded depth = deepest leaf level of any tree.
  int depth = 0;
  {
    std::vector<std::pair<int32_t, int>> stack;  // (flat node, level)
    for (const int32_t root : roots) {
      stack.emplace_back(root, 0);
      while (!stack.empty()) {
        const auto [idx, level] = stack.back();
        stack.pop_back();
        if (feature[static_cast<size_t>(idx)] < 0) {
          depth = std::max(depth, level);
          continue;
        }
        if (level >= kMaxBlockedDepth) return out;  // uncompiled fallback
        const int32_t l = left[static_cast<size_t>(idx)];
        stack.emplace_back(l, level + 1);
        stack.emplace_back(l + 1, level + 1);
      }
    }
  }

  out.depth_ = depth;
  out.num_trees_ = roots.size();
  out.nodes_per_tree_ = (size_t{1} << depth) - 1;
  out.leaves_per_tree_ = size_t{1} << depth;
  out.base_score_ = flat.base_score();
  out.learning_rate_ = flat.learning_rate();
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
    int32_t* tf = out.feat_.data() + t * out.nodes_per_tree_;
    float* tt = out.thresh_.data() + t * out.nodes_per_tree_;
    double* tl = out.leaves_.data() + t * out.leaves_per_tree_;
    stack.push_back(Frame{roots[t], 0, 0});
    while (!stack.empty()) {
      const Frame fr = stack.back();
      stack.pop_back();
      const int32_t f = feature[static_cast<size_t>(fr.idx)];
      if (f < 0) {
        const double v = value[static_cast<size_t>(fr.idx)];
        const size_t lo = fr.pos << (depth - fr.level);
        const size_t hi = (fr.pos + 1) << (depth - fr.level);
        for (size_t p = lo; p < hi; ++p) tl[p] = v;
        continue;
      }
      const size_t slot = (size_t{1} << fr.level) - 1 + fr.pos;
      tf[slot] = f;
      tt[slot] = threshold[static_cast<size_t>(fr.idx)];
      out.max_feature_ = std::max(out.max_feature_, f);
      const int32_t l = left[static_cast<size_t>(fr.idx)];
      stack.push_back(Frame{l, fr.level + 1, 2 * fr.pos});
      stack.push_back(Frame{static_cast<int32_t>(l + 1), fr.level + 1,
                            2 * fr.pos + 1});
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
  // SIMD gathers address elements through int32 offsets; oversized
  // batches take the (size_t-addressed) scalar kernel instead, and so do
  // batches too small for the SIMD kernels to win.
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
    case SimdKernel::kSse:
      kernels::PredictFloatSse(span, data, num_rows, row_stride, feat_stride,
                               out);
      break;
    case SimdKernel::kScalar:
      kernels::PredictFloatScalar(span, data, num_rows, row_stride,
                                  feat_stride, out);
      break;
  }
}

std::vector<double> BlockForest::PredictBatch(const DataMatrix& x) const {
  // Same process-wide inference instruments as FlatForest::PredictBatch;
  // the two batch paths are alternatives behind GbdtRegressor.
  static obs::Histogram* const batch_latency =
      obs::MetricsRegistry::Global().GetHistogram(
          "horizon_gbdt_batch_inference_latency_seconds");
  static obs::Counter* const rows_scored =
      obs::MetricsRegistry::Global().GetCounter(
          "horizon_gbdt_rows_scored_total");
  const obs::ScopedTimer timer(batch_latency);
  rows_scored->Add(x.num_rows());
  std::vector<double> out(x.num_rows());
  if (x.num_rows() == 0) return out;
  const float* rows = x.Row(0);
  const size_t stride = x.num_features();
  ParallelFor(x.num_rows(), kParallelGrain, [&](size_t begin, size_t end) {
    PredictStrided(rows + begin * stride, end - begin, stride, 1,
                   out.data() + begin);
  });
  return out;
}

std::vector<double> BlockForest::PredictBatch(const ExampleBatch& x) const {
  static obs::Histogram* const batch_latency =
      obs::MetricsRegistry::Global().GetHistogram(
          "horizon_gbdt_batch_inference_latency_seconds");
  static obs::Counter* const rows_scored =
      obs::MetricsRegistry::Global().GetCounter(
          "horizon_gbdt_rows_scored_total");
  const obs::ScopedTimer timer(batch_latency);
  rows_scored->Add(x.num_rows());
  std::vector<double> out(x.num_rows());
  if (x.num_rows() == 0) return out;
  // Column-major SoA: row r starts at data()[r], features are
  // feature_stride() apart -- fed to the kernels with no transposition.
  const float* base = x.data();
  const size_t feat_stride = x.feature_stride();
  ParallelFor(x.num_rows(), kParallelGrain, [&](size_t begin, size_t end) {
    PredictStrided(base + begin, end - begin, 1, feat_stride,
                   out.data() + begin);
  });
  return out;
}

}  // namespace horizon::gbdt
