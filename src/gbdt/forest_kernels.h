// Batch traversal kernels over the blocked forest layout.
//
// Both kernels walk BlockForest's implicit-heap node pools (see
// block_forest.h) for a batch of rows: per level they load the split
// feature and threshold at each row's current slot, compare, and step
// `idx = 2*idx + 1 + (went right)`.  After `depth` steps the index maps
// straight into the leaf array and the leaf value is accumulated as
// `out[r] += learning_rate * leaf` (separate multiply and add -- never a
// fused multiply-add -- so both flavors reproduce, bit for bit, the
// doubles of the trees' own walk: base score, then
// += learning_rate * RegressionTree::Predict per tree in boosting order).
//
// Comparison semantics, shared by both flavors: a row goes right iff
// !(value <= threshold).  The scalar kernel writes exactly that; AVX2
// uses _CMP_NLE_UQ, which is true for NaN (matching the scalar
// `!(NaN <= t)`) and false against the +inf pseudo-threshold of padded
// nodes.
//
// Addressing is strided: feature f of row r lives at
// data[r*row_stride + f*feat_stride], which serves row-major matrices
// (row_stride = num_features, feat_stride = 1) and column-major SoA
// batches (row_stride = 1, feat_stride = num_rows) with the same kernel.
//
// The AVX2 flavor exists only on x86; elsewhere it forwards to scalar
// (and the dispatcher never selects it).  Callers must respect its int32
// offset bound before invoking it.
#ifndef HORIZON_GBDT_FOREST_KERNELS_H_
#define HORIZON_GBDT_FOREST_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace horizon::gbdt::kernels {

/// Borrowed view of a float BlockForest.  `feat`/`thresh` hold
/// num_trees * ((1<<depth) - 1) level-order nodes; `leaves` holds
/// num_trees * (1<<depth) leaf outputs.
struct FloatForestSpan {
  const int32_t* feat = nullptr;
  const float* thresh = nullptr;
  const double* leaves = nullptr;
  size_t num_trees = 0;
  int depth = 0;  ///< internal levels per tree
  double base_score = 0.0;
  double learning_rate = 0.0;
};

// Each kernel writes out[r] = base_score + sum_t learning_rate *
// leaf_t(row r) for r in [0, num_rows).  Bit-identical across flavors.

/// Scalar flavor: one row at a time, walking 8 trees at a time as
/// independent dependency chains and then adding their leaves in tree
/// order (separate multiply and add), so it matches the AVX2 flavor bit
/// for bit.  The walk is compiled once per padded depth 0 ..
/// BlockForest::kMaxBlockedDepth, with its level loops unrolled, and
/// `f.depth` picks the instance; a deeper span is a contract violation
/// (HORIZON_CHECK).  Addresses with size_t, so any stride is safe.
void PredictFloatScalar(const FloatForestSpan& f, const float* data,
                        size_t num_rows, size_t row_stride, size_t feat_stride,
                        double* out);

/// Batches with fewer rows than this -- every single-id query -- take
/// PredictFloatScalar on every CPU: the AVX2 kernel vectorizes only whole
/// 32-row groups and sends smaller batches to the scalar walk itself.
/// Warm, BM_GbdtKernelRows in BENCH_gbdt.json reads the scalar walk ahead
/// at 32 and 64 rows too (6.6 against 7.7 us and 13.2 against 14.9 us on
/// a 4-vCPU Xeon, Release), but in bench_e2e AVX2 wins from here: with
/// the scalar walk pinned, live_mix read scan_p50_ms 9 % and
/// batch_query_p50_us 8 % slower, and query_zipf's 64-id batches 7 %
/// (10 alternating pairs each, 4-vCPU Xeon, Release).
inline constexpr size_t kSmallBatchRows = 32;

/// AVX2 flavor, four interleaved 8-row vectors (gather-throughput bound)
/// per 32-row group; the rows past the last group go to
/// PredictFloatScalar.  x86 only; callers must guarantee every element
/// offset r*row_stride + f*feat_stride fits in int32.
void PredictFloatAvx2(const FloatForestSpan& f, const float* data,
                      size_t num_rows, size_t row_stride, size_t feat_stride,
                      double* out);

}  // namespace horizon::gbdt::kernels

#endif  // HORIZON_GBDT_FOREST_KERNELS_H_
