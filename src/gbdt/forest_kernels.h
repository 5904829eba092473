// Batch traversal kernels over the blocked forest layout.
//
// Every kernel walks BlockForest's implicit-heap node pools (see
// block_forest.h) for a batch of rows: per level it loads the split
// feature and threshold at each row's current slot, compares, and steps
// `idx = 2*idx + 1 + (went right)`.  After `depth` steps the index maps
// straight into the leaf array and the leaf value is accumulated as
// `out[r] += learning_rate * leaf` (separate multiply and add -- never a
// fused multiply-add -- so every flavor reproduces FlatForest's doubles
// bit for bit).
//
// Comparison semantics, shared by every flavor: a row goes right iff
// !(value <= threshold).  The scalar kernel writes exactly that; SSE uses
// CMPNLEPS and AVX2 uses _CMP_NLE_UQ, both of which are true for NaN
// (matching the scalar `!(NaN <= t)`) and false against the +inf
// pseudo-threshold of padded nodes.
//
// The quantized kernels run the same traversal over uint16 histogram-bin
// codes with integer compares (right iff code > qthreshold); pseudo nodes
// carry qthreshold 0xFFFF, which no code exceeds (codes are capped at
// 0xFFFE), so padded levels still send every row left.
//
// Addressing is strided: feature f of row r lives at
// data[r*row_stride + f*feat_stride], which serves row-major matrices
// (row_stride = num_features, feat_stride = 1) and column-major SoA
// batches (row_stride = 1, feat_stride = num_rows) with the same kernel.
//
// SIMD flavors exist only on x86; elsewhere they forward to scalar (and
// the dispatcher never selects them).  Callers must respect the index
// bound noted on the span structs before invoking a SIMD flavor.
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

/// Borrowed view of a QuantizedForest: same shape with uint16 rank
/// thresholds.  `qthresh` must be padded with one trailing element so the
/// AVX2 32-bit gathers may overread 2 bytes past the last node.
struct QuantForestSpan {
  const int32_t* feat = nullptr;
  const uint16_t* qthresh = nullptr;
  const double* leaves = nullptr;
  size_t num_trees = 0;
  int depth = 0;
  double base_score = 0.0;
  double learning_rate = 0.0;
};

// --- Float kernels -------------------------------------------------------
// Each writes out[r] = base_score + sum_t learning_rate * leaf_t(row r)
// for r in [0, num_rows).  Bit-identical across flavors.

/// Scalar flavor: one row at a time, walking 8 trees at a time as
/// independent dependency chains and then adding their leaves in tree
/// order (separate multiply and add), so it matches the other flavors bit
/// for bit.  Addresses with size_t, so any stride is safe.
void PredictFloatScalar(const FloatForestSpan& f, const float* data,
                        size_t num_rows, size_t row_stride, size_t feat_stride,
                        double* out);

/// Batches with fewer rows than this -- every single-id query -- take
/// PredictFloatScalar under every flavor.  Below one 32-row group the AVX2
/// kernel runs only single 8-row vectors, each one serial gather chain,
/// and the SSE kernel trails the scalar walk at every size.  Per-row
/// medians of BM_GbdtKernelRows (BENCH_gbdt.json): AVX2 1.3-1.7 us under
/// 32 rows and ~0.4 us at 32 and 64; scalar 0.36-0.50 us; SSE ~1.0 us.
inline constexpr size_t kSmallBatchRows = 32;

/// SSE2 flavor, 4 rows per vector.  x86 only; callers must guarantee
/// every element offset r*row_stride + f*feat_stride fits in int32.
void PredictFloatSse(const FloatForestSpan& f, const float* data,
                     size_t num_rows, size_t row_stride, size_t feat_stride,
                     double* out);

/// AVX2 flavor, four interleaved 8-row vectors (gather-throughput bound).
/// Same int32 offset requirement as the SSE flavor.
void PredictFloatAvx2(const FloatForestSpan& f, const float* data,
                      size_t num_rows, size_t row_stride, size_t feat_stride,
                      double* out);

// --- Quantized kernels ---------------------------------------------------
// Identical contract over uint16 bin codes.  `codes` must be padded with
// one trailing element (AVX2 gathers load 4 bytes per lane).

void PredictQuantScalar(const QuantForestSpan& f, const uint16_t* codes,
                        size_t num_rows, size_t row_stride, size_t feat_stride,
                        double* out);

void PredictQuantSse(const QuantForestSpan& f, const uint16_t* codes,
                     size_t num_rows, size_t row_stride, size_t feat_stride,
                     double* out);

void PredictQuantAvx2(const QuantForestSpan& f, const uint16_t* codes,
                      size_t num_rows, size_t row_stride, size_t feat_stride,
                      double* out);

}  // namespace horizon::gbdt::kernels

#endif  // HORIZON_GBDT_FOREST_KERNELS_H_
