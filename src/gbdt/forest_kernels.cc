#include "gbdt/forest_kernels.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/check.h"
#include "gbdt/block_forest.h"

// The AVX2 flavor is built only for x86-64 and carries a target
// attribute, so this translation unit still compiles without -mavx2 (the
// dispatcher makes sure it never runs on a CPU that lacks it).
#if defined(__x86_64__)
#define HORIZON_GBDT_X86 1
#include <immintrin.h>
#endif

namespace horizon::gbdt::kernels {

namespace {

/// Rows per accumulation block of the AVX2 kernel: one block's outputs
/// stay in L1 while the whole node pool streams past once per block.
constexpr size_t kBlockRows = 64;

/// Trees one row walks at a time in the scalar walk.  A tree's levels
/// form one serial load->compare->index chain; eight chains keep the
/// loads of eight trees in flight together.
constexpr size_t kTreeLanes = 8;

/// The scalar walk of a forest padded to `kDepth` levels.  The depth is a
/// compile-time constant, so the level loops unroll and every node offset
/// is an immediate.  Right iff !(v <= t): NaN goes right, the +inf
/// pseudo-threshold keeps every row left.
template <int kDepth>
void PredictFloatScalarAtDepth(const FloatForestSpan& f, const float* data,
                               size_t num_rows, size_t row_stride,
                               size_t feat_stride, double* out) {
  constexpr size_t npt = (size_t{1} << kDepth) - 1;
  constexpr size_t lpt = size_t{1} << kDepth;
  for (size_t r = 0; r < num_rows; ++r) {
    const float* row = data + r * row_stride;
    double acc = f.base_score;
    size_t t = 0;
    for (; t + kTreeLanes <= f.num_trees; t += kTreeLanes) {
      const int32_t* tf = f.feat + t * npt;
      const float* tt = f.thresh + t * npt;
      size_t idx[kTreeLanes] = {};
      for (int l = 0; l < kDepth; ++l) {
        for (size_t k = 0; k < kTreeLanes; ++k) {
          const size_t node = k * npt + idx[k];
          const float v = row[static_cast<size_t>(tf[node]) * feat_stride];
          idx[k] = 2 * idx[k] + 1 + (v <= tt[node] ? size_t{0} : size_t{1});
        }
      }
      // Same accumulation order as the other flavors: trees ascending.
      const double* tl = f.leaves + t * lpt;
      for (size_t k = 0; k < kTreeLanes; ++k) {
        acc += f.learning_rate * tl[k * lpt + idx[k] - npt];
      }
    }
    for (; t < f.num_trees; ++t) {
      const int32_t* tf = f.feat + t * npt;
      const float* tt = f.thresh + t * npt;
      size_t idx = 0;
      for (int l = 0; l < kDepth; ++l) {
        const float v = row[static_cast<size_t>(tf[idx]) * feat_stride];
        idx = 2 * idx + 1 + (v <= tt[idx] ? size_t{0} : size_t{1});
      }
      acc += f.learning_rate * f.leaves[t * lpt + idx - npt];
    }
    out[r] = acc;
  }
}

using ScalarWalk = void (*)(const FloatForestSpan&, const float*, size_t,
                            size_t, size_t, double*);

template <int... kDepths>
constexpr std::array<ScalarWalk, sizeof...(kDepths)> MakeScalarWalks(
    std::integer_sequence<int, kDepths...>) {
  return {&PredictFloatScalarAtDepth<kDepths>...};
}

/// One instance per padded depth a BlockForest can have, indexed by it.
constexpr auto kScalarWalks = MakeScalarWalks(
    std::make_integer_sequence<int, BlockForest::kMaxBlockedDepth + 1>());

}  // namespace

void PredictFloatScalar(const FloatForestSpan& f, const float* data,
                        size_t num_rows, size_t row_stride, size_t feat_stride,
                        double* out) {
  HORIZON_CHECK(f.depth >= 0 && f.depth <= BlockForest::kMaxBlockedDepth);
  kScalarWalks[static_cast<size_t>(f.depth)](f, data, num_rows, row_stride,
                                             feat_stride, out);
}

#if HORIZON_GBDT_X86

// GCC's gather intrinsics expand through _mm256_undefined_pd(), whose
// deliberately uninitialized temporary trips -Wmaybe-uninitialized when
// inlined here; the mask operand is all-ones so every lane is written.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

__attribute__((target("avx2"))) void PredictFloatAvx2(
    const FloatForestSpan& f, const float* data, size_t num_rows,
    size_t row_stride, size_t feat_stride, double* out) {
  // Rows past the last 32-row group, and every row of a depth-0 forest,
  // take the scalar walk at the end: a lone 8-row vector is one serial
  // gather chain, slower per row than PredictFloatScalar
  // (BM_GbdtKernelRows).  Each row accumulates its trees in the same order
  // either way.
  constexpr size_t kGroupRows = 32;
  static_assert(kBlockRows % kGroupRows == 0, "blocks hold whole groups");
  const size_t grouped = f.depth > 0 ? num_rows / kGroupRows * kGroupRows : 0;
  const size_t npt = (size_t{1} << f.depth) - 1;
  const size_t lpt = size_t{1} << f.depth;
  const __m256i vone = _mm256_set1_epi32(1);
  const __m256i vfs = _mm256_set1_epi32(static_cast<int>(feat_stride));
  const __m256i vnpt = _mm256_set1_epi32(static_cast<int>(npt));
  const __m256d vlr = _mm256_set1_pd(f.learning_rate);
  for (size_t b = 0; b < grouped; b += kBlockRows) {
    const size_t be = std::min(b + kBlockRows, grouped);
    for (size_t r = b; r < be; ++r) out[r] = f.base_score;
    alignas(32) int32_t rowoff[kBlockRows];
    for (size_t r = b; r < be; ++r) {
      rowoff[r - b] = static_cast<int32_t>(r * row_stride);
    }
    for (size_t t = 0; t < f.num_trees; ++t) {
      const int32_t* tf = f.feat + t * npt;
      const float* tt = f.thresh + t * npt;
      const double* tl = f.leaves + t * lpt;
      // Four interleaved 8-row vectors keep 32 independent gather chains
      // in flight: each level is a serial gather->gather dependency per
      // chain, so the interleave is what moves the walk from gather
      // latency to gather throughput.  Every lane starts at the root, so
      // level 0 needs no node gathers: feature and threshold are
      // broadcast once per tree.
      const __m256i f0 = _mm256_set1_epi32(tf[0]);
      const __m256 t0 = _mm256_set1_ps(tt[0]);
      for (size_t r = b; r < be; r += kGroupRows) {
        __m256i ro[4];
        __m256i idx[4];
        for (int k = 0; k < 4; ++k) {
          ro[k] = _mm256_load_si256(
              reinterpret_cast<const __m256i*>(rowoff + (r - b) + 8 * k));
        }
        // Peeled level 0 against the broadcast root split.
        for (int k = 0; k < 4; ++k) {
          const __m256i ad =
              _mm256_add_epi32(ro[k], _mm256_mullo_epi32(f0, vfs));
          const __m256 v = _mm256_i32gather_ps(data, ad, 4);
          // NLE_UQ == !(v <= t): true for NaN, false against +inf --
          // identical to the scalar predicate.
          const __m256i right = _mm256_srli_epi32(
              _mm256_castps_si256(_mm256_cmp_ps(v, t0, _CMP_NLE_UQ)), 31);
          idx[k] = _mm256_add_epi32(vone, right);
        }
        for (int l = 1; l < f.depth; ++l) {
          __m256i fv[4];
          __m256 th[4];
          __m256 v[4];
          for (int k = 0; k < 4; ++k) {
            fv[k] = _mm256_i32gather_epi32(tf, idx[k], 4);
          }
          for (int k = 0; k < 4; ++k) {
            th[k] = _mm256_i32gather_ps(tt, idx[k], 4);
          }
          for (int k = 0; k < 4; ++k) {
            const __m256i ad =
                _mm256_add_epi32(ro[k], _mm256_mullo_epi32(fv[k], vfs));
            v[k] = _mm256_i32gather_ps(data, ad, 4);
          }
          for (int k = 0; k < 4; ++k) {
            const __m256i right = _mm256_srli_epi32(
                _mm256_castps_si256(_mm256_cmp_ps(v[k], th[k], _CMP_NLE_UQ)),
                31);
            idx[k] = _mm256_add_epi32(_mm256_add_epi32(idx[k], idx[k]),
                                      _mm256_add_epi32(vone, right));
          }
        }
        for (int k = 0; k < 4; ++k) {
          const __m256i lf = _mm256_sub_epi32(idx[k], vnpt);
          // Separate multiply and add (never FMA) so doubles match the
          // scalar reference bit for bit.
          const __m256d v0 =
              _mm256_i32gather_pd(tl, _mm256_castsi256_si128(lf), 8);
          const __m256d v1 =
              _mm256_i32gather_pd(tl, _mm256_extracti128_si256(lf, 1), 8);
          _mm256_storeu_pd(out + r + 8 * k,
                           _mm256_add_pd(_mm256_loadu_pd(out + r + 8 * k),
                                         _mm256_mul_pd(v0, vlr)));
          _mm256_storeu_pd(
              out + r + 8 * k + 4,
              _mm256_add_pd(_mm256_loadu_pd(out + r + 8 * k + 4),
                            _mm256_mul_pd(v1, vlr)));
        }
      }
    }
  }
  // The scalar walk is SSE-encoded; entered with dirty upper YMM halves,
  // its instructions pay a transition penalty (BM_GbdtKernelRows/2/1 read
  // ~0.75 us that way against ~0.5 us clean).
  _mm256_zeroupper();
  PredictFloatScalar(f, data + grouped * row_stride, num_rows - grouped,
                     row_stride, feat_stride, out + grouped);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#else  // !HORIZON_GBDT_X86

// Non-x86 builds keep the symbol (the dispatcher never selects it).
void PredictFloatAvx2(const FloatForestSpan& f, const float* data,
                      size_t num_rows, size_t row_stride, size_t feat_stride,
                      double* out) {
  PredictFloatScalar(f, data, num_rows, row_stride, feat_stride, out);
}

#endif  // HORIZON_GBDT_X86

}  // namespace horizon::gbdt::kernels
