#include "gbdt/forest_kernels.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>

// The SIMD flavors are built only for x86-64, where SSE2 is part of the
// ABI baseline; the AVX2 flavor carries a target attribute so this
// translation unit still compiles without -mavx2 (the dispatcher makes
// sure it never runs on a CPU that lacks it).
#if defined(__x86_64__)
#define HORIZON_GBDT_X86 1
#include <immintrin.h>
#endif

namespace horizon::gbdt::kernels {

namespace {

/// Rows per accumulation block: one block's outputs stay in L1 while the
/// whole node pool streams past once per block (same blocking factor as
/// FlatForest::PredictRows).
constexpr size_t kBlockRows = 64;

/// One row through one tree; returns the absolute heap index of the leaf
/// level (caller subtracts nodes-per-tree).  Right iff !(v <= t): NaN
/// goes right, the +inf pseudo-threshold keeps every row left.
inline size_t TraverseFloat(const int32_t* tf, const float* tt, int depth,
                            const float* row, size_t feat_stride) {
  size_t idx = 0;
  for (int l = 0; l < depth; ++l) {
    const float v = row[static_cast<size_t>(tf[idx]) * feat_stride];
    idx = 2 * idx + 1 + (v <= tt[idx] ? size_t{0} : size_t{1});
  }
  return idx;
}

/// Quantized twin: right iff code > qthreshold.  Pseudo nodes carry
/// 0xFFFF and codes are capped at 0xFFFE, so padded levels go left.
inline size_t TraverseQuant(const int32_t* tf, const uint16_t* tq, int depth,
                            const uint16_t* row, size_t feat_stride) {
  size_t idx = 0;
  for (int l = 0; l < depth; ++l) {
    const uint16_t c = row[static_cast<size_t>(tf[idx]) * feat_stride];
    idx = 2 * idx + 1 + (c <= tq[idx] ? size_t{0} : size_t{1});
  }
  return idx;
}

/// Trees one row walks at a time in PredictFloatScalar.  A tree's levels
/// form one serial load->compare->index chain; eight chains keep the
/// loads of eight trees in flight together.
constexpr size_t kTreeLanes = 8;

}  // namespace

void PredictFloatScalar(const FloatForestSpan& f, const float* data,
                        size_t num_rows, size_t row_stride, size_t feat_stride,
                        double* out) {
  const size_t npt = (size_t{1} << f.depth) - 1;
  const size_t lpt = size_t{1} << f.depth;
  for (size_t r = 0; r < num_rows; ++r) {
    const float* row = data + r * row_stride;
    double acc = f.base_score;
    size_t t = 0;
    for (; t + kTreeLanes <= f.num_trees; t += kTreeLanes) {
      const int32_t* tf = f.feat + t * npt;
      const float* tt = f.thresh + t * npt;
      size_t idx[kTreeLanes] = {};
      for (int l = 0; l < f.depth; ++l) {
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
      const size_t leaf =
          TraverseFloat(f.feat + t * npt, f.thresh + t * npt, f.depth, row, feat_stride);
      acc += f.learning_rate * f.leaves[t * lpt + leaf - npt];
    }
    out[r] = acc;
  }
}

void PredictQuantScalar(const QuantForestSpan& f, const uint16_t* codes,
                        size_t num_rows, size_t row_stride, size_t feat_stride,
                        double* out) {
  const size_t npt = (size_t{1} << f.depth) - 1;
  const size_t lpt = size_t{1} << f.depth;
  for (size_t b = 0; b < num_rows; b += kBlockRows) {
    const size_t be = std::min(b + kBlockRows, num_rows);
    for (size_t r = b; r < be; ++r) out[r] = f.base_score;
    for (size_t t = 0; t < f.num_trees; ++t) {
      const int32_t* tf = f.feat + t * npt;
      const uint16_t* tq = f.qthresh + t * npt;
      const double* tl = f.leaves + t * lpt;
      for (size_t r = b; r < be; ++r) {
        const size_t leaf = TraverseQuant(tf, tq, f.depth,
                                          codes + r * row_stride, feat_stride);
        out[r] += f.learning_rate * tl[leaf - npt];
      }
    }
  }
}

#if HORIZON_GBDT_X86

// GCC's gather intrinsics expand through _mm256_undefined_pd(), whose
// deliberately uninitialized temporary trips -Wmaybe-uninitialized when
// inlined here; the mask operand is all-ones so every lane is written.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

void PredictFloatSse(const FloatForestSpan& f, const float* data,
                     size_t num_rows, size_t row_stride, size_t feat_stride,
                     double* out) {
  const size_t npt = (size_t{1} << f.depth) - 1;
  const size_t lpt = size_t{1} << f.depth;
  const __m128i vone = _mm_set1_epi32(1);
  for (size_t b = 0; b < num_rows; b += kBlockRows) {
    const size_t be = std::min(b + kBlockRows, num_rows);
    for (size_t r = b; r < be; ++r) out[r] = f.base_score;
    for (size_t t = 0; t < f.num_trees; ++t) {
      const int32_t* tf = f.feat + t * npt;
      const float* tt = f.thresh + t * npt;
      const double* tl = f.leaves + t * lpt;
      size_t r = b;
      for (; r + 4 <= be; r += 4) {
        const float* r0 = data + (r + 0) * row_stride;
        const float* r1 = data + (r + 1) * row_stride;
        const float* r2 = data + (r + 2) * row_stride;
        const float* r3 = data + (r + 3) * row_stride;
        __m128i idx = _mm_setzero_si128();
        alignas(16) int32_t ib[4];
        for (int l = 0; l < f.depth; ++l) {
          _mm_store_si128(reinterpret_cast<__m128i*>(ib), idx);
          const __m128 th =
              _mm_setr_ps(tt[ib[0]], tt[ib[1]], tt[ib[2]], tt[ib[3]]);
          const __m128 v = _mm_setr_ps(
              r0[static_cast<size_t>(tf[ib[0]]) * feat_stride],
              r1[static_cast<size_t>(tf[ib[1]]) * feat_stride],
              r2[static_cast<size_t>(tf[ib[2]]) * feat_stride],
              r3[static_cast<size_t>(tf[ib[3]]) * feat_stride]);
          // CMPNLEPS == !(v <= th): true for NaN, false against +inf.
          const __m128i right = _mm_srli_epi32(
              _mm_castps_si128(_mm_cmpnle_ps(v, th)), 31);
          idx = _mm_add_epi32(_mm_add_epi32(idx, idx),
                              _mm_add_epi32(vone, right));
        }
        _mm_store_si128(reinterpret_cast<__m128i*>(ib), idx);
        out[r + 0] += f.learning_rate * tl[static_cast<size_t>(ib[0]) - npt];
        out[r + 1] += f.learning_rate * tl[static_cast<size_t>(ib[1]) - npt];
        out[r + 2] += f.learning_rate * tl[static_cast<size_t>(ib[2]) - npt];
        out[r + 3] += f.learning_rate * tl[static_cast<size_t>(ib[3]) - npt];
      }
      for (; r < be; ++r) {
        const size_t leaf =
            TraverseFloat(tf, tt, f.depth, data + r * row_stride, feat_stride);
        out[r] += f.learning_rate * tl[leaf - npt];
      }
    }
  }
}

void PredictQuantSse(const QuantForestSpan& f, const uint16_t* codes,
                     size_t num_rows, size_t row_stride, size_t feat_stride,
                     double* out) {
  const size_t npt = (size_t{1} << f.depth) - 1;
  const size_t lpt = size_t{1} << f.depth;
  const __m128i vone = _mm_set1_epi32(1);
  for (size_t b = 0; b < num_rows; b += kBlockRows) {
    const size_t be = std::min(b + kBlockRows, num_rows);
    for (size_t r = b; r < be; ++r) out[r] = f.base_score;
    for (size_t t = 0; t < f.num_trees; ++t) {
      const int32_t* tf = f.feat + t * npt;
      const uint16_t* tq = f.qthresh + t * npt;
      const double* tl = f.leaves + t * lpt;
      size_t r = b;
      for (; r + 4 <= be; r += 4) {
        const uint16_t* r0 = codes + (r + 0) * row_stride;
        const uint16_t* r1 = codes + (r + 1) * row_stride;
        const uint16_t* r2 = codes + (r + 2) * row_stride;
        const uint16_t* r3 = codes + (r + 3) * row_stride;
        __m128i idx = _mm_setzero_si128();
        alignas(16) int32_t ib[4];
        for (int l = 0; l < f.depth; ++l) {
          _mm_store_si128(reinterpret_cast<__m128i*>(ib), idx);
          const __m128i q =
              _mm_setr_epi32(tq[ib[0]], tq[ib[1]], tq[ib[2]], tq[ib[3]]);
          const __m128i c = _mm_setr_epi32(
              r0[static_cast<size_t>(tf[ib[0]]) * feat_stride],
              r1[static_cast<size_t>(tf[ib[1]]) * feat_stride],
              r2[static_cast<size_t>(tf[ib[2]]) * feat_stride],
              r3[static_cast<size_t>(tf[ib[3]]) * feat_stride]);
          // Values fit in 16 bits, so the signed compare is exact.
          const __m128i right = _mm_srli_epi32(_mm_cmpgt_epi32(c, q), 31);
          idx = _mm_add_epi32(_mm_add_epi32(idx, idx),
                              _mm_add_epi32(vone, right));
        }
        _mm_store_si128(reinterpret_cast<__m128i*>(ib), idx);
        out[r + 0] += f.learning_rate * tl[static_cast<size_t>(ib[0]) - npt];
        out[r + 1] += f.learning_rate * tl[static_cast<size_t>(ib[1]) - npt];
        out[r + 2] += f.learning_rate * tl[static_cast<size_t>(ib[2]) - npt];
        out[r + 3] += f.learning_rate * tl[static_cast<size_t>(ib[3]) - npt];
      }
      for (; r < be; ++r) {
        const size_t leaf = TraverseQuant(tf, tq, f.depth,
                                          codes + r * row_stride, feat_stride);
        out[r] += f.learning_rate * tl[leaf - npt];
      }
    }
  }
}

__attribute__((target("avx2"))) void PredictFloatAvx2(
    const FloatForestSpan& f, const float* data, size_t num_rows,
    size_t row_stride, size_t feat_stride, double* out) {
  const size_t npt = (size_t{1} << f.depth) - 1;
  const size_t lpt = size_t{1} << f.depth;
  const __m256i vone = _mm256_set1_epi32(1);
  const __m256i vfs = _mm256_set1_epi32(static_cast<int>(feat_stride));
  const __m256i vnpt = _mm256_set1_epi32(static_cast<int>(npt));
  const __m256d vlr = _mm256_set1_pd(f.learning_rate);
  for (size_t b = 0; b < num_rows; b += kBlockRows) {
    const size_t be = std::min(b + kBlockRows, num_rows);
    for (size_t r = b; r < be; ++r) out[r] = f.base_score;
    alignas(32) int32_t rowoff[kBlockRows];
    for (size_t r = b; r < be; ++r) {
      rowoff[r - b] = static_cast<int32_t>(r * row_stride);
    }
    for (size_t t = 0; t < f.num_trees; ++t) {
      const int32_t* tf = f.feat + t * npt;
      const float* tt = f.thresh + t * npt;
      const double* tl = f.leaves + t * lpt;
      size_t r = b;
      // Four interleaved 8-row vectors keep 32 independent gather chains
      // in flight: each level is a serial gather->gather dependency per
      // chain, so the interleave is what moves the walk from gather
      // latency to gather throughput.  Depth-0 trees (single leaf, empty
      // node array) skip straight to the narrow loops below.
      if (f.depth > 0) {
        // Every lane starts at the root, so level 0 needs no node
        // gathers: feature and threshold are broadcast once per tree.
        const __m256i f0 = _mm256_set1_epi32(tf[0]);
        const __m256 t0 = _mm256_set1_ps(tt[0]);
        for (; r + 32 <= be; r += 32) {
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
      for (; r + 8 <= be; r += 8) {
        const __m256i ro = _mm256_load_si256(
            reinterpret_cast<const __m256i*>(rowoff + (r - b)));
        __m256i idx = _mm256_setzero_si256();
        for (int l = 0; l < f.depth; ++l) {
          const __m256i fv = _mm256_i32gather_epi32(tf, idx, 4);
          const __m256 th = _mm256_i32gather_ps(tt, idx, 4);
          const __m256i ad =
              _mm256_add_epi32(ro, _mm256_mullo_epi32(fv, vfs));
          const __m256 v = _mm256_i32gather_ps(data, ad, 4);
          const __m256i right = _mm256_srli_epi32(
              _mm256_castps_si256(_mm256_cmp_ps(v, th, _CMP_NLE_UQ)), 31);
          idx = _mm256_add_epi32(_mm256_add_epi32(idx, idx),
                                 _mm256_add_epi32(vone, right));
        }
        const __m256i lf = _mm256_sub_epi32(idx, vnpt);
        const __m256d v0 =
            _mm256_i32gather_pd(tl, _mm256_castsi256_si128(lf), 8);
        const __m256d v1 =
            _mm256_i32gather_pd(tl, _mm256_extracti128_si256(lf, 1), 8);
        _mm256_storeu_pd(out + r, _mm256_add_pd(_mm256_loadu_pd(out + r),
                                                _mm256_mul_pd(v0, vlr)));
        _mm256_storeu_pd(out + r + 4,
                         _mm256_add_pd(_mm256_loadu_pd(out + r + 4),
                                       _mm256_mul_pd(v1, vlr)));
      }
      for (; r < be; ++r) {
        const size_t leaf =
            TraverseFloat(tf, tt, f.depth, data + r * row_stride, feat_stride);
        out[r] += f.learning_rate * tl[leaf - npt];
      }
    }
  }
}

__attribute__((target("avx2"))) void PredictQuantAvx2(
    const QuantForestSpan& f, const uint16_t* codes, size_t num_rows,
    size_t row_stride, size_t feat_stride, double* out) {
  const size_t npt = (size_t{1} << f.depth) - 1;
  const size_t lpt = size_t{1} << f.depth;
  const __m256i vone = _mm256_set1_epi32(1);
  const __m256i vfs = _mm256_set1_epi32(static_cast<int>(feat_stride));
  const __m256i vnpt = _mm256_set1_epi32(static_cast<int>(npt));
  const __m256i vmask16 = _mm256_set1_epi32(0xFFFF);
  const __m256d vlr = _mm256_set1_pd(f.learning_rate);
  // uint16 arrays are gathered 4 bytes per lane at scale 2; the spans
  // guarantee one element of tail padding, so the overread stays in
  // bounds and the high half is masked off.
  const int* qbase = reinterpret_cast<const int*>(f.qthresh);
  const int* cbase = reinterpret_cast<const int*>(codes);
  for (size_t b = 0; b < num_rows; b += kBlockRows) {
    const size_t be = std::min(b + kBlockRows, num_rows);
    for (size_t r = b; r < be; ++r) out[r] = f.base_score;
    alignas(32) int32_t rowoff[kBlockRows];
    for (size_t r = b; r < be; ++r) {
      rowoff[r - b] = static_cast<int32_t>(r * row_stride);
    }
    for (size_t t = 0; t < f.num_trees; ++t) {
      const int32_t* tf = f.feat + t * npt;
      const uint16_t* tq = f.qthresh + t * npt;
      const double* tl = f.leaves + t * lpt;
      const __m256i vtq0 = _mm256_set1_epi32(static_cast<int>(t * npt));
      size_t r = b;
      // Same shape as the float kernel: 4-vector interleave with the
      // root split broadcast; depth-0 trees skip to the scalar tail.
      if (f.depth > 0) {
        const __m256i f0 = _mm256_set1_epi32(tf[0]);
        const __m256i q0 = _mm256_set1_epi32(tq[0]);
        for (; r + 32 <= be; r += 32) {
          __m256i ro[4];
          __m256i idx[4];
          for (int k = 0; k < 4; ++k) {
            ro[k] = _mm256_load_si256(
                reinterpret_cast<const __m256i*>(rowoff + (r - b) + 8 * k));
          }
          for (int k = 0; k < 4; ++k) {
            const __m256i ad =
                _mm256_add_epi32(ro[k], _mm256_mullo_epi32(f0, vfs));
            const __m256i c = _mm256_and_si256(
                _mm256_i32gather_epi32(cbase, ad, 2), vmask16);
            const __m256i right =
                _mm256_srli_epi32(_mm256_cmpgt_epi32(c, q0), 31);
            idx[k] = _mm256_add_epi32(vone, right);
          }
          for (int l = 1; l < f.depth; ++l) {
            __m256i fv[4];
            __m256i qv[4];
            __m256i cv[4];
            for (int k = 0; k < 4; ++k) {
              fv[k] = _mm256_i32gather_epi32(tf, idx[k], 4);
            }
            for (int k = 0; k < 4; ++k) {
              qv[k] = _mm256_and_si256(
                  _mm256_i32gather_epi32(qbase,
                                         _mm256_add_epi32(vtq0, idx[k]), 2),
                  vmask16);
            }
            for (int k = 0; k < 4; ++k) {
              const __m256i ad =
                  _mm256_add_epi32(ro[k], _mm256_mullo_epi32(fv[k], vfs));
              cv[k] = _mm256_and_si256(_mm256_i32gather_epi32(cbase, ad, 2),
                                       vmask16);
            }
            for (int k = 0; k < 4; ++k) {
              const __m256i right =
                  _mm256_srli_epi32(_mm256_cmpgt_epi32(cv[k], qv[k]), 31);
              idx[k] = _mm256_add_epi32(_mm256_add_epi32(idx[k], idx[k]),
                                        _mm256_add_epi32(vone, right));
            }
          }
          for (int k = 0; k < 4; ++k) {
            const __m256i lf = _mm256_sub_epi32(idx[k], vnpt);
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
      for (; r < be; ++r) {
        const size_t leaf = TraverseQuant(tf, tq, f.depth,
                                          codes + r * row_stride, feat_stride);
        out[r] += f.learning_rate * tl[leaf - npt];
      }
    }
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#else  // !HORIZON_GBDT_X86

// Non-x86 builds keep the symbols (the dispatcher never selects them).
void PredictFloatSse(const FloatForestSpan& f, const float* data,
                     size_t num_rows, size_t row_stride, size_t feat_stride,
                     double* out) {
  PredictFloatScalar(f, data, num_rows, row_stride, feat_stride, out);
}

void PredictFloatAvx2(const FloatForestSpan& f, const float* data,
                      size_t num_rows, size_t row_stride, size_t feat_stride,
                      double* out) {
  PredictFloatScalar(f, data, num_rows, row_stride, feat_stride, out);
}

void PredictQuantSse(const QuantForestSpan& f, const uint16_t* codes,
                     size_t num_rows, size_t row_stride, size_t feat_stride,
                     double* out) {
  PredictQuantScalar(f, codes, num_rows, row_stride, feat_stride, out);
}

void PredictQuantAvx2(const QuantForestSpan& f, const uint16_t* codes,
                      size_t num_rows, size_t row_stride, size_t feat_stride,
                      double* out) {
  PredictQuantScalar(f, codes, num_rows, row_stride, feat_stride, out);
}

#endif  // HORIZON_GBDT_X86

}  // namespace horizon::gbdt::kernels
