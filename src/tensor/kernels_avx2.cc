// AVX2/FMA micro-kernels. Every vector function carries a per-function
// target attribute instead of building the TU with -mavx2: nothing outside
// these bodies (notably inlined std:: templates, which the linker picks one
// copy of across TUs) may ever contain AVX2 instructions, so a scalar-tier
// run on a non-AVX2 CPU can safely link this file. Callers reach these only
// through the simd::ActiveTier() dispatch in kernels.cc.
#include "src/tensor/kernels_internal.h"

#include <limits>

#include "src/util/check.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define EDSR_HAVE_AVX2_KERNELS 1
#include <immintrin.h>
#else
#define EDSR_HAVE_AVX2_KERNELS 0
#endif

namespace edsr::tensor::simd::internal {
bool Avx2KernelsCompiled() { return EDSR_HAVE_AVX2_KERNELS != 0; }
}  // namespace edsr::tensor::simd::internal

namespace edsr::tensor::kernels::avx2 {

#if EDSR_HAVE_AVX2_KERNELS

#define EDSR_AVX2 __attribute__((target("avx2,fma")))

namespace {

// AVX2 micro-tile: 6 rows x 16 columns = 12 accumulator YMM registers,
// plus one broadcast register and two B-panel loads — 15 of 16 YMM regs,
// the classic Haswell-era FMA tile. Cache blocks follow the scalar
// engine's budget: the A pack (96 x 256 floats, 96 KiB) stays L2-resident,
// the B panel (256 x 16 floats, 16 KiB) L1-resident across the ip loop.
constexpr int64_t kMr = 6;
constexpr int64_t kNr = 16;
constexpr int64_t kMc = 96;   // multiple of kMr
constexpr int64_t kKc = 256;
constexpr int64_t kNc = 512;  // multiple of kNr

// C(mr_eff x nr_eff) += op(A) block * op(B) block over depth kc. Element
// (ir, p) of the A block is a[ir * a_rs + p * a_cs] and row p of the B block
// is the kNr floats at b + p * b_rs: a packed A panel is the strides
// (1, kMr), a packed B panel b_rs = kNr, and the unpacked path passes the
// operands' own strides. Rows past mr_eff re-read row mr_eff - 1 (clamped,
// so no load leaves the operand) and are never written back; columns past
// nr_eff come from the zero-padded B pack (the unpacked path only runs full
// panels). The 12 accumulators are named (not an array): GCC does not
// scalarize a runtime-indexed __m256 array, which would spill every FMA to
// the stack. Each element is one FMA chain from zero in p order, added once
// into C.
EDSR_AVX2 void MicroKernel6x16(int64_t kc, const float* a, int64_t a_rs,
                               int64_t a_cs, const float* b, int64_t b_rs,
                               int64_t mr_eff, int64_t nr_eff, float* c,
                               int64_t ldc) {
  auto row = [&](int64_t ir) {
    return a + (ir < mr_eff ? ir : mr_eff - 1) * a_rs;
  };
  const float* a0 = row(0);
  const float* a1 = row(1);
  const float* a2 = row(2);
  const float* a3 = row(3);
  const float* a4 = row(4);
  const float* a5 = row(5);
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
  __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
  __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();
  for (int64_t p = 0; p < kc; ++p) {
    __m256 b0 = _mm256_loadu_ps(b + p * b_rs);
    __m256 b1 = _mm256_loadu_ps(b + p * b_rs + 8);
    int64_t ap = p * a_cs;
    __m256 av = _mm256_broadcast_ss(a0 + ap);
    c00 = _mm256_fmadd_ps(av, b0, c00);
    c01 = _mm256_fmadd_ps(av, b1, c01);
    av = _mm256_broadcast_ss(a1 + ap);
    c10 = _mm256_fmadd_ps(av, b0, c10);
    c11 = _mm256_fmadd_ps(av, b1, c11);
    av = _mm256_broadcast_ss(a2 + ap);
    c20 = _mm256_fmadd_ps(av, b0, c20);
    c21 = _mm256_fmadd_ps(av, b1, c21);
    av = _mm256_broadcast_ss(a3 + ap);
    c30 = _mm256_fmadd_ps(av, b0, c30);
    c31 = _mm256_fmadd_ps(av, b1, c31);
    av = _mm256_broadcast_ss(a4 + ap);
    c40 = _mm256_fmadd_ps(av, b0, c40);
    c41 = _mm256_fmadd_ps(av, b1, c41);
    av = _mm256_broadcast_ss(a5 + ap);
    c50 = _mm256_fmadd_ps(av, b0, c50);
    c51 = _mm256_fmadd_ps(av, b1, c51);
  }
  alignas(32) float tmp[kMr * kNr];
  _mm256_store_ps(tmp + 0 * kNr, c00);
  _mm256_store_ps(tmp + 0 * kNr + 8, c01);
  _mm256_store_ps(tmp + 1 * kNr, c10);
  _mm256_store_ps(tmp + 1 * kNr + 8, c11);
  _mm256_store_ps(tmp + 2 * kNr, c20);
  _mm256_store_ps(tmp + 2 * kNr + 8, c21);
  _mm256_store_ps(tmp + 3 * kNr, c30);
  _mm256_store_ps(tmp + 3 * kNr + 8, c31);
  _mm256_store_ps(tmp + 4 * kNr, c40);
  _mm256_store_ps(tmp + 4 * kNr + 8, c41);
  _mm256_store_ps(tmp + 5 * kNr, c50);
  _mm256_store_ps(tmp + 5 * kNr + 8, c51);
  if (mr_eff == kMr && nr_eff == kNr) {
    for (int64_t ir = 0; ir < kMr; ++ir) {
      float* crow = c + ir * ldc;
      _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow),
                                           _mm256_load_ps(tmp + ir * kNr)));
      _mm256_storeu_ps(crow + 8,
                       _mm256_add_ps(_mm256_loadu_ps(crow + 8),
                                     _mm256_load_ps(tmp + ir * kNr + 8)));
    }
  } else {
    for (int64_t ir = 0; ir < mr_eff; ++ir) {
      float* crow = c + ir * ldc;
      for (int64_t jr = 0; jr < nr_eff; ++jr) crow[jr] += tmp[ir * kNr + jr];
    }
  }
}

// Sums the four lanes of a double accumulator.
EDSR_AVX2 double HSum(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(lo) + _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo));
}

// Sums the eight int32 lanes.
EDSR_AVX2 int32_t HSumI32(__m256i v) {
  __m128i lo = _mm256_castsi256_si128(v);
  __m128i hi = _mm256_extracti128_si256(v, 1);
  lo = _mm_add_epi32(lo, hi);
  lo = _mm_add_epi32(lo, _mm_shuffle_epi32(lo, _MM_SHUFFLE(1, 0, 3, 2)));
  lo = _mm_add_epi32(lo, _mm_shuffle_epi32(lo, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(lo);
}

}  // namespace

void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, bool trans_a, bool trans_b) {
  // Small products with row-contiguous op(B) skip packing: the tile reads
  // the operands in place. That needs full 16-column panels, and a depth
  // within one kKc block, so each element is the same single FMA chain
  // added once into C that the packed path computes (the two paths are
  // bitwise equal). The size bound is one packed (kMc x kNc) block of C,
  // where copying the operands costs about as much as multiplying them.
  if (!trans_b && k <= kKc && n % kNr == 0 && m * n <= kMc * kNc) {
    int64_t a_rs = trans_a ? 1 : k;
    int64_t a_cs = trans_a ? m : 1;
    // Row blocks of kMc as in the packed driver: disjoint C rows, so the
    // split is exact at every thread count.
    util::ParallelFor(0, (m + kMc - 1) / kMc, /*grain=*/1,
                      [&](int64_t blk0, int64_t blk1) {
                        int64_t i1 = std::min(m, blk1 * kMc);
                        for (int64_t jp = 0; jp < n; jp += kNr) {
                          for (int64_t i = blk0 * kMc; i < i1; i += kMr) {
                            MicroKernel6x16(k, a + i * a_rs, a_rs, a_cs,
                                            b + jp, n,
                                            std::min(kMr, i1 - i), kNr,
                                            c + i * n + jp, n);
                          }
                        }
                      });
    return;
  }
  internal::GemmBlockedDriver<kMr, kNr, kMc, kKc, kNc>(
      a, b, c, m, k, n, trans_a, trans_b,
      [](int64_t kc, const float* ap, const float* bp, int64_t mr_eff,
         int64_t nr_eff, float* c_tile, int64_t ldc) {
        MicroKernel6x16(kc, ap, 1, kMr, bp, kNr, mr_eff, nr_eff, c_tile,
                        ldc);
      });
}

EDSR_AVX2 void Axpy(int64_t n, float alpha, const float* x, float* y) {
  __m256 av = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

EDSR_AVX2 void Scale(int64_t n, float alpha, float* x) {
  __m256 av = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(av, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

EDSR_AVX2 void AddScalar(int64_t n, float value, float* dst) {
  __m256 vv = _mm256_set1_ps(value);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_add_ps(vv, _mm256_loadu_ps(dst + i)));
  }
  for (; i < n; ++i) dst[i] += value;
}

EDSR_AVX2 void EmaUpdate(int64_t n, float tau, const float* online,
                         float* target) {
  __m256 tv = _mm256_set1_ps(tau);
  __m256 ov = _mm256_set1_ps(1.0f - tau);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 t = _mm256_loadu_ps(target + i);
    __m256 o = _mm256_loadu_ps(online + i);
    _mm256_storeu_ps(target + i,
                     _mm256_fmadd_ps(tv, t, _mm256_mul_ps(ov, o)));
  }
  for (; i < n; ++i) {
    target[i] = tau * target[i] + (1.0f - tau) * online[i];
  }
}

// The reductions keep the scalar contract of double accumulation: each
// 8-float chunk is widened to two 4-double vectors before accumulating, so
// only the association order differs from the scalar tier (4 partial sums
// per lane group), never the accumulator precision.
EDSR_AVX2 double SumAll(int64_t n, const float* x) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_loadu_ps(x + i);
    acc0 = _mm256_add_pd(acc0, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
    acc1 = _mm256_add_pd(acc1,
                         _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
  }
  double total = HSum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) total += x[i];
  return total;
}

EDSR_AVX2 double SumSquares(int64_t n, const float* x) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_loadu_ps(x + i);
    __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
    __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
    acc0 = _mm256_fmadd_pd(lo, lo, acc0);
    acc1 = _mm256_fmadd_pd(hi, hi, acc1);
  }
  double total = HSum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) total += static_cast<double>(x[i]) * x[i];
  return total;
}

EDSR_AVX2 double Dot(int64_t n, const float* x, const float* y) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 xv = _mm256_loadu_ps(x + i);
    __m256 yv = _mm256_loadu_ps(y + i);
    acc0 = _mm256_fmadd_pd(
        _mm256_cvtps_pd(_mm256_castps256_ps128(xv)),
        _mm256_cvtps_pd(_mm256_castps256_ps128(yv)), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(xv, 1)),
                           _mm256_cvtps_pd(_mm256_extractf128_ps(yv, 1)),
                           acc1);
  }
  double total = HSum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) total += static_cast<double>(x[i]) * y[i];
  return total;
}

EDSR_AVX2 void PairwiseCombine(int64_t m, float ni, const float* nb,
                               float* out) {
  __m256 niv = _mm256_set1_ps(ni);
  __m256 two = _mm256_set1_ps(2.0f);
  __m256 zero = _mm256_setzero_ps();
  int64_t j = 0;
  for (; j + 8 <= m; j += 8) {
    __m256 v = _mm256_fnmadd_ps(two, _mm256_loadu_ps(out + j),
                                _mm256_add_ps(niv, _mm256_loadu_ps(nb + j)));
    // max_ps returns its second operand when either is NaN: zero here, as
    // the scalar std::max(0.0f, v) and the tail below give.
    _mm256_storeu_ps(out + j, _mm256_max_ps(v, zero));
  }
  for (; j < m; ++j) {
    float v = ni + nb[j] - 2.0f * out[j];
    out[j] = v > 0.0f ? v : 0.0f;
  }
}

// Pass 1 takes the max of each full 32-wide chunk, ignoring NaNs. The k
// chunks with the largest maxes hold k distinct entries >= the k-th largest
// max, so no entry below that bound can make the list. When the bound is
// -inf (or there are fewer than k chunks) it rules nothing out, since a NaN
// may be needed to fill the list, and every lane is offered until it fills.
// Pass 2 offers, in index order, only the lanes of each 8-wide block that
// reach the bound while the list fills, and after that only those that
// beat the current k-th value (or, while that is a NaN, every number). Each
// skipped entry has k entries ranked above it, so the offered entries
// contain the final list and TopKOffer over them ends on the same list as
// the scalar tier's single pass.
EDSR_AVX2 void TopK(const float* x, int64_t n, int64_t k, int64_t* index) {
  constexpr int64_t kChunk = 32;
  const float neg_inf = -std::numeric_limits<float>::infinity();
  float bound = neg_inf;
  int64_t chunks = n / kChunk;
  if (chunks >= k) {
    arena::Scope scope;
    float* chunk_max = arena::AllocFloats(chunks);
    for (int64_t c = 0; c < chunks; ++c) {
      const float* p = x + c * kChunk;
      // max_ps returns its second operand when either is NaN, so a NaN lane
      // keeps the running max.
      __m256 m = _mm256_set1_ps(neg_inf);
      for (int64_t j = 0; j < kChunk; j += 8) {
        m = _mm256_max_ps(_mm256_loadu_ps(p + j), m);
      }
      __m128 h = _mm_max_ps(_mm256_castps256_ps128(m),
                            _mm256_extractf128_ps(m, 1));
      h = _mm_max_ps(h, _mm_movehl_ps(h, h));
      h = _mm_max_ss(h, _mm_shuffle_ps(h, h, 1));
      chunk_max[c] = _mm_cvtss_f32(h);
    }
    // index[] doubles as scratch for the chunk ranking; pass 2 rewrites it.
    int64_t count = 0;
    for (int64_t c = 0; c < chunks; ++c) {
      internal::TopKOffer(chunk_max, c, k, index, &count);
    }
    bound = chunk_max[index[k - 1]];
  }

  int64_t count = 0;
  const bool has_bound = bound > neg_inf;
  const __m256 bound_v = _mm256_set1_ps(bound);
  __m256 kth_v = bound_v;  // x[index[k - 1]] once the list is full
  bool kth_nan = false;
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_loadu_ps(x + i);
    int mask;
    if (count == k) {
      mask = _mm256_movemask_ps(kth_nan ? _mm256_cmp_ps(v, v, _CMP_ORD_Q)
                                        : _mm256_cmp_ps(v, kth_v, _CMP_GT_OQ));
    } else {
      mask = has_bound ? _mm256_movemask_ps(
                             _mm256_cmp_ps(v, bound_v, _CMP_GE_OQ))
                       : 0xFF;
    }
    if (mask == 0) continue;
    do {
      internal::TopKOffer(x, i + __builtin_ctz(mask), k, index, &count);
      mask &= mask - 1;
    } while (mask != 0);
    if (count == k) {
      float kth = x[index[k - 1]];
      kth_nan = kth != kth;
      kth_v = _mm256_set1_ps(kth);
    }
  }
  for (; i < n; ++i) internal::TopKOffer(x, i, k, index, &count);
}

// Widens one 16-byte int8 chunk to int16 lanes.
EDSR_AVX2 inline __m256i WidenS8(const int8_t* p) {
  return _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

// Single (row, column) int8 dot product — the edge kernel.
EDSR_AVX2 inline int32_t DotS8(const int8_t* arow, const int8_t* brow,
                               int64_t k) {
  __m256i acc = _mm256_setzero_si256();
  for (int64_t p = 0; p < k; p += 16) {
    // madd pairs int16 products into int32 lanes: |a|,|b| <= 127 so each
    // pair sum <= 32258 and the int32 lanes absorb k/2 such terms without
    // overflow for any realistic depth.
    acc = _mm256_add_epi32(
        acc, _mm256_madd_epi16(WidenS8(arow + p), WidenS8(brow + p)));
  }
  return HSumI32(acc);
}

EDSR_AVX2 void GemmInt8(const int8_t* a, const int8_t* bt, int32_t* c,
                        int64_t m, int64_t k, int64_t n) {
  // k % 32 == 0 is validated by the dispatcher (no EDSR_CHECK here: the
  // macro expands inline stream code that must not be compiled under the
  // target attribute).
  //
  // 2x4 register tile: each widened 16-byte a-chunk is reused across four
  // output columns and each widened b-chunk across two rows, cutting the
  // load-to-madd ratio from 2:1 (plain dot) to 3:4. Integer adds are
  // associative, so the tiled kernel is exactly the edge kernel's result.
  int64_t i = 0;
  for (; i + 2 <= m; i += 2) {
    const int8_t* a0row = a + i * k;
    const int8_t* a1row = a0row + k;
    int32_t* c0 = c + i * n;
    int32_t* c1 = c0 + n;
    int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const int8_t* b0row = bt + j * k;
      const int8_t* b1row = b0row + k;
      const int8_t* b2row = b1row + k;
      const int8_t* b3row = b2row + k;
      __m256i acc00 = _mm256_setzero_si256();
      __m256i acc01 = _mm256_setzero_si256();
      __m256i acc02 = _mm256_setzero_si256();
      __m256i acc03 = _mm256_setzero_si256();
      __m256i acc10 = _mm256_setzero_si256();
      __m256i acc11 = _mm256_setzero_si256();
      __m256i acc12 = _mm256_setzero_si256();
      __m256i acc13 = _mm256_setzero_si256();
      for (int64_t p = 0; p < k; p += 16) {
        const __m256i av0 = WidenS8(a0row + p);
        const __m256i av1 = WidenS8(a1row + p);
        const __m256i bv0 = WidenS8(b0row + p);
        acc00 = _mm256_add_epi32(acc00, _mm256_madd_epi16(av0, bv0));
        acc10 = _mm256_add_epi32(acc10, _mm256_madd_epi16(av1, bv0));
        const __m256i bv1 = WidenS8(b1row + p);
        acc01 = _mm256_add_epi32(acc01, _mm256_madd_epi16(av0, bv1));
        acc11 = _mm256_add_epi32(acc11, _mm256_madd_epi16(av1, bv1));
        const __m256i bv2 = WidenS8(b2row + p);
        acc02 = _mm256_add_epi32(acc02, _mm256_madd_epi16(av0, bv2));
        acc12 = _mm256_add_epi32(acc12, _mm256_madd_epi16(av1, bv2));
        const __m256i bv3 = WidenS8(b3row + p);
        acc03 = _mm256_add_epi32(acc03, _mm256_madd_epi16(av0, bv3));
        acc13 = _mm256_add_epi32(acc13, _mm256_madd_epi16(av1, bv3));
      }
      c0[j] = HSumI32(acc00);
      c0[j + 1] = HSumI32(acc01);
      c0[j + 2] = HSumI32(acc02);
      c0[j + 3] = HSumI32(acc03);
      c1[j] = HSumI32(acc10);
      c1[j + 1] = HSumI32(acc11);
      c1[j + 2] = HSumI32(acc12);
      c1[j + 3] = HSumI32(acc13);
    }
    for (; j < n; ++j) {
      const int8_t* brow = bt + j * k;
      c0[j] = DotS8(a0row, brow, k);
      c1[j] = DotS8(a1row, brow, k);
    }
  }
  if (i < m) {
    const int8_t* arow = a + i * k;
    int32_t* crow = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      crow[j] = DotS8(arow, bt + j * k, k);
    }
  }
}

#undef EDSR_AVX2

#else  // !EDSR_HAVE_AVX2_KERNELS

// Aborting stubs: on non-x86 builds SupportedTier() is kScalar, so the
// dispatcher can never reach these.
#define EDSR_AVX2_STUB() \
  EDSR_CHECK(false) << "AVX2 kernel called in a scalar-only build"

void Gemm(const float*, const float*, float*, int64_t, int64_t, int64_t,
          bool, bool) {
  EDSR_AVX2_STUB();
}
void Axpy(int64_t, float, const float*, float*) { EDSR_AVX2_STUB(); }
void Scale(int64_t, float, float*) { EDSR_AVX2_STUB(); }
void AddScalar(int64_t, float, float*) { EDSR_AVX2_STUB(); }
void EmaUpdate(int64_t, float, const float*, float*) { EDSR_AVX2_STUB(); }
double SumAll(int64_t, const float*) {
  EDSR_AVX2_STUB();
  return 0.0;
}
double SumSquares(int64_t, const float*) {
  EDSR_AVX2_STUB();
  return 0.0;
}
double Dot(int64_t, const float*, const float*) {
  EDSR_AVX2_STUB();
  return 0.0;
}
void PairwiseCombine(int64_t, float, const float*, float*) {
  EDSR_AVX2_STUB();
}
void TopK(const float*, int64_t, int64_t, int64_t*) { EDSR_AVX2_STUB(); }
void GemmInt8(const int8_t*, const int8_t*, int32_t*, int64_t, int64_t,
              int64_t) {
  EDSR_AVX2_STUB();
}

#undef EDSR_AVX2_STUB

#endif  // EDSR_HAVE_AVX2_KERNELS

}  // namespace edsr::tensor::kernels::avx2
