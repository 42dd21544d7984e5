// GEMM micro-kernels. This TU is compiled with -ffp-contract=off — see
// gemm_kernels.h for why that flag is load-bearing for the bit-identity
// contract between the scalar and AVX2 kernels.
#include "tensor/gemm_kernels.h"

#include <algorithm>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace opad::detail {

void micro_kernel_scalar(std::size_t kb, const float* ap, const float* bp,
                         float* c, std::size_t ldc, std::size_t rows,
                         std::size_t cols) {
  float acc[kMr][kNr] = {};
  for (std::size_t kk = 0; kk < kb; ++kk) {
    const float* a = ap + kk * kMr;
    const float* b = bp + kk * kNr;
    for (std::size_t r = 0; r < kMr; ++r) {
      const float av = a[r];
      for (std::size_t j = 0; j < kNr; ++j) acc[r][j] += av * b[j];
    }
  }
  if (rows == kMr && cols == kNr) {
    for (std::size_t r = 0; r < kMr; ++r) {
      for (std::size_t j = 0; j < kNr; ++j) c[r * ldc + j] += acc[r][j];
    }
  } else {
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = 0; j < cols; ++j) c[r * ldc + j] += acc[r][j];
    }
  }
}

#if defined(__x86_64__) || defined(__i386__)

// One ymm accumulator per A row, vectorized across the kNr = 8 wide N
// dimension. Each vector lane is an independent scalar chain computing
// acc[r][j] += a[r] * b[j] with separate multiply and add roundings —
// bitwise identical to micro_kernel_scalar lane for lane. No FMA: the
// target attribute enables avx2 only, and the TU bans contraction.
__attribute__((target("avx2"))) void micro_kernel_avx2(
    std::size_t kb, const float* ap, const float* bp, float* c,
    std::size_t ldc, std::size_t rows, std::size_t cols) {
  __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
  __m256 acc4 = _mm256_setzero_ps(), acc5 = _mm256_setzero_ps();
  for (std::size_t kk = 0; kk < kb; ++kk) {
    const float* a = ap + kk * kMr;
    // Panels are kNr-float rows off a 64-byte arena lease: 32B-aligned.
    const __m256 bv = _mm256_load_ps(bp + kk * kNr);
    acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_broadcast_ss(a + 0), bv));
    acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_broadcast_ss(a + 1), bv));
    acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(_mm256_broadcast_ss(a + 2), bv));
    acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(_mm256_broadcast_ss(a + 3), bv));
    acc4 = _mm256_add_ps(acc4, _mm256_mul_ps(_mm256_broadcast_ss(a + 4), bv));
    acc5 = _mm256_add_ps(acc5, _mm256_mul_ps(_mm256_broadcast_ss(a + 5), bv));
  }
  const __m256 acc[kMr] = {acc0, acc1, acc2, acc3, acc4, acc5};
  if (rows == kMr && cols == kNr) {
    for (std::size_t r = 0; r < kMr; ++r) {
      float* cr = c + r * ldc;  // C rows are unaligned in general
      _mm256_storeu_ps(cr, _mm256_add_ps(_mm256_loadu_ps(cr), acc[r]));
    }
  } else {
    // Edge tile: spill to an aligned scratch tile, then add only the
    // live lanes into C — the same per-element adds the scalar kernel's
    // edge branch performs, so zero-padded lanes never leak.
    alignas(32) float tile[kMr][kNr];
    for (std::size_t r = 0; r < kMr; ++r) _mm256_store_ps(tile[r], acc[r]);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = 0; j < cols; ++j) c[r * ldc + j] += tile[r][j];
    }
  }
}

// FMA variant: single-rounded fused multiply-adds. Strictly more
// accurate per step but NOT bitwise equal to the scalar/AVX2 chains —
// dispatched only on explicit opt-in (OPAD_GEMM_KERNEL=fma).
__attribute__((target("avx2,fma"))) void micro_kernel_fma(
    std::size_t kb, const float* ap, const float* bp, float* c,
    std::size_t ldc, std::size_t rows, std::size_t cols) {
  __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
  __m256 acc4 = _mm256_setzero_ps(), acc5 = _mm256_setzero_ps();
  for (std::size_t kk = 0; kk < kb; ++kk) {
    const float* a = ap + kk * kMr;
    const __m256 bv = _mm256_load_ps(bp + kk * kNr);
    acc0 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 0), bv, acc0);
    acc1 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 1), bv, acc1);
    acc2 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 2), bv, acc2);
    acc3 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 3), bv, acc3);
    acc4 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 4), bv, acc4);
    acc5 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 5), bv, acc5);
  }
  const __m256 acc[kMr] = {acc0, acc1, acc2, acc3, acc4, acc5};
  if (rows == kMr && cols == kNr) {
    for (std::size_t r = 0; r < kMr; ++r) {
      float* cr = c + r * ldc;
      _mm256_storeu_ps(cr, _mm256_add_ps(_mm256_loadu_ps(cr), acc[r]));
    }
  } else {
    alignas(32) float tile[kMr][kNr];
    for (std::size_t r = 0; r < kMr; ++r) _mm256_store_ps(tile[r], acc[r]);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = 0; j < cols; ++j) c[r * ldc + j] += tile[r][j];
    }
  }
}

// AVX-512 variant: the same separate-mul-then-add chains as scalar/AVX2
// but 16 lanes per register, so one zmm accumulator covers a whole
// kNrWide panel row. Lane j of accumulator r computes exactly the
// scalar chain acc[r][j] += a[r] * b[j] — no FMA (foundation target
// only, contraction banned TU-wide), so the result stays bitwise equal
// to the scalar kernel. Dispatched only after cpu_features().avx512f
// confirms zmm state is usable.
__attribute__((target("avx512f"))) void micro_kernel_avx512(
    std::size_t kb, const float* ap, const float* bp, float* c,
    std::size_t ldc, std::size_t rows, std::size_t cols) {
  __m512 acc0 = _mm512_setzero_ps(), acc1 = _mm512_setzero_ps();
  __m512 acc2 = _mm512_setzero_ps(), acc3 = _mm512_setzero_ps();
  __m512 acc4 = _mm512_setzero_ps(), acc5 = _mm512_setzero_ps();
  for (std::size_t kk = 0; kk < kb; ++kk) {
    const float* a = ap + kk * kMr;
    // Panels are kNrWide-float rows off a 64-byte-aligned lease:
    // every row load is 64-byte aligned (asserted in gemm.cpp).
    const __m512 bv = _mm512_load_ps(bp + kk * kNrWide);
    acc0 = _mm512_add_ps(acc0, _mm512_mul_ps(_mm512_set1_ps(a[0]), bv));
    acc1 = _mm512_add_ps(acc1, _mm512_mul_ps(_mm512_set1_ps(a[1]), bv));
    acc2 = _mm512_add_ps(acc2, _mm512_mul_ps(_mm512_set1_ps(a[2]), bv));
    acc3 = _mm512_add_ps(acc3, _mm512_mul_ps(_mm512_set1_ps(a[3]), bv));
    acc4 = _mm512_add_ps(acc4, _mm512_mul_ps(_mm512_set1_ps(a[4]), bv));
    acc5 = _mm512_add_ps(acc5, _mm512_mul_ps(_mm512_set1_ps(a[5]), bv));
  }
  const __m512 acc[kMr] = {acc0, acc1, acc2, acc3, acc4, acc5};
  if (rows == kMr && cols == kNrWide) {
    for (std::size_t r = 0; r < kMr; ++r) {
      float* cr = c + r * ldc;  // C rows are unaligned in general
      _mm512_storeu_ps(cr, _mm512_add_ps(_mm512_loadu_ps(cr), acc[r]));
    }
  } else {
    // Edge tile: spill and add only live lanes, as in the AVX2 kernel —
    // zero-padded lanes (and any NaN/Inf poison the padding suppressed)
    // never leak into C.
    alignas(64) float tile[kMr][kNrWide];
    for (std::size_t r = 0; r < kMr; ++r) _mm512_store_ps(tile[r], acc[r]);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = 0; j < cols; ++j) c[r * ldc + j] += tile[r][j];
    }
  }
}

#endif  // x86

void gemm_small_strided(std::size_t m, std::size_t n, std::size_t k,
                        std::size_t kc, const Operand& a, const Operand& b,
                        float* c) {
  // Per C element the association is the packed path's exactly:
  // ((C + S_0) + S_1) + ... with each kc-block sum S_p accumulated
  // k-ascending by one independent chain — only *which element*
  // advances next differs from the packed loop nest, never an
  // element's own chain, so the result is bitwise neutral.
  //
  // Row-accumulator form: one chain per output column held in a stack
  // buffer (the caller gates n <= kSmallPathRowBuffer), k in the middle
  // — B rows are read contiguously in the common untransposed layout,
  // so the autovectorizer gets the same broadcast-a-times-b-row shape
  // as the packed micro-kernel.
  for (std::size_t i = 0; i < m; ++i) {
    const float* a_row = a.data + i * a.row_stride;
    float* c_row = c + i * n;
    for (std::size_t p0 = 0; p0 < k; p0 += kc) {
      const std::size_t kb = std::min(kc, k - p0);
      float s[kSmallPathRowBuffer] = {};
      for (std::size_t kk = 0; kk < kb; ++kk) {
        const float av = a_row[(p0 + kk) * a.col_stride];
        const float* b_row = b.data + (p0 + kk) * b.row_stride;
        for (std::size_t j = 0; j < n; ++j) {
          s[j] += av * b_row[j * b.col_stride];
        }
      }
      for (std::size_t j = 0; j < n; ++j) c_row[j] += s[j];
    }
  }
}

}  // namespace opad::detail
