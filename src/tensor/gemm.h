// Cache-blocked packed single-precision GEMM with runtime-dispatched
// SIMD micro-kernels.
//
// One kernel backs all three matmul variants in tensor_ops.cpp: the
// operands are described by an optional transpose flag and the driver
// packs whatever layout it is given into contiguous tile panels, so the
// inner micro-kernel only ever sees unit-stride data. The micro-kernel
// itself is selected once per process from {scalar, avx2, fma, avx512}
// by cpuid-based detection (src/util/cpu_features.h), overridable with
// the OPAD_GEMM_KERNEL environment variable or set_gemm_kernel().
//
// Determinism contract (DESIGN.md "Threading model" / "GEMM kernel" /
// "SIMD micro-kernel dispatch"): the accumulation order of every C
// element is a pure function of the problem shape — k is consumed in
// fixed kc-sized blocks in ascending order with one independent
// accumulator chain per element inside each block — and the C tile grid
// is a pure function of (m, n), so results are bit-identical for any
// OPAD_THREADS value. The scalar, AVX2 and AVX-512 kernels round
// identically (separate multiply + add per step; the kernel TU is built
// with -ffp-contract=off) and are bitwise interchangeable — panel width
// (8 vs 16) only reorders *between* independent element chains, never
// within one; the FMA kernel is single-rounded and numerically
// divergent, so it is never selected by default on portable builds. The
// small-matrix fast path skips packing but replays the same
// association, so it is bitwise neutral too.
#pragma once

#include <cstddef>

namespace opad {

/// Storage layout of a GEMM operand.
enum class GemmTranspose {
  kNone,       ///< stored as the effective matrix (row-major)
  kTranspose,  ///< stored row-major as the transpose of the effective matrix
};

/// Micro-kernel implementations selectable at runtime.
enum class GemmKernel {
  kScalar,  ///< portable reference; bit-identity baseline
  kAvx2,    ///< 8-wide over N, separate mul+add; bitwise equal to kScalar
  kFma,     ///< fused multiply-add; faster but numerically divergent
  kAvx512,  ///< 16-wide over N, separate mul+add; bitwise equal to kScalar
};

/// Human-readable kernel name ("scalar" / "avx2" / "fma" / "avx512"),
/// matching the OPAD_GEMM_KERNEL spellings.
const char* gemm_kernel_name(GemmKernel kernel);

/// Whether the running CPU can execute `kernel`. kScalar is always
/// supported.
bool gemm_kernel_supported(GemmKernel kernel);

/// The kernel the next gemm() call will dispatch to. On first use this
/// resolves OPAD_GEMM_KERNEL (scalar|avx2|fma|avx512; unknown or
/// unsupported values are ignored with a warning) and otherwise
/// defaults to the fastest bit-identity-preserving kernel the CPU
/// supports (avx512 > avx2 > scalar), on native builds too; fma is never
/// the default.
GemmKernel active_gemm_kernel();

/// The warn+fallback resolution behind the OPAD_GEMM_KERNEL override:
/// parses `name` and returns the requested kernel when this CPU
/// supports it, otherwise logs a warning and returns the built-in
/// default. Exposed so tests can pin the fallback behaviour without
/// re-execing under a doctored environment.
GemmKernel resolve_gemm_kernel_choice(const char* name);

/// Overrides the dispatched kernel for the whole process (tests, bench
/// harnesses). Throws PreconditionError if the CPU does not support it.
void set_gemm_kernel(GemmKernel kernel);

/// Gate of the small-matrix fast path that skips pack_a/pack_b and the
/// scratch arena: taken iff m <= kGemmSmallPathMaxRows, n <=
/// kGemmSmallPathMaxCols and m*n*k <= gemm_small_path_limit(). The
/// BM_MatMulSmall / BM_MatMulSkinny benches (bench_m1_micro) measured
/// the packing overhead to be worth skipping only for row-skinny
/// products — a dense layer on a single sample, the 1-2 surviving
/// attack lanes of a compacted batch — where packing B costs as much as
/// the whole product; square and column-skinny shapes always prefer
/// the vectorized packed route. See DESIGN.md "SIMD micro-kernel
/// dispatch" for the data behind all three values.
inline constexpr std::size_t kGemmSmallPathMaxRows = 3;
inline constexpr std::size_t kGemmSmallPathMaxCols = 256;
inline constexpr std::size_t kGemmSmallPathDefaultLimit = 128 * 1024;

/// Current fast-path m*n*k ceiling. 0 means the fast path is disabled
/// and every shape takes the packed route.
std::size_t gemm_small_path_limit();

/// Overrides the fast-path ceiling (tests pin it to 0 or SIZE_MAX to
/// force one route over the qualifying shapes).
void set_gemm_small_path_limit(std::size_t mnk_limit);

/// C += op(A) * op(B) where op(A) is [m, k], op(B) is [k, n] and C is a
/// dense row-major [m, n] buffer the caller has initialised (matmul
/// zero-fills it). `trans_a` == kTranspose means `a` is stored [k, m];
/// `trans_b` == kTranspose means `b` is stored [n, k].
void gemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
          GemmTranspose trans_a, const float* b, GemmTranspose trans_b,
          float* c);

}  // namespace opad
