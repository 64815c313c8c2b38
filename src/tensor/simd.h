// SIMD dispatch: which micro-kernel tier the kernels layer runs.
//
// The blocked GEMM, PairwiseSqDist, TopK, and the BLAS-1/reduction loops
// in kernels.cc each have two implementations: the portable scalar tile
// (bit-identical to the pre-SIMD engine) and an AVX2/FMA tile compiled with
// per-function target attributes (kernels_avx2.cc), so no translation unit
// is built with global -mavx2 and nothing AVX2-coded can leak into code
// that runs on older CPUs. The tier is picked ONCE, on first use:
//
//   * cpuid (via __builtin_cpu_supports) must report avx2 AND fma, and the
//     AVX2 TU must actually have been compiled (x86-64 GCC/Clang);
//   * EDSR_SIMD=off|scalar forces the scalar tier for A/B testing;
//     EDSR_SIMD=avx2 aborts when the CPU cannot run it (a silent fallback
//     would invalidate the A/B comparison); unset/auto/on means detect.
//
// The active tier is exported as the "kernels.dispatch" gauge so every JSONL
// run record and StatsJson identifies which code path produced its numbers.
//
// Tests sweep tiers at runtime with SetTierForTesting; production code never
// changes the tier after startup.
#ifndef EDSR_SRC_TENSOR_SIMD_H_
#define EDSR_SRC_TENSOR_SIMD_H_

#include <string>

namespace edsr::tensor::simd {

enum class Tier : int {
  kScalar = 0,
  kAvx2 = 1,  // AVX2 + FMA
};

// The tier every dispatched kernel call uses. First call resolves cpuid +
// EDSR_SIMD and caches; later calls are one relaxed atomic load.
Tier ActiveTier();

// Highest tier this binary + CPU can run (ignores EDSR_SIMD).
Tier SupportedTier();

// True when the AVX2 kernels were compiled into this binary AND the CPU
// reports avx2+fma.
bool CpuSupportsAvx2();

// Forces the tier (tests only; aborts when `tier` is not supported).
void SetTierForTesting(Tier tier);

// Parses an EDSR_SIMD value: "off"/"scalar"/"0" -> kScalar, "avx2" ->
// kAvx2, ""/"on"/"auto" -> `detected`. Unknown strings abort: a typo'd
// A/B knob silently running the wrong tier would poison the comparison.
Tier TierFromEnvString(const std::string& value, Tier detected);

// "scalar" / "avx2" — stable names used by bench context tags and logs.
const char* TierName(Tier tier);

}  // namespace edsr::tensor::simd

#endif  // EDSR_SRC_TENSOR_SIMD_H_
