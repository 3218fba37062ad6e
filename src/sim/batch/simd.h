// Runtime SIMD dispatch for the batch trial kernels (sim/batch/).
//
// The batch executor's inner loops — lock-step steps and occupancy checks,
// plane sight-disc prefilters — come in scalar and AVX2 variants
// (kernels.h). Which variant runs is decided once at runtime:
//
//   * detected_simd_level(): avx2 when this CPU supports it (CPUID), else
//     scalar (always scalar on non-x86 builds).
//   * ANTS_SIMD_LEVEL=scalar|avx2: environment override, clamped to the
//     detected level — forcing avx2 on a non-AVX2 machine silently runs
//     scalar, so CI can export the variable unconditionally. Unrecognized
//     values, sse2 among them, are ignored.
//   * force_simd_level(): programmatic override (same clamp) for tests that
//     compare dispatch paths in-process.
//
// Both levels produce byte-identical trial results (test- and CI-enforced
// against the golden CSVs); dispatch is strictly an execution detail.
#pragma once

namespace ants::sim::batch {

enum class SimdLevel : int { kScalar = 0, kAvx2 = 1 };

/// "scalar" / "avx2".
const char* simd_level_name(SimdLevel level) noexcept;

/// Best level this CPU supports (computed once, then cached).
SimdLevel detected_simd_level() noexcept;

/// The level the batch kernels actually run at: detected, lowered by
/// ANTS_SIMD_LEVEL or force_simd_level if either asks for less.
SimdLevel active_simd_level() noexcept;

/// Overrides the active level for this process (clamped to detected).
/// Test hook; thread-safe but not synchronized with in-flight batches.
void force_simd_level(SimdLevel level) noexcept;

}  // namespace ants::sim::batch
