#include "sim/batch/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace ants::sim::batch {

namespace {

#if defined(__x86_64__) || defined(__i386__)
SimdLevel probe_cpu() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") ? SimdLevel::kAvx2
                                        : SimdLevel::kScalar;
}
#else
SimdLevel probe_cpu() noexcept { return SimdLevel::kScalar; }
#endif

/// ANTS_SIMD_LEVEL, or detected when unset/unrecognized.
SimdLevel env_level(SimdLevel detected) noexcept {
  const char* env = std::getenv("ANTS_SIMD_LEVEL");
  if (env == nullptr) return detected;
  if (std::strcmp(env, "scalar") == 0) return SimdLevel::kScalar;
  if (std::strcmp(env, "avx2") == 0) return SimdLevel::kAvx2;
  return detected;
}

SimdLevel clamp_to_detected(SimdLevel level) noexcept {
  const SimdLevel detected = detected_simd_level();
  return static_cast<int>(level) > static_cast<int>(detected) ? detected
                                                              : level;
}

std::atomic<int>& active_storage() noexcept {
  // First use seeds the active level from the environment; forced overrides
  // replace it afterwards.
  static std::atomic<int> active{static_cast<int>(
      clamp_to_detected(env_level(detected_simd_level())))};
  return active;
}

}  // namespace

const char* simd_level_name(SimdLevel level) noexcept {
  return level == SimdLevel::kAvx2 ? "avx2" : "scalar";
}

SimdLevel detected_simd_level() noexcept {
  static const SimdLevel detected = probe_cpu();
  return detected;
}

SimdLevel active_simd_level() noexcept {
  return static_cast<SimdLevel>(
      active_storage().load(std::memory_order_relaxed));
}

void force_simd_level(SimdLevel level) noexcept {
  active_storage().store(static_cast<int>(clamp_to_detected(level)),
                         std::memory_order_relaxed);
}

}  // namespace ants::sim::batch
