// Exact integer math helpers shared by all modules.
//
// Everything here is constexpr and total: callers never need to worry about
// UB from overflow in the hot simulation paths (saturating variants are
// provided in sat.h for quantities that can explode, e.g. harmonic trip
// durations d^(2+delta)).
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>

namespace ants::util {

/// Exact floor(sqrt(n)) for n >= 0. std::sqrt on int64 can be off by one
/// unit in the last place for n > 2^52, so the float estimate is fixed up.
constexpr std::int64_t isqrt(std::int64_t n) noexcept {
  assert(n >= 0);
  if (n < 2) return n;
  // floor(sqrt(2^63 - 1)); (r+1)^2 overflows past this, so clamp the estimate.
  constexpr std::int64_t kMaxRoot = 3037000499;
  auto r = static_cast<std::int64_t>(std::sqrt(static_cast<double>(n)));
  if (r > kMaxRoot) r = kMaxRoot;
  // The estimate is within +-1 of the truth after the fixup loop below.
  while (r > 0 && r * r > n) --r;
  while (r < kMaxRoot && (r + 1) * (r + 1) <= n) ++r;
  return r;
}

/// Exact ceil(sqrt(n)) for n >= 0.
constexpr std::int64_t isqrt_ceil(std::int64_t n) noexcept {
  const std::int64_t r = isqrt(n);
  return r * r == n ? r : r + 1;
}

/// floor(log2(n)) for n >= 1.
constexpr int log2_floor(std::int64_t n) noexcept {
  assert(n >= 1);
  int l = 0;
  while (n > 1) {
    n >>= 1;
    ++l;
  }
  return l;
}

/// ceil(log2(n)) for n >= 1.
constexpr int log2_ceil(std::int64_t n) noexcept {
  assert(n >= 1);
  const int l = log2_floor(n);
  return (std::int64_t{1} << l) == n ? l : l + 1;
}

/// 2^e as int64; e must fit (0 <= e <= 62).
constexpr std::int64_t pow2(int e) noexcept {
  assert(e >= 0 && e <= 62);
  return std::int64_t{1} << e;
}

/// Integer power with overflow assertion in debug builds.
constexpr std::int64_t ipow(std::int64_t base, int exp) noexcept {
  assert(exp >= 0);
  std::int64_t r = 1;
  for (int i = 0; i < exp; ++i) {
    [[maybe_unused]] std::int64_t product = 0;
    assert(!__builtin_mul_overflow(r, base, &product));
    r *= base;
  }
  return r;
}

/// Division rounding up, for positive divisors.
constexpr std::int64_t div_ceil(std::int64_t a, std::int64_t b) noexcept {
  assert(b > 0);
  return a >= 0 ? (a + b - 1) / b : -((-a) / b);
}

constexpr std::int64_t iabs(std::int64_t v) noexcept { return v < 0 ? -v : v; }

constexpr std::int64_t sign(std::int64_t v) noexcept {
  return (v > 0) - (v < 0);
}

}  // namespace ants::util
