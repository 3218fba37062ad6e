// Rng: the single randomness facade handed to agent programs and samplers.
//
// Wraps xoshiro256** with the handful of exact distributions the paper's
// algorithms need: unbounded uniform integers (Lemire rejection, no modulo
// bias), uniform reals, fair coins/directions, exponentials and Pareto
// variates for the baselines. Child streams (per agent, per trial) are
// derived with mix_seed so that every entity owns an independent,
// reproducible stream.
//
// RngLanes holds many such streams in struct-of-arrays form for the
// lock-step executors: lane i seeded with s draws exactly what Rng(s) draws.
// Both types turn raw bits into values through the inline conversions
// below, so each conversion has one definition.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "rng/splitmix64.h"
#include "rng/xoshiro256ss.h"

namespace ants::rng {

/// Uniform double in [0, 1) with 53 bits of precision, from 64 raw bits.
inline double unit_from_bits(std::uint64_t bits) noexcept {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// Uniform in {0,1,2,3} (the four grid directions), from 64 raw bits.
inline int direction4_from_bits(std::uint64_t bits) noexcept {
  return static_cast<int>(bits >> 62);
}

/// The integer form of the test unit_from_bits(bits) < p: it holds exactly
/// when (bits >> 11) < bernoulli_threshold(p). Both sides of u < p scale by
/// 2^53 without rounding, and for an integer m, m < x iff m < ceil(x).
inline std::uint64_t bernoulli_threshold(double p) noexcept {
  if (!(p > 0)) return 0;
  if (p >= 1) return std::uint64_t{1} << 53;
  return static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
}

/// Bernoulli(p) from 64 raw bits, given threshold = bernoulli_threshold(p).
inline bool bernoulli_from_bits(std::uint64_t bits,
                                std::uint64_t threshold) noexcept {
  return (bits >> 11) < threshold;
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : gen_(seed), seed_(seed) {}

  std::uint64_t seed() const noexcept { return seed_; }

  /// Raw 64 random bits.
  std::uint64_t bits() noexcept { return gen_(); }

  /// Uniform integer in [0, n), n >= 1. Unbiased (rejection sampling).
  std::uint64_t uniform_u64(std::uint64_t n) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform_unit() noexcept { return unit_from_bits(bits()); }

  /// Uniform double in [lo, hi).
  double uniform_real(double lo, double hi) noexcept;

  /// Uniform double in (0, 1]; safe as a log() argument.
  double uniform_positive_unit() noexcept;

  /// Fair coin.
  bool coin() noexcept { return (bits() & 1ULL) != 0; }

  /// Bernoulli(p).
  bool bernoulli(double p) noexcept { return uniform_unit() < p; }

  /// Uniform in {0,1,2,3}: the four grid directions (+x,+y,-x,-y).
  int direction4() noexcept { return direction4_from_bits(bits()); }

  /// Uniform angle in [0, 2*pi).
  double angle() noexcept;

  /// Exponential with rate lambda > 0.
  double exponential(double lambda) noexcept;

  /// Pareto with scale xm > 0 and shape alpha > 0:
  /// P(X > x) = (xm/x)^alpha for x >= xm. Heavy-tailed Levy step lengths.
  double pareto(double xm, double alpha) noexcept;

  /// Geometric: number of failures before first success, p in (0, 1].
  std::int64_t geometric(double p) noexcept;

  /// Standard normal N(0, 1) (Box-Muller; one fresh pair per call).
  double normal() noexcept;

  /// Independent child stream identified by `index` (agent id, trial id...).
  Rng child(std::uint64_t index) const noexcept {
    return Rng(mix_seed(seed_, index));
  }

 private:
  Xoshiro256ss gen_;
  std::uint64_t seed_;
};

/// xoshiro256** streams in struct-of-arrays layout, one lane per agent: the
/// four state words of every lane sit in four contiguous arrays. Lane i
/// seeded with s yields, draw for draw, the stream of Rng(s).
class RngLanes {
 public:
  /// n lanes; lane i is seeded as parent.child(i).
  void reset_children(std::size_t n, const Rng& parent) {
    resize(n);
    seed_children(0, n, parent);
  }

  /// n lanes, unseeded until seed_children covers them.
  void resize(std::size_t n) {
    s0_.resize(n);
    s1_.resize(n);
    s2_.resize(n);
    s3_.resize(n);
  }

  /// Lanes first .. first + n - 1 seeded as parent.child(0 .. n - 1): the
  /// lock-step block executor gives each trial of a block its own range.
  void seed_children(std::size_t first, std::size_t n, const Rng& parent) {
    for (std::size_t i = 0; i < n; ++i) {
      SplitMix64 sm(mix_seed(parent.seed(), i));
      s0_[first + i] = sm();
      s1_[first + i] = sm();
      s2_[first + i] = sm();
      s3_[first + i] = sm();
    }
  }

  /// State word w (0..3) of every lane, contiguous: the vector step
  /// kernels (sim/batch/kernels.h) load and store four lanes at a time.
  std::uint64_t* state(int w) noexcept {
    return (w == 0 ? s0_ : w == 1 ? s1_ : w == 2 ? s2_ : s3_).data();
  }

  /// Raw 64 random bits from lane i. The state goes through locals: the
  /// four arrays could alias as far as the compiler knows, and stepping
  /// them in place would serialize every xor through memory.
  std::uint64_t bits(std::size_t i) noexcept {
    std::uint64_t s0 = s0_[i], s1 = s1_[i], s2 = s2_[i], s3 = s3_[i];
    const std::uint64_t result = xoshiro256ss_next(s0, s1, s2, s3);
    s0_[i] = s0;
    s1_[i] = s1;
    s2_[i] = s2;
    s3_[i] = s3;
    return result;
  }

  double uniform_unit(std::size_t i) noexcept {
    return unit_from_bits(bits(i));
  }

  int direction4(std::size_t i) noexcept {
    return direction4_from_bits(bits(i));
  }

  /// Bernoulli(p) with threshold = bernoulli_threshold(p), computed once by
  /// the caller; the same outcome as Rng::bernoulli(p).
  bool bernoulli(std::size_t i, std::uint64_t threshold) noexcept {
    return bernoulli_from_bits(bits(i), threshold);
  }

 private:
  std::vector<std::uint64_t> s0_, s1_, s2_, s3_;
};

}  // namespace ants::rng
