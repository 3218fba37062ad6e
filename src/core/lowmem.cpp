#include "core/lowmem.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/params.h"
#include "core/trip.h"
#include "core/uniform.h"
#include "grid/ball.h"
#include "util/format.h"
#include "util/sat.h"

namespace ants::core {

namespace {

/// Exponents up to this are simulated flip by flip (mean 2^13 flips at the
/// threshold); larger ones use the O(1) renewal-decomposition sampler below.
constexpr int kExactCounterExponent = 12;

}  // namespace

std::int64_t randomized_counter_steps(rng::Rng& rng, int exponent,
                                      std::int64_t cap) {
  if (exponent < 0) throw std::invalid_argument("counter: exponent >= 0");
  if (cap < 0) throw std::invalid_argument("counter: cap >= 0");
  if (exponent == 0) return 0;

  if (exponent <= kExactCounterExponent) {
    std::int64_t steps = 0;
    int run = 0;  // the agent's entire mutable state: O(log exponent) bits
    while (run < exponent) {
      if (steps >= cap) return cap;
      ++steps;
      run = rng.coin() ? run + 1 : 0;
    }
    return steps;
  }

  // The AGENT flips one coin per step; the SIMULATOR must not, or a single
  // l = 30 draw would cost 2^31 flips. Renewal decomposition of the waiting
  // time T_l for l consecutive heads: each failed attempt is a head-run of
  // length J < l followed by a tail (cost J + 1 flips, J truncated
  // geometric on [0, l-1]), the final success costs l flips, and the number
  // of failed attempts N is Geometric(2^-l). So
  //     T_l = l + N + sum_{i=1..N} J_i.
  // N is sampled exactly (it carries virtually all the variance: sd(N) ~
  // 2^l while sd(sum J) ~ 2^(l/2)); the J-sum is replaced by its CLT normal
  // with the exact truncated-geometric moments. The approximation error is
  // O(2^(l/2)) on a Theta(2^l) quantity — invisible to every consumer, and
  // the distributional tests cover both regimes.
  const double p = std::exp2(-exponent);  // success probability per attempt
  const std::int64_t n = rng.geometric(p);
  double mu = 0, second = 0;  // E[J], E[J^2] of the truncated geometric
  {
    const double norm = 1.0 - std::exp2(-exponent);
    for (int j = 0; j < exponent && j < 64; ++j) {
      const double pj = std::exp2(-(j + 1)) / norm;
      mu += j * pj;
      second += static_cast<double>(j) * j * pj;
    }
  }
  const double nd = static_cast<double>(n);
  const double mean = static_cast<double>(exponent) + nd + nd * mu;
  const double var = nd * std::max(0.0, second - mu * mu);
  const double t = mean + std::sqrt(var) * rng.normal();
  const double lo = static_cast<double>(exponent);
  const double hi = static_cast<double>(cap);
  return static_cast<std::int64_t>(std::llround(std::clamp(t, lo, hi)));
}

namespace {

/// Counter draw scaled to mean ~2^exponent (the raw counter's mean is
/// 2^(exponent+1) - 2), clamped to [1, limit].
std::int64_t counter_scaled(rng::Rng& rng, int exponent, std::int64_t limit) {
  const std::int64_t cap =
      util::sat_mul(2, limit);  // raw cap so steps/2 <= limit
  const std::int64_t raw = randomized_counter_steps(rng, exponent, cap);
  return std::clamp<std::int64_t>(raw / 2, 1, limit);
}

// Algorithm 1's triple loop with counters instead of registers.
struct LowMemUniformLaw {
  using Program = sim::AgentProgram;

  const LowMemUniformStrategy& strategy;
  UniformPhases phases{};

  sim::GoTo destination(rng::Rng& rng) const {
    const std::int64_t radius = counter_scaled(
        rng, strategy.walk_exponent(phases.i, phases.j), kMaxBallRadius);
    return {grid::uniform_ring_point(rng, radius)};
  }
  sim::SpiralFor search(rng::Rng& rng) const {
    return {counter_scaled(rng, strategy.spiral_exponent(phases.i, phases.j),
                           util::kTimeCap)};
  }
  void advance() noexcept { phases.advance(); }
};

// Algorithm 2 with a coin-flip power law and counter-based trip lengths.
struct LowMemHarmonicLaw {
  using Program = sim::AgentProgram;

  double continue_p;
  double delta;
  int scale = 0;  ///< the drawn dyadic scale: <= 5 bits

  sim::GoTo destination(rng::Rng& rng) {
    // Dyadic power law: P(scale >= l) = 2^(-delta l) matches the mass
    // the harmonic density p(u) ~ d^-(2+delta) puts at distance ~2^l
    // (the ~2^(2l) nodes there each get ~2^(-(2+delta) l)).
    scale = 0;
    while (scale < kMaxRadiusExponent && rng.uniform_unit() < continue_p) {
      ++scale;
    }
    const std::int64_t radius = counter_scaled(rng, scale, kMaxBallRadius);
    return {grid::uniform_ring_point(rng, radius)};
  }
  sim::SpiralFor search(rng::Rng& rng) const {
    // t(u) = d(u)^(2+delta) becomes a counter at exponent
    // ceil((2+delta) * scale): the agent re-uses the 5-bit scale it
    // drew, never the exact realized distance.
    const int exponent =
        static_cast<int>(std::ceil((2.0 + delta) * static_cast<double>(scale)));
    return {counter_scaled(rng, std::min(exponent, 62), util::kTimeCap)};
  }
  void advance() noexcept {}
};

double checked_eps(double eps) {
  if (!(eps >= 0.0)) throw std::invalid_argument("LowMemUniform: eps >= 0");
  return eps;
}

}  // namespace

LowMemUniformStrategy::LowMemUniformStrategy(double eps)
    : exact_(checked_eps(eps)) {}

std::string LowMemUniformStrategy::name() const {
  return "lowmem-uniform(eps=" + util::fmt_param(eps()) + ")";
}

std::unique_ptr<sim::AgentProgram> LowMemUniformStrategy::make_program(
    sim::AgentContext /*ctx*/) const {
  return std::make_unique<TripProgram<LowMemUniformLaw>>(
      LowMemUniformLaw{*this});
}

int LowMemUniformStrategy::walk_exponent(int stage_i, int phase_j) const
    noexcept {
  // round(log2(D_ij)) with D_ij the exact Algorithm 1 radius; >= 0.
  const double d = static_cast<double>(exact_.phase(stage_i, phase_j).radius);
  return std::max(0, static_cast<int>(std::lround(std::log2(d))));
}

int LowMemUniformStrategy::spiral_exponent(int stage_i, int phase_j) const
    noexcept {
  const double t = static_cast<double>(exact_.phase(stage_i, phase_j).budget);
  return std::max(0, static_cast<int>(std::lround(std::log2(t))));
}

LowMemHarmonicStrategy::LowMemHarmonicStrategy(double delta) : delta_(delta) {
  if (!(delta > 0.0)) throw std::invalid_argument("LowMemHarmonic: delta > 0");
}

std::string LowMemHarmonicStrategy::name() const {
  return "lowmem-harmonic(delta=" + util::fmt_param(delta_) + ")";
}

std::unique_ptr<sim::AgentProgram> LowMemHarmonicStrategy::make_program(
    sim::AgentContext /*ctx*/) const {
  return std::make_unique<TripProgram<LowMemHarmonicLaw>>(
      LowMemHarmonicLaw{scale_continue_probability(), delta_});
}

double LowMemHarmonicStrategy::scale_continue_probability() const noexcept {
  return std::exp2(-delta_);
}

}  // namespace ants::core
