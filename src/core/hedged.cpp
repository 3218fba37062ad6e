#include "core/hedged.h"

#include "util/format.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/known_k.h"
#include "core/trip.h"
#include "grid/ball.h"
#include "util/sat.h"

namespace ants::core {

namespace {

// A_k's trip, with the spiral budget of the current candidate guess.
struct HedgedLaw {
  using Program = sim::AgentProgram;

  const HedgedApproxStrategy& strategy;
  int stage = 1;
  int i = 1;
  std::size_t candidate = 0;

  sim::GoTo destination(rng::Rng& rng) const {
    return {grid::uniform_ball_point(rng, strategy.ball_radius(i))};
  }
  sim::SpiralFor search(rng::Rng& /*rng*/) const {
    return {strategy.spiral_budget(i,
                                   strategy.candidate_exponents()[candidate])};
  }
  void advance() noexcept {
    // Innermost: candidate guesses; then phases i in [1, stage]; then
    // unbounded stages — exactly A_k's schedule with a candidate loop
    // spliced in.
    if (candidate + 1 < strategy.candidate_exponents().size()) {
      ++candidate;
      return;
    }
    candidate = 0;
    if (i < stage) {
      ++i;
      return;
    }
    i = 1;
    ++stage;
  }
};

}  // namespace

HedgedApproxStrategy::HedgedApproxStrategy(double k_estimate, double eps)
    : k_estimate_(k_estimate), eps_(eps) {
  if (!(k_estimate >= 1.0)) {
    throw std::invalid_argument("Hedged: k_estimate >= 1");
  }
  if (!(eps >= 0.0 && eps <= 1.0)) {
    throw std::invalid_argument("Hedged: eps in [0, 1]");
  }
  const double log_k = std::log2(k_estimate);
  const int j_hi = static_cast<int>(std::ceil(log_k));
  const int j_lo =
      std::max(0, static_cast<int>(std::floor((1.0 - eps) * log_k)));
  for (int j = j_lo; j <= j_hi; ++j) candidates_.push_back(j);
}

std::string HedgedApproxStrategy::name() const {
  return "hedged(k~=" + std::to_string(static_cast<long long>(k_estimate_)) +
         ",eps=" + util::fmt_param(eps_) + ")";
}

std::unique_ptr<sim::AgentProgram> HedgedApproxStrategy::make_program(
    sim::AgentContext /*ctx*/) const {
  return std::make_unique<TripProgram<HedgedLaw>>(HedgedLaw{*this});
}

std::int64_t HedgedApproxStrategy::ball_radius(int phase_i) const noexcept {
  return KnownKStrategy::ball_radius(phase_i);
}

sim::Time HedgedApproxStrategy::spiral_budget(int phase_i,
                                              int candidate_exponent) const
    noexcept {
  // A_k's t_i = 2^(2i+2)/k with k = 2^j: 2^(2i+2-j), clamped/saturated.
  const int exponent = 2 * phase_i + 2 - candidate_exponent;
  if (exponent <= 0) return 1;
  if (exponent >= 62) return util::kTimeCap;
  return util::pow2(exponent);
}

}  // namespace ants::core
