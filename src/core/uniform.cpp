#include "core/uniform.h"

#include "util/format.h"

#include <cmath>
#include <stdexcept>

#include "core/params.h"
#include "core/trip.h"
#include "grid/ball.h"
#include "util/sat.h"

namespace ants::core {

namespace {

// Algorithm 1's trip: phase (i, j) goes to a uniform node of B(D_ij) and
// spirals t_ij, both read from the strategy's table.
struct UniformLaw {
  using Program = sim::AgentProgram;

  const UniformStrategy& strategy;
  UniformPhases phases{};

  sim::GoTo destination(rng::Rng& rng) const {
    return {grid::uniform_ball_point(
        rng, strategy.phase(phases.i, phases.j).radius)};
  }
  sim::SpiralFor search(rng::Rng& /*rng*/) const {
    return {strategy.phase(phases.i, phases.j).budget};
  }
  void advance() noexcept { phases.advance(); }
};

/// j^(1+eps) with the paper's j = 0 fixed up to 1.
double phase_divisor(int j, double eps) noexcept {
  const double jj = j < 1 ? 1.0 : static_cast<double>(j);
  return std::pow(jj, 1.0 + eps);
}

// The closed forms from D_ij^2 = 2^(i+j) / j^(1+eps) and
// t_ij = 2^(i+2) / j^(1+eps) as computed in double.
std::int64_t radius_from_square(double d2) noexcept {
  // Exact enough in double for all reachable stages (2^(i+j) <= 2^120 is
  // far beyond any horizon anyway).
  return clamp_radius(std::sqrt(d2));
}

sim::Time budget_from(double t) noexcept {
  // Clamped to >= 1 and saturated above.
  const std::int64_t budget = util::sat_from_double(t);
  return budget < 1 ? 1 : budget;
}

}  // namespace

UniformStrategy::UniformStrategy(double eps) : eps_(eps) {
  if (!(eps >= 0.0)) throw std::invalid_argument("Uniform: eps >= 0");
  // One pow and two divisions per phase index j. Down a column (i -> i + 1)
  // both quotients double, and doubling commutes with rounding while they
  // stay normal: they start at >= 2^-1020 (j <= 1 gives divisor 1, and a
  // finite divisor is below 2^1024) or at exactly 0 (divisor inf), and end
  // below 2^63. So every entry is the closed forms' value.
  for (int j = 0; j < kTabledStages; ++j) {
    const double divisor = phase_divisor(j, eps_);
    double d2 = std::ldexp(1.0, 2 * j) / divisor;
    double t = std::ldexp(1.0, j + 2) / divisor;
    for (int i = j; i < kTabledStages; ++i) {
      table_[static_cast<std::size_t>(i * (i + 1) / 2 + j)] = {
          radius_from_square(d2), budget_from(t)};
      d2 *= 2.0;
      t *= 2.0;
    }
  }
}

std::string UniformStrategy::name() const {
  return "uniform(eps=" + util::fmt_param(eps_) + ")";
}

std::unique_ptr<sim::AgentProgram> UniformStrategy::make_program(
    sim::AgentContext /*ctx*/) const {
  // Uniform algorithm: identical program for every agent, no use of ctx.k.
  return std::make_unique<TripProgram<UniformLaw>>(UniformLaw{*this});
}

std::int64_t UniformStrategy::ball_radius(int stage_i, int phase_j) const
    noexcept {
  return radius_from_square(std::ldexp(1.0, stage_i + phase_j) /
                            phase_divisor(phase_j, eps_));
}

sim::Time UniformStrategy::spiral_budget(int stage_i, int phase_j) const
    noexcept {
  return budget_from(std::ldexp(1.0, stage_i + 2) /
                     phase_divisor(phase_j, eps_));
}

}  // namespace ants::core
