#include "core/harmonic.h"

#include "util/format.h"

#include <cmath>
#include <stdexcept>

#include "core/trip.h"
#include "grid/ball.h"
#include "util/sat.h"

namespace ants::core {

namespace {

// Algorithm 2's trip: a power-law radius r, a uniform node of the ring of
// radius r, a spiral of r^(2+delta).
struct HarmonicLaw {
  using Program = sim::AgentProgram;

  const HarmonicStrategy& strategy;
  std::int64_t radius = 1;

  sim::GoTo destination(rng::Rng& rng) {
    radius = strategy.radius_law().sample(rng);
    return {grid::uniform_ring_point(rng, radius)};
  }
  sim::SpiralFor search(rng::Rng& /*rng*/) const {
    return {strategy.spiral_budget(radius)};
  }
  void advance() noexcept {}
};

}  // namespace

HarmonicStrategy::HarmonicStrategy(double delta)
    : delta_(delta), law_(1.0 + delta) {
  if (!(delta > 0.0)) throw std::invalid_argument("Harmonic: delta > 0");
}

std::string HarmonicStrategy::name() const {
  return "harmonic(delta=" + util::fmt_param(delta_) + ")";
}

std::unique_ptr<sim::AgentProgram> HarmonicStrategy::make_program(
    sim::AgentContext /*ctx*/) const {
  // Uniform algorithm: identical program for every agent, no use of ctx.k.
  return std::make_unique<TripProgram<HarmonicLaw>>(HarmonicLaw{*this});
}

sim::Time HarmonicStrategy::spiral_budget(std::int64_t radius) const noexcept {
  const double t = std::pow(static_cast<double>(radius), 2.0 + delta_);
  const std::int64_t budget = util::sat_from_double(t);
  return budget < 1 ? 1 : budget;
}

}  // namespace ants::core
