#include "core/single_shot.h"

#include <stdexcept>

#include "core/known_k.h"
#include "core/trip.h"
#include "grid/ball.h"
#include "util/format.h"

namespace ants::core {

namespace {

// Phases i = 1, 2, 3, ... each exactly once (A_k without the stage loop).
struct SweepKnownKLaw {
  using Program = sim::AgentProgram;

  std::int64_t k;
  int i = 1;

  sim::GoTo destination(rng::Rng& rng) const {
    return {grid::uniform_ball_point(rng, KnownKStrategy::ball_radius(i))};
  }
  sim::SpiralFor search(rng::Rng& /*rng*/) const {
    return {KnownKStrategy::spiral_budget(i, k)};
  }
  void advance() noexcept { ++i; }  // the single sweep: no outer loop
};

// Stages i = 0, 1, 2, ... each exactly once, inner phases j = 0..i intact
// (Algorithm 1 without the big-stage loop).
struct SweepUniformLaw {
  using Program = sim::AgentProgram;

  const SingleSweepUniform& strategy;
  int i = 0;
  int j = 0;

  sim::GoTo destination(rng::Rng& rng) const {
    return {grid::uniform_ball_point(rng, strategy.phase(i, j).radius)};
  }
  sim::SpiralFor search(rng::Rng& /*rng*/) const {
    return {strategy.phase(i, j).budget};
  }
  void advance() noexcept {
    if (j < i) {
      ++j;
    } else {
      j = 0;
      ++i;  // the single sweep: stages never repeat
    }
  }
};

}  // namespace

SingleSweepKnownK::SingleSweepKnownK(std::int64_t k_belief)
    : k_belief_(k_belief) {
  if (k_belief < 1) {
    throw std::invalid_argument("SingleSweepKnownK: k_belief >= 1");
  }
}

std::string SingleSweepKnownK::name() const {
  return "sweep-known-k(k=" + std::to_string(k_belief_) + ")";
}

std::unique_ptr<sim::AgentProgram> SingleSweepKnownK::make_program(
    sim::AgentContext /*ctx*/) const {
  return std::make_unique<TripProgram<SweepKnownKLaw>>(
      SweepKnownKLaw{k_belief_});
}

sim::Time SingleSweepKnownK::spiral_budget(int phase_i) const noexcept {
  return KnownKStrategy::spiral_budget(phase_i, k_belief_);
}

std::int64_t SingleSweepKnownK::ball_radius(int phase_i) const noexcept {
  return KnownKStrategy::ball_radius(phase_i);
}

SingleSweepUniform::SingleSweepUniform(double eps) : inner_(eps) {}

std::string SingleSweepUniform::name() const {
  return "sweep-uniform(eps=" + util::fmt_param(inner_.eps()) + ")";
}

std::unique_ptr<sim::AgentProgram> SingleSweepUniform::make_program(
    sim::AgentContext /*ctx*/) const {
  return std::make_unique<TripProgram<SweepUniformLaw>>(
      SweepUniformLaw{*this});
}

}  // namespace ants::core
