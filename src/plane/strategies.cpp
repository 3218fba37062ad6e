#include "plane/strategies.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/trip.h"
#include "util/format.h"

namespace ants::plane {

namespace {

/// Uniform point of the disk of radius r around the origin.
Vec2 uniform_disk_point(rng::Rng& rng, double r) {
  const double rad = r * std::sqrt(rng.uniform_unit());
  return unit(rng.angle()) * rad;
}

// Stage/phase double loop of A_k, continuous trips.
struct PlaneKnownKLaw {
  using Program = PlaneAgentProgram;

  const PlaneKnownKStrategy& strategy;
  core::KnownKPhases phases{};

  GoToPoint destination(rng::Rng& rng) const {
    return {uniform_disk_point(rng, strategy.disk_radius(phases.i))};
  }
  SpiralSweep search(rng::Rng& /*rng*/) const {
    return {strategy.sweep_budget(phases.i)};
  }
  void advance() noexcept { phases.advance(); }
};

// Three-step harmonic loop, continuous trips.
struct PlaneHarmonicLaw {
  using Program = PlaneAgentProgram;

  double delta;
  double radius = 1.0;

  GoToPoint destination(rng::Rng& rng) {
    // Radial density ~ r^-(1+delta) on [1, inf): Pareto(1, delta).
    // Clamp so a single astronomically far trip cannot stall a trial.
    radius = std::min(rng.pareto(1.0, delta), 1e9);
    return {unit(rng.angle()) * radius};
  }
  SpiralSweep search(rng::Rng& /*rng*/) const {
    return {std::min(std::pow(radius, 2.0 + delta), 1e18)};
  }
  void advance() noexcept {}
};

// Algorithm 1's triple loop, continuous trips.
struct PlaneUniformLaw {
  using Program = PlaneAgentProgram;

  const PlaneUniformStrategy& strategy;
  core::UniformPhases phases{};

  GoToPoint destination(rng::Rng& rng) const {
    return {uniform_disk_point(rng, strategy.disk_radius(phases.i, phases.j))};
  }
  SpiralSweep search(rng::Rng& /*rng*/) const {
    return {strategy.sweep_budget(phases.i, phases.j)};
  }
  void advance() noexcept { phases.advance(); }
};

}  // namespace

PlaneKnownKStrategy::PlaneKnownKStrategy(std::int64_t k_belief)
    : k_belief_(k_belief) {
  if (k_belief < 1) {
    throw std::invalid_argument("PlaneKnownK: k_belief >= 1");
  }
}

std::string PlaneKnownKStrategy::name() const {
  return "plane-known-k(k=" + std::to_string(k_belief_) + ")";
}

std::unique_ptr<PlaneAgentProgram> PlaneKnownKStrategy::make_program(
    int /*agent_index*/, int /*k*/) const {
  return std::make_unique<core::TripProgram<PlaneKnownKLaw>>(
      PlaneKnownKLaw{*this});
}

double PlaneKnownKStrategy::disk_radius(int phase_i) const noexcept {
  return std::ldexp(1.0, std::min(phase_i, 60));
}

Time PlaneKnownKStrategy::sweep_budget(int phase_i) const noexcept {
  // Same 2^(2i+2)/k schedule as the grid A_k; arc length on the plane.
  const double t = std::ldexp(1.0, std::min(2 * phase_i + 2, 120)) /
                   static_cast<double>(k_belief_);
  return std::max(1.0, t);
}

PlaneHarmonicStrategy::PlaneHarmonicStrategy(double delta) : delta_(delta) {
  if (!(delta > 0)) throw std::invalid_argument("PlaneHarmonic: delta > 0");
}

std::string PlaneHarmonicStrategy::name() const {
  return "plane-harmonic(delta=" + util::fmt_param(delta_) + ")";
}

std::unique_ptr<PlaneAgentProgram> PlaneHarmonicStrategy::make_program(
    int /*agent_index*/, int /*k*/) const {
  return std::make_unique<core::TripProgram<PlaneHarmonicLaw>>(
      PlaneHarmonicLaw{delta_});
}

PlaneUniformStrategy::PlaneUniformStrategy(double eps) : eps_(eps) {
  if (!(eps >= 0)) throw std::invalid_argument("PlaneUniform: eps >= 0");
}

std::string PlaneUniformStrategy::name() const {
  return "plane-uniform(eps=" + util::fmt_param(eps_) + ")";
}

std::unique_ptr<PlaneAgentProgram> PlaneUniformStrategy::make_program(
    int /*agent_index*/, int /*k*/) const {
  return std::make_unique<core::TripProgram<PlaneUniformLaw>>(
      PlaneUniformLaw{*this});
}

double PlaneUniformStrategy::disk_radius(int stage_i, int phase_j) const
    noexcept {
  const double divisor =
      std::pow(phase_j < 1 ? 1.0 : static_cast<double>(phase_j), 1.0 + eps_);
  return std::sqrt(std::ldexp(1.0, std::min(stage_i + phase_j, 120)) /
                   divisor);
}

Time PlaneUniformStrategy::sweep_budget(int stage_i, int phase_j) const
    noexcept {
  const double divisor =
      std::pow(phase_j < 1 ? 1.0 : static_cast<double>(phase_j), 1.0 + eps_);
  return std::max(1.0,
                  std::ldexp(1.0, std::min(stage_i + 2, 120)) / divisor);
}

}  // namespace ants::plane
