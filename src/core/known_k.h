// Algorithm 3 of the paper (Appendix A): the non-uniform algorithm A_k.
//
//   for stage j = 1, 2, ...:
//     for phase i = 1..j:
//       go to a node u chosen uniformly at random in B(2^i)
//       spiral-search for t_i = 2^(2i+2) / k time
//       return to the source
//
// Theorem 3.1: with agents knowing k, E[T] = O(D + D^2/k) — asymptotically
// optimal. The k the STRATEGY is constructed with is the agents' belief;
// experiments about approximate knowledge deliberately construct it with a
// value different from the true agent count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/trip.h"
#include "grid/ball.h"
#include "sim/program.h"

namespace ants::core {

class KnownKStrategy final : public sim::Strategy {
 public:
  /// `k_belief` >= 1: the number of agents each agent assumes.
  explicit KnownKStrategy(std::int64_t k_belief);

  std::string name() const override;
  std::unique_ptr<sim::AgentProgram> make_program(
      sim::AgentContext ctx) const override;

  std::int64_t k_belief() const noexcept { return k_belief_; }

  /// Spiral budget of phase i: max(1, 2^(2i+2)/k), saturated. Exposed so
  /// tests can pin the schedule against the paper's pseudocode.
  sim::Time spiral_budget(int phase_i) const noexcept {
    return spiral_budget(phase_i, k_belief_);
  }
  /// The same for a belief k >= 1.
  static sim::Time spiral_budget(int phase_i, std::int64_t k) noexcept;

  /// Ball radius of phase i: min(2^i, 2^30).
  static std::int64_t ball_radius(int phase_i) noexcept;

 private:
  std::int64_t k_belief_;
};

/// A_k's trip law for TripProgram: phase i goes to a uniform node of
/// B(2^i) and spirals 2^(2i+2)/k, for the belief k.
struct KnownKLaw {
  using Program = sim::AgentProgram;

  std::int64_t k;
  KnownKPhases phases{};

  sim::GoTo destination(rng::Rng& rng) const {
    return {grid::uniform_ball_point(rng,
                                     KnownKStrategy::ball_radius(phases.i))};
  }
  sim::SpiralFor search(rng::Rng& /*rng*/) const {
    return {KnownKStrategy::spiral_budget(phases.i, k)};
  }
  void advance() noexcept { phases.advance(); }
};

}  // namespace ants::core
