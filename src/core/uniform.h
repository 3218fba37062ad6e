// Algorithm 1 of the paper: the uniform search algorithm A_uniform
// (Theorem 3.3), which assumes NOTHING about the number of agents.
//
//   for big-stage l = 0, 1, ...:
//     for stage i = 0..l:
//       for phase j = 0..i:
//         k_j   = 2^j                      (the guess "k ~ 2^j")
//         D_ij  = sqrt(2^(i+j) / j^(1+eps))
//         go to a node chosen uniformly at random in B(D_ij)
//         spiral-search for t_ij = 2^(i+2) / j^(1+eps) time
//         return to the source
//
// Theorem 3.3: for every constant eps > 0 this is O(log^(1+eps) k)-
// competitive; Theorem 4.1 shows no uniform algorithm is O(log k)-
// competitive, so the family is essentially tight as eps -> 0.
//
// Divisions use j^ = max(j, 1): the paper's j = 0 term would divide by
// zero, and j = 1 is the nearest term that does not. eps = 0 is allowed so
// experiment E4 can probe the non-convergent boundary the lower bound
// forbids.
//
// Each phase's closed forms cost a pow, and a program asks for them on every
// trip. The strategy fills one table of (D_ij, t_ij) from the closed forms
// once, at construction, for the stages i < 32 (an agent reaches stage 32
// only after stage 31's first spiral of 2^33 steps), and programs read it.
// The closed forms stay the definition and serve any stage beyond the table.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "sim/program.h"
#include "sim/types.h"

namespace ants::core {

class UniformStrategy final : public sim::Strategy {
 public:
  /// eps >= 0; the theorem requires eps > 0, eps = 0 is the probe case.
  explicit UniformStrategy(double eps);

  std::string name() const override;
  std::unique_ptr<sim::AgentProgram> make_program(
      sim::AgentContext ctx) const override;

  double eps() const noexcept { return eps_; }

  /// Schedule closed forms, exposed for tests against the pseudocode.
  std::int64_t ball_radius(int stage_i, int phase_j) const noexcept;
  sim::Time spiral_budget(int stage_i, int phase_j) const noexcept;

  /// Phase (i, j) of the schedule: the ball radius D_ij and the spiral
  /// budget t_ij, bit for bit ball_radius and spiral_budget.
  struct Phase {
    std::int64_t radius;
    sim::Time budget;
  };

  /// The phase as programs read it: from the table for i < kTabledStages,
  /// from the closed forms beyond. 0 <= phase_j <= stage_i.
  Phase phase(int stage_i, int phase_j) const noexcept {
    if (stage_i < kTabledStages) {
      return table_[static_cast<std::size_t>(stage_i * (stage_i + 1) / 2 +
                                             phase_j)];
    }
    return {ball_radius(stage_i, phase_j), spiral_budget(stage_i, phase_j)};
  }

  static constexpr int kTabledStages = 32;

 private:
  double eps_;
  std::array<Phase, kTabledStages * (kTabledStages + 1) / 2> table_;
};

}  // namespace ants::core
