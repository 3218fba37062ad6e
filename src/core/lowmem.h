// Low-memory agents: the paper's section 6 memory remark, made executable.
//
// "Going in a straight line for a distance of d = 2^l can be implemented
//  using O(log log d) memory bits, by employing a randomized counting
//  technique."
//
// The technique is the classic consecutive-heads counter: walk one step per
// fair-coin flip and stop at the first run of l consecutive heads. The only
// mutable state is the current run length — an integer in [0, l], i.e.
// O(log l) = O(log log d) bits — and the expected number of steps is
// 2^(l+1) - 2 = Theta(2^l). The walk length is a random variable, not an
// exact register, so strategies built on it pay a constant-factor
// competitiveness penalty; bench/paper/abl_lowmem.spec measures it.
//
// Built on top of the counter:
//
//  * LowMemUniformStrategy — Algorithm 1 with every exact quantity replaced
//    by a coin-flip equivalent: walk distances AND spiral budgets are drawn
//    from randomized counters with matching dyadic exponents. The agent's
//    entire arithmetic is "pick a uniform direction (compass), flip coins,
//    count a short run" — the capabilities section 6 credits desert ants
//    and honeybees with.
//  * LowMemHarmonicStrategy — Algorithm 2 where the power-law radius draw
//    itself comes from coin flips: the dyadic scale l is geometric
//    (P(scale >= l+1 | >= l) = 2^-delta), matching P(d ~ 2^l) ~ 2^(-delta l)
//    ... i.e. p(u) ~ 1/d^(2+delta) aggregated over the ~2^(2l) nodes at
//    scale l; the walk and the spiral budget are randomized counters at
//    exponents l and ceil((2+delta) l).
//
// Both strategies remain UNIFORM (no knowledge of k anywhere).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/uniform.h"
#include "rng/rng.h"
#include "sim/program.h"
#include "sim/types.h"

namespace ants::core {

/// Steps taken by the consecutive-heads randomized counter targeting a run
/// of `exponent` heads (exponent >= 0), capped at `cap` so a single unlucky
/// draw cannot exceed any simulation horizon. E[steps] = 2^(exponent+1) - 2
/// (uncapped); the AGENT's mutable state during the walk is one run-length
/// integer. The SIMULATOR samples the waiting-time distribution directly —
/// flip-by-flip for small exponents, an O(1) renewal/CLT sampler beyond
/// (see lowmem.cpp) — so a draw never costs 2^exponent host work.
std::int64_t randomized_counter_steps(rng::Rng& rng, int exponent,
                                      std::int64_t cap);

/// Algorithm 1 on coin-flip arithmetic (O(log log) bits of mutable state
/// per in-flight quantity). eps >= 0 as in UniformStrategy.
class LowMemUniformStrategy final : public sim::Strategy {
 public:
  explicit LowMemUniformStrategy(double eps);

  std::string name() const override;
  std::unique_ptr<sim::AgentProgram> make_program(
      sim::AgentContext ctx) const override;

  double eps() const noexcept { return exact_.eps(); }

  /// Dyadic exponents the counters target (exposed for tests): the walk
  /// exponent is round(log2(D_ij)) and the spiral exponent round(log2(t_ij)),
  /// with D_ij, t_ij the exact Algorithm 1 closed forms.
  int walk_exponent(int stage_i, int phase_j) const noexcept;
  int spiral_exponent(int stage_i, int phase_j) const noexcept;

 private:
  UniformStrategy exact_;  ///< the exact schedule the exponents round
};

/// Algorithm 2 on coin-flip arithmetic. delta > 0 as in HarmonicStrategy.
class LowMemHarmonicStrategy final : public sim::Strategy {
 public:
  explicit LowMemHarmonicStrategy(double delta);

  std::string name() const override;
  std::unique_ptr<sim::AgentProgram> make_program(
      sim::AgentContext ctx) const override;

  double delta() const noexcept { return delta_; }

  /// P(scale advances past l) per coin round: 2^(-delta).
  double scale_continue_probability() const noexcept;

 private:
  double delta_;
};

}  // namespace ants::core
