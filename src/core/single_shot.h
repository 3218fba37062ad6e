// Section 5 remark, made concrete: single-sweep ("constant probability")
// variants of the paper's algorithms.
//
// The paper observes that if one only demands that the treasure be found
// with some constant probability — instead of bounding the EXPECTED running
// time — one loop of each algorithm can be dropped ("it is possible to avoid
// one of the loops of the algorithms. However, a sequence of iterations
// still needs to be performed").
//
// * SingleSweepKnownK drops A_k's outer stage loop: phases i = 1, 2, 3, ...
//   each run exactly ONCE (go to uniform B(2^i), spiral 2^(2i+2)/k, return).
//   Every phase i >= log D hits with probability Theta(1/k) per agent —
//   Theta(1) for the k-agent party — so the treasure is found within the
//   optimal O(D + D^2/k) budget with constant probability. What repetition
//   bought in A_k is the boost from "constant probability" to "bounded
//   expectation": a missed phase here is gone forever, and since phase costs
//   quadruple while the per-phase failure probability is a constant, the
//   EXPECTED time of the single sweep can genuinely diverge. Experiment E10
//   measures exactly this gap.
//
// * SingleSweepUniform drops Algorithm 1's big-stage loop: stages
//   i = 0, 1, 2, ... each run once (with their inner phase loop j = 0..i
//   intact). Same story against the full A_uniform.
//
// Both remain legal strategies for the engine (programs are infinite); they
// are simply not expectation-optimal.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/uniform.h"
#include "sim/program.h"
#include "sim/types.h"

namespace ants::core {

class SingleSweepKnownK final : public sim::Strategy {
 public:
  /// `k_belief` >= 1: the number of agents each agent assumes.
  explicit SingleSweepKnownK(std::int64_t k_belief);

  std::string name() const override;
  std::unique_ptr<sim::AgentProgram> make_program(
      sim::AgentContext ctx) const override;

  std::int64_t k_belief() const noexcept { return k_belief_; }

  /// Same per-phase schedule as A_k (tested against KnownKStrategy).
  sim::Time spiral_budget(int phase_i) const noexcept;
  std::int64_t ball_radius(int phase_i) const noexcept;

 private:
  std::int64_t k_belief_;
};

class SingleSweepUniform final : public sim::Strategy {
 public:
  /// eps >= 0, as in UniformStrategy.
  explicit SingleSweepUniform(double eps);

  std::string name() const override;
  std::unique_ptr<sim::AgentProgram> make_program(
      sim::AgentContext ctx) const override;

  double eps() const noexcept { return inner_.eps(); }

  /// Schedule closed forms are shared with the full uniform algorithm.
  std::int64_t ball_radius(int stage_i, int phase_j) const noexcept {
    return inner_.ball_radius(stage_i, phase_j);
  }
  sim::Time spiral_budget(int stage_i, int phase_j) const noexcept {
    return inner_.spiral_budget(stage_i, phase_j);
  }
  /// The tabled phase the programs read (UniformStrategy::phase).
  UniformStrategy::Phase phase(int stage_i, int phase_j) const noexcept {
    return inner_.phase(stage_i, phase_j);
  }

 private:
  UniformStrategy inner_;  ///< parameter holder for the shared closed forms
};

}  // namespace ants::core
