// Ablation variants of A_k: surgically altered versions of the paper's
// non-uniform algorithm that isolate single design choices.
//
//  * KnownKRandomLocalStrategy — the spiral search of each phase is replaced
//    by a simple random walk of the SAME step budget around the chosen
//    node. Tests the paper's implicit claim (section 1/related work) that
//    SYSTEMATIC local search matters: a t-step spiral covers Theta(t)
//    distinct nodes while a t-step random walk covers only Theta(t/log t)
//    and keeps revisiting, so the per-phase hit probability collapses and
//    competitiveness inflates (bench/paper/abl_local_search.spec).
//
//  * KnownKNoReturnStrategy — atomic procedure (4), "return to the source",
//    is dropped: each trip starts from wherever the previous spiral ended.
//    The return legs cost Theta(2^i) per phase, the same order as the
//    travel out, so dropping them can only change constants — but the
//    return step is what keeps an ant's navigation state bounded (path
//    integration home resets odometry). The bench quantifies how little
//    time the return legs actually cost (bench/paper/abl_return_policy.spec).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sim/program.h"
#include "sim/types.h"

namespace ants::baselines {

/// A_k with random-walk local search of equal budget (ablation).
class KnownKRandomLocalStrategy final : public sim::Strategy {
 public:
  explicit KnownKRandomLocalStrategy(std::int64_t k_belief);

  std::string name() const override;
  std::unique_ptr<sim::AgentProgram> make_program(
      sim::AgentContext ctx) const override;

  std::int64_t k_belief() const noexcept { return k_belief_; }

 private:
  std::int64_t k_belief_;
};

/// A_k without the return-to-source leg (ablation).
class KnownKNoReturnStrategy final : public sim::Strategy {
 public:
  explicit KnownKNoReturnStrategy(std::int64_t k_belief);

  std::string name() const override;
  std::unique_ptr<sim::AgentProgram> make_program(
      sim::AgentContext ctx) const override;

  std::int64_t k_belief() const noexcept { return k_belief_; }

 private:
  std::int64_t k_belief_;
};

}  // namespace ants::baselines
