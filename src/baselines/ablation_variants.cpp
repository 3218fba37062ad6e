#include "baselines/ablation_variants.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/known_k.h"
#include "grid/ball.h"

namespace ants::baselines {

namespace {

/// Materializes a `steps`-long simple random walk as successive positions
/// starting AFTER `from` (FollowPath convention).
std::vector<grid::Point> random_walk_steps(rng::Rng& rng, grid::Point from,
                                           sim::Time steps) {
  std::vector<grid::Point> path;
  path.reserve(static_cast<std::size_t>(steps));
  grid::Point pos = from;
  for (sim::Time t = 0; t < steps; ++t) {
    pos = pos + grid::kDirections[rng.direction4()];
    path.push_back(pos);
  }
  return path;
}

// A_k's trip with the spiral swapped for a materialized random walk from
// the trip's node.
struct RandomLocalLaw {
  using Program = sim::AgentProgram;

  core::KnownKLaw known;
  grid::Point target{};

  sim::GoTo destination(rng::Rng& rng) {
    const sim::GoTo go = known.destination(rng);
    target = go.target;
    return go;
  }
  sim::FollowPath search(rng::Rng& rng) const {
    // Same step budget as the spiral would get; capped to keep the
    // materialized path affordable (the ablation is run at small i).
    const sim::Time budget = std::min<sim::Time>(
        core::KnownKStrategy::spiral_budget(known.phases.i, known.k), 1 << 22);
    return {random_walk_steps(rng, target, budget)};
  }
  void advance() noexcept { known.advance(); }
};

// A_k minus the ReturnToSource op: not a trip, so a program of its own.
class NoReturnProgram final : public sim::AgentProgram {
 public:
  explicit NoReturnProgram(std::int64_t k_belief) : law_{k_belief} {}

  sim::Op next(rng::Rng& rng) override {
    if (go_phase_) {
      go_phase_ = false;
      return law_.destination(rng);
    }
    go_phase_ = true;
    const sim::SpiralFor spiral = law_.search(rng);
    law_.advance();
    return spiral;
  }

 private:
  core::KnownKLaw law_;
  bool go_phase_ = true;
};

}  // namespace

KnownKRandomLocalStrategy::KnownKRandomLocalStrategy(std::int64_t k_belief)
    : k_belief_(k_belief) {
  if (k_belief < 1) {
    throw std::invalid_argument("KnownKRandomLocal: k_belief >= 1");
  }
}

std::string KnownKRandomLocalStrategy::name() const {
  return "known-k-rw-local(k=" + std::to_string(k_belief_) + ")";
}

std::unique_ptr<sim::AgentProgram> KnownKRandomLocalStrategy::make_program(
    sim::AgentContext /*ctx*/) const {
  return std::make_unique<core::TripProgram<RandomLocalLaw>>(
      RandomLocalLaw{core::KnownKLaw{k_belief_}});
}

KnownKNoReturnStrategy::KnownKNoReturnStrategy(std::int64_t k_belief)
    : k_belief_(k_belief) {
  if (k_belief < 1) {
    throw std::invalid_argument("KnownKNoReturn: k_belief >= 1");
  }
}

std::string KnownKNoReturnStrategy::name() const {
  return "known-k-no-return(k=" + std::to_string(k_belief_) + ")";
}

std::unique_ptr<sim::AgentProgram> KnownKNoReturnStrategy::make_program(
    sim::AgentContext /*ctx*/) const {
  return std::make_unique<NoReturnProgram>(k_belief_);
}

}  // namespace ants::baselines
