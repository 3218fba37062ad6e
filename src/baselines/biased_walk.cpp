#include "baselines/biased_walk.h"

#include <stdexcept>

#include "sim/batch/kernels.h"
#include "util/format.h"

namespace ants::baselines {

BiasedWalkStrategy::BiasedWalkStrategy(double outward_bias, double persistence)
    : outward_bias_(outward_bias),
      persistence_(persistence),
      persist_threshold_(rng::bernoulli_threshold(persistence)) {
  if (!(outward_bias >= 0.0 && outward_bias < 1.0)) {
    throw std::invalid_argument("BiasedWalk: outward_bias in [0, 1)");
  }
  if (!(persistence >= 0.0 && persistence < 1.0)) {
    throw std::invalid_argument("BiasedWalk: persistence in [0, 1)");
  }
  // A grid move changes the L1 norm by exactly +-1, so every move is either
  // outward (weight 1 + bias) or inward (1 - bias). The totals are summed in
  // direction order, as a per-step loop would.
  for (unsigned mask = 0; mask < 16; ++mask) {
    double total = 0;
    for (int d = 0; d < 4; ++d) {
      weight_[mask][d] =
          (mask >> d) & 1U ? 1.0 + outward_bias_ : 1.0 - outward_bias_;
      total += weight_[mask][d];
    }
    total_[mask] = total;
  }
}

std::string BiasedWalkStrategy::name() const {
  return "biased-walk(b=" + util::fmt_param(outward_bias_) +
         ",p=" + util::fmt_param(persistence_) + ")";
}

void BiasedWalkStrategy::step(sim::StepLanes& lanes,
                              const std::uint32_t* agents,
                              std::size_t n) const {
  sim::batch::kernels_for(lanes.level)
      .step_biased(lanes, agents, n, {persist_threshold_, weight_, total_});
}

}  // namespace ants::baselines
