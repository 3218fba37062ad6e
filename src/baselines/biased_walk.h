// Outward-biased correlated random walk: the synthetic stand-in for the
// Harkness-Maroudas desert-ant model [24] the paper cites (their 1985 model
// is specified only loosely, so this is one concrete reading of it). Two
// behavioral knobs:
//
//   outward_bias  in [0, 1): extra weight on moves that increase the
//                 distance from the nest (drift away from the origin);
//   persistence   in [0, 1): probability of repeating the previous move
//                 regardless of bias (directional correlation — "compass-
//                 directed vector flight").
//
// With both zero this degenerates to the simple random walk. The model
// produces the two-part trajectories the paper's section 6 describes
// (straight outward runs + local tortuosity) without any treasure knowledge.
// step() runs the step_biased kernel (sim/batch/kernels.h) over the move
// tables built here.
#pragma once

#include <cstdint>
#include <string>

#include "sim/step_engine.h"

namespace ants::baselines {

class BiasedWalkStrategy final : public sim::StepStrategy {
 public:
  BiasedWalkStrategy(double outward_bias, double persistence);

  std::string name() const override;
  void step(sim::StepLanes& lanes, const std::uint32_t* agents,
            std::size_t n) const override;

  double outward_bias() const noexcept { return outward_bias_; }
  double persistence() const noexcept { return persistence_; }

 private:
  double outward_bias_;
  double persistence_;
  /// rng::bernoulli_threshold(persistence_).
  std::uint64_t persist_threshold_;
  /// Move weights and their running-sum total, indexed by the mask of
  /// outward moves (bit d set iff direction d increases the L1 norm).
  double weight_[16][4];
  double total_[16];
};

}  // namespace ants::baselines
