#include "baselines/random_walk.h"

#include "sim/batch/kernels.h"

namespace ants::baselines {

void RandomWalkStrategy::step(sim::StepLanes& lanes,
                              const std::uint32_t* agents,
                              std::size_t n) const {
  sim::batch::kernels_for(lanes.level).step_random(lanes, agents, n);
}

}  // namespace ants::baselines
