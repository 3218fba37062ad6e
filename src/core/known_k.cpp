#include "core/known_k.h"

#include <algorithm>
#include <stdexcept>

#include "core/params.h"
#include "util/sat.h"

namespace ants::core {

KnownKStrategy::KnownKStrategy(std::int64_t k_belief) : k_belief_(k_belief) {
  if (k_belief < 1) throw std::invalid_argument("KnownK: k_belief >= 1");
}

std::string KnownKStrategy::name() const {
  return "known-k(k=" + std::to_string(k_belief_) + ")";
}

std::unique_ptr<sim::AgentProgram> KnownKStrategy::make_program(
    sim::AgentContext /*ctx*/) const {
  // Identical agents: the program depends only on the strategy parameters.
  return std::make_unique<TripProgram<KnownKLaw>>(KnownKLaw{k_belief_});
}

sim::Time KnownKStrategy::spiral_budget(int phase_i,
                                        std::int64_t k) noexcept {
  // t_i = 2^(2i+2) / k, clamped to >= 1 so a phase always searches at least
  // the chosen node, and saturated for unreachably large i.
  const int exponent = 2 * phase_i + 2;
  const std::int64_t numerator =
      exponent >= 62 ? util::kTimeCap : util::pow2(exponent);
  return std::max<std::int64_t>(1, numerator / k);
}

std::int64_t KnownKStrategy::ball_radius(int phase_i) noexcept {
  return util::pow2(std::min(phase_i, kMaxRadiusExponent));
}

}  // namespace ants::core
