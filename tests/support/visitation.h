// Visitation accounting: how many DISTINCT nodes does an agent visit, and
// where?
//
// This is the measurable core of the paper's lower-bound proofs (Theorems
// 4.1/4.2): under a phi(k)-competitive algorithm, a single agent must visit
// Omega(T / phi(k_i)) distinct nodes in each dyadic annulus S_i by time 2T,
// and summing those forces Sum 1/phi(2^i) to converge. The recorder
// materializes one agent's trajectory up to a horizon and counts distinct
// nodes per annulus, so the E4 claims can check exactly that bookkeeping.
#pragma once

#include <cstdint>
#include <vector>

#include "grid/point.h"
#include "rng/rng.h"
#include "sim/program.h"
#include "sim/types.h"

namespace ants::sim {

struct VisitationReport {
  /// distinct[i] = number of distinct nodes visited with annulus index i,
  /// where annulus i is { u : radii[i-1] < d(u) <= radii[i] } (annulus 0 is
  /// the ball of radius radii[0]).
  std::vector<std::int64_t> distinct;
  /// Total distinct nodes visited anywhere within the horizon.
  std::int64_t total_distinct = 0;
  /// Total steps actually simulated (= horizon unless the program stalls).
  Time steps = 0;
};

/// Runs one agent's program for `horizon` time steps and counts distinct
/// visited nodes per annulus. `radii` must be strictly increasing.
VisitationReport record_visitation(const Strategy& strategy, AgentContext ctx,
                                   rng::Rng& rng, Time horizon,
                                   const std::vector<std::int64_t>& radii);

/// Dyadic radii 2^0 .. 2^max_exponent (convenience for E4's S_i annuli).
std::vector<std::int64_t> dyadic_radii(int max_exponent);

}  // namespace ants::sim
