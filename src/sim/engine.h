// The collaborative-search engine (base model).
//
// Simulates k identical non-communicating agents, all starting at the source
// (origin) at time 0, until the first one visits the treasure. Because
// agents never interact, the run outcome is min over agents of each agent's
// private first-hit time; the executor exploits this by processing agents
// under a shrinking time bound (the best hit found so far, or the cap), so
// the cost of a trial is the number of SEGMENTS realized within the bound —
// polylogarithmic in D for the paper's algorithms — never the number of
// grid steps.
//
// This header holds the segment backend's building blocks: the engine
// config shared by every backend and op realization. The trial itself — k
// agents, any environment — runs on sim::batch::BatchRunner
// (sim/batch/batch.h); the base model is single_target_environment.
//
// Determinism: agent a of a trial draws from trial_rng.child(a), so results
// are identical regardless of evaluation order or thread count.
#pragma once

#include "sim/program.h"
#include "sim/segment.h"
#include "sim/types.h"

namespace ants::sim {

struct EngineConfig {
  /// Hard stop: hits strictly later than time_cap count as "not found".
  Time time_cap = kNeverTime;
  /// Safety valve against non-terminating strategies: throws
  /// std::runtime_error if a single agent realizes this many segments
  /// without either hitting the treasure or exceeding the bound.
  std::int64_t max_segments_per_agent = 50'000'000;
  /// Continuous-plane backend knobs (plane::PlaneEngineConfig mirrors);
  /// ignored by the grid backends. time_cap == kNeverTime maps to
  /// plane::kPlaneNever.
  double sight_radius = 1.0;  ///< the paper's eps
  double spiral_pitch = 1.0;  ///< <= 2 * sight_radius for gap-free coverage
};

/// Realizes an op into a concrete segment given the agent's position.
Segment realize(const Op& op, grid::Point current, grid::Point source);

}  // namespace ants::sim
