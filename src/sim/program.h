// The strategy/program abstraction: how search algorithms plug into the
// engine.
//
// A Strategy is the immutable description of an algorithm (with all its
// parameters); make_program instantiates the per-agent mutable state. A
// program emits an infinite stream of high-level Ops; the engine realizes
// each op into a concrete Segment from the agent's current position. This
// mirrors the paper's model: identical probabilistic agents whose only
// navigation capabilities are "pick a point / walk straight / spiral /
// return to source".
//
// Trip-shaped strategies (the paper's algorithms and their variants: go to
// a drawn node, search, return) do not implement AgentProgram: they supply
// a trip law to core::TripProgram (core/trip.h), which owns the one go ->
// search -> return state machine. Only the baselines that are not trips
// (walks, Levy flights, the sector sweep, the single spiral, the no-return
// ablation) implement AgentProgram directly.
#pragma once

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "grid/point.h"
#include "rng/rng.h"
#include "sim/types.h"

namespace ants::sim {

/// Walk in a digital straight line from the current position to `target`.
struct GoTo {
  grid::Point target;
};

/// Spiral around the current position visiting spiral indices 0..duration.
struct SpiralFor {
  Time duration = 0;
};

/// Walk straight back to the source node (atomic procedure 4).
struct ReturnToSource {};

/// Follow an explicit unit-step path from the current position (baselines:
/// ring arcs of the sector sweep, chunked random-walk steps).
struct FollowPath {
  std::vector<grid::Point> steps;  ///< successive positions, each adjacent
};

using Op = std::variant<GoTo, SpiralFor, ReturnToSource, FollowPath>;

/// One whole trip of a trip program: GoTo{to}, SpiralFor{budget} and
/// ReturnToSource, pulled at once by AgentProgram::next_trip.
struct Trip {
  grid::Point to;
  Time budget = 0;
};

/// Per-agent mutable algorithm state; next() may consult the agent's private
/// randomness and must always return (programs are conceptually infinite;
/// the engine stops pulling once its time bound is exceeded).
class AgentProgram {
 public:
  /// The op family, as core::TripProgram reads it.
  using Op = sim::Op;
  using Return = ReturnToSource;
  using Search = SpiralFor;
  using Trip = sim::Trip;

  virtual ~AgentProgram() = default;
  virtual Op next(rng::Rng& rng) = 0;

  /// The next three ops at once when they are one trip with a spiral
  /// search: fills *trip and returns true, having drawn exactly what three
  /// next() calls would. Returns false, drawing nothing, for a program that
  /// is not such a trip program and for a trip program between the legs of
  /// a trip; the caller then pulls ops with next().
  virtual bool next_trip(rng::Rng& /*rng*/, Trip* /*trip*/) { return false; }
};

class Strategy {
 public:
  virtual ~Strategy() = default;

  /// Human-readable name used in experiment tables.
  virtual std::string name() const = 0;

  /// Instantiates the program one agent runs. Uniform algorithms must ignore
  /// ctx.k (see AgentContext); coordinated baselines may use it.
  virtual std::unique_ptr<AgentProgram> make_program(AgentContext ctx) const = 0;
};

}  // namespace ants::sim
