// The continuous-plane collaborative-search engine.
//
// Mirrors sim/engine.h on R^2: k identical agents start at the origin, move
// at unit speed, and the search ends when one of them comes within the
// sight radius eps of the treasure. The paper's grid model is the
// discretization of THIS model ("each agent has a bounded field of view of
// say eps > 0, hence ... the integer two-dimensional infinite grid");
// running both and comparing (tests + experiment E11) validates that
// reduction quantitatively.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "plane/segment.h"
#include "rng/rng.h"

namespace ants::plane {

inline constexpr Time kPlaneNever = 1e300;

/// High-level continuous ops, realized into Moves from the current position.
struct GoToPoint {
  Vec2 target;
};
struct SpiralSweep {
  Time duration = 0;  ///< arc-length budget around the current position
};
struct ReturnHome {};

using PlaneOp = std::variant<GoToPoint, SpiralSweep, ReturnHome>;

/// One whole trip of a trip program: GoToPoint{to}, SpiralSweep{budget} and
/// ReturnHome, pulled at once by PlaneAgentProgram::next_trip.
struct PlaneTrip {
  Vec2 to;
  Time budget = 0;
};

class PlaneAgentProgram {
 public:
  /// The op family, as core::TripProgram (core/trip.h) reads it.
  using Op = PlaneOp;
  using Return = ReturnHome;
  using Search = SpiralSweep;
  using Trip = PlaneTrip;

  virtual ~PlaneAgentProgram() = default;
  virtual PlaneOp next(rng::Rng& rng) = 0;

  /// The plane twin of sim::AgentProgram::next_trip: the next three ops at
  /// once when they are one trip with a spiral sweep, drawing exactly what
  /// three next() calls would; false, drawing nothing, otherwise.
  virtual bool next_trip(rng::Rng& /*rng*/, PlaneTrip* /*trip*/) {
    return false;
  }
};

class PlaneStrategy {
 public:
  virtual ~PlaneStrategy() = default;
  virtual std::string name() const = 0;
  /// Uniform strategies must ignore k (same contract as the grid model).
  virtual std::unique_ptr<PlaneAgentProgram> make_program(int agent_index,
                                                          int k) const = 0;
};

struct PlaneEngineConfig {
  double sight_radius = 1.0;  ///< the paper's eps
  double spiral_pitch = 1.0;  ///< <= 2 * sight_radius for gap-free coverage
  Time time_cap = kPlaneNever;
  std::int64_t max_segments_per_agent = 50'000'000;
};

/// The fully realized environment of one continuous-plane trial — the
/// plane-side mirror of sim::TrialEnvironment. Targets are sight discs of
/// the engine's eps around each point; empty `starts` / `lifetimes` are the
/// base model (everybody at t = 0, immortal) without paying two k-sized
/// allocations on the synchronous hot path; non-empty vectors must have
/// exactly k entries.
struct PlaneTrialEnvironment {
  std::vector<Vec2> targets;    ///< >= 1 target discs; first-of-set race
  std::vector<Time> starts;     ///< per-agent start delays (empty = 0)
  std::vector<Time> lifetimes;  ///< per-agent lifetimes (empty = never)

  /// Absolute appear/vanish times per target (empty = whole trial); a
  /// sighting at absolute time T counts iff appear[ti] <= T < vanish[ti].
  /// The plane-side mirror of sim::TrialEnvironment's target windows; when
  /// engaged, the target set may legitimately be empty (a Poisson process
  /// that spawned nothing) and the home-target special case is skipped
  /// (detection on sighting only).
  std::vector<double> target_appear;
  std::vector<double> target_vanish;

  /// Set by windowed target processes even when the realization spawned
  /// ZERO targets (mirrors sim::TrialEnvironment::windowed).
  bool windowed = false;

  /// true: the trial runs until every spawned target is sighted (or the
  /// cap); PlaneTrialResult::target_times records per-target times.
  bool collect_all = false;

  /// Latest start delay (0 for the base model).
  Time last_start() const noexcept;

  bool has_target_windows() const noexcept {
    return windowed || !target_appear.empty() || !target_vanish.empty();
  }
};

/// Result of one environment-aware plane trial; the plane-side mirror of
/// sim::TrialResult (all times in continuous unit-speed units).
struct PlaneTrialResult {
  Time time = kPlaneNever;    ///< absolute first-sighting time (or the cap)
  bool found = false;         ///< true iff some target was sighted in time
  int finder = -1;            ///< index of the first agent to sight one
  int first_target = -1;      ///< index of the first-sighted target
  std::int64_t segments = 0;  ///< moves realized (cost accounting)
  Time last_start = 0;        ///< latest start delay in the environment
  Time from_last_start = 0;   ///< max(0, time - last_start) if found
  int crashed = 0;            ///< agents that exhausted their lifetime

  /// Collect-all mode only (empty otherwise): per spawned target, the
  /// absolute sighting time or -1 if never sighted in its live window. In
  /// this mode `time` is the time-to-ALL-sighted (censored at the cap) and
  /// finder/first_target describe the earliest sighting.
  std::vector<double> target_times;
};

/// Runs one continuous trial of `strategy` under `env`: the interleaved
/// min-clock sweep generalized over per-agent start delays (agents idle at
/// home until their start time), fail-stop lifetimes (a trajectory is
/// truncated at its active-time budget; sightings past it do not count),
/// and first-of-set races over multiple sight discs; agent a draws from
/// trial_rng.child(a). The paper's base model is an environment with only
/// `targets = {treasure}` set (simultaneous starts, immortal agents). Throws
/// std::invalid_argument on k < 1, an empty target set, environment vectors
/// of the wrong size, or a non-positive sight radius.
PlaneTrialResult run_plane_trial(const PlaneStrategy& strategy, int k,
                                 const PlaneTrialEnvironment& env,
                                 const rng::Rng& trial_rng,
                                 const PlaneEngineConfig& config = {});

namespace detail {

/// Shared between the scalar executor and the batch kernels (sim/batch/):
/// argument validation and the home-target special case must behave
/// byte-identically on both paths, so they live in one place.

/// Throws std::invalid_argument exactly as run_plane_trial documents.
void validate_plane_trial_args(int k, const PlaneTrialEnvironment& env,
                               const PlaneEngineConfig& config);

/// The home pre-step both executors run before their sweep when the
/// environment is static (no windows, no collect-all); the sweep itself
/// detects targets on sighting only. Handles a target already inside the
/// sight disc of home: every agent that ever starts sees it the moment it
/// wakes up, so the earliest ALIVE starter (lowest index on ties) is the
/// finder, provided its start is within `time_cap`. Dead-on-arrival agents
/// (lifetime <= 0) never act — they cannot be credited with the find and
/// they count into result->crashed, exactly as on the non-home path.
/// Returns true iff a target was within eps of home (the result is then
/// fully resolved).
bool resolve_home_target(const PlaneTrialEnvironment& env, int k, double eps,
                         Time time_cap, PlaneTrialResult* result);

}  // namespace detail

}  // namespace ants::plane
