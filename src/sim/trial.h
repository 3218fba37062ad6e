// The trial environment: what one trial of any executor backend runs in.
//
// The paper's base model — simultaneous starts, immortal agents, a single
// treasure — is one point in an environment space this module makes
// explicit. A TrialEnvironment is the fully realized environment of ONE
// trial: the target set the agents race for, a start delay per agent, and a
// fail-stop lifetime per agent. draw_environment() realizes it from the
// declarative StartSchedule/CrashModel policies using dedicated child
// streams of the trial rng (kScheduleStream / kCrashStream), so enabling an
// environment axis never perturbs the agents' program randomness.
//
// sim::batch::BatchRunner (sim/batch/batch.h) executes a trial under any
// environment with one of three backends, picked by the strategy family
// (TrialStrategy): segment (sim::Strategy), lock-step (sim::StepStrategy)
// and plane (plane::PlaneStrategy, continuous sight discs; integer delays
// and lifetimes read as continuous time units). The target processes below
// realize the per-trial target state, and detail:: holds the argument
// validation and target-window helpers every executor shares.
//
// The paper's base model is single_target_environment(treasure): sync
// starts, immortal agents, one treasure. The tests pin BatchRunner to the
// scalar reference executor in tests/support/reference_trial.h, byte for
// byte.
#pragma once

#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "plane/engine.h"
#include "rng/rng.h"
#include "sim/async_engine.h"
#include "sim/engine.h"
#include "sim/placement.h"
#include "sim/program.h"
#include "sim/step_engine.h"
#include "sim/types.h"

namespace ants::sim {

/// Child-stream tags of the trial rng reserved for environment draws.
/// Agent programs use child(a) with a in [0, k); these constants are far
/// outside any realistic k and distinct from each other, so the stream
/// families never collide.
inline constexpr std::uint64_t kScheduleStream = 0x5C4ED11E00000001ULL;
inline constexpr std::uint64_t kCrashStream = 0xC7A5400000000002ULL;
/// Target-process draws (Poisson arrivals/lifetimes, drift headings) use
/// their own stream so enabling a dynamic target axis never perturbs the
/// agents' program randomness or the schedule/crash draws. Static target
/// processes keep drawing positions from the trial rng's MAIN stream,
/// exactly as the one-shot draws always have (byte-compat).
inline constexpr std::uint64_t kTargetStream = 0x7A26E7D800000003ULL;

/// Per-target drift velocity in cells (grid) or distance units (plane) per
/// time unit. A drifting grid target with base position `b` occupies
/// b + (llround(vx * t), llround(vy * t)) at tick t (absolute trial time),
/// so its position is O(1) to evaluate at any tick.
struct TargetDrift {
  double vx = 0;
  double vy = 0;
};

/// The fully realized environment of one trial. Exactly one target vector
/// is populated — `targets` for the grid backends, `plane_targets` for the
/// plane backend (continuous sight discs). Empty `starts` / `lifetimes` are
/// the base model (everybody at t = 0, immortal) without paying two k-sized
/// allocations on the synchronous hot path; non-empty vectors must have
/// exactly k entries.
///
/// The target-process fields below default to the classic static model
/// (every target present for the whole trial, instant capture, race ends at
/// the first find). Every backend runs one loop for both models; the loops
/// detect a target on ARRIVAL at it. The static model's one special case —
/// an agent waking up on a source treasure — is resolved before the loop by
/// detail::resolve_origin_target; it does not apply to dynamic
/// environments, and the spec layer never places dynamic targets at the
/// origin (distance >= 1).
struct TrialEnvironment {
  std::vector<grid::Point> targets;        ///< grid targets; first-of-set
  std::vector<plane::Vec2> plane_targets;  ///< plane sight-disc centers
  std::vector<Time> starts;      ///< per-agent start delays (empty = 0)
  std::vector<Time> lifetimes;   ///< per-agent lifetimes (empty = never)

  /// Absolute appear/vanish times, parallel to the populated target vector
  /// (empty = every target lives over the whole trial). A hit at absolute
  /// time T counts iff appear[ti] <= T < vanish[ti]. Doubles on both
  /// substrates: grid hit times are exact integers below 2^53, so the
  /// comparison stays exact there.
  std::vector<double> target_appear;
  std::vector<double> target_vanish;

  /// Set by windowed target processes (Poisson arrivals) even when the
  /// realization spawned ZERO targets, so an empty target vector stays a
  /// legitimate (vacuous) trial instead of a validation error.
  bool windowed = false;

  /// Per-target drift velocities, parallel to `targets` (empty = static).
  /// Step-level (lock-step) strategies only — segment/plane backends have
  /// no per-tick target position and reject drifting targets.
  std::vector<TargetDrift> target_drift;

  /// Capture policy: extra ticks of CONTINUOUS contact required beyond the
  /// first before a find confirms (0 = instant, the classic model). Contact
  /// on the grid is the L1-radius-1 disc around the target (the step-level
  /// analog of the plane sight disc; always-moving walkers could never hold
  /// an exact node for consecutive ticks); leaving the disc or the target
  /// vanishing resets the dwell progress. Step-level strategies only.
  Time capture_dwell = 0;

  /// false: the race ends at the first target found (classic).
  /// true: the trial runs until every spawned target is found (or the time
  /// cap); TrialResult::target_times records per-target discovery times and
  /// TrialResult::time becomes the time-to-all-found.
  bool collect_all = false;

  /// Latest start delay (0 for the base model).
  Time last_start() const noexcept;

  bool has_target_windows() const noexcept {
    return windowed || !target_appear.empty() || !target_vanish.empty();
  }
  bool has_target_drift() const noexcept { return !target_drift.empty(); }

  /// True when any target-process feature is engaged: appear/vanish
  /// windows, drift, dwell capture, or collect-all. The one routing
  /// predicate of every grid backend: false runs the origin pre-step
  /// (detail::resolve_origin_target) before the backend loop, and picks
  /// BatchRunner's static loop instances (a compile-time specialisation of
  /// the same loop). BatchRunner runs every grid dynamic environment
  /// natively; only plane windowed/collect cells fall back to the scalar
  /// plane engine, plane::run_plane_trial (documented and counted at
  /// BatchRunner::run_one).
  bool has_dynamic_targets() const noexcept {
    return has_target_windows() || has_target_drift() || capture_dwell > 0 ||
           collect_all;
  }
};

/// The base-model environment around a single treasure.
TrialEnvironment single_target_environment(grid::Point treasure);

/// Realizes one trial's environment: start delays and lifetimes drawn from
/// the dedicated child streams of `trial_rng`, the target set(s) taken as
/// given (targets are placement draws, which consume the trial rng's main
/// stream exactly as the single-treasure path always has). The overload
/// taking a TrialEnvironment keeps whichever target vector is already
/// populated — grid or plane — and fills only starts/lifetimes.
TrialEnvironment draw_environment(int k, std::vector<grid::Point> targets,
                                  const StartSchedule& schedule,
                                  const CrashModel& crashes,
                                  const rng::Rng& trial_rng);
TrialEnvironment draw_environment(int k, TrialEnvironment env,
                                  const StartSchedule& schedule,
                                  const CrashModel& crashes,
                                  const rng::Rng& trial_rng);

/// A strategy for the executors: exactly one pointer set. The scenario
/// sweep builds this from its registry entry for sim::run_cell_blocks.
struct TrialStrategy {
  const Strategy* segment = nullptr;
  const StepStrategy* step = nullptr;
  const plane::PlaneStrategy* plane = nullptr;

  bool operator==(const TrialStrategy&) const = default;
};

/// Realizes the per-trial target state given the adversary distance D — the
/// process generalization of the old one-shot TargetDraw, and the hook the
/// scenario layer's `targets=` axis compiles into. A process owns target
/// state over TIME: it fills the environment's target vector plus any
/// appear/vanish windows and drift velocities for the trial's horizon
/// `time_cap`. Exactly one side is set, mirroring TrialStrategy: `grid`
/// feeds the segment/lock-step backends, `plane` the continuous backend.
///
/// Contract: static processes draw positions from `rng` (the trial rng's
/// MAIN stream — byte-identical to the historical one-shot draws); dynamic
/// processes draw EVERYTHING (inter-arrivals, positions, lifetimes,
/// headings) from rng.child(kTargetStream), so turning a dynamic axis on
/// never perturbs the agents' randomness.
struct TargetProcess {
  std::function<void(rng::Rng& rng, std::int64_t distance, Time time_cap,
                     TrialEnvironment* env)>
      grid;
  std::function<void(rng::Rng& rng, std::int64_t distance, Time time_cap,
                     TrialEnvironment* env)>
      plane;
};

/// The classic adversary as the trivial process: one static treasure per
/// trial from `placement`, present for the whole trial.
TargetProcess single_target(Placement placement);

/// The classic adversary on the plane: one static treasure per trial at
/// distance D in the direction drawn by `angle` (radians; e.g. rng.angle()
/// for the uniform ring adversary).
TargetProcess single_plane_target(std::function<double(rng::Rng&)> angle);

/// Poisson target process (grid): targets appear at the arrival times of a
/// rate-`rate` Poisson process on (0, time_cap], each at an independent
/// `placement` draw at distance D, and vanish after an Exponential lifetime
/// of mean `mean_life` (0 = immortal). Draws from rng.child(kTargetStream);
/// requires a finite time_cap. Per arrival the draw order is inter-arrival,
/// position, lifetime.
TargetProcess poisson_targets(double rate, double mean_life,
                              Placement placement);

/// Poisson target process on the plane: same arrival/lifetime machinery,
/// positions at distance D in the direction drawn by `angle`.
TargetProcess poisson_plane_targets(double rate, double mean_life,
                                    std::function<double(rng::Rng&)> angle);

/// Drifting target process (grid, step-level strategies only): one target
/// whose base position is a `placement` draw at distance D (from the target
/// stream) and which drifts at `speed` cells/tick in the fixed direction
/// `angle_turns` (fraction of a full turn in [0, 1)).
TargetProcess drifting_target(double speed, double angle_turns,
                              Placement placement);

namespace detail {

/// Shared between BatchRunner (sim/batch/) and the scalar reference
/// executor the tests pin it to: argument validation and the origin
/// pre-step must behave byte-identically on both paths, so they live in one
/// place.

/// Throws std::invalid_argument on k < 1, an empty (or wrong-substrate)
/// target set — except that a windowed process may legitimately spawn zero
/// targets — environment vectors of the wrong size, a null or ambiguous
/// strategy, a step strategy without a finite config.time_cap, or target
/// drift / dwell capture with a non-step strategy.
void validate_trial_args(const TrialStrategy& strategy, int k,
                         const TrialEnvironment& env,
                         const EngineConfig& config);

/// The origin pre-step every executor runs before any grid backend loop. In
/// a static environment (!env.has_dynamic_targets()) a target sitting on
/// the source node is found by every agent the moment it wakes up, so the
/// earliest ALIVE starter (lowest index on ties) is the finder, provided its
/// start is within `time_cap`. Dead-on-arrival agents (lifetime <= 0) never
/// act — they cannot be credited with the find and they count as crashed,
/// exactly as in the loops. Returns the fully resolved result, or
/// std::nullopt when the environment is dynamic or no target is at the
/// origin (the backend loop then runs).
std::optional<TrialResult> resolve_origin_target(const TrialEnvironment& env,
                                                 int k, Time time_cap);

/// Target-window and drift evaluation shared verbatim by BatchRunner's
/// dynamic SoA loops and the reference loops: byte-identity between the
/// two depends on there being exactly one definition of each.

/// Vanish time of a target with no window: never.
inline constexpr double kNeverVanish =
    std::numeric_limits<double>::infinity();

/// Appear/vanish of target `ti`, with the empty-vector defaults (appear at
/// 0, never vanish) materialized.
inline double appear_of(const TrialEnvironment& env, std::size_t ti) noexcept {
  return env.target_appear.empty() ? 0.0 : env.target_appear[ti];
}
inline double vanish_of(const TrialEnvironment& env, std::size_t ti) noexcept {
  return env.target_vanish.empty() ? kNeverVanish : env.target_vanish[ti];
}

/// Smallest integer offset within a segment started at absolute time `base`
/// at which a hit can fall inside a target's appear window. Nondecreasing
/// in `appear` for a fixed `base`, and nonincreasing in `base`.
inline Time window_from_offset(double appear, Time base) noexcept {
  const double lo = appear - static_cast<double>(base);
  if (lo <= 0) return 0;
  return static_cast<Time>(std::ceil(lo));
}

/// Position of (possibly drifting) grid target `ti` at absolute tick `t`:
/// base + (llround(vx * t), llround(vy * t)).
grid::Point target_position_at(const TrialEnvironment& env, std::size_t ti,
                               Time t) noexcept;

}  // namespace detail

}  // namespace ants::sim
