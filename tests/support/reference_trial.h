// The scalar reference executor: the readable twin of sim::batch::BatchRunner.
//
// run_trial() executes one trial under any environment with one of three
// backends, picked by the strategy family:
//
//   * segment backend (sim::Strategy) — the interleaved min-heap sweep with
//     the shrinking time bound (min over agents of the best hit so far),
//     shared identically by the synchronous and asynchronous paths; cost is
//     the number of realized segments, never grid steps.
//   * lock-step backend (sim::StepStrategy) — all agents advance one edge
//     per tick; not-yet-started agents wait at the source, agents whose
//     active time exceeds their lifetime halt in place. Requires a finite
//     time cap (random walks on Z^2 have infinite expected hitting time).
//   * plane backend (plane::PlaneStrategy) — the continuous model the grid
//     discretizes, run by the scalar plane engine (plane::run_plane_trial).
//     The same StartSchedule/CrashModel draws apply — integer delays and
//     lifetimes read as continuous time units — so a paired grid-vs-plane
//     sweep perturbs both substrates identically.
//
// The product runs every trial on BatchRunner; this executor is the oracle
// the tests and the BM_Unified* benchmarks compare it against, byte for
// byte. It shares argument validation, the origin pre-step and the
// target-window helpers (sim::detail) with BatchRunner, and nothing else.
#pragma once

#include "plane/engine.h"
#include "rng/rng.h"
#include "sim/engine.h"
#include "sim/program.h"
#include "sim/step_engine.h"
#include "sim/trial.h"
#include "sim/types.h"

namespace ants::sim {

/// Runs one trial of `strategy` under `env`. Dispatches to the segment,
/// lock-step, or plane backend; throws std::invalid_argument on k < 1, an
/// empty (or wrong-substrate) target set — except that a windowed process
/// may legitimately spawn zero targets — environment vectors of the wrong
/// size, a null strategy, a step strategy without a finite config.time_cap,
/// or target drift / dwell capture with a non-step strategy. The plane
/// backend reads config.sight_radius / config.spiral_pitch and maps
/// config.time_cap == kNeverTime to plane::kPlaneNever; its times come back
/// fractional, the grid backends' as exact integers (TrialResult times are
/// doubles for exactly this).
TrialResult run_trial(const TrialStrategy& strategy, int k,
                      const TrialEnvironment& env, const rng::Rng& trial_rng,
                      const EngineConfig& config = {});

/// Convenience overloads, one per strategy family.
TrialResult run_trial(const Strategy& strategy, int k,
                      const TrialEnvironment& env, const rng::Rng& trial_rng,
                      const EngineConfig& config = {});
TrialResult run_trial(const StepStrategy& strategy, int k,
                      const TrialEnvironment& env, const rng::Rng& trial_rng,
                      const EngineConfig& config = {});
TrialResult run_trial(const plane::PlaneStrategy& strategy, int k,
                      const TrialEnvironment& env, const rng::Rng& trial_rng,
                      const EngineConfig& config = {});

/// First-hit time of a single agent's program under `bound`, a one-agent
/// oracle. Returns kNeverTime if the agent does not hit at or before the
/// bound; throws std::runtime_error once the agent realizes more than
/// `max_segments` segments.
Time single_agent_hit_time(AgentProgram& program, rng::Rng& rng,
                           grid::Point treasure, grid::Point source,
                           Time bound, std::int64_t max_segments,
                           std::int64_t* segments_out = nullptr);

}  // namespace ants::sim
