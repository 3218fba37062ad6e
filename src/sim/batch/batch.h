// The batch trial executor: struct-of-arrays state + SIMD kernels.
//
// The product's one trial executor. A sweep cell runs hundreds of trials of
// ONE (strategy, k) pair under the same engine config; a scalar executor
// would rebuild its per-agent state vectors, heap, and plane environment
// from scratch for every trial. BatchRunner hoists that state into reusable
// contiguous arrays — per-agent clocks, positions, elapsed times, lifetimes
// in SoA layout, targets split into coordinate arrays — picks the segment
// and plane loops' next agent with a winner tree over the clocks
// (min_tree.h), and drives the other inner loops (lock-step steps and
// occupancy checks, plane sight-disc tests) through the runtime-dispatched
// kernels in kernels.h.
//
// Batching is strictly an execution detail. Per-trial seed derivation is
// unchanged — agent a still draws from trial_rng.child(a), environments
// from kScheduleStream/kCrashStream — and every kernel is result-identical
// to the scalar loop it replaces (see kernels.h), so
//
//     BatchRunner(strategy, k, config).run_one(env, trial_rng)
//       == run_trial(strategy, k, env, trial_rng, config)
//
// byte for byte, on every dispatch level, where run_trial is the scalar
// reference executor in tests/support/reference_trial.h (test-enforced, and
// CI-enforced against the golden CSVs).
//
// A runner is single-threaded and reusable: construct one per worker per
// (strategy, k) pair and feed it blocks of trials through run_block. The
// parallel driver (sim::run_cell_blocks, behind both the scenario sweep and
// sim::run_env_trials) hands one worker one block at a time, sized by
// trial_block below: at most kTrialBlock trials, enough to amortize runner
// reuse and to fill the lock-step loop's vector lanes, and at least one
// block per worker when a cell has fewer than workers * kTrialBlock trials,
// so a small cell still spreads over every worker. The lock-step walkers
// run a whole block at once: trial s of the block owns lanes
// s*k .. s*k + k - 1 of one StepLanes, and one strategy step per tick
// advances every running trial's agents through the SIMD step kernels
// (kernels.h). Results are indexed by trial, and no trial reads another's
// state, so block sizes never change a byte.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "plane/engine.h"
#include "sim/batch/kernels.h"
#include "sim/batch/min_tree.h"
#include "sim/trial.h"

namespace ants::sim::batch {

/// The largest number of trials in one work item.
inline constexpr std::size_t kTrialBlock = 64;

/// Trials per work item when a parallel driver chunks `trials` trials of a
/// cell over `workers` workers: kTrialBlock on one worker, otherwise
/// ceil(trials / workers) clamped to [1, kTrialBlock].
inline std::size_t trial_block(std::size_t trials, unsigned workers) {
  if (workers <= 1) return kTrialBlock;
  const std::size_t per_worker = (trials + workers - 1) / workers;
  return std::clamp<std::size_t>(per_worker, 1, kTrialBlock);
}

class BatchRunner {
 public:
  /// Binds the runner to one (strategy, k, config) cell. The strategy must
  /// outlive the runner. Throws std::invalid_argument for a null or
  /// ambiguous strategy and for k < 1.
  BatchRunner(const TrialStrategy& strategy, int k,
              const EngineConfig& config = {});

  /// Runs one trial. Throws std::invalid_argument for an environment that
  /// detail::validate_trial_args rejects, and std::runtime_error when an
  /// agent realizes more than config.max_segments_per_agent segments. For
  /// a step strategy this is run_block of one trial.
  TrialResult run_one(const TrialEnvironment& env, const rng::Rng& trial_rng);

  /// Runs trials 0..n) of a block: trial i in envs[i] with trial_rngs[i],
  /// its result in out[i], each equal to run_one(envs[i], trial_rngs[i]).
  /// A step strategy runs the block in lock-step: one strategy step per
  /// tick over the lanes of every trial still running (see run_step); the
  /// other families run the trials one after another. Same errors as
  /// run_one.
  void run_block(const TrialEnvironment* envs, const rng::Rng* trial_rngs,
                 std::size_t n, TrialResult* out);

  /// Trials run_one delegated to the scalar plane engine
  /// (plane::run_plane_trial) since the last call, returned and reset. Grid
  /// backends never delegate; the one remaining case is a plane strategy
  /// under a dynamic target process (see run_one).
  /// Drained per block by sim::run_cell_blocks; the sweep adds it to the
  /// batch_scalar_fallback metric.
  std::uint64_t take_scalar_fallbacks() noexcept {
    const std::uint64_t n = scalar_fallbacks_;
    scalar_fallbacks_ = 0;
    return n;
  }

  /// The dispatch level the last/next run_one or run_block uses (re-read
  /// from active_simd_level() at each call, so force_simd_level takes
  /// effect between calls).
  SimdLevel level() const noexcept { return kernels_->level; }

 private:
  /// One loop per grid backend. kDynamic is env.has_dynamic_targets(),
  /// picked after the origin pre-step (per trial in run_one; run_block
  /// groups a block's step trials by it): the true instance handles
  /// appear/vanish windows, drift, dwell capture, and collect-all
  /// (lock-step: per-tick tests over the live-target list only; segment:
  /// targets whose window misses the segment skipped before the hit
  /// test); the false instance compiles all of that out and is the
  /// paper's static model. run_step runs the trials envs[trials[s]] for
  /// s < n as slots of one lock-step block.
  template <bool kDynamic>
  TrialResult run_segment(const TrialEnvironment& env,
                          const rng::Rng& trial_rng);
  template <bool kDynamic>
  void run_step(const TrialEnvironment* envs, const rng::Rng* trial_rngs,
                const std::uint32_t* trials, std::size_t n, TrialResult* out);
  TrialResult run_plane(const TrialEnvironment& env,
                        const rng::Rng& trial_rng);

  /// spiral_theta_for_arc(a, s) through a small direct-mapped memo. The
  /// Newton solve dominates the plane profile and strategies reuse a few
  /// distinct durations (phase budgets) across agents and trials; keying on
  /// the exact bit pattern of s returns bit-identical thetas. `a` is fixed
  /// per runner (derived from config.spiral_pitch), so it is not keyed.
  double spiral_theta(double a, double s);

  TrialStrategy strategy_;
  int k_;
  EngineConfig config_;
  const Kernels* kernels_;

  // --- reusable workspaces (grown once, reused across trials) -------------
  // Segment backend: per-agent rng streams, the grid targets in SoA, and
  // the dynamic target process's per-trial state.
  std::vector<rng::Rng> rngs_;
  std::vector<std::int64_t> tgt_x_, tgt_y_;
  std::vector<double> app_, van_;     ///< appear/vanish windows
  std::vector<std::int64_t> best_t_;  ///< per-target earliest hit
  std::vector<int> finder_t_;         ///< per-target finder
  std::vector<std::unique_ptr<AgentProgram>> seg_programs_;
  std::vector<std::int64_t> clock_;    ///< abs clock; kNeverTime = removed
  std::vector<std::int64_t> elapsed_;  ///< active time in own program
  std::vector<std::int64_t> pos_x_, pos_y_;
  std::vector<std::int64_t> seg_count_;
  std::vector<char> queued_;  ///< mirrors heap membership (rare-path ties)
  /// The min-clock advance over clock_ (segment) or pclock_ (plane), each
  /// padded to the tree's leaf count by MinTree::build. A runner has one
  /// strategy family, so the two loops share one tree.
  MinTree clock_tree_;

  // Lock-step backend: one slot per trial of the block, the SoA lanes of
  // every slot's agents that the strategy kernel steps, the slots still
  // running, and the lanes that step this tick.
  struct StepSlot {
    const TrialEnvironment* env = nullptr;
    TrialResult* result = nullptr;
    StepRoster roster;
    std::size_t nt = 0;  ///< targets
    bool collect = false, drift = false;
    Time dwell = 0;
    Time last_start = 0;
    std::size_t n_found = 0;
    int first_finder = -1, first_ti = -1;
    Time counted = 0;   ///< steps are in result->segments through this tick
    bool done = false;  ///< retired this tick
    std::vector<std::int64_t> tx, ty;  ///< targets (drift: base positions)
    // Dynamic loop only.
    std::vector<double> app, van;         ///< appear/vanish windows
    std::vector<std::uint32_t> order;     ///< targets by appear time
    std::vector<std::uint32_t> live;      ///< live unfound, ascending
    std::vector<std::int64_t> live_x, live_y;  ///< live's positions @ tick
    std::vector<std::int64_t> found_at;   ///< per-target discovery tick
    std::vector<std::int64_t> held;       ///< dwell contact clocks, k * nt
    std::size_t next_appear = 0;  ///< order[next_appear..] still to appear
    double next_event = 0;        ///< earliest tick live can change
  };
  std::vector<StepSlot> slots_;
  StepLanes lanes_;
  std::vector<std::uint32_t> running_;
  std::vector<std::uint32_t> step_lanes_;
  /// Static loop: lane s*k + a holds slot s's target when it has exactly
  /// one, else kNoTarget; one pass over the stepped lanes then finds every
  /// slot that can have a find this tick.
  std::vector<std::int64_t> lane_tx_, lane_ty_;
  std::vector<std::uint32_t> static_trials_, dynamic_trials_;

  // Plane backend.
  std::vector<std::unique_ptr<plane::PlaneAgentProgram>> plane_programs_;
  plane::PlaneTrialEnvironment plane_env_;
  std::vector<double> ptgt_x_, ptgt_y_;
  std::vector<double> pclock_;    ///< abs clock; kPlaneNever = removed
  std::vector<double> pelapsed_;
  std::vector<double> ppos_x_, ppos_y_;
  std::vector<std::uint32_t> cand_;  ///< line_candidates output buffer

  struct ThetaMemoEntry {
    std::uint64_t s_bits = 0;
    double theta = 0.0;
    bool valid = false;
  };
  std::array<ThetaMemoEntry, 64> theta_memo_{};

  std::uint64_t scalar_fallbacks_ = 0;
};

}  // namespace ants::sim::batch
