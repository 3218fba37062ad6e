// The batch trial executor: struct-of-arrays state + SIMD kernels.
//
// The product's one trial executor. A sweep cell runs hundreds of trials of
// ONE (strategy, k) pair under the same engine config; a scalar executor
// would rebuild its per-agent state vectors, heap, and plane environment
// from scratch for every trial. BatchRunner hoists that state into reusable
// contiguous arrays — per-agent clocks, positions, elapsed times, lifetimes
// in SoA layout, targets split into coordinate arrays — and drives the
// inner loops (min-clock advance, lock-step occupancy checks, plane
// sight-disc tests) through the runtime-dispatched kernels in kernels.h.
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
// (strategy, k) pair and feed it a block of trials. The parallel driver
// (sim::run_cell_blocks, behind both the scenario sweep and sim::Runner)
// hands one worker one block at a time, sized by trial_block below: at
// most kTrialBlock trials, enough to amortize runner reuse, and at least
// one block per worker when a cell has fewer than workers * kTrialBlock
// trials, so a small cell still spreads over every worker. Results are
// indexed by trial, so block sizes never change a byte.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "plane/engine.h"
#include "sim/batch/kernels.h"
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
  /// agent realizes more than config.max_segments_per_agent segments.
  TrialResult run_one(const TrialEnvironment& env, const rng::Rng& trial_rng);

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

  /// The dispatch level the last/next run_one uses (re-read from
  /// active_simd_level() at each call, so force_simd_level takes effect
  /// between trials).
  SimdLevel level() const noexcept { return kernels_->level; }

 private:
  /// One loop per grid backend. kDynamic is env.has_dynamic_targets(),
  /// picked once in run_one after the origin pre-step: the true instance
  /// handles appear/vanish windows, drift, dwell capture, and collect-all
  /// (lock-step: per-tick tests over the live-target list only; segment:
  /// targets whose window misses the segment skipped before the hit
  /// test); the false instance compiles all of that out and is the
  /// paper's static model.
  template <bool kDynamic>
  TrialResult run_segment(const TrialEnvironment& env,
                          const rng::Rng& trial_rng);
  template <bool kDynamic>
  TrialResult run_step(const TrialEnvironment& env, const rng::Rng& trial_rng);
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
  // Per-agent rng streams (segment backend), grid target SoA (both grid
  // backends).
  std::vector<rng::Rng> rngs_;
  std::vector<std::int64_t> tgt_x_, tgt_y_;

  // Dynamic target processes (per-trial target state, SoA).
  std::vector<double> app_, van_;            ///< appear/vanish windows
  std::vector<std::uint32_t> order_;  ///< lock-step: targets by appear time
  std::vector<std::uint32_t> live_;   ///< lock-step: live unfound, ascending
  std::vector<std::int64_t> live_x_, live_y_;  ///< live_'s positions @ tick
  std::vector<std::int64_t> found_at_;  ///< per-target discovery tick
  std::vector<std::int64_t> best_t_;    ///< segment: per-target earliest hit
  std::vector<int> finder_t_;           ///< segment: per-target finder
  std::vector<std::int64_t> held_;      ///< dwell contact clocks, uk * nt

  // Segment backend.
  std::vector<std::unique_ptr<AgentProgram>> seg_programs_;
  std::vector<std::int64_t> clock_;    ///< abs clock; kNeverTime = removed
  std::vector<std::int64_t> elapsed_;  ///< active time in own program
  std::vector<std::int64_t> pos_x_, pos_y_;
  std::vector<std::int64_t> seg_count_;
  std::vector<char> queued_;  ///< mirrors heap membership (rare-path ties)
  std::vector<std::int64_t> blockmin_;  ///< two-level argmin: per-block minima

  // Lock-step backend: the agents' SoA lanes the strategy kernel steps, and
  // the per-tick active list.
  StepLanes lanes_;
  StepRoster roster_;

  // Plane backend.
  std::vector<std::unique_ptr<plane::PlaneAgentProgram>> plane_programs_;
  plane::PlaneTrialEnvironment plane_env_;
  std::vector<double> ptgt_x_, ptgt_y_;
  std::vector<double> pclock_;    ///< abs clock; kPlaneNever = removed
  std::vector<double> pelapsed_;
  std::vector<double> ppos_x_, ppos_y_;
  std::vector<double> pblockmin_;    ///< two-level argmin: per-block minima
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
