// Monte-Carlo runner: repeats environment-aware trials across threads and
// aggregates the statistics the experiment tables need.
//
// run_cell_blocks is THE (cell, trial-block) loop: it executes the trials
// of any number of cells as work items on the batch executor. The scenario
// sweep drives it over a whole plan; run_env_trials drives it over one
// cell, and every other run_* entry point here forwards to run_env_trials.
//
// Reproducibility contract: trial i of a run with master seed S uses
// rng seed mix(S, i) for both placement and the engine, so a result is a
// pure function of (strategy, k, D, placement, trials, S) — thread count
// and scheduling cannot change it.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/placement.h"
#include "sim/trial.h"
#include "sim/types.h"
#include "stats/summary.h"

namespace ants::sim {

struct RunConfig {
  std::int64_t trials = 200;
  std::uint64_t seed = 0x5EEDF00DULL;
  Time time_cap = kNeverTime;  ///< per-trial cap (censored if exceeded)
  unsigned threads = 0;        ///< 0 = hardware concurrency
};

struct RunStats {
  stats::Summary time;          ///< search times, censored at the cap
  double success_rate = 1.0;    ///< fraction of trials that found it in time
  double mean_competitiveness = 0;  ///< mean time / (D + D^2/k)
  double median_competitiveness = 0;
  std::int64_t distance = 0;
  std::int64_t k = 0;
  std::vector<double> times;    ///< raw per-trial times (censored)
};

/// Builds RunStats from raw per-trial times. Shared by the runner and the
/// scenario sweep, which must aggregate identically.
RunStats make_run_stats(std::vector<double> times, std::int64_t found,
                        std::int64_t distance, int k);

/// Environment aggregates on top of the base stats (zero under the paper's
/// base model, where every trial has zero delays, no crashes, and target 0
/// wins every race).
struct AsyncRunStats {
  RunStats base;                  ///< times measured from t = 0
  stats::Summary from_last_start; ///< times measured from the last start
  double mean_crashed = 0;        ///< mean number of crashed agents per trial
  double mean_last_start = 0;     ///< mean of the trial's latest start delay
  /// Mean winning-target index over FOUND trials (-1 when nothing was ever
  /// found); 0 for single-target runs.
  double mean_first_target = -1;
};

/// One cell of a run_cell_blocks call: `strategy` with k agents against
/// `targets` at distance D; trial t draws from rng seed mix_seed(seed, t).
struct TrialCell {
  TrialStrategy strategy;
  int k = 1;
  std::int64_t distance = 1;
  std::uint64_t seed = 0;
  const TargetProcess* targets = nullptr;  ///< must cover the substrate
};

/// What every cell of one run_cell_blocks call shares. A null schedule and
/// crash model is the paper's base model: the loop skips draw_environment,
/// so a synchronous trial pays no k-sized start/lifetime vectors.
struct CellBlockRun {
  std::size_t trials = 0;  ///< trials per cell
  unsigned threads = 0;    ///< 0 = hardware concurrency
  EngineConfig engine;
  const StartSchedule* schedule = nullptr;  ///< set together with crashes
  const CrashModel* crashes = nullptr;
  Time capture_dwell = 0;    ///< copied into every trial's environment
  bool collect_all = false;  ///< copied into every trial's environment
};

/// Callbacks of run_cell_blocks; only `trial` is required. Every hook but
/// `begin` runs on worker threads, and blocks of one cell may run
/// concurrently, so hooks write only trial-indexed slots or atomics. Cell
/// indices are positions in the `cells` vector.
struct CellBlockHooks {
  /// Once, before any work item: the number of workers the run uses
  /// (worker ids handed to `trial` are below it).
  std::function<void(unsigned workers)> begin;
  /// Before the first trial of every block of a cell.
  std::function<void(std::size_t cell)> begin_block;
  /// One finished trial. `t0_us` is telemetry::now_us() read just before
  /// the trial when `timed` is set, and 0 otherwise.
  std::function<void(std::size_t cell, std::size_t trial, unsigned worker,
                     const TrialEnvironment& env, const TrialResult& result,
                     std::int64_t t0_us)>
      trial;
  /// After the last trial of every block: how many of its trials the
  /// worker's batch runner delegated to the scalar executor.
  std::function<void(std::uint64_t scalar_fallbacks)> end_block;
  /// Once per cell, on the worker that completes the cell's last trial.
  std::function<void(std::size_t cell)> finish_cell;
  bool timed = false;
};

/// Runs run.trials trials of every cell. Work items are blocks of
/// consecutive trials of one cell (batch::trial_block), so a worker
/// amortizes one batch runner across a block, rebuilding it only when it
/// moves to a cell with another (strategy, k). Per trial: seed from the
/// cell, realize the target process, draw the schedule and crashes unless
/// the run is the base model, run the trial, hand the result to `trial`.
/// Results are byte-identical to sim::run_trial for any thread count.
void run_cell_blocks(const std::vector<TrialCell>& cells,
                     const CellBlockRun& run, const CellBlockHooks& hooks);

/// The unified Monte-Carlo driver: `targets` realizes each trial's target
/// state over the horizon config.time_cap (see sim::single_target /
/// sim::single_plane_target for the classic one-treasure adversaries and
/// sim::poisson_targets / sim::drifting_target for the dynamic processes),
/// schedule/crashes realize the per-agent environment, and the strategy may
/// be segment-, step-, or plane-level. Step- and plane-level strategies
/// require a finite config.time_cap, and the target process must cover the
/// strategy's substrate (grid vs plane).
AsyncRunStats run_env_trials(const TrialStrategy& strategy, int k,
                             std::int64_t distance,
                             const TargetProcess& targets,
                             const StartSchedule& schedule,
                             const CrashModel& crashes,
                             const RunConfig& config);

/// Segment-level strategies (all paper algorithms + coordinated baselines)
/// under the base model.
RunStats run_trials(const Strategy& strategy, int k, std::int64_t distance,
                    const Placement& placement, const RunConfig& config);

/// Step-level strategies (random-walk family) under the base model.
/// config.time_cap must be finite.
RunStats run_step_trials(const StepStrategy& strategy, int k,
                         std::int64_t distance, const Placement& placement,
                         const RunConfig& config);

/// Segment-level strategies under a start schedule / crash model
/// (experiment E9); same reproducibility contract as run_trials.
AsyncRunStats run_async_trials(const Strategy& strategy, int k,
                               std::int64_t distance,
                               const Placement& placement,
                               const StartSchedule& schedule,
                               const CrashModel& crashes,
                               const RunConfig& config);

}  // namespace ants::sim
