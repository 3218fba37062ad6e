// Monte-Carlo runner: repeats environment-aware trials across threads and
// aggregates the statistics the experiment tables need.
//
// run_cell_blocks is THE (cell, trial-block) loop and THE per-cell
// aggregator: it runs the trials of any number of cells as work items on
// the batch executor (sim/batch/batch.h), records every trial into its
// cell's trial table, and reduces the table in trial order once the cell's
// last trial lands. The scenario sweep drives it over a whole plan;
// run_env_trials drives it over one cell, and every other run_* entry point
// here forwards to run_env_trials.
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

/// Builds RunStats from raw per-trial times: the reduction run_cell_blocks
/// applies to every cell's search-time column.
RunStats make_run_stats(std::vector<double> times, std::int64_t found,
                        std::int64_t distance, int k);

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
  /// Collect the target-process aggregates (mean_targets_spawned/_found,
  /// found_before_vanish). The scenario sweep sets it for dynamic specs.
  bool target_stats = false;
};

/// A cell's aggregates, reduced by run_cell_blocks from the cell's
/// trial-ordered columns, so no aggregate depends on scheduling. Fields
/// whose columns the run does not collect keep their defaults. Also the
/// result of run_env_trials, whose base-model runs (zero delays, no
/// crashes) report from_last_start equal to stats.time.
struct CellStats {
  RunStats stats;
  /// Async-run extras (zero for base-model cells): search times measured
  /// from the trial's last start, mean crashed agents per trial, and the
  /// mean of the trial's latest start delay.
  stats::Summary from_last_start;
  double mean_crashed = 0;
  double mean_last_start = 0;
  /// Mean winning-target index over FOUND trials (-1 when nothing was
  /// found); 0 for single-target cells.
  double mean_first_target = -1;
  /// Number of per-target discovery-time slots kept per cell (collect-all
  /// runs; targets beyond the first slots still count into
  /// mean_targets_found, they just don't get an individual column).
  static constexpr std::size_t kTargetTimeSlots = 4;
  /// Target-process aggregates (-1 unless the run sets target_stats): mean
  /// targets spawned and found per trial, the mean per-trial fraction of
  /// spawned targets found before they vanished (1 when a trial spawned
  /// none), and — collect-all only — the mean discovery time of target slot
  /// j over the trials where that slot was found (-1 when never found).
  double mean_targets_found = -1;
  double mean_targets_spawned = -1;
  double found_before_vanish = -1;
  double target_time_mean[kTargetTimeSlots] = {-1, -1, -1, -1};
};

/// Callbacks of run_cell_blocks; only `finish_cell` is required. Every hook
/// but `begin` runs on worker threads, and blocks of one cell may run
/// concurrently, so hooks touch only per-cell or worker-owned state. Cell
/// indices are positions in the `cells` vector.
struct CellBlockHooks {
  /// Once, before any work item: the number of workers the run uses
  /// (worker ids handed to `trial` are below it).
  std::function<void(unsigned workers)> begin;
  /// Once per cell, when its first block allocates the cell's trial table.
  std::function<void(std::size_t cell)> start_cell;
  /// One finished trial, for tracing: `t0_us` is telemetry::now_us() read
  /// just before the trial. Unset, the loop reads no clock per trial.
  std::function<void(std::size_t cell, unsigned worker, std::int64_t t0_us)>
      trial;
  /// After the last trial of every block: how many of its trials the
  /// worker's batch runner delegated to the scalar plane engine.
  std::function<void(std::uint64_t scalar_fallbacks)> end_block;
  /// Once per cell, on the worker that completes the cell's last trial:
  /// the cell's aggregates, and the telemetry::now_us() reading taken when
  /// `start_cell` fired. Every column but the search times (kept in
  /// stats.stats.times) is already freed.
  std::function<void(std::size_t cell, CellStats&& stats,
                     std::int64_t start_us)>
      finish_cell;
};

/// Runs run.trials trials of every cell. Work items are blocks of
/// consecutive trials of one cell (batch::trial_block), so a worker
/// amortizes one batch runner across a block, rebuilding it only when it
/// moves to a cell with another (strategy, k). Per trial: seed from the
/// cell, realize the target process, draw the schedule and crashes unless
/// the run is the base model, run the trial, record it in the cell's trial
/// table. Results are byte-identical for any thread count, and each trial
/// equals the scalar reference executor the tests pin BatchRunner to.
///
/// A cell's trial table holds one column per measure the run collects
/// (search times always; async columns when a schedule is set; target
/// columns under target_stats; discovery-time slots under collect_all). It
/// is allocated when the cell's first block starts and freed, all but the
/// times, when its last trial lands. Blocks are claimed in cell order, so at
/// most workers + 1 cells are live: those with a running block and the one
/// at the claim frontier. Before any work runs, every cell's times plus the
/// other columns of that many cells are checked against physical memory;
/// a run that cannot fit throws std::invalid_argument naming trials, cells
/// and bytes.
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
CellStats run_env_trials(const TrialStrategy& strategy, int k,
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
CellStats run_async_trials(const Strategy& strategy, int k,
                               std::int64_t distance,
                               const Placement& placement,
                               const StartSchedule& schedule,
                               const CrashModel& crashes,
                               const RunConfig& config);

}  // namespace ants::sim
