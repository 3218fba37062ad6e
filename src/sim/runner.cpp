#include "sim/runner.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <utility>

#include "rng/splitmix64.h"
#include "sim/batch/batch.h"
#include "sim/metrics.h"
#include "telemetry/metrics.h"
#include "util/thread_pool.h"

namespace ants::sim {

RunStats make_run_stats(std::vector<double> times, std::int64_t found,
                        std::int64_t distance, int k) {
  RunStats rs;
  rs.distance = distance;
  rs.k = k;
  rs.success_rate =
      times.empty() ? 0.0
                    : static_cast<double>(found) /
                          static_cast<double>(times.size());
  rs.time = stats::Summary::from(times);
  rs.mean_competitiveness = competitiveness(rs.time.mean, distance, k);
  rs.median_competitiveness = competitiveness(rs.time.median, distance, k);
  rs.times = std::move(times);
  return rs;
}

void run_cell_blocks(const std::vector<TrialCell>& cells,
                     const CellBlockRun& run, const CellBlockHooks& hooks) {
  if ((run.schedule == nullptr) != (run.crashes == nullptr)) {
    throw std::invalid_argument(
        "run_cell_blocks: set both schedule and crashes, or neither");
  }
  const std::size_t trials = run.trials;
  const std::size_t block = batch::trial_block(
      trials, util::parallel_workers(cells.size() * trials, run.threads));
  const std::size_t blocks_per_cell = (trials + block - 1) / block;
  // Index arithmetic, not a materialized (cell, block) vector: huge sweeps
  // must not pay O(cells * blocks) memory before any work runs.
  const std::size_t n_items = cells.size() * blocks_per_cell;
  const unsigned n_workers = util::parallel_workers(n_items, run.threads);

  std::vector<std::atomic<std::size_t>> remaining(cells.size());
  for (auto& r : remaining) r.store(trials);

  // Each worker keeps ONE batch runner, rebuilt only when it crosses to a
  // cell with a different (strategy, k) pair.
  struct WorkerRunner {
    TrialStrategy strategy;
    int k = 0;
    std::unique_ptr<batch::BatchRunner> runner;
  };
  std::vector<WorkerRunner> runners(n_workers);

  if (hooks.begin) hooks.begin(n_workers);
  util::parallel_for(
      n_items,
      [&](std::size_t item, unsigned worker) {
        const std::size_t ci = item / blocks_per_cell;
        const TrialCell& cell = cells[ci];
        const std::size_t begin = (item % blocks_per_cell) * block;
        const std::size_t end = std::min(trials, begin + block);
        if (hooks.begin_block) hooks.begin_block(ci);

        WorkerRunner& w = runners[worker];
        if (w.runner == nullptr || w.k != cell.k ||
            w.strategy.segment != cell.strategy.segment ||
            w.strategy.step != cell.strategy.step ||
            w.strategy.plane != cell.strategy.plane) {
          w.runner = std::make_unique<batch::BatchRunner>(cell.strategy,
                                                          cell.k, run.engine);
          w.strategy = cell.strategy;
          w.k = cell.k;
        }

        const bool plane = cell.strategy.plane != nullptr;
        for (std::size_t trial = begin; trial < end; ++trial) {
          const std::int64_t t0 = hooks.timed ? telemetry::now_us() : 0;
          rng::Rng trial_rng(rng::mix_seed(cell.seed, trial));
          TrialEnvironment env;
          if (plane) {
            cell.targets->plane(trial_rng, cell.distance, run.engine.time_cap,
                                &env);
          } else {
            cell.targets->grid(trial_rng, cell.distance, run.engine.time_cap,
                               &env);
          }
          if (run.schedule != nullptr) {
            env = draw_environment(cell.k, std::move(env), *run.schedule,
                                   *run.crashes, trial_rng);
          }
          env.capture_dwell = run.capture_dwell;
          env.collect_all = run.collect_all;
          hooks.trial(ci, trial, worker, env,
                      w.runner->run_one(env, trial_rng), t0);
        }
        const std::uint64_t fallbacks = w.runner->take_scalar_fallbacks();
        if (hooks.end_block) hooks.end_block(fallbacks);
        if (remaining[ci].fetch_sub(end - begin, std::memory_order_acq_rel) ==
            end - begin) {
          if (hooks.finish_cell) hooks.finish_cell(ci);
        }
      },
      run.threads);
}

AsyncRunStats run_env_trials(const TrialStrategy& strategy, int k,
                             std::int64_t distance,
                             const TargetProcess& targets,
                             const StartSchedule& schedule,
                             const CrashModel& crashes,
                             const RunConfig& config) {
  if (config.trials < 1) throw std::invalid_argument("run_env_trials: trials");
  if (distance < 1) throw std::invalid_argument("run_env_trials: distance");
  if ((strategy.step != nullptr || strategy.plane != nullptr) &&
      config.time_cap == kNeverTime) {
    throw std::invalid_argument(
        "run_env_trials: step and plane strategies require a finite "
        "time_cap");
  }
  if (strategy.plane != nullptr ? !targets.plane : !targets.grid) {
    throw std::invalid_argument(
        "run_env_trials: target process does not cover the strategy's "
        "substrate");
  }

  const auto n = static_cast<std::size_t>(config.trials);
  std::vector<double> times(n);
  std::vector<double> from_last(n);
  std::vector<double> crashed(n);
  std::vector<double> last_starts(n);
  std::atomic<std::int64_t> found{0};
  std::atomic<std::int64_t> first_target_sum{0};
  CellBlockHooks hooks;
  hooks.trial = [&](std::size_t, std::size_t t, unsigned,
                    const TrialEnvironment&, const TrialResult& r,
                    std::int64_t) {
    times[t] = r.time;
    from_last[t] = r.from_last_start;
    crashed[t] = static_cast<double>(r.crashed);
    last_starts[t] = r.last_start;
    if (r.found) {
      found.fetch_add(1, std::memory_order_relaxed);
      first_target_sum.fetch_add(r.first_target, std::memory_order_relaxed);
    }
  };

  CellBlockRun run;
  run.trials = n;
  run.threads = config.threads;
  run.engine.time_cap = config.time_cap;
  // Base-model runs (the run_trials / run_step_trials forwards) take the
  // executor's empty-starts/lifetimes fast path.
  if (!(dynamic_cast<const SyncStart*>(&schedule) &&
        dynamic_cast<const NoCrash*>(&crashes))) {
    run.schedule = &schedule;
    run.crashes = &crashes;
  }
  run_cell_blocks({TrialCell{strategy, k, distance, config.seed, &targets}},
                  run, hooks);

  AsyncRunStats rs;
  rs.base = make_run_stats(std::move(times), found.load(), distance, k);
  rs.from_last_start = stats::Summary::from(from_last);
  rs.mean_crashed = stats::Summary::from(crashed).mean;
  rs.mean_last_start = stats::Summary::from(last_starts).mean;
  rs.mean_first_target =
      found.load() > 0 ? static_cast<double>(first_target_sum.load()) /
                             static_cast<double>(found.load())
                       : -1.0;
  return rs;
}

RunStats run_trials(const Strategy& strategy, int k, std::int64_t distance,
                    const Placement& placement, const RunConfig& config) {
  TrialStrategy ts;
  ts.segment = &strategy;
  return run_env_trials(ts, k, distance, single_target(placement), SyncStart(),
                        NoCrash(), config)
      .base;
}

RunStats run_step_trials(const StepStrategy& strategy, int k,
                         std::int64_t distance, const Placement& placement,
                         const RunConfig& config) {
  TrialStrategy ts;
  ts.step = &strategy;
  return run_env_trials(ts, k, distance, single_target(placement), SyncStart(),
                        NoCrash(), config)
      .base;
}

AsyncRunStats run_async_trials(const Strategy& strategy, int k,
                               std::int64_t distance,
                               const Placement& placement,
                               const StartSchedule& schedule,
                               const CrashModel& crashes,
                               const RunConfig& config) {
  TrialStrategy ts;
  ts.segment = &strategy;
  return run_env_trials(ts, k, distance, single_target(placement), schedule,
                        crashes, config);
}

}  // namespace ants::sim
