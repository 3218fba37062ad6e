#include "sim/runner.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "rng/splitmix64.h"
#include "sim/batch/batch.h"
#include "sim/metrics.h"
#include "telemetry/metrics.h"
#include "util/format.h"
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

namespace {

constexpr std::size_t kSlots = CellStats::kTargetTimeSlots;

/// One cell's per-trial columns, indexed by trial; which columns exist
/// follows from the run. Blocks of the cell write disjoint trial slots and
/// the integer sums are order-free atomics; every double aggregate reads
/// its column in trial order, so no sum depends on which worker ran which
/// trial.
struct TrialTable {
  TrialTable(std::size_t trials, const CellBlockRun& run)
      : times(trials), remaining(trials), start_us(telemetry::now_us()) {
    if (run.schedule != nullptr) {
      from_last.resize(trials);
      crashed.resize(trials);
      last_starts.resize(trials);
    }
    if (run.target_stats) {
      spawned.resize(trials);
      caught.resize(trials);
    }
    if (run.collect_all) slot_times.assign(trials * kSlots, -1.0);
  }

  void record(std::size_t t, const TrialEnvironment& env,
              const TrialResult& r, bool plane) {
    times[t] = r.time;
    if (!from_last.empty()) {
      from_last[t] = r.from_last_start;
      crashed[t] = static_cast<double>(r.crashed);
      last_starts[t] = r.last_start;
    }
    if (r.found) {
      found.fetch_add(1, std::memory_order_relaxed);
      first_target_sum.fetch_add(r.first_target, std::memory_order_relaxed);
    }
    const bool collect_all = !slot_times.empty();
    if (collect_all) {
      std::copy_n(r.target_times.begin(),
                  std::min(kSlots, r.target_times.size()),
                  slot_times.begin() + static_cast<std::ptrdiff_t>(t * kSlots));
    }
    if (!spawned.empty()) {
      spawned[t] = static_cast<double>(plane ? env.plane_targets.size()
                                             : env.targets.size());
      caught[t] = !collect_all ? (r.found ? 1.0 : 0.0)
                               : static_cast<double>(std::count_if(
                                     r.target_times.begin(),
                                     r.target_times.end(),
                                     [](double tt) { return tt >= 0; }));
    }
  }

  CellStats reduce(const TrialCell& cell) {
    CellStats s;
    const std::size_t trials = times.size();
    const std::int64_t n_found = found.load();
    if (n_found > 0) {
      s.mean_first_target = static_cast<double>(first_target_sum.load()) /
                            static_cast<double>(n_found);
    }
    if (!from_last.empty()) {
      s.from_last_start = stats::Summary::from(std::move(from_last));
      s.mean_crashed = stats::Summary::from(std::move(crashed)).mean;
      s.mean_last_start = stats::Summary::from(std::move(last_starts)).mean;
    }
    if (!spawned.empty()) {
      // A trial that spawned nothing found all of it before it vanished.
      double sum_spawned = 0, sum_caught = 0, sum_fbv = 0;
      for (std::size_t t = 0; t < trials; ++t) {
        sum_spawned += spawned[t];
        sum_caught += caught[t];
        sum_fbv += spawned[t] > 0 ? caught[t] / spawned[t] : 1.0;
      }
      const auto n = static_cast<double>(trials);
      s.mean_targets_spawned = sum_spawned / n;
      s.mean_targets_found = sum_caught / n;
      s.found_before_vanish = sum_fbv / n;
    }
    for (std::size_t j = 0; j < kSlots && !slot_times.empty(); ++j) {
      double sum = 0;
      std::size_t n_slot = 0;
      for (std::size_t t = 0; t < trials; ++t) {
        const double v = slot_times[t * kSlots + j];
        if (v >= 0) {
          sum += v;
          ++n_slot;
        }
      }
      if (n_slot > 0) s.target_time_mean[j] = sum / static_cast<double>(n_slot);
    }
    s.stats = make_run_stats(std::move(times), n_found, cell.distance, cell.k);
    return s;
  }

  std::vector<double> times;
  std::vector<double> from_last, crashed, last_starts;  // schedule set
  std::vector<double> spawned, caught;                  // target_stats
  std::vector<double> slot_times;  // collect_all: trials x kSlots
  std::atomic<std::int64_t> found{0};
  std::atomic<std::int64_t> first_target_sum{0};
  std::atomic<std::size_t> remaining;  ///< trials not yet recorded
  std::int64_t start_us;
};

/// A typed error instead of a std::bad_alloc mid-run (see run_cell_blocks).
void admit(std::size_t n_cells, std::size_t trials, unsigned workers,
           const CellBlockRun& run) {
  const double live = static_cast<double>(
      std::min<std::size_t>(n_cells, std::size_t{workers} + 1));
  const double extra = (run.schedule != nullptr ? 3 : 0) +
                       (run.target_stats ? 2 : 0) +
                       (run.collect_all ? static_cast<double>(kSlots) : 0);
  const double bytes = static_cast<double>(trials) * sizeof(double) *
                       (static_cast<double>(n_cells) + live * extra);
  const double physical = static_cast<double>(::sysconf(_SC_PHYS_PAGES)) *
                          static_cast<double>(::sysconf(_SC_PAGE_SIZE));
  if (physical > 0 && bytes > physical) {
    throw std::invalid_argument(
        "run_cell_blocks: " + std::to_string(trials) + " trials x " +
        std::to_string(n_cells) + " cells need " + util::fmt_param(bytes) +
        " bytes of per-trial arrays, more than the " +
        util::fmt_param(physical) +
        " bytes of physical memory — lower trials or split the sweep");
  }
}

}  // namespace

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
  admit(cells.size(), trials, n_workers, run);

  // A cell's table exists only while the cell is live.
  std::vector<std::once_flag> started(cells.size());
  std::vector<std::unique_ptr<TrialTable>> tables(cells.size());

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
        std::call_once(started[ci], [&] {
          tables[ci] = std::make_unique<TrialTable>(trials, run);
          if (hooks.start_cell) hooks.start_cell(ci);
        });
        TrialTable& table = *tables[ci];

        WorkerRunner& w = runners[worker];
        if (w.runner == nullptr || w.k != cell.k ||
            w.strategy != cell.strategy) {
          w.runner = std::make_unique<batch::BatchRunner>(cell.strategy,
                                                          cell.k, run.engine);
          w.strategy = cell.strategy;
          w.k = cell.k;
        }

        const bool plane = cell.strategy.plane != nullptr;
        for (std::size_t trial = begin; trial < end; ++trial) {
          const std::int64_t t0 = hooks.trial ? telemetry::now_us() : 0;
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
          table.record(trial, env, w.runner->run_one(env, trial_rng), plane);
          if (hooks.trial) hooks.trial(ci, worker, t0);
        }
        const std::uint64_t fallbacks = w.runner->take_scalar_fallbacks();
        if (hooks.end_block) hooks.end_block(fallbacks);
        if (table.remaining.fetch_sub(end - begin,
                                      std::memory_order_acq_rel) ==
            end - begin) {
          CellStats stats = table.reduce(cell);
          const std::int64_t start_us = table.start_us;
          tables[ci].reset();
          hooks.finish_cell(ci, std::move(stats), start_us);
        }
      },
      run.threads);
}

CellStats run_env_trials(const TrialStrategy& strategy, int k,
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

  CellBlockRun run;
  run.trials = static_cast<std::size_t>(config.trials);
  run.threads = config.threads;
  run.engine.time_cap = config.time_cap;
  // Base-model runs (the run_trials / run_step_trials forwards) take the
  // executor's empty-starts/lifetimes fast path.
  if (!(dynamic_cast<const SyncStart*>(&schedule) &&
        dynamic_cast<const NoCrash*>(&crashes))) {
    run.schedule = &schedule;
    run.crashes = &crashes;
  }
  CellStats rs;
  CellBlockHooks hooks;
  hooks.finish_cell = [&](std::size_t, CellStats&& s, std::int64_t) {
    rs = std::move(s);
    // Under the base model every agent starts at 0, so times from the last
    // start are the search times.
    if (run.schedule == nullptr) rs.from_last_start = rs.stats.time;
  };
  run_cell_blocks({TrialCell{strategy, k, distance, config.seed, &targets}},
                  run, hooks);
  return rs;
}

RunStats run_trials(const Strategy& strategy, int k, std::int64_t distance,
                    const Placement& placement, const RunConfig& config) {
  return run_env_trials({.segment = &strategy}, k, distance,
                        single_target(placement), SyncStart(), NoCrash(),
                        config)
      .stats;
}

RunStats run_step_trials(const StepStrategy& strategy, int k,
                         std::int64_t distance, const Placement& placement,
                         const RunConfig& config) {
  return run_env_trials({.step = &strategy}, k, distance,
                        single_target(placement), SyncStart(), NoCrash(),
                        config)
      .stats;
}

CellStats run_async_trials(const Strategy& strategy, int k,
                               std::int64_t distance,
                               const Placement& placement,
                               const StartSchedule& schedule,
                               const CrashModel& crashes,
                               const RunConfig& config) {
  return run_env_trials({.segment = &strategy}, k, distance,
                        single_target(placement), schedule, crashes, config);
}

}  // namespace ants::sim
