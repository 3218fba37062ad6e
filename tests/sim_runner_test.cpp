#include "sim/runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/random_walk.h"
#include "sim/async_engine.h"
#include "sim/metrics.h"
#include "test_support.h"

namespace ants::sim {
namespace {

using ants::testing::ScriptedStrategy;

TEST(Runner, DeterministicAcrossThreadCounts) {
  const ScriptedStrategy strategy({GoTo{{8, 0}}, SpiralFor{64},
                                   ReturnToSource{}});
  RunConfig one;
  one.trials = 64;
  one.seed = 7;
  one.threads = 1;
  one.time_cap = 1 << 16;
  RunConfig many = one;
  many.threads = 8;

  const RunStats a = run_trials(strategy, 2, 6, uniform_ring_placement(), one);
  const RunStats b = run_trials(strategy, 2, 6, uniform_ring_placement(), many);
  ASSERT_EQ(a.times.size(), b.times.size());
  for (std::size_t i = 0; i < a.times.size(); ++i) {
    EXPECT_EQ(a.times[i], b.times[i]) << i;
  }
  EXPECT_EQ(a.success_rate, b.success_rate);
}

TEST(Runner, FixedPlacementDeterministicTimes) {
  // Scripted walk to (5,0): with axis placement at D=5 every trial hits at
  // exactly t=5.
  const ScriptedStrategy strategy({GoTo{{5, 0}}});
  RunConfig config;
  config.trials = 16;
  config.time_cap = 1000;
  const RunStats rs = run_trials(strategy, 1, 5, axis_placement(), config);
  EXPECT_EQ(rs.success_rate, 1.0);
  EXPECT_DOUBLE_EQ(rs.time.mean, 5.0);
  EXPECT_DOUBLE_EQ(rs.time.min, 5.0);
  EXPECT_DOUBLE_EQ(rs.time.max, 5.0);
}

TEST(Runner, CompetitivenessUsesOptimalDenominator) {
  const ScriptedStrategy strategy({GoTo{{5, 0}}});
  RunConfig config;
  config.trials = 8;
  config.time_cap = 1000;
  const RunStats rs = run_trials(strategy, 4, 5, axis_placement(), config);
  EXPECT_DOUBLE_EQ(rs.mean_competitiveness, 5.0 / optimal_time(5, 4));
  EXPECT_EQ(rs.k, 4);
  EXPECT_EQ(rs.distance, 5);
}

TEST(Runner, CensoredTrialsLowerSuccessRate) {
  // Walks to (3,0) then parks in the third quadrant; ring placement puts
  // the treasure elsewhere most trials, which then censor at the cap.
  const ScriptedStrategy strategy({GoTo{{3, 0}}});
  RunConfig config;
  config.trials = 200;
  config.seed = 11;
  config.time_cap = 64;
  const RunStats rs =
      run_trials(strategy, 1, 3, uniform_ring_placement(), config);
  EXPECT_LT(rs.success_rate, 0.5);
  EXPECT_GT(rs.success_rate, 0.0);
  // Censored times equal the cap.
  EXPECT_DOUBLE_EQ(rs.time.max, 64.0);
}

TEST(Runner, Validation) {
  const ScriptedStrategy strategy({GoTo{{1, 0}}});
  RunConfig config;
  config.trials = 0;
  EXPECT_THROW(run_trials(strategy, 1, 5, axis_placement(), config),
               std::invalid_argument);
  config.trials = 4;
  EXPECT_THROW(run_trials(strategy, 1, 0, axis_placement(), config),
               std::invalid_argument);
}

// The run_* path shares the executor's admission check: a trial count
// whose trial table cannot fit in physical memory is a typed error naming
// trials, cells and bytes, raised before anything is allocated.
TEST(Runner, TrialsBeyondPhysicalMemoryAreATypedError) {
  const ScriptedStrategy strategy({GoTo{{1, 0}}});
  RunConfig config;
  config.trials = 100'000'000'000;
  try {
    run_trials(strategy, 1, 1, axis_placement(), config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("100000000000 trials x 1 cells need"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("bytes of physical memory"), std::string::npos)
        << what;
  }
}

// Blocks of one cell run concurrently, so the executor allocates each
// cell's trial table once (at its first block) and frees it at its last
// trial. Blocks are claimed in cell order, so at most workers + 1 cells are
// ever live, and the aggregates do not depend on the thread count.
TEST(CellBlocks, EachCellStartsAndFinishesOnceWithBoundedLiveCells) {
  const ScriptedStrategy strategy({GoTo{{8, 0}}, SpiralFor{64},
                                   ReturnToSource{}});
  const TargetProcess targets =
      poisson_targets(0.05, 200, uniform_ring_placement());
  const StaggeredStart schedule(2);
  const DoaCrash crashes(0.25);
  constexpr std::size_t kCells = 40;
  std::vector<TrialCell> cells;
  for (std::size_t c = 0; c < kCells; ++c) {
    TrialStrategy ts;
    ts.segment = &strategy;
    cells.push_back(TrialCell{ts, 2, 1 + static_cast<std::int64_t>(c % 8),
                              0xCE11 + c, &targets});
  }
  CellBlockRun run;
  run.trials = 3;
  run.engine.time_cap = 1000;
  run.schedule = &schedule;
  run.crashes = &crashes;
  run.collect_all = true;
  run.target_stats = true;

  const auto run_at = [&](unsigned threads) {
    run.threads = threads;
    unsigned workers = 0;
    std::atomic<int> live{0};
    std::atomic<int> max_live{0};
    std::vector<std::atomic<int>> starts(kCells);
    std::vector<std::atomic<int>> finishes(kCells);
    std::vector<CellStats> out(kCells);
    CellBlockHooks hooks;
    hooks.begin = [&](unsigned w) { workers = w; };
    hooks.start_cell = [&](std::size_t c) {
      starts[c].fetch_add(1);
      const int now = live.fetch_add(1) + 1;
      int seen = max_live.load();
      while (now > seen && !max_live.compare_exchange_weak(seen, now)) {
      }
    };
    hooks.finish_cell = [&](std::size_t c, CellStats&& stats, std::int64_t) {
      finishes[c].fetch_add(1);
      out[c] = std::move(stats);
      live.fetch_sub(1);
    };
    run_cell_blocks(cells, run, hooks);
    EXPECT_EQ(workers, threads);
    EXPECT_LE(max_live.load(), static_cast<int>(workers) + 1);
    EXPECT_EQ(live.load(), 0);
    for (std::size_t c = 0; c < kCells; ++c) {
      EXPECT_EQ(starts[c].load(), 1) << c;
      EXPECT_EQ(finishes[c].load(), 1) << c;
    }
    return out;
  };

  const std::vector<CellStats> one = run_at(1);
  const std::vector<CellStats> many = run_at(8);
  for (std::size_t c = 0; c < kCells; ++c) {
    SCOPED_TRACE(c);
    EXPECT_EQ(one[c].stats.times, many[c].stats.times);
    EXPECT_EQ(one[c].stats.success_rate, many[c].stats.success_rate);
    EXPECT_EQ(one[c].from_last_start.mean, many[c].from_last_start.mean);
    EXPECT_EQ(one[c].mean_crashed, many[c].mean_crashed);
    EXPECT_EQ(one[c].mean_first_target, many[c].mean_first_target);
    EXPECT_EQ(one[c].mean_targets_found, many[c].mean_targets_found);
    EXPECT_EQ(one[c].found_before_vanish, many[c].found_before_vanish);
    for (std::size_t j = 0; j < CellStats::kTargetTimeSlots; ++j) {
      EXPECT_EQ(one[c].target_time_mean[j], many[c].target_time_mean[j]);
    }
  }
}

TEST(StepRunner, MirrorsStepEngine) {
  const baselines::RandomWalkStrategy rw;
  RunConfig config;
  config.trials = 32;
  config.seed = 5;
  config.time_cap = 4000;
  const RunStats rs = run_step_trials(rw, 4, 1, axis_placement(), config);
  EXPECT_GT(rs.success_rate, 0.9);
  EXPECT_GT(rs.time.mean, 0.0);
}

TEST(StepRunner, RequiresFiniteCap) {
  const baselines::RandomWalkStrategy rw;
  RunConfig config;
  config.trials = 4;
  EXPECT_THROW(run_step_trials(rw, 1, 2, axis_placement(), config),
               std::invalid_argument);
}

TEST(StepRunner, DeterministicAcrossThreadCounts) {
  const baselines::RandomWalkStrategy rw;
  RunConfig one;
  one.trials = 24;
  one.seed = 3;
  one.threads = 1;
  one.time_cap = 2000;
  RunConfig many = one;
  many.threads = 6;
  const RunStats a = run_step_trials(rw, 2, 2, uniform_ring_placement(), one);
  const RunStats b = run_step_trials(rw, 2, 2, uniform_ring_placement(), many);
  for (std::size_t i = 0; i < a.times.size(); ++i) {
    EXPECT_EQ(a.times[i], b.times[i]) << i;
  }
}

TEST(Placement, Shapes) {
  rng::Rng rng(1);
  EXPECT_EQ(axis_placement()(rng, 9), (grid::Point{9, 0}));
  EXPECT_EQ(diagonal_placement()(rng, 9), (grid::Point{5, 4}));
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(grid::l1_norm(uniform_ring_placement()(rng, 13)), 13);
  }
  EXPECT_EQ(grid::l1_norm(ring_fraction_placement(0.5)(rng, 10)), 10);
  EXPECT_EQ(ring_fraction_placement(0.0)(rng, 10), (grid::Point{10, 0}));
}

TEST(Placement, RangeErrorsAreLoud) {
  EXPECT_THROW(ring_fraction_placement(1.5), std::invalid_argument);
  EXPECT_THROW(ring_fraction_placement(-0.1), std::invalid_argument);
}

TEST(Metrics, OptimalTimeAndSpeedup) {
  EXPECT_DOUBLE_EQ(optimal_time(10, 1), 110.0);
  EXPECT_DOUBLE_EQ(optimal_time(10, 100), 11.0);
  EXPECT_DOUBLE_EQ(competitiveness(220.0, 10, 1), 2.0);
  EXPECT_DOUBLE_EQ(speedup(100.0, 25.0), 4.0);
  EXPECT_DOUBLE_EQ(log_power(16, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(log_power(16, 2.0), 16.0);
  EXPECT_DOUBLE_EQ(log_power(1, 1.0), 1.0);  // clamped
}

}  // namespace
}  // namespace ants::sim
