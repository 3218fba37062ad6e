#include "scenario/sweep.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/known_k.h"
#include "scenario/registry.h"
#include "scenario/sink.h"
#include "sim/placement.h"
#include "sim/runner.h"

namespace ants::scenario {
namespace {

/// Captures emitted rows in memory, rendered as CSV-ish lines.
class StringSink final : public ResultSink {
 public:
  void begin(const std::vector<std::string>& columns) override {
    lines_.push_back(join(columns));
  }
  void row(const std::vector<std::string>& cells) override {
    lines_.push_back(join(cells));
  }
  const std::vector<std::string>& lines() const { return lines_; }

 private:
  static std::string join(const std::vector<std::string>& cells) {
    std::string out;
    for (const auto& cell : cells) {
      if (!out.empty()) out += ",";
      out += cell;
    }
    return out;
  }
  std::vector<std::string> lines_;
};

ScenarioSpec small_spec() {
  ScenarioSpec spec;
  spec.name = "sweep-test";
  // One segment-level and one step-level strategy, so both engine paths are
  // under the determinism contract.
  spec.strategies = {"known-k", "random-walk"};
  spec.ks = {1, 4};
  spec.distances = {2, 4};
  spec.trials = 16;
  spec.seed = 0xC0FFEE;
  spec.time_cap = 50000;
  return spec;
}

std::vector<std::string> rendered_rows(const ScenarioSpec& spec,
                                       const SweepOptions& opt) {
  StringSink sink;
  std::vector<ResultSink*> sinks = {&sink};
  emit_results(spec, run_sweep(spec, opt), sinks);
  return sink.lines();
}

TEST(Sweep, FlattenOrderAndCellCount) {
  const ScenarioSpec spec = small_spec();
  const std::vector<Cell> cells = flatten(spec);
  ASSERT_EQ(cells.size(), 2u * 2u * 2u);
  // strategy-major, then k, then D.
  EXPECT_EQ(cells[0].strategy_name, "known-k(k=1)");
  EXPECT_EQ(cells[0].k, 1);
  EXPECT_EQ(cells[0].distance, 2);
  EXPECT_EQ(cells[1].distance, 4);
  EXPECT_EQ(cells[2].k, 4);
  EXPECT_EQ(cells[2].strategy_name, "known-k(k=4)");
  EXPECT_EQ(cells[4].strategy_name, "random-walk");
}

TEST(Sweep, CellSeedsPairInstancesAcrossStrategies) {
  const ScenarioSpec spec = small_spec();
  const std::vector<Cell> cells = flatten(spec);
  // Same (k, D) -> same seed regardless of strategy (the E7 fairness
  // requirement); different (k, D) -> different seeds and hashes.
  EXPECT_EQ(cells[0].seed, cells[4].seed);
  EXPECT_NE(cells[0].seed, cells[1].seed);
  EXPECT_NE(cells[0].hash, cells[4].hash);
  EXPECT_NE(cells[0].hash, cells[1].hash);
}

// The headline reproducibility contract: identical output for any scheduler
// thread count.
TEST(Sweep, OutputIdenticalForOneAndManyThreads) {
  ScenarioSpec spec = small_spec();
  spec.columns = {"strategy", "k",         "D",       "success", "mean_time",
                  "stddev",   "min_time",  "max_time", "median_time",
                  "q95_time", "phi_mean",  "phi_median"};

  SweepOptions one_thread;
  one_thread.threads = 1;
  SweepOptions many_threads;
  many_threads.threads = 7;

  EXPECT_EQ(rendered_rows(spec, one_thread), rendered_rows(spec, many_threads));

  // 60 trials per cell: one 64-trial block on one thread, 15-trial blocks
  // on 4 threads, 9-trial blocks on 7 — the same bytes every time.
  spec.trials = 60;
  spec.strategies = {"known-k", "random-walk",
                     "biased-walk(bias=0.3, persistence=0.8)"};
  spec.time_cap = 4000;
  const std::vector<std::string> reference = rendered_rows(spec, one_thread);
  SweepOptions four_threads;
  four_threads.threads = 4;
  EXPECT_EQ(reference, rendered_rows(spec, four_threads));
  EXPECT_EQ(reference, rendered_rows(spec, many_threads));
}

// Every column kind of the executor's per-cell trial table at once: async
// (schedule + crash), target-process (poisson) and per-slot discovery times
// (collect=all). At 3 trials and 8 threads every trial is its own block, so
// the blocks of one cell write its table concurrently; every aggregate must
// still equal the 1-thread run exactly.
TEST(Sweep, EveryTrialTableColumnIsThreadCountIndependent) {
  ScenarioSpec spec;
  spec.name = "table-columns";
  spec.strategies = {"known-k", "random-walk"};
  spec.ks = {1, 4};
  spec.distances = {2, 4};
  spec.targets = {"poisson(rate=0.02, life=300)"};
  spec.schedule = "staggered(gap=2)";
  spec.crash = "doa(p=0.25)";
  spec.collect = "all";
  spec.trials = 3;
  spec.seed = 0xD1CE;
  spec.time_cap = 2000;

  SweepOptions one_thread;
  one_thread.threads = 1;
  SweepOptions eight_threads;
  eight_threads.threads = 8;
  const std::vector<CellResult> a = run_sweep(spec, one_thread);
  const std::vector<CellResult> b = run_sweep(spec, eight_threads);
  ASSERT_EQ(a.size(), b.size());
  bool any_slot_found = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].stats.times, b[i].stats.times);
    EXPECT_EQ(a[i].stats.success_rate, b[i].stats.success_rate);
    EXPECT_EQ(a[i].stats.time.mean, b[i].stats.time.mean);
    EXPECT_EQ(a[i].stats.time.median, b[i].stats.time.median);
    EXPECT_EQ(a[i].stats.mean_competitiveness,
              b[i].stats.mean_competitiveness);
    EXPECT_EQ(a[i].from_last_start.mean, b[i].from_last_start.mean);
    EXPECT_EQ(a[i].from_last_start.median, b[i].from_last_start.median);
    EXPECT_EQ(a[i].mean_crashed, b[i].mean_crashed);
    EXPECT_EQ(a[i].mean_last_start, b[i].mean_last_start);
    EXPECT_EQ(a[i].mean_first_target, b[i].mean_first_target);
    EXPECT_EQ(a[i].mean_targets_spawned, b[i].mean_targets_spawned);
    EXPECT_EQ(a[i].mean_targets_found, b[i].mean_targets_found);
    EXPECT_EQ(a[i].found_before_vanish, b[i].found_before_vanish);
    EXPECT_GE(a[i].mean_targets_spawned, 0.0);
    EXPECT_GE(a[i].found_before_vanish, 0.0);
    for (std::size_t j = 0; j < CellResult::kTargetTimeSlots; ++j) {
      EXPECT_EQ(a[i].target_time_mean[j], b[i].target_time_mean[j]) << j;
      any_slot_found = any_slot_found || a[i].target_time_mean[j] >= 0;
    }
  }
  EXPECT_TRUE(any_slot_found) << "no discovery-time slot was ever filled";
}

// Each cell must equal a standalone sim::run_trials at the cell's derived
// seed — the sweep scheduler changes scheduling, never results.
TEST(Sweep, CellMatchesRunTrials) {
  ScenarioSpec spec;
  spec.strategies = {"known-k(k_belief=4)"};
  spec.ks = {4};
  spec.distances = {8};
  spec.trials = 25;
  spec.seed = 1234;

  const std::vector<CellResult> results = run_sweep(spec);
  ASSERT_EQ(results.size(), 1u);

  const core::KnownKStrategy strategy(4);
  sim::RunConfig config;
  config.trials = spec.trials;
  config.seed = results[0].cell.seed;
  const sim::RunStats direct = sim::run_trials(
      strategy, 4, 8, sim::uniform_ring_placement(), config);

  EXPECT_EQ(results[0].stats.times, direct.times);
  EXPECT_DOUBLE_EQ(results[0].stats.time.mean, direct.time.mean);
  EXPECT_DOUBLE_EQ(results[0].stats.success_rate, direct.success_rate);
}

TEST(Sweep, CacheRoundTripsAndSkipsRecomputation) {
  ScenarioSpec spec = small_spec();
  SweepOptions opt;
  opt.threads = 2;
  opt.cache_dir = ::testing::TempDir() + "ants_sweep_cache_test";
  std::filesystem::remove_all(opt.cache_dir);  // stale dirs survive reruns

  const std::vector<CellResult> first = run_sweep(spec, opt);
  for (const CellResult& r : first) EXPECT_FALSE(r.from_cache);

  const std::vector<CellResult> second = run_sweep(spec, opt);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(second[i].from_cache);
    EXPECT_DOUBLE_EQ(second[i].stats.time.mean, first[i].stats.time.mean);
    EXPECT_DOUBLE_EQ(second[i].stats.time.median, first[i].stats.time.median);
    EXPECT_DOUBLE_EQ(second[i].stats.time.std_error,
                     first[i].stats.time.std_error);
    EXPECT_DOUBLE_EQ(second[i].stats.success_rate,
                     first[i].stats.success_rate);
    EXPECT_DOUBLE_EQ(second[i].stats.mean_competitiveness,
                     first[i].stats.mean_competitiveness);
    EXPECT_EQ(second[i].stats.time.n, first[i].stats.time.n);
  }

  // A changed spec (different trials) misses the cache.
  spec.trials += 1;
  const std::vector<CellResult> third = run_sweep(spec, opt);
  for (const CellResult& r : third) EXPECT_FALSE(r.from_cache);
}

TEST(Sweep, CachedAndFreshRowsRenderIdentically) {
  const ScenarioSpec spec = small_spec();
  SweepOptions cached;
  cached.cache_dir = ::testing::TempDir() + "ants_sweep_render_cache";
  std::filesystem::remove_all(cached.cache_dir);

  const auto fresh_rows = rendered_rows(spec, SweepOptions{});
  (void)run_sweep(spec, cached);  // populate
  EXPECT_EQ(rendered_rows(spec, cached), fresh_rows);
}

std::atomic<int> g_counted_builds{0};

/// Registers "counted-a" and "counted-b": known-k under another name, with
/// a factory that counts its calls in g_counted_builds.
void register_counted_strategies() {
  static const bool registered = [] {
    for (const char* name : {"counted-a", "counted-b"}) {
      StrategyEntry entry = *Registry::instance().find("known-k");
      entry.name = name;
      entry.factory = [inner = entry.factory](const Params& p,
                                              const BuildContext& ctx) {
        g_counted_builds.fetch_add(1);
        return inner(p, ctx);
      };
      Registry::instance().add(std::move(entry));
    }
    return true;
  }();
  (void)registered;
}

/// 2 counted strategies x 3 ks: 6 (strategy, k) pairs over 24 cells.
ScenarioSpec counted_spec() {
  register_counted_strategies();
  ScenarioSpec spec;
  spec.name = "counted-builds";
  spec.strategies = {"counted-a", "counted-b"};
  spec.ks = {2, 4, 8};
  spec.distances = {2, 4};
  spec.placements = {"ring", "axis"};
  spec.trials = 8;
  return spec;
}

TEST(Sweep, BuildsEachStrategyOncePerKColdAndWarm) {
  const ScenarioSpec spec = counted_spec();
  SweepOptions opt;
  opt.threads = 2;
  opt.cache_dir = ::testing::TempDir() + "ants_sweep_counted_builds";
  std::filesystem::remove_all(opt.cache_dir);

  g_counted_builds = 0;
  const std::vector<CellResult> cold = run_sweep(spec, opt);
  ASSERT_EQ(cold.size(), 24u);
  EXPECT_FALSE(cold.front().from_cache);
  EXPECT_EQ(g_counted_builds.load(), 6);

  g_counted_builds = 0;
  const std::vector<CellResult> warm = run_sweep(spec, opt);
  for (const CellResult& r : warm) EXPECT_TRUE(r.from_cache);
  EXPECT_EQ(g_counted_builds.load(), 6);
}

TEST(Sweep, ShardedRunBuildsEachStrategyOncePerKFromThePlan) {
  const ScenarioSpec spec = counted_spec();
  g_counted_builds = 0;
  const SweepPlan plan = make_plan(spec);
  std::size_t cells = 0;
  for (std::size_t shard = 1; shard <= 3; ++shard) {
    cells += run_shard(plan, shard, 3).size();
  }
  EXPECT_EQ(cells, plan.cells.size());
  EXPECT_EQ(g_counted_builds.load(), 6);
}

}  // namespace
}  // namespace ants::scenario
