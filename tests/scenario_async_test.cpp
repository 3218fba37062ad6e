// Async/crash and placement-sweep behavior of the scenario layer:
//
//   * conformance — the async trial runner with a zero-delay schedule and no
//     crashes reproduces sim::run_trials exactly, and sweep cells equal the
//     matching sim::run_*_trials call at the cell's derived seed (cell seeds
//     stay strategy-independent across the async path);
//   * determinism — 1-vs-N-thread byte-identical rendered rows for an
//     async/crash spec and a placement-sweep spec;
//   * cache — async aggregates round-trip the per-cell cache byte-for-byte,
//     and a changed crash= field misses it;
//   * progress — per-cell reporting never changes output rows.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "core/known_k.h"
#include "plane/strategies.h"
#include "rng/splitmix64.h"
#include "scenario/environment.h"
#include "scenario/sink.h"
#include "scenario/sweep.h"
#include "sim/placement.h"
#include "sim/runner.h"
#include "sim/trial.h"
#include "support/reference_trial.h"
#include "util/format.h"

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

std::vector<std::string> rendered_rows(const ScenarioSpec& spec,
                                       const SweepOptions& opt) {
  StringSink sink;
  std::vector<ResultSink*> sinks = {&sink};
  emit_results(spec, run_sweep(spec, opt), sinks);
  return sink.lines();
}

ScenarioSpec async_spec() {
  ScenarioSpec spec;
  spec.name = "async-test";
  spec.strategies = {"known-k", "harmonic(delta=0.5)"};
  spec.ks = {2, 8};
  spec.distances = {4, 8};
  spec.schedule = "staggered(gap=3)";
  spec.crash = "doa(p=0.25)";
  spec.trials = 12;
  spec.seed = 0xA57C;
  spec.time_cap = 200000;
  spec.columns = {"strategy", "k", "D", "placement", "schedule", "crash",
                  "success", "mean_time", "median_time", "from_last_mean",
                  "from_last_median", "mean_crashed", "survivors",
                  "mean_last_start"};
  return spec;
}

ScenarioSpec placement_spec() {
  ScenarioSpec spec;
  spec.name = "placement-test";
  spec.strategies = {"known-k"};
  spec.ks = {4};
  spec.distances = {8, 16};
  spec.placements = {"axis", "ring-fraction(f=0.25)", "ring"};
  spec.trials = 10;
  spec.seed = 0xFACE;
  spec.columns = {"strategy", "k", "D", "placement", "success", "mean_time",
                  "median_time", "max_time"};
  return spec;
}

// ---------------------------------------------------------------------------
// Conformance: the async path degenerates to the sync path exactly.
// ---------------------------------------------------------------------------

TEST(AsyncConformance, ZeroDelayNoCrashMatchesRunTrials) {
  const core::KnownKStrategy strategy(4);
  const sim::Placement placement = sim::uniform_ring_placement();
  sim::RunConfig config;
  config.trials = 30;
  config.seed = 0xD15EA5E;

  const sim::RunStats plain =
      sim::run_trials(strategy, 4, 8, placement, config);

  for (const auto* schedule_text : {"sync", "staggered(gap=0)"}) {
    SCOPED_TRACE(schedule_text);
    const auto schedule = make_schedule(schedule_text);
    const auto crashes = make_crash("none");
    const sim::CellStats async = sim::run_async_trials(
        strategy, 4, 8, placement, *schedule, *crashes, config);

    EXPECT_EQ(async.stats.times, plain.times);
    EXPECT_DOUBLE_EQ(async.stats.time.mean, plain.time.mean);
    EXPECT_DOUBLE_EQ(async.stats.success_rate, plain.success_rate);
    EXPECT_DOUBLE_EQ(async.stats.mean_competitiveness,
                     plain.mean_competitiveness);
    EXPECT_DOUBLE_EQ(async.mean_crashed, 0.0);
    EXPECT_DOUBLE_EQ(async.mean_last_start, 0.0);
  }
}

// Each async sweep cell must equal a standalone sim::run_async_trials at the
// cell's derived seed — and that seed must not depend on the strategy, so
// paired instances survive the async path.
TEST(AsyncConformance, SweepCellMatchesRunAsyncTrials) {
  ScenarioSpec spec = async_spec();
  const std::vector<CellResult> results = run_sweep(spec);
  const std::vector<Cell> cells = flatten(spec);
  ASSERT_EQ(results.size(), 2u * 2u * 2u);

  // Strategy-independent cell seeds: cells 0..3 (known-k) pair with cells
  // 4..7 (harmonic) at the same (k, D).
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cells[i].seed, cells[i + 4].seed);
  }

  const core::KnownKStrategy strategy(2);  // cell 0: k=2, D=4
  sim::RunConfig config;
  config.trials = spec.trials;
  config.seed = results[0].cell.seed;
  config.time_cap = spec.time_cap;
  const auto schedule = make_schedule(spec.schedule);
  const auto crashes = make_crash(spec.crash);
  const sim::CellStats direct = sim::run_async_trials(
      strategy, 2, 4, sim::uniform_ring_placement(), *schedule, *crashes,
      config);

  EXPECT_EQ(results[0].stats.times, direct.stats.times);
  EXPECT_DOUBLE_EQ(results[0].stats.time.mean, direct.stats.time.mean);
  EXPECT_DOUBLE_EQ(results[0].from_last_start.mean,
                   direct.from_last_start.mean);
  EXPECT_DOUBLE_EQ(results[0].from_last_start.median,
                   direct.from_last_start.median);
  EXPECT_DOUBLE_EQ(results[0].mean_crashed, direct.mean_crashed);
  EXPECT_DOUBLE_EQ(results[0].mean_last_start, direct.mean_last_start);
}

// Step-level cells under schedule/crash equal the unified runner at the
// cell seed — the engine-family gap the executor merge closed.
TEST(AsyncConformance, StepAsyncCellMatchesRunEnvTrials) {
  ScenarioSpec spec;
  spec.strategies = {"random-walk"};
  spec.ks = {3};
  spec.distances = {2};
  spec.schedule = "staggered(gap=4)";
  spec.crash = "doa(p=0.25)";
  spec.trials = 12;
  spec.seed = 4242;
  spec.time_cap = 5000;

  const std::vector<CellResult> results = run_sweep(spec);
  ASSERT_EQ(results.size(), 1u);

  const BuiltStrategy built =
      Registry::instance().make("random-walk", BuildContext{3});
  sim::TrialStrategy strategy;
  strategy.step = built.step.get();
  sim::RunConfig config;
  config.trials = spec.trials;
  config.seed = results[0].cell.seed;
  config.time_cap = spec.time_cap;
  const auto schedule = make_schedule(spec.schedule);
  const auto crashes = make_crash(spec.crash);
  const sim::CellStats direct = sim::run_env_trials(
      strategy, 3, 2, sim::single_target(sim::uniform_ring_placement()),
      *schedule, *crashes, config);

  EXPECT_EQ(results[0].stats.times, direct.stats.times);
  EXPECT_DOUBLE_EQ(results[0].from_last_start.mean,
                   direct.from_last_start.mean);
  EXPECT_DOUBLE_EQ(results[0].mean_crashed, direct.mean_crashed);
  EXPECT_DOUBLE_EQ(results[0].mean_last_start, direct.mean_last_start);
  // Some trials crash under doa(p=0.25), and the schedule is visible.
  EXPECT_DOUBLE_EQ(results[0].mean_last_start, 8.0);  // (3-1)*gap
}

// Step-level async specs are thread-count independent like every other
// combination.
// Plane-level cells under schedule/crash/targets equal the unified runner
// at the cell seed — the LAST engine-family gap, closed by the plane
// backend of sim::run_trial.
TEST(AsyncConformance, PlaneAsyncCellMatchesRunEnvTrials) {
  ScenarioSpec spec;
  spec.strategies = {"plane-known-k"};
  spec.ks = {2};
  spec.distances = {8};
  spec.schedule = "staggered(gap=2)";
  spec.crash = "doa(p=0.25)";
  spec.targets = {"pair(near=0.25)"};
  spec.trials = 12;
  spec.seed = 424;
  spec.time_cap = 100000;
  const std::vector<CellResult> results = run_sweep(spec);
  ASSERT_EQ(results.size(), 1u);

  const plane::PlaneKnownKStrategy strategy(2);
  sim::TrialStrategy ts;
  ts.plane = &strategy;
  sim::RunConfig config;
  config.trials = spec.trials;
  config.seed = results[0].cell.seed;
  config.time_cap = spec.time_cap;
  const auto schedule = make_schedule(spec.schedule);
  const auto crashes = make_crash(spec.crash);
  const sim::CellStats direct = sim::run_env_trials(
      ts, 2, 8,
      make_plane_targets(spec.targets[0], make_plane_angle("ring")),
      *schedule, *crashes, config);

  EXPECT_EQ(results[0].stats.times, direct.stats.times);
  EXPECT_DOUBLE_EQ(results[0].stats.time.mean, direct.stats.time.mean);
  EXPECT_DOUBLE_EQ(results[0].from_last_start.mean,
                   direct.from_last_start.mean);
  EXPECT_DOUBLE_EQ(results[0].mean_crashed, direct.mean_crashed);
  EXPECT_DOUBLE_EQ(results[0].mean_last_start, direct.mean_last_start);
  EXPECT_DOUBLE_EQ(results[0].mean_first_target, direct.mean_first_target);
}

// Crash-at-time-zero on the plane: every agent is dead on arrival in every
// trial, and the rendered async columns must still be finite (no NaN from
// a 0/0, no division by zero in the from_last aggregates).
TEST(AsyncSweep, PlaneAllAgentsDeadRendersFiniteColumns) {
  ScenarioSpec spec;
  spec.name = "plane-all-dead";
  spec.strategies = {"plane-known-k"};
  spec.ks = {3};
  spec.distances = {8};
  spec.crash = "fixed-life(t=0)";
  spec.trials = 6;
  spec.seed = 11;
  spec.time_cap = 5000;
  spec.columns = {"success", "mean_time", "from_last_mean",
                  "from_last_median", "mean_crashed", "survivors",
                  "first_target"};
  const std::vector<std::string> rows = rendered_rows(spec, SweepOptions{});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], "0.0000,5000,5000,5000,3,0,-1");
  EXPECT_EQ(rows[1].find("nan"), std::string::npos);
  EXPECT_EQ(rows[1].find("inf"), std::string::npos);
}

// The rendered mean_crashed/survivors columns match an independent scalar
// recompute: replay the sweep's per-trial draw through sim::run_trial (the
// scalar executor, NOT the batch runner the sweep routes through) and
// format the aggregate the way the sink does. This pins the crash columns
// end-to-end — cell seed derivation, environment draw, batch-vs-scalar
// execution, and CSV formatting — under a DOA-heavy crash model where the
// origin-target/DOA accounting is exercised hard.
TEST(AsyncSweep, CrashColumnsMatchScalarRecomputeAtCsvLevel) {
  ScenarioSpec spec;
  spec.name = "crash-columns";
  spec.strategies = {"known-k"};
  spec.ks = {5};
  spec.distances = {4};
  spec.schedule = "staggered(gap=2)";
  spec.crash = "doa(p=0.6)";
  spec.trials = 16;
  spec.seed = 0xC7A54;
  spec.time_cap = 200000;
  spec.columns = {"mean_crashed", "survivors"};

  const std::vector<Cell> cells = flatten(spec);
  ASSERT_EQ(cells.size(), 1u);

  const core::KnownKStrategy strategy(5);
  const auto schedule = make_schedule(spec.schedule);
  const auto crashes = make_crash(spec.crash);
  sim::EngineConfig config;
  config.time_cap = spec.time_cap;
  const sim::TargetProcess process =
      sim::single_target(sim::uniform_ring_placement());
  double crashed_sum = 0.0;
  for (std::size_t t = 0; t < static_cast<std::size_t>(spec.trials); ++t) {
    rng::Rng trial_rng(rng::mix_seed(cells[0].seed, t));
    sim::TrialEnvironment env;
    process.grid(trial_rng, 4, config.time_cap, &env);
    env = sim::draw_environment(5, std::move(env), *schedule, *crashes,
                                trial_rng);
    const sim::TrialResult r = sim::run_trial(strategy, 5, env, trial_rng,
                                              config);
    crashed_sum += static_cast<double>(r.crashed);
  }
  const double mean_crashed =
      crashed_sum / static_cast<double>(spec.trials);
  ASSERT_GT(mean_crashed, 0.0);  // the crash model actually bites

  const std::vector<std::string> rows = rendered_rows(spec, SweepOptions{});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], util::fmt_compact(mean_crashed) + "," +
                         util::fmt_compact(5.0 - mean_crashed));
}

TEST(AsyncSweep, StepAsyncOutputIdenticalForOneAndManyThreads) {
  ScenarioSpec spec;
  spec.name = "step-async-test";
  spec.strategies = {"random-walk", "known-k"};
  spec.ks = {2, 4};
  spec.distances = {2, 4};
  spec.schedule = "staggered(gap=2)";
  spec.crash = "doa(p=0.25)";
  spec.trials = 10;
  spec.seed = 0x57E9;
  spec.time_cap = 20000;
  spec.columns = {"strategy", "k", "D", "schedule", "crash", "success",
                  "mean_time", "from_last_mean", "mean_crashed", "survivors"};
  SweepOptions one_thread;
  one_thread.threads = 1;
  SweepOptions many_threads;
  many_threads.threads = 7;
  EXPECT_EQ(rendered_rows(spec, one_thread),
            rendered_rows(spec, many_threads));
}

// Step-level cells equal sim::run_step_trials at the cell seed (the runner
// the registry prescribes for that family).
TEST(AsyncConformance, StepCellMatchesRunStepTrials) {
  ScenarioSpec spec;
  spec.strategies = {"random-walk"};
  spec.ks = {3};
  spec.distances = {4};
  spec.trials = 10;
  spec.seed = 42;
  spec.time_cap = 20000;

  const std::vector<CellResult> results = run_sweep(spec);
  ASSERT_EQ(results.size(), 1u);

  const BuiltStrategy built =
      Registry::instance().make("random-walk", BuildContext{3});
  sim::RunConfig config;
  config.trials = spec.trials;
  config.seed = results[0].cell.seed;
  config.time_cap = spec.time_cap;
  const sim::RunStats direct = sim::run_step_trials(
      *built.step, 3, 4, sim::uniform_ring_placement(), config);
  EXPECT_EQ(results[0].stats.times, direct.times);
  EXPECT_DOUBLE_EQ(results[0].stats.success_rate, direct.success_rate);
}

// ---------------------------------------------------------------------------
// Thread-count independence for the new axes (acceptance criterion).
// ---------------------------------------------------------------------------

TEST(AsyncSweep, OutputIdenticalForOneAndManyThreads) {
  const ScenarioSpec spec = async_spec();
  SweepOptions one_thread;
  one_thread.threads = 1;
  SweepOptions many_threads;
  many_threads.threads = 7;
  EXPECT_EQ(rendered_rows(spec, one_thread),
            rendered_rows(spec, many_threads));
}

TEST(PlacementSweep, OutputIdenticalForOneAndManyThreads) {
  const ScenarioSpec spec = placement_spec();
  SweepOptions one_thread;
  one_thread.threads = 1;
  SweepOptions many_threads;
  many_threads.threads = 7;
  EXPECT_EQ(rendered_rows(spec, one_thread),
            rendered_rows(spec, many_threads));
}

// ---------------------------------------------------------------------------
// Placement as a sweep axis.
// ---------------------------------------------------------------------------

TEST(PlacementSweep, FlattenMakesPlacementTheInnermostAxis) {
  const ScenarioSpec spec = placement_spec();
  const std::vector<Cell> cells = flatten(spec);
  ASSERT_EQ(cells.size(), 1u * 1u * 2u * 3u);
  EXPECT_EQ(cells[0].placement_spec, "axis");
  EXPECT_EQ(cells[1].placement_spec, "ring-fraction(f=0.25)");
  EXPECT_EQ(cells[2].placement_spec, "ring");
  EXPECT_EQ(cells[0].distance, 8);
  EXPECT_EQ(cells[3].distance, 16);
  // Placement does not perturb the cell seed (placements are probed on the
  // same trial randomness) but does discriminate the cache hash.
  EXPECT_EQ(cells[0].seed, cells[1].seed);
  EXPECT_NE(cells[0].hash, cells[1].hash);
}

TEST(PlacementSweep, PinnedFractionBeatsOrMatchesAxisForPinnedTreasure) {
  // Sanity: the axis and ring-fraction(f=0) placements pin the same node,
  // so identical seeds must give identical results.
  ScenarioSpec spec;
  spec.strategies = {"known-k"};
  spec.ks = {2};
  spec.distances = {8};
  spec.placements = {"axis", "ring-fraction(f=0)"};
  spec.trials = 8;
  spec.seed = 7;
  const std::vector<CellResult> results = run_sweep(spec);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].stats.times, results[1].stats.times);
}

// ---------------------------------------------------------------------------
// Targets as a sweep axis.
// ---------------------------------------------------------------------------

ScenarioSpec targets_spec() {
  ScenarioSpec spec;
  spec.name = "targets-test";
  spec.strategies = {"known-k"};
  spec.ks = {4};
  spec.distances = {8};
  spec.targets = {"single", "pair(near=0.25)", "ring-set(n=3)"};
  spec.trials = 12;
  spec.seed = 0x7A36E7;
  spec.time_cap = 200000;
  spec.columns = {"strategy", "k", "D", "targets", "success", "mean_time",
                  "first_target"};
  return spec;
}

TEST(TargetsSweep, FlattenMakesTargetsTheInnermostAxis) {
  ScenarioSpec spec = targets_spec();
  spec.placements = {"axis", "ring"};
  const std::vector<Cell> cells = flatten(spec);
  ASSERT_EQ(cells.size(), 1u * 1u * 1u * 2u * 3u);
  EXPECT_EQ(cells[0].placement_spec, "axis");
  EXPECT_EQ(cells[0].targets_spec, "single");
  EXPECT_EQ(cells[1].targets_spec, "pair(near=0.25)");
  EXPECT_EQ(cells[2].targets_spec, "ring-set(n=3)");
  EXPECT_EQ(cells[3].placement_spec, "ring");
  // The target policy does not perturb the cell seed (paired instances)
  // but does discriminate the cache hash.
  EXPECT_EQ(cells[0].seed, cells[1].seed);
  EXPECT_NE(cells[0].hash, cells[1].hash);
}

TEST(TargetsSweep, NearPatchWinsTheForagingRace) {
  const std::vector<CellResult> results = run_sweep(targets_spec());
  ASSERT_EQ(results.size(), 3u);
  // single: every found trial "wins" with target 0.
  EXPECT_DOUBLE_EQ(results[0].mean_first_target, 0.0);
  // pair(near=0.25): the near patch (index 0) should win nearly always, so
  // the mean index stays close to 0; the race also ends much earlier than
  // the single hunt at distance D.
  EXPECT_LT(results[1].mean_first_target, 0.3);
  EXPECT_GE(results[1].mean_first_target, 0.0);
  EXPECT_LT(results[1].stats.time.mean, results[0].stats.time.mean);
  // ring-set(n=3): all targets at distance D; the mean winning index sits
  // somewhere strictly inside [0, 2].
  EXPECT_GE(results[2].mean_first_target, 0.0);
  EXPECT_LE(results[2].mean_first_target, 2.0);
}

TEST(TargetsSweep, OutputIdenticalForOneAndManyThreads) {
  const ScenarioSpec spec = targets_spec();
  SweepOptions one_thread;
  one_thread.threads = 1;
  SweepOptions many_threads;
  many_threads.threads = 7;
  EXPECT_EQ(rendered_rows(spec, one_thread),
            rendered_rows(spec, many_threads));
}

TEST(TargetsSweep, SingleTargetsLeaveBaseModelRowsUntouched) {
  // targets=single must be byte-identical to a spec that never mentions
  // targets at all (the default), for every column of the default set.
  ScenarioSpec base;
  base.strategies = {"known-k", "uniform(eps=0.5)"};
  base.ks = {2, 4};
  base.distances = {8};
  base.trials = 10;
  base.seed = 99;
  ScenarioSpec with_field = base;
  with_field.targets = {"single"};
  EXPECT_EQ(rendered_rows(base, SweepOptions{}),
            rendered_rows(with_field, SweepOptions{}));
}

TEST(TargetsSweep, CacheDiscriminatesTargetsField) {
  ScenarioSpec spec = targets_spec();
  SweepOptions opt;
  opt.cache_dir = ::testing::TempDir() + "ants_targets_cache_test";
  std::filesystem::remove_all(opt.cache_dir);

  const auto cold_rows = rendered_rows(spec, opt);
  const std::vector<CellResult> warm = run_sweep(spec, opt);
  for (const CellResult& r : warm) EXPECT_TRUE(r.from_cache);
  // mean_first_target round-trips the cache byte-for-byte.
  EXPECT_EQ(rendered_rows(spec, opt), cold_rows);

  ScenarioSpec changed = targets_spec();
  changed.targets = {"pair(near=0.5)"};
  for (const CellResult& r : run_sweep(changed, opt)) {
    EXPECT_FALSE(r.from_cache);
  }
}

// ---------------------------------------------------------------------------
// Cache round-trip for the new columns (satellite).
// ---------------------------------------------------------------------------

TEST(AsyncSweep, CacheRoundTripsAsyncColumnsByteForByte) {
  ScenarioSpec spec = async_spec();
  SweepOptions opt;
  opt.cache_dir = ::testing::TempDir() + "ants_async_cache_test";
  std::filesystem::remove_all(opt.cache_dir);

  const auto cold_rows = rendered_rows(spec, opt);
  const std::vector<CellResult> warm = run_sweep(spec, opt);
  for (const CellResult& r : warm) EXPECT_TRUE(r.from_cache);
  EXPECT_EQ(rendered_rows(spec, opt), cold_rows);

  // A changed crash= field misses the cache.
  spec.crash = "doa(p=0.5)";
  for (const CellResult& r : run_sweep(spec, opt)) {
    EXPECT_FALSE(r.from_cache);
  }
  // So does a changed schedule= field.
  ScenarioSpec resched = async_spec();
  resched.schedule = "staggered(gap=4)";
  for (const CellResult& r : run_sweep(resched, opt)) {
    EXPECT_FALSE(r.from_cache);
  }
  // And a changed placement.
  ScenarioSpec moved = async_spec();
  moved.placements = {"axis"};
  for (const CellResult& r : run_sweep(moved, opt)) {
    EXPECT_FALSE(r.from_cache);
  }
}

// ---------------------------------------------------------------------------
// Progress reporting (satellite): rows unaffected, lines per cell.
// ---------------------------------------------------------------------------

TEST(Progress, ReportingDoesNotChangeOutputRows) {
  const ScenarioSpec spec = placement_spec();
  const auto quiet_rows = rendered_rows(spec, SweepOptions{});

  std::ostringstream progress;
  SweepOptions opt;
  opt.progress = true;
  opt.progress_stream = &progress;
  opt.threads = 3;
  EXPECT_EQ(rendered_rows(spec, opt), quiet_rows);

  // One completion line per cell, each naming the spec.
  const std::string text = progress.str();
  std::size_t lines = 0;
  for (const char ch : text) lines += ch == '\n';
  EXPECT_EQ(lines, flatten(spec).size());
  EXPECT_NE(text.find("placement-test"), std::string::npos);
  EXPECT_NE(text.find("done"), std::string::npos);
}

TEST(Progress, CachedCellsReportAsCached) {
  const ScenarioSpec spec = placement_spec();
  SweepOptions opt;
  opt.cache_dir = ::testing::TempDir() + "ants_progress_cache_test";
  std::filesystem::remove_all(opt.cache_dir);
  (void)run_sweep(spec, opt);  // populate

  std::ostringstream progress;
  opt.progress = true;
  opt.progress_stream = &progress;
  (void)run_sweep(spec, opt);
  EXPECT_NE(progress.str().find("cached"), std::string::npos);
}

}  // namespace
}  // namespace ants::scenario
