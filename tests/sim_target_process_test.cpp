// The target-process API (sim::TargetProcess): per-trial objects owning
// target state over TIME — static draws as the trivial process, Poisson
// arrival/lifetime windows, drifting targets, and dwell capture — plus the
// scenario-layer surface built on top (cache keys, cached aggregates).
//
// Contracts pinned here:
//   * static processes are byte-identical to the direct environment draws
//     they replaced (same rng stream, same draw order, same results);
//   * dynamic processes draw exclusively from the target child stream, so
//     enabling them never perturbs the trial rng's main stream;
//   * zero-spawn Poisson realizations are legitimate trials, not validation
//     errors, on every backend and in both collect modes;
//   * dwell capture requires held contact and resets on leaving the disc or
//     on the target vanishing mid-dwell;
//   * the batch executor runs every grid dynamic environment natively in its
//     SoA path, byte-identical to the scalar reference at every forced SIMD
//     level and with zero scalar delegations; plane windowed/collect cells
//     are the one remaining fallback, and each delegation is counted;
//   * capture/collect are part of the scenario cell cache key, and the new
//     target aggregates survive a cache round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/biased_walk.h"
#include "baselines/random_walk.h"
#include "baselines/sector_sweep.h"
#include "core/known_k.h"
#include "core/uniform.h"
#include "grid/spiral.h"
#include "plane/strategies.h"
#include "rng/splitmix64.h"
#include "scenario/plan.h"
#include "scenario/spec.h"
#include "scenario/sweep.h"
#include "sim/batch/batch.h"
#include "sim/batch/simd.h"
#include "sim/placement.h"
#include "sim/trial.h"
#include "support/reference_trial.h"
#include "test_support.h"

namespace ants {
namespace {

using grid::Point;
using sim::EngineConfig;
using sim::Time;
using sim::TrialEnvironment;
using sim::TrialResult;

/// Deterministic stepper marching east forever (enters the L1 disc of an
/// on-axis target one tick before standing on it — the dwell test fixture).
class EastStrategy final : public sim::StepStrategy {
 public:
  std::string name() const override { return "east"; }
  void step(sim::StepLanes& lanes, const std::uint32_t* agents,
            std::size_t n) const override {
    for (std::size_t i = 0; i < n; ++i) ++lanes.x[agents[i]];
  }
};

/// Oscillates between (1,0) and (0,0): touches the L1 disc of a target at
/// (2,0) every other tick but never holds contact two ticks in a row.
class OscillateStrategy final : public sim::StepStrategy {
 public:
  std::string name() const override { return "oscillate"; }
  void step(sim::StepLanes& lanes, const std::uint32_t* agents,
            std::size_t n) const override {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t a = agents[i];
      const bool at_origin = lanes.x[a] == 0 && lanes.y[a] == 0;
      lanes.x[a] = at_origin ? 1 : 0;
      lanes.y[a] = 0;
    }
  }
};

void expect_same_result(const TrialResult& a, const TrialResult& b) {
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.finder, b.finder);
  EXPECT_EQ(a.first_target, b.first_target);
  EXPECT_EQ(a.segments, b.segments);
  EXPECT_EQ(a.last_start, b.last_start);
  EXPECT_EQ(a.from_last_start, b.from_last_start);
  EXPECT_EQ(a.crashed, b.crashed);
  EXPECT_EQ(a.target_times, b.target_times);
}

// ---------------------------------------------------------------------------
// Static processes: the trivial process is byte-identical to direct draws.
// ---------------------------------------------------------------------------

TEST(TargetProcess, StaticGridProcessMatchesDirectDraw) {
  const sim::TargetProcess process =
      sim::single_target(sim::uniform_ring_placement());
  const sim::Placement direct = sim::uniform_ring_placement();
  for (std::uint64_t seed : {1ULL, 42ULL, 999ULL}) {
    rng::Rng process_rng(seed);
    rng::Rng direct_rng(seed);
    TrialEnvironment via_process;
    process.grid(process_rng, 7, 1000, &via_process);
    const Point direct_draw = direct(direct_rng, 7);
    ASSERT_EQ(via_process.targets.size(), 1u);
    EXPECT_EQ(via_process.targets[0], direct_draw);
    // Both consumed the same number of main-stream draws.
    EXPECT_EQ(process_rng.bits(), direct_rng.bits());
    // And the realized environment runs identically to the hand-built one.
    const core::KnownKStrategy known(3);
    EngineConfig config;
    config.time_cap = 100000;
    TrialEnvironment direct_env;
    direct_env.targets = {direct_draw};
    expect_same_result(
        run_trial(known, 3, via_process, rng::Rng(seed * 31), config),
        run_trial(known, 3, direct_env, rng::Rng(seed * 31), config));
  }
}

TEST(TargetProcess, StaticPlaneProcessMatchesDirectDraw) {
  const sim::TargetProcess process =
      sim::single_plane_target([](rng::Rng& rng) { return rng.angle(); });
  for (std::uint64_t seed : {7ULL, 1234ULL}) {
    rng::Rng process_rng(seed);
    rng::Rng direct_rng(seed);
    TrialEnvironment via_process;
    process.plane(process_rng, 12, 1000, &via_process);
    const plane::Vec2 direct_draw =
        plane::unit(direct_rng.angle()) * 12.0;
    ASSERT_EQ(via_process.plane_targets.size(), 1u);
    EXPECT_EQ(via_process.plane_targets[0].x, direct_draw.x);
    EXPECT_EQ(via_process.plane_targets[0].y, direct_draw.y);
    EXPECT_EQ(process_rng.bits(), direct_rng.bits());
  }
}

// ---------------------------------------------------------------------------
// Poisson processes: determinism, stream isolation, realization shape.
// ---------------------------------------------------------------------------

TEST(TargetProcess, PoissonRealizationIsDeterministic) {
  const sim::TargetProcess process =
      sim::poisson_targets(0.05, 100.0, sim::uniform_ring_placement());
  TrialEnvironment a, b;
  rng::Rng rng_a(2024), rng_b(2024);
  process.grid(rng_a, 5, 2000, &a);
  process.grid(rng_b, 5, 2000, &b);
  EXPECT_EQ(a.targets, b.targets);
  EXPECT_EQ(a.target_appear, b.target_appear);
  EXPECT_EQ(a.target_vanish, b.target_vanish);
  EXPECT_TRUE(a.windowed);
}

TEST(TargetProcess, PoissonDrawsOnlyFromTargetStream) {
  // Realizing a Poisson process must not advance the trial rng's main
  // stream: the next main-stream draw equals an untouched twin's.
  const sim::TargetProcess process =
      sim::poisson_targets(0.02, 0.0, sim::uniform_ring_placement());
  rng::Rng realized(777), untouched(777);
  TrialEnvironment env;
  process.grid(realized, 4, 5000, &env);
  EXPECT_EQ(realized.bits(), untouched.bits());
}

TEST(TargetProcess, PoissonRealizationShape) {
  const sim::TargetProcess process =
      sim::poisson_targets(0.05, 100.0, sim::uniform_ring_placement());
  TrialEnvironment env;
  rng::Rng rng(99);
  const Time cap = 2000;
  process.grid(rng, 6, cap, &env);
  ASSERT_GT(env.targets.size(), 0u);
  ASSERT_EQ(env.target_appear.size(), env.targets.size());
  ASSERT_EQ(env.target_vanish.size(), env.targets.size());
  double prev = 0.0;
  for (std::size_t ti = 0; ti < env.targets.size(); ++ti) {
    EXPECT_GT(env.target_appear[ti], prev);
    EXPECT_LE(env.target_appear[ti], static_cast<double>(cap));
    EXPECT_GT(env.target_vanish[ti], env.target_appear[ti]);
    prev = env.target_appear[ti];
  }
}

TEST(TargetProcess, PoissonImmortalLifetimes) {
  const sim::TargetProcess process =
      sim::poisson_targets(0.05, 0.0, sim::uniform_ring_placement());
  TrialEnvironment env;
  rng::Rng rng(99);
  process.grid(rng, 6, 2000, &env);
  ASSERT_GT(env.targets.size(), 0u);
  for (const double vanish : env.target_vanish) {
    EXPECT_TRUE(std::isinf(vanish));
  }
}

TEST(TargetProcess, PoissonRequiresFiniteHorizon) {
  const sim::TargetProcess process =
      sim::poisson_targets(0.05, 0.0, sim::uniform_ring_placement());
  TrialEnvironment env;
  rng::Rng rng(1);
  EXPECT_THROW(process.grid(rng, 4, sim::kNeverTime, &env),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Zero-spawn realizations: legitimate trials, not validation errors.
// ---------------------------------------------------------------------------

TEST(TargetProcess, ZeroSpawnPoissonIsNotAnError) {
  // A rate this low realizes zero arrivals over the horizon for any seed
  // whose first exponential draw exceeds it — pinned by the fixed seed.
  const sim::TargetProcess process =
      sim::poisson_targets(1e-12, 0.0, sim::uniform_ring_placement());
  TrialEnvironment env;
  rng::Rng rng(5);
  process.grid(rng, 4, 100, &env);
  ASSERT_TRUE(env.targets.empty());
  EXPECT_TRUE(env.windowed);
  EXPECT_TRUE(env.has_target_windows());

  const baselines::RandomWalkStrategy rw;
  EngineConfig config;
  config.time_cap = 100;

  // First-of-set mode: nothing to find; the trial runs out the cap and the
  // walker's cost accounting still happens (one edge per tick).
  const TrialResult first = run_trial(rw, 2, env, rng::Rng(17), config);
  EXPECT_FALSE(first.found);
  EXPECT_EQ(first.time, 100.0);
  EXPECT_EQ(first.segments, 200);

  // Collect-all mode: vacuously complete at t = 0.
  TrialEnvironment collect_env = env;
  collect_env.collect_all = true;
  const TrialResult all = run_trial(rw, 2, collect_env, rng::Rng(17), config);
  EXPECT_TRUE(all.found);
  EXPECT_EQ(all.time, 0.0);
  EXPECT_TRUE(all.target_times.empty());
}

TEST(TargetProcess, ZeroSpawnSegmentAndPlaneBackends) {
  EngineConfig config;
  config.time_cap = 50;

  TrialEnvironment grid_env;
  grid_env.windowed = true;
  const core::KnownKStrategy known(2);
  const TrialResult seg = run_trial(known, 2, grid_env, rng::Rng(3), config);
  EXPECT_FALSE(seg.found);
  EXPECT_EQ(seg.time, 50.0);

  TrialEnvironment plane_env;
  plane_env.windowed = true;
  const plane::PlaneKnownKStrategy plane_known(2);
  const TrialResult pl =
      run_trial(plane_known, 2, plane_env, rng::Rng(3), config);
  EXPECT_FALSE(pl.found);
  EXPECT_EQ(pl.time, 50.0);
}

// ---------------------------------------------------------------------------
// Dwell capture: held contact confirms, losing contact resets.
// ---------------------------------------------------------------------------

TEST(TargetProcess, DwellCaptureConfirmsAfterHeldContact) {
  // East walker: in the L1 disc of (2,0) from t = 1 on (positions 1, 2, 3).
  // dwell=2 needs three consecutive contact ticks, so capture lands at t=3.
  const EastStrategy east;
  TrialEnvironment env;
  env.targets = {Point{2, 0}};
  env.capture_dwell = 2;
  EngineConfig config;
  config.time_cap = 100;
  const TrialResult r = run_trial(east, 1, env, rng::Rng(1), config);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.time, 3.0);
  EXPECT_EQ(r.finder, 0);

  // Instant capture on the same walk finds it at t = 2 (exact node).
  env.capture_dwell = 0;
  const TrialResult instant = run_trial(east, 1, env, rng::Rng(1), config);
  EXPECT_TRUE(instant.found);
  EXPECT_EQ(instant.time, 2.0);
}

TEST(TargetProcess, DwellResetsWhenAgentLeavesDisc) {
  // The oscillator touches the disc of (2,0) at (1,0) on odd ticks and
  // leaves it on even ticks: contact never holds, so dwell never confirms.
  const OscillateStrategy osc;
  TrialEnvironment env;
  env.targets = {Point{2, 0}};
  env.capture_dwell = 1;
  EngineConfig config;
  config.time_cap = 200;
  const TrialResult r = run_trial(osc, 1, env, rng::Rng(1), config);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.time, 200.0);
}

TEST(TargetProcess, DwellResetsWhenTargetVanishesMidDwell) {
  // The east walker holds contact from t = 1, needing t = 3 to confirm at
  // dwell=2 — but the target vanishes at 2.5, wiping the held progress.
  const EastStrategy east;
  TrialEnvironment env;
  env.targets = {Point{2, 0}};
  env.target_appear = {0.0};
  env.target_vanish = {2.5};
  env.capture_dwell = 2;
  EngineConfig config;
  config.time_cap = 100;
  const TrialResult gone = run_trial(east, 1, env, rng::Rng(1), config);
  EXPECT_FALSE(gone.found);

  // Control: the same trial with a late vanish confirms at t = 3.
  env.target_vanish = {1000.0};
  const TrialResult held = run_trial(east, 1, env, rng::Rng(1), config);
  EXPECT_TRUE(held.found);
  EXPECT_EQ(held.time, 3.0);
}

// ---------------------------------------------------------------------------
// Drifting targets.
// ---------------------------------------------------------------------------

TEST(TargetProcess, DriftingTargetInterceptedHeadOn) {
  // Base (4,0) drifting at 1 cell/tick toward -x (angle 0.5 turns); the
  // east walker at (t,0) meets it where t = 4 - t, i.e. t = 2.
  const sim::TargetProcess process =
      sim::drifting_target(1.0, 0.5, sim::axis_placement());
  TrialEnvironment env;
  rng::Rng rng(11);
  process.grid(rng, 4, 100, &env);
  ASSERT_EQ(env.targets.size(), 1u);
  ASSERT_EQ(env.target_drift.size(), 1u);
  EXPECT_EQ(env.targets[0], (Point{4, 0}));

  const EastStrategy east;
  EngineConfig config;
  config.time_cap = 100;
  const TrialResult r = run_trial(east, 1, env, rng::Rng(2), config);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.time, 2.0);
}

TEST(TargetProcess, DriftRequiresStepStrategy) {
  TrialEnvironment env;
  env.targets = {Point{4, 0}};
  env.target_drift = {sim::TargetDrift{1.0, 0.0}};
  const core::KnownKStrategy known(2);
  EngineConfig config;
  config.time_cap = 100;
  EXPECT_THROW(run_trial(known, 2, env, rng::Rng(1), config),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Collect-all: per-target discovery times and time-to-all-found.
// ---------------------------------------------------------------------------

TEST(TargetProcess, CollectAllRecordsPerTargetTimes) {
  const EastStrategy east;
  TrialEnvironment env;
  env.targets = {Point{2, 0}, Point{5, 0}};
  env.collect_all = true;
  EngineConfig config;
  config.time_cap = 100;
  const TrialResult r = run_trial(east, 1, env, rng::Rng(1), config);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.time, 5.0);  // time-to-ALL-found
  ASSERT_EQ(r.target_times.size(), 2u);
  EXPECT_EQ(r.target_times[0], 2.0);
  EXPECT_EQ(r.target_times[1], 5.0);
  EXPECT_EQ(r.first_target, 0);
}

TEST(TargetProcess, CollectAllCensorsUnfoundTargets) {
  const EastStrategy east;
  TrialEnvironment env;
  env.targets = {Point{2, 0}, Point{0, 50}};  // the east walker never turns
  env.collect_all = true;
  EngineConfig config;
  config.time_cap = 30;
  const TrialResult r = run_trial(east, 1, env, rng::Rng(1), config);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.time, 30.0);
  ASSERT_EQ(r.target_times.size(), 2u);
  EXPECT_EQ(r.target_times[0], 2.0);
  EXPECT_EQ(r.target_times[1], -1.0);
}

// ---------------------------------------------------------------------------
// Batch executor: grid dynamic environments run natively in the batch SoA
// path — byte-identical to the scalar reference at every SIMD level the
// host runs, with the fallback counter pinned at zero so the tests fail if
// routing ever regresses to delegation. Plane dynamic cells are the one
// remaining (counted) delegation.
// ---------------------------------------------------------------------------

TEST(TargetProcess, BatchRunnerMatchesScalarOnDynamicEnvs) {
  using sim::batch::SimdLevel;
  const baselines::RandomWalkStrategy rw;
  const core::KnownKStrategy known(3);

  // Each seed realizes fresh environments from the trial seed, so sixteen
  // seeds sweep zero-spawn, mid-trial appearance, vanish-before-found, and
  // multi-target realizations across every dynamic axis pairing.
  const sim::TargetProcess poisson =
      sim::poisson_targets(0.02, 300.0, sim::uniform_ring_placement());
  const sim::TargetProcess drift =
      sim::drifting_target(0.5, 0.125, sim::uniform_ring_placement());

  EngineConfig config;
  config.time_cap = 400;

  testing::LevelGuard guard;
  for (const SimdLevel level : testing::testable_levels()) {
    sim::batch::force_simd_level(level);
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      const rng::Rng trial_rng(rng::mix_seed(0xD15EA5E, seed));
      const auto realize = [&](const sim::TargetProcess& process) {
        TrialEnvironment env;
        rng::Rng realize_rng(trial_rng.seed());
        process.grid(realize_rng, 3, config.time_cap, &env);
        return env;
      };

      // Step backend: windows, drift, dwell, collect-all, and pairings.
      std::vector<TrialEnvironment> step_envs;
      step_envs.push_back(realize(poisson));
      step_envs.push_back(realize(poisson));
      step_envs.back().capture_dwell = 1;
      step_envs.push_back(realize(poisson));
      step_envs.back().collect_all = true;
      step_envs.push_back(realize(drift));
      step_envs.push_back(realize(drift));
      step_envs.back().capture_dwell = 2;
      step_envs.push_back(realize(drift));
      step_envs.back().collect_all = true;
      for (const TrialEnvironment& env : step_envs) {
        sim::TrialStrategy s;
        s.step = &rw;
        sim::batch::BatchRunner runner(s, 2, config);
        expect_same_result(runner.run_one(env, trial_rng),
                           run_trial(rw, 2, env, trial_rng, config));
        // The batch path must actually run: grid cells never delegate.
        EXPECT_EQ(runner.take_scalar_fallbacks(), 0u);
      }

      // Segment backend: windows first-of-set and windows + collect-all.
      for (const bool collect : {false, true}) {
        TrialEnvironment env = realize(poisson);
        env.collect_all = collect;
        sim::TrialStrategy s;
        s.segment = &known;
        sim::batch::BatchRunner runner(s, 3, config);
        expect_same_result(runner.run_one(env, trial_rng),
                           run_trial(known, 3, env, trial_rng, config));
        EXPECT_EQ(runner.take_scalar_fallbacks(), 0u);
      }

      // Open-window invariant, the property that lets one loop per backend
      // serve both models: windows that never close force the dynamic path,
      // which must reproduce the static path field for field on both
      // executors. Non-origin targets only (the static origin pre-step has
      // no dynamic counterpart), under drawn starts and lifetimes.
      const auto expect_open_window_invariant =
          [&](const sim::TrialStrategy& s, const TrialEnvironment& closed) {
            TrialEnvironment open = closed;
            const std::size_t nt =
                closed.targets.size() + closed.plane_targets.size();
            open.target_appear.assign(nt, 0.0);
            open.target_vanish.assign(
                nt, std::numeric_limits<double>::infinity());
            ASSERT_TRUE(open.has_dynamic_targets());
            const TrialResult want =
                sim::run_trial(s, 3, closed, trial_rng, config);
            sim::batch::BatchRunner runner(s, 3, config);
            expect_same_result(sim::run_trial(s, 3, open, trial_rng, config),
                               want);
            expect_same_result(runner.run_one(open, trial_rng), want);
            expect_same_result(runner.run_one(closed, trial_rng), want);
          };
      rng::Rng place_rng = trial_rng.child(0x0BE7);
      const sim::Placement ring = sim::uniform_ring_placement();
      const TrialEnvironment grid_closed = sim::draw_environment(
          3, {ring(place_rng, 3), ring(place_rng, 6)}, sim::StaggeredStart(4),
          sim::ExponentialLifetime(150.0), trial_rng);
      TrialEnvironment plane_closed;
      plane_closed.plane_targets = {plane::unit(place_rng.angle()) * 3.0,
                                    plane::unit(place_rng.angle()) * 6.0};
      plane_closed =
          sim::draw_environment(3, std::move(plane_closed),
                                sim::StaggeredStart(4),
                                sim::ExponentialLifetime(150.0), trial_rng);
      const plane::PlaneKnownKStrategy plane_known(3);
      sim::TrialStrategy seg_s;
      seg_s.segment = &known;
      sim::TrialStrategy step_s;
      step_s.step = &rw;
      sim::TrialStrategy plane_s;
      plane_s.plane = &plane_known;
      expect_open_window_invariant(seg_s, grid_closed);
      expect_open_window_invariant(step_s, grid_closed);
      expect_open_window_invariant(plane_s, plane_closed);
    }
  }
}

// ---------------------------------------------------------------------------
// Window-event edges of the batch executor's dynamic loops: the lock-step
// live-target list (rebuilt at appear/vanish times, shortened by captures)
// and the segment loop's out-of-window skip must reproduce the scalar
// loops, which test every target on every tick and segment.
// ---------------------------------------------------------------------------

/// 36 targets in the 9x9 box around the source. Appear times descend with
/// the index in 7.5-tick steps (so appear order is not index order, and
/// half of them are fractional), every third repeats its predecessor's, and
/// the vanish times cycle through: never (+inf), an empty window on a whole
/// tick (vanish == appear), fractional, integer, coincident with another
/// target's appear, and a half-tick window. Targets 7, 8 and 30 share a
/// node and a window.
TrialEnvironment window_edge_environment(std::uint64_t seed) {
  rng::Rng rng(seed);
  constexpr std::size_t kTargets = 36;
  TrialEnvironment env;
  for (std::size_t ti = 0; ti < kTargets; ++ti) {
    Point p = grid::kOrigin;
    while (p == grid::kOrigin) {
      p = Point{rng.uniform_int(-4, 4), rng.uniform_int(-4, 4)};
    }
    env.targets.push_back(p);
    double appear = ti % 3 == 2 ? env.target_appear.back()
                                : static_cast<double>(kTargets - ti) * 7.5 +
                                      static_cast<double>(rng.uniform_int(0, 2));
    if (ti % 6 == 1) appear = std::floor(appear);
    env.target_appear.push_back(appear);
    const double vanishes[] = {
        std::numeric_limits<double>::infinity(),
        appear,
        appear + 40.5,
        appear + static_cast<double>(rng.uniform_int(1, 200)),
        appear + 30.0,  // the appear of target ti - 4 (before jitter)
        appear + 0.5};
    env.target_vanish.push_back(vanishes[ti % 6]);
  }
  for (const std::size_t ti : {7, 8, 30}) {
    env.targets[ti] = env.targets[7];
    env.target_appear[ti] = 1.5;
    env.target_vanish[ti] = 400.0;
  }
  env.windowed = true;
  return env;
}

TEST(TargetProcess, BatchRunnerMatchesScalarAtWindowEventEdges) {
  using sim::batch::SimdLevel;
  const baselines::RandomWalkStrategy random_walk;
  const baselines::BiasedWalkStrategy biased_walk(0.3, 0.8);
  const core::KnownKStrategy known(3);
  const core::UniformStrategy uniform(0.5);
  const baselines::SectorSweepStrategy sector;
  constexpr int k = 3;
  EngineConfig config;
  config.time_cap = 600;

  // Staggered starts, one agent dead on arrival and one crashing mid-trial.
  const auto stagger = [](TrialEnvironment env) {
    env.starts = {9, 0, 4};
    env.lifetimes = {0, 250, sim::kNeverTime};
    return env;
  };
  const auto with_drift = [](TrialEnvironment env) {
    for (std::size_t ti = 0; ti < env.targets.size(); ++ti) {
      const double v = 0.125 * static_cast<double>(ti % 5) - 0.25;
      env.target_drift.push_back({v, -0.5 * v});
    }
    return env;
  };
  const auto with_dwell = [](TrialEnvironment env) {
    env.capture_dwell = 2;
    return env;
  };

  std::vector<sim::TrialStrategy> step_strategies(2);
  step_strategies[0].step = &random_walk;
  step_strategies[1].step = &biased_walk;
  std::vector<sim::TrialStrategy> segment_strategies(3);
  segment_strategies[0].segment = &known;
  segment_strategies[1].segment = &uniform;
  segment_strategies[2].segment = &sector;

  testing::LevelGuard guard;
  for (const SimdLevel level : testing::testable_levels()) {
    sim::batch::force_simd_level(level);
    // One runner per strategy, reused over every environment below, so a
    // list or counter left over from the previous trial would show.
    std::vector<sim::batch::BatchRunner> step_runners;
    for (const auto& s : step_strategies) step_runners.emplace_back(s, k, config);
    std::vector<sim::batch::BatchRunner> segment_runners;
    for (const auto& s : segment_strategies) {
      segment_runners.emplace_back(s, k, config);
    }
    std::size_t collected = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const TrialEnvironment base = window_edge_environment(seed);
      const rng::Rng trial_rng(rng::mix_seed(0xED6E5, seed));
      for (const bool collect : {false, true}) {
        TrialEnvironment windows = base;
        windows.collect_all = collect;
        const std::vector<TrialEnvironment> step_envs = {
            windows, with_drift(windows), with_dwell(windows),
            stagger(windows), stagger(with_dwell(with_drift(windows)))};
        for (std::size_t si = 0; si < step_runners.size(); ++si) {
          for (const TrialEnvironment& env : step_envs) {
            const TrialResult want =
                run_trial(step_strategies[si], k, env, trial_rng, config);
            expect_same_result(step_runners[si].run_one(env, trial_rng),
                               want);
            if (collect) {
              collected += static_cast<std::size_t>(
                  std::count_if(want.target_times.begin(),
                                want.target_times.end(),
                                [](double t) { return t >= 0; }));
            }
          }
        }
        // Every window left open: collect-all can finish early, so the
        // segment loop's bound tightens once each target has a hit.
        TrialEnvironment open = windows;
        open.target_vanish.assign(open.targets.size(),
                                  std::numeric_limits<double>::infinity());
        for (std::size_t si = 0; si < segment_runners.size(); ++si) {
          for (const TrialEnvironment& env :
               {windows, stagger(windows), open}) {
            expect_same_result(
                segment_runners[si].run_one(env, trial_rng),
                run_trial(segment_strategies[si], k, env, trial_rng, config));
          }
        }
      }
    }
    // The walkers capture dozens of targets, so the list really shrinks.
    EXPECT_GE(collected, 50u);
    for (auto& runner : step_runners) {
      EXPECT_EQ(runner.take_scalar_fallbacks(), 0u);
    }
  }
}

TEST(TargetProcess, BatchRunnerCapturesColocatedTargetsInOneStep) {
  // The east walker reaches (3,0) at t = 3, where targets 1 and 2 both
  // wait; collect-all takes both on that step. Target 3's window is empty
  // (appear == vanish == 4), so the walker passing it at t = 4 finds
  // nothing and the collection never completes.
  using sim::batch::SimdLevel;
  const EastStrategy east;
  sim::TrialStrategy s;
  s.step = &east;
  TrialEnvironment env;
  env.targets = {Point{5, 0}, Point{3, 0}, Point{3, 0}, Point{4, 0}};
  env.target_appear = {2.5, 2.0, 0.5, 4.0};
  env.target_vanish = {std::numeric_limits<double>::infinity(), 10.0, 3.5,
                       4.0};
  env.collect_all = true;
  EngineConfig config;
  config.time_cap = 20;

  testing::LevelGuard guard;
  for (const SimdLevel level : testing::testable_levels()) {
    sim::batch::force_simd_level(level);
    sim::batch::BatchRunner runner(s, 1, config);
    const TrialResult want = run_trial(east, 1, env, rng::Rng(3), config);
    EXPECT_EQ(want.target_times, (std::vector<double>{5.0, 3.0, 3.0, -1.0}));
    EXPECT_FALSE(want.found);
    expect_same_result(runner.run_one(env, rng::Rng(3)), want);
  }
}

/// Every agent hops east 3 cells per segment — a GoTo, an explicit path,
/// or (spiral) a 3-step spiral from wherever it stands.
class HopStrategy final : public sim::Strategy {
 public:
  enum class Kind { kGoTo, kPath, kSpiral };
  explicit HopStrategy(Kind kind) : kind_(kind) {}
  std::string name() const override { return "hop"; }
  std::unique_ptr<sim::AgentProgram> make_program(
      sim::AgentContext) const override {
    return std::make_unique<Program>(kind_);
  }

 private:
  class Program final : public sim::AgentProgram {
   public:
    explicit Program(Kind kind) : kind_(kind) {}
    sim::Op next(rng::Rng&) override {
      x_ += 3;
      if (kind_ == Kind::kGoTo) return sim::GoTo{Point{x_, 0}};
      if (kind_ == Kind::kSpiral) return sim::SpiralFor{3};
      return sim::FollowPath{{Point{x_ - 2, 0}, Point{x_ - 1, 0}, Point{x_, 0}}};
    }

   private:
    Kind kind_;
    std::int64_t x_ = 0;
  };
  Kind kind_;
};

TEST(TargetProcess, BatchRunnerSegmentHitsAtWindowEdgesOfASegment) {
  // The segment loop skips a target whose window misses the segment. The
  // edges: a window opening exactly at the segment's last offset (the agent
  // dies there, so no later segment sees the node), one closing just after
  // its first offset (a late starter hit at offset 0), and one closing
  // exactly at the hit.
  using sim::batch::SimdLevel;
  EngineConfig config;
  config.time_cap = 100;

  testing::LevelGuard guard;
  for (const SimdLevel level : testing::testable_levels()) {
    sim::batch::force_simd_level(level);
    for (const auto kind : {HopStrategy::Kind::kGoTo, HopStrategy::Kind::kPath,
                            HopStrategy::Kind::kSpiral}) {
      const HopStrategy hop(kind);
      sim::TrialStrategy s;
      s.segment = &hop;
      sim::batch::BatchRunner runner(s, 1, config);
      const Point first_end = kind == HopStrategy::Kind::kSpiral
                                  ? grid::spiral_point(3)
                                  : Point{3, 0};
      for (const bool collect : {false, true}) {
        TrialEnvironment opens_at_end;
        opens_at_end.targets = {first_end};
        opens_at_end.target_appear = {3.0};
        opens_at_end.target_vanish = {std::numeric_limits<double>::infinity()};
        opens_at_end.lifetimes = {3};
        TrialEnvironment closes_after_start;
        closes_after_start.targets = {grid::kOrigin};
        closes_after_start.target_appear = {0.0};
        closes_after_start.target_vanish = {2.5};
        closes_after_start.starts = {2};
        TrialEnvironment closes_at_hit = opens_at_end;
        closes_at_hit.target_appear = {0.0};
        closes_at_hit.target_vanish = {3.0};
        const std::pair<TrialEnvironment, double> cases[] = {
            {opens_at_end, 3.0}, {closes_after_start, 2.0},
            {closes_at_hit, -1.0}};
        for (auto [env, want_time] : cases) {
          env.collect_all = collect;
          const TrialResult want =
              run_trial(hop, 1, env, rng::Rng(9), config);
          EXPECT_EQ(want.found, want_time >= 0);
          if (want.found) {
            EXPECT_EQ(want.time, want_time);
          }
          expect_same_result(runner.run_one(env, rng::Rng(9)), want);
        }
      }
    }
  }
}

TEST(TargetProcess, BatchRunnerDwellAcrossVanishMidContact) {
  // The east walker is in the disc of (2,0) from t = 1 and confirms at
  // t = 3 under dwell=2; vanish times around that contact either wipe the
  // progress or not, with a far target keeping the trial going.
  using sim::batch::SimdLevel;
  const EastStrategy east;
  sim::TrialStrategy s;
  s.step = &east;
  EngineConfig config;
  config.time_cap = 50;

  testing::LevelGuard guard;
  for (const SimdLevel level : testing::testable_levels()) {
    sim::batch::force_simd_level(level);
    sim::batch::BatchRunner runner(s, 1, config);
    for (const bool collect : {false, true}) {
      for (const double vanish :
           {1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0,
            std::numeric_limits<double>::infinity()}) {
        TrialEnvironment env;
        env.targets = {Point{9, 0}, Point{2, 0}};
        env.target_appear = {0.0, 0.0};
        env.target_vanish = {std::numeric_limits<double>::infinity(), vanish};
        env.capture_dwell = 2;
        env.collect_all = collect;
        const TrialResult want = run_trial(east, 1, env, rng::Rng(5), config);
        EXPECT_EQ(want.first_target, vanish > 3.0 ? 1 : 0) << vanish;
        expect_same_result(runner.run_one(env, rng::Rng(5)), want);
      }
    }
  }
}

TEST(TargetProcess, BatchRunnerCountsPlaneDynamicDelegation) {
  using sim::batch::SimdLevel;
  const plane::PlaneKnownKStrategy plane_known(3);
  const sim::TargetProcess plane_poisson = sim::poisson_plane_targets(
      0.02, 300.0, [](rng::Rng& rng) { return rng.angle(); });
  EngineConfig config;
  config.time_cap = 400;

  testing::LevelGuard guard;
  for (const SimdLevel level : testing::testable_levels()) {
    sim::batch::force_simd_level(level);
    sim::TrialStrategy s;
    s.plane = &plane_known;
    sim::batch::BatchRunner runner(s, 2, config);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const rng::Rng trial_rng(rng::mix_seed(0xFA11BAC, seed));
      TrialEnvironment env;
      rng::Rng realize_rng(trial_rng.seed());
      plane_poisson.plane(realize_rng, 3, config.time_cap, &env);
      expect_same_result(runner.run_one(env, trial_rng),
                         run_trial(plane_known, 2, env, trial_rng, config));
    }
    // Each dynamic plane trial is a counted delegation; take drains.
    EXPECT_EQ(runner.take_scalar_fallbacks(), 4u);
    EXPECT_EQ(runner.take_scalar_fallbacks(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Scenario layer: cache keys and cached aggregates.
// ---------------------------------------------------------------------------

scenario::ScenarioSpec small_spec() {
  scenario::ScenarioSpec spec;
  spec.name = "target-process-test";
  spec.strategies = {"random-walk"};
  spec.ks = {2};
  spec.distances = {2};
  spec.trials = 4;
  spec.seed = 51;
  spec.time_cap = 300;
  return spec;
}

TEST(TargetProcess, CaptureAndCollectAreCacheKeyAxes) {
  const scenario::ScenarioSpec base = small_spec();
  scenario::ScenarioSpec dwell = base;
  dwell.capture = "dwell(t=1)";
  scenario::ScenarioSpec all = base;
  all.collect = "all";

  const std::uint64_t base_hash = scenario::flatten(base)[0].hash;
  const std::uint64_t dwell_hash = scenario::flatten(dwell)[0].hash;
  const std::uint64_t all_hash = scenario::flatten(all)[0].hash;
  EXPECT_NE(base_hash, dwell_hash);
  EXPECT_NE(base_hash, all_hash);
  EXPECT_NE(dwell_hash, all_hash);

  // Equivalent spellings of the same capture policy key identically.
  scenario::ScenarioSpec dwell_spaced = base;
  dwell_spaced.capture = "dwell( t = 1 )";
  EXPECT_EQ(dwell_hash, scenario::flatten(dwell_spaced)[0].hash);
}

TEST(TargetProcess, TargetAggregatesSurviveCacheRoundTrip) {
  scenario::ScenarioSpec spec = small_spec();
  spec.targets = {"poisson(rate=0.05, life=200)"};
  spec.capture = "dwell(t=1)";
  spec.collect = "all";

  const std::string cache_dir =
      ::testing::TempDir() + "ants_target_process_cache";
  std::filesystem::remove_all(cache_dir);
  scenario::SweepOptions opt;
  opt.threads = 1;
  opt.cache_dir = cache_dir;

  const std::vector<scenario::CellResult> first = run_sweep(spec, opt);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_FALSE(first[0].from_cache);

  const std::vector<scenario::CellResult> second = run_sweep(spec, opt);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_TRUE(second[0].from_cache);

  EXPECT_EQ(first[0].stats.time.mean, second[0].stats.time.mean);
  EXPECT_EQ(first[0].mean_targets_found, second[0].mean_targets_found);
  EXPECT_EQ(first[0].mean_targets_spawned, second[0].mean_targets_spawned);
  EXPECT_EQ(first[0].found_before_vanish, second[0].found_before_vanish);
  for (std::size_t j = 0; j < scenario::CellResult::kTargetTimeSlots; ++j) {
    EXPECT_EQ(first[0].target_time_mean[j], second[0].target_time_mean[j]);
  }
  // The spec spawned targets somewhere across the cell's trials, so the
  // aggregates are live numbers, not the -1 inert markers.
  EXPECT_GE(first[0].mean_targets_spawned, 0.0);
  std::filesystem::remove_all(cache_dir);
}

}  // namespace
}  // namespace ants
