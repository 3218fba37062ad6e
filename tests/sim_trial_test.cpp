// The unified environment-aware executor (sim/trial.h).
//
// The heart of this suite is byte-level conformance against REFERENCE
// implementations of the engines run_trial replaced: the pre-merge
// lock-step loop and the pre-merge asynchronous min-heap sweep are
// reimplemented here verbatim, and the unified executor
// must reproduce them exactly across strategies, schedules, crash models,
// and seeds. On top of that come the genuinely new semantics: schedules and
// crashes for step-level strategies (waiting and halting agents) and
// multi-target races under any environment.
#include "sim/trial.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <vector>

#include "baselines/biased_walk.h"
#include "baselines/random_walk.h"
#include "core/harmonic.h"
#include "core/known_k.h"
#include "rng/splitmix64.h"
#include "sim/runner.h"
#include "support/reference_trial.h"
#include "test_support.h"
#include "util/sat.h"

namespace ants::sim {
namespace {

using grid::Point;
using testing::PerAgentScriptedStrategy;
using testing::ScriptedStrategy;

/// Deterministic stepper marching east forever.
class EastStrategy final : public StepStrategy {
 public:
  std::string name() const override { return "east"; }
  void step(StepLanes& lanes, const std::uint32_t* agents,
            std::size_t n) const override {
    for (std::size_t i = 0; i < n; ++i) ++lanes.x[agents[i]];
  }
};

/// Agent i marches in direction i%4 (for multi-agent coverage tests).
class FanOutStrategy final : public StepStrategy {
 public:
  std::string name() const override { return "fan"; }
  void step(StepLanes& lanes, const std::uint32_t* agents,
            std::size_t n) const override {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t a = agents[i];
      lanes.x[a] += grid::kDirections[a % 4].x;
      lanes.y[a] += grid::kDirections[a % 4].y;
    }
  }
};

// ---------------------------------------------------------------------------
// Reference implementations: the engines as they existed BEFORE the merge,
// kept verbatim so the unified executor is pinned to their exact behavior.
// ---------------------------------------------------------------------------

/// The pre-merge lock-step search: all k agents advance one edge per tick,
/// no environment support. Each agent steps (a one-agent kernel call) and
/// checks in turn — the order the executors' step-all-then-detect ticks
/// must reproduce.
TrialResult reference_step_search(const StepStrategy& strategy, int k,
                                  Point treasure, const rng::Rng& trial_rng,
                                  Time time_cap) {
  TrialResult result;
  if (treasure == grid::kOrigin) {
    result.found = true;
    result.time = 0;
    result.finder = 0;
    return result;
  }
  StepLanes lanes;
  lanes.reset(k, trial_rng);
  for (Time t = 1; t <= time_cap; ++t) {
    for (int a = 0; a < k; ++a) {
      const auto ua = static_cast<std::uint32_t>(a);
      strategy.step(lanes, &ua, 1);
      const Point next{lanes.x[ua], lanes.y[ua]};
      if (next == treasure) {
        result.found = true;
        result.time = t;
        result.finder = a;
        return result;
      }
    }
  }
  result.found = false;
  result.time = time_cap;
  return result;
}

/// The pre-merge asynchronous search: interleaved min-heap sweep with
/// starts/lifetimes drawn from the dedicated child streams.
TrialResult reference_async_search(const Strategy& strategy, int k,
                                   Point treasure, const rng::Rng& trial_rng,
                                   const StartSchedule& schedule,
                                   const CrashModel& crashes,
                                   const EngineConfig& config) {
  rng::Rng sched_rng = trial_rng.child(kScheduleStream);
  rng::Rng crash_rng = trial_rng.child(kCrashStream);
  const std::vector<Time> starts = schedule.draw(k, sched_rng);
  const std::vector<Time> lifetimes = crashes.draw_lifetimes(k, crash_rng);

  TrialResult result;
  result.last_start = *std::max_element(starts.begin(), starts.end());

  if (treasure == grid::kOrigin) {
    const auto first =
        std::min_element(starts.begin(), starts.end()) - starts.begin();
    result.found = true;
    result.time = starts[static_cast<std::size_t>(first)];
    result.finder = static_cast<int>(first);
    result.first_target = 0;
    result.from_last_start = 0;
    return result;
  }

  struct AgentState {
    std::unique_ptr<AgentProgram> program;
    rng::Rng rng;
    Point pos = grid::kOrigin;
    Time elapsed = 0;
  };
  std::vector<AgentState> agents;
  for (int a = 0; a < k; ++a) {
    agents.push_back(AgentState{
        strategy.make_program(AgentContext{a, k}),
        trial_rng.child(static_cast<std::uint64_t>(a)), grid::kOrigin, 0});
  }
  using Entry = std::pair<Time, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  for (int a = 0; a < k; ++a) {
    const auto ua = static_cast<std::size_t>(a);
    if (lifetimes[ua] <= 0) {
      ++result.crashed;
      continue;
    }
    queue.emplace(starts[ua], a);
  }
  Time best = kNeverTime;
  int finder = -1;
  while (!queue.empty()) {
    const auto [abs_clock, a] = queue.top();
    queue.pop();
    const Time bound =
        std::min(config.time_cap, best == kNeverTime ? best : best - 1);
    if (abs_clock > bound) break;
    const auto ua = static_cast<std::size_t>(a);
    AgentState& agent = agents[ua];
    ++result.segments;
    const Segment seg =
        realize(agent.program->next(agent.rng), agent.pos, grid::kOrigin);
    if (const auto hit = hit_offset(seg, treasure)) {
      const Time when_active = util::sat_add(agent.elapsed, *hit);
      if (when_active <= lifetimes[ua]) {
        const Time when_abs = util::sat_add(starts[ua], when_active);
        if (when_abs <= config.time_cap &&
            (when_abs < best || (when_abs == best && a < finder))) {
          best = when_abs;
          finder = a;
        }
      }
    }
    agent.elapsed = util::sat_add(agent.elapsed, duration(seg));
    agent.pos = end_position(seg);
    if (agent.elapsed >= lifetimes[ua]) {
      ++result.crashed;
      continue;
    }
    queue.emplace(util::sat_add(starts[ua], agent.elapsed), a);
  }
  if (best != kNeverTime) {
    result.found = true;
    result.time = best;
    result.finder = finder;
    result.first_target = 0;
    result.from_last_start =
        best > result.last_start ? best - result.last_start : 0;
  } else {
    result.found = false;
    result.time = config.time_cap;
    result.from_last_start = config.time_cap;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Conformance: the lock-step backend under sync/no-crash IS the old step
// engine, trial for trial.
// ---------------------------------------------------------------------------

TEST(TrialConformance, StepBackendMatchesOldStepEngineByteForByte) {
  const baselines::RandomWalkStrategy rw;
  const EastStrategy east;
  const FanOutStrategy fan;
  const struct {
    const StepStrategy* strategy;
    Point treasure;
  } cases[] = {
      {&rw, {2, 1}}, {&rw, {1, 0}}, {&east, {25, 0}}, {&east, {5, 1}},
      {&fan, {0, 12}},
  };
  for (const auto& c : cases) {
    for (std::uint64_t seed = 0; seed < 25; ++seed) {
      const rng::Rng trial(seed * 13 + 1);
      const TrialResult ref =
          reference_step_search(*c.strategy, 4, c.treasure, trial, 5000);
      EngineConfig config;
      config.time_cap = 5000;
      const TrialResult r = run_trial(
          *c.strategy, 4, single_target_environment(c.treasure), trial,
          config);
      ASSERT_EQ(r.found, ref.found) << c.strategy->name() << " " << seed;
      ASSERT_EQ(r.time, ref.time) << c.strategy->name() << " " << seed;
      ASSERT_EQ(r.finder, ref.finder) << c.strategy->name() << " " << seed;
      EXPECT_EQ(r.crashed, 0);
      EXPECT_EQ(r.last_start, 0);
      if (r.found) {
        EXPECT_EQ(r.first_target, 0);
      }
    }
  }
}

// run_step_trials (the Monte-Carlo wrapper) must aggregate exactly what the
// old per-trial loop produced: same per-trial seeds, same placements, same
// times vector.
TEST(TrialConformance, RunStepTrialsMatchesOldLoopByteForByte) {
  const baselines::RandomWalkStrategy rw;
  RunConfig config;
  config.trials = 40;
  config.seed = 0xBEEF;
  config.time_cap = 3000;
  const Placement placement = uniform_ring_placement();
  const RunStats rs = run_step_trials(rw, 3, 2, placement, config);

  ASSERT_EQ(rs.times.size(), 40u);
  for (std::size_t trial = 0; trial < 40; ++trial) {
    rng::Rng trial_rng(rng::mix_seed(config.seed, trial));
    const Point treasure = placement(trial_rng, 2);
    const TrialResult ref =
        reference_step_search(rw, 3, treasure, trial_rng, config.time_cap);
    ASSERT_EQ(rs.times[trial], ref.time) << trial;
  }
}

/// The per-agent lock-step loop the tick kernel replaced, for static
/// targets under starts and lifetimes: each agent in index order waits,
/// halts (counted when reached), or steps and checks. A first find ends
/// the trial mid-tick, so agents after the finder neither count a step nor
/// a crash in that tick.
TrialResult reference_step_env_trial(const StepStrategy& strategy, int k,
                                     const TrialEnvironment& env,
                                     const rng::Rng& trial_rng,
                                     Time time_cap) {
  const auto uk = static_cast<std::size_t>(k);
  const auto start_of = [&](std::size_t a) {
    return env.starts.empty() ? Time{0} : env.starts[a];
  };
  const auto lifetime_of = [&](std::size_t a) {
    return env.lifetimes.empty() ? kNeverTime : env.lifetimes[a];
  };
  TrialResult result;
  result.last_start = static_cast<double>(env.last_start());
  StepLanes lanes;
  lanes.reset(k, trial_rng);
  std::vector<char> crashed(uk, 0);
  for (std::size_t a = 0; a < uk; ++a) {
    if (lifetime_of(a) <= 0) {
      crashed[a] = 1;
      ++result.crashed;
    }
  }
  for (Time t = 1; t <= time_cap; ++t) {
    for (std::size_t a = 0; a < uk; ++a) {
      if (crashed[a] || t <= start_of(a)) continue;
      if (t - start_of(a) > lifetime_of(a)) {
        crashed[a] = 1;
        ++result.crashed;
        continue;
      }
      const auto ua = static_cast<std::uint32_t>(a);
      strategy.step(lanes, &ua, 1);
      ++result.segments;
      for (std::size_t ti = 0; ti < env.targets.size(); ++ti) {
        if (Point{lanes.x[a], lanes.y[a]} != env.targets[ti]) continue;
        result.found = true;
        result.time = static_cast<double>(t);
        result.finder = static_cast<int>(a);
        result.first_target = static_cast<int>(ti);
        result.from_last_start = static_cast<double>(
            t > env.last_start() ? t - env.last_start() : 0);
        return result;
      }
    }
  }
  result.found = false;
  result.time = static_cast<double>(time_cap);
  result.from_last_start = static_cast<double>(time_cap);
  return result;
}

// Step-all-then-detect ticks must keep the per-agent loop's accounting:
// crash transitions count in agent order, and the finishing tick counts
// steps and crashes only up to the finder. Short lifetimes and random
// starts make crash transitions land on finishing ticks.
TEST(TrialConformance, StepBackendMatchesPerAgentLoopUnderStartsAndCrashes) {
  const baselines::RandomWalkStrategy rw;
  const baselines::BiasedWalkStrategy biased(0.3, 0.8);
  const FanOutStrategy fan;
  const StepStrategy* strategies[] = {&rw, &biased, &fan};
  const UniformRandomStart starts(10);
  const ExponentialLifetime short_lives(25.0);
  const DoaCrash doa(0.3);
  const StaggeredStart staggered(2);
  const struct {
    const StartSchedule* schedule;
    const CrashModel* crashes;
  } envs[] = {{&starts, &short_lives}, {&staggered, &doa}};
  EngineConfig config;
  config.time_cap = 400;
  int finds = 0;
  for (const StepStrategy* s : strategies) {
    for (const auto& e : envs) {
      for (std::uint64_t seed = 0; seed < 150; ++seed) {
        const rng::Rng trial(seed * 11 + 5);
        const TrialEnvironment env = draw_environment(
            5, {Point{2, 0}, Point{0, -1}}, *e.schedule, *e.crashes, trial);
        const TrialResult ref =
            reference_step_env_trial(*s, 5, env, trial, config.time_cap);
        const TrialResult r = run_trial(*s, 5, env, trial, config);
        ASSERT_EQ(r.found, ref.found) << s->name() << " " << seed;
        ASSERT_EQ(r.time, ref.time) << s->name() << " " << seed;
        ASSERT_EQ(r.finder, ref.finder) << s->name() << " " << seed;
        ASSERT_EQ(r.first_target, ref.first_target);
        ASSERT_EQ(r.segments, ref.segments) << s->name() << " " << seed;
        ASSERT_EQ(r.crashed, ref.crashed) << s->name() << " " << seed;
        ASSERT_EQ(r.last_start, ref.last_start);
        ASSERT_EQ(r.from_last_start, ref.from_last_start);
        finds += r.found ? 1 : 0;
      }
    }
  }
  EXPECT_GT(finds, 100);
}

// ---------------------------------------------------------------------------
// Conformance: the segment backend under any schedule/crash IS the old
// async engine, field for field.
// ---------------------------------------------------------------------------

TEST(TrialConformance, SegmentBackendMatchesOldAsyncEngineByteForByte) {
  const core::KnownKStrategy known(6);
  const core::HarmonicStrategy harmonic(0.5);
  const StaggeredStart staggered(3);
  const UniformRandomStart uniform_start(64);
  const SyncStart sync;
  const DoaCrash doa(0.3);
  const ExponentialLifetime exp_life(400.0);
  const NoCrash none;

  const Strategy* strategies[] = {&known, &harmonic};
  const StartSchedule* schedules[] = {&sync, &staggered, &uniform_start};
  const CrashModel* crashes[] = {&none, &doa, &exp_life};

  EngineConfig config;
  config.time_cap = 200'000;
  for (const Strategy* s : strategies) {
    for (std::size_t si = 0; si < std::size(schedules); ++si) {
      for (std::size_t ci = 0; ci < std::size(crashes); ++ci) {
        const StartSchedule& sched = *schedules[si];
        const CrashModel& crash = *crashes[ci];
        for (std::uint64_t seed = 0; seed < 8; ++seed) {
          const rng::Rng trial(seed * 7 + 2);
          const TrialResult ref = reference_async_search(
              *s, 6, Point{9, -4}, trial, sched, crash, config);
          const TrialResult r = run_trial(
              *s, 6, draw_environment(6, {Point{9, -4}}, sched, crash, trial),
              trial, config);
          ASSERT_EQ(r.found, ref.found)
              << s->name() << " schedule " << si << " crash " << ci << " "
              << seed;
          ASSERT_EQ(r.time, ref.time);
          ASSERT_EQ(r.finder, ref.finder);
          ASSERT_EQ(r.first_target, ref.first_target);
          ASSERT_EQ(r.segments, ref.segments);
          ASSERT_EQ(r.last_start, ref.last_start);
          ASSERT_EQ(r.from_last_start, ref.from_last_start);
          ASSERT_EQ(r.crashed, ref.crashed);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Environment drawing.
// ---------------------------------------------------------------------------

TEST(DrawEnvironment, UsesDedicatedStreamsDeterministically) {
  const rng::Rng trial(42);
  const UniformRandomStart schedule(100);
  const ExponentialLifetime crashes(500.0);
  const TrialEnvironment a =
      draw_environment(8, {Point{3, 3}}, schedule, crashes, trial);
  const TrialEnvironment b =
      draw_environment(8, {Point{3, 3}}, schedule, crashes, trial);
  EXPECT_EQ(a.starts, b.starts);
  EXPECT_EQ(a.lifetimes, b.lifetimes);
  ASSERT_EQ(a.targets.size(), 1u);

  // Changing the crash model must not perturb the schedule stream and vice
  // versa (independent child streams).
  const NoCrash none;
  const TrialEnvironment c =
      draw_environment(8, {Point{3, 3}}, schedule, none, trial);
  EXPECT_EQ(c.starts, a.starts);
  const SyncStart sync;
  const TrialEnvironment d =
      draw_environment(8, {Point{3, 3}}, sync, crashes, trial);
  EXPECT_EQ(d.lifetimes, a.lifetimes);
}

TEST(TrialEnvironmentShape, LastStartAndEmptyDefaults) {
  TrialEnvironment env = single_target_environment(Point{4, 0});
  EXPECT_EQ(env.last_start(), 0);
  env.starts = {3, 11, 0};
  EXPECT_EQ(env.last_start(), 11);
}

TEST(RunTrial, ValidatesArguments) {
  const ScriptedStrategy s({GoTo{Point{1, 0}}});
  const EastStrategy east;
  const rng::Rng trial(1);
  const TrialEnvironment env = single_target_environment(Point{1, 0});

  EXPECT_THROW(run_trial(s, 0, env, trial), std::invalid_argument);
  TrialEnvironment no_targets;
  EXPECT_THROW(run_trial(s, 1, no_targets, trial), std::invalid_argument);
  TrialEnvironment bad_starts = env;
  bad_starts.starts = {0, 0};  // k = 1
  EXPECT_THROW(run_trial(s, 1, bad_starts, trial), std::invalid_argument);
  TrialEnvironment bad_lifetimes = env;
  bad_lifetimes.lifetimes = {5, 5, 5};
  EXPECT_THROW(run_trial(s, 1, bad_lifetimes, trial), std::invalid_argument);
  // A step strategy demands a finite cap.
  EXPECT_THROW(run_trial(east, 1, env, trial), std::invalid_argument);
  // Exactly one family pointer must be set.
  TrialStrategy empty;
  EXPECT_THROW(run_trial(empty, 1, env, trial), std::invalid_argument);
  TrialStrategy both;
  both.segment = &s;
  both.step = &east;
  EXPECT_THROW(run_trial(both, 1, env, trial), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// New semantics: schedules and crashes for step-level strategies.
// ---------------------------------------------------------------------------

TEST(StepEnvironment, DelayedAgentWaitsAtTheSource) {
  // One eastbound agent delayed by 3: the treasure at (5,0) is hit at
  // t = 3 + 5, and measured from the last start the walk still costs 5.
  const EastStrategy east;
  const rng::Rng trial(7);
  EngineConfig config;
  config.time_cap = 1000;
  TrialEnvironment env = single_target_environment(Point{5, 0});
  env.starts = {3};
  const TrialResult r = run_trial(east, 1, env, trial, config);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.time, 8);
  EXPECT_EQ(r.last_start, 3);
  EXPECT_EQ(r.from_last_start, 5);
}

TEST(StepEnvironment, EarlierStarterWinsTheRace) {
  // Both agents march east; agent 1 starts 4 ticks before agent 0.
  const EastStrategy east;
  const rng::Rng trial(8);
  EngineConfig config;
  config.time_cap = 1000;
  TrialEnvironment env = single_target_environment(Point{6, 0});
  env.starts = {4, 0};
  const TrialResult r = run_trial(east, 2, env, trial, config);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.finder, 1);
  EXPECT_EQ(r.time, 6);
  EXPECT_EQ(r.from_last_start, 2);
}

TEST(StepEnvironment, CrashedAgentHaltsInPlace) {
  // Lifetime 4 < distance 5: the agent dies one step short and the trial
  // censors at the cap.
  const EastStrategy east;
  const rng::Rng trial(9);
  EngineConfig config;
  config.time_cap = 50;
  TrialEnvironment env = single_target_environment(Point{5, 0});
  env.lifetimes = {4};
  const TrialResult r = run_trial(east, 1, env, trial, config);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.crashed, 1);
  EXPECT_EQ(r.time, 50);
  // Exactly 4 steps were taken before the halt.
  EXPECT_EQ(r.segments, 4);
}

TEST(StepEnvironment, AgentHittingExactlyAtLifetimeCounts) {
  const EastStrategy east;
  const rng::Rng trial(10);
  EngineConfig config;
  config.time_cap = 50;
  TrialEnvironment env = single_target_environment(Point{5, 0});
  env.lifetimes = {5};
  const TrialResult r = run_trial(east, 1, env, trial, config);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.time, 5);
  EXPECT_EQ(r.crashed, 0);
}

TEST(StepEnvironment, DoaAgentsNeverStep) {
  const EastStrategy east;
  const rng::Rng trial(11);
  EngineConfig config;
  config.time_cap = 20;
  TrialEnvironment env = single_target_environment(Point{2, 0});
  env.lifetimes = {0, 0};
  const TrialResult r = run_trial(east, 2, env, trial, config);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.crashed, 2);
  EXPECT_EQ(r.segments, 0);
}

TEST(StepEnvironment, OriginTargetFoundAtEarliestStart) {
  const EastStrategy east;
  const rng::Rng trial(12);
  EngineConfig config;
  config.time_cap = 100;
  TrialEnvironment env = single_target_environment(grid::kOrigin);
  env.starts = {9, 4, 11};
  const TrialResult r = run_trial(east, 3, env, trial, config);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.time, 4);
  EXPECT_EQ(r.finder, 1);
  EXPECT_EQ(r.from_last_start, 0);
}

// Dead-on-arrival agents must not be credited with an origin-target find:
// a lifetime <= 0 agent never acts, so the earliest SURVIVOR is the finder
// and the DOA agents count as crashed (keeping mean_crashed/survivors
// consistent with the non-origin path).
TEST(StepEnvironment, OriginTargetSkipsDoaAgentsAsFinder) {
  const EastStrategy east;
  const rng::Rng trial(13);
  EngineConfig config;
  config.time_cap = 100;
  TrialEnvironment env = single_target_environment(grid::kOrigin);
  env.starts = {1, 7, 2};
  env.lifetimes = {0, 5, 0};  // agents 0 and 2 are DOA despite earlier starts
  const TrialResult r = run_trial(east, 3, env, trial, config);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.finder, 1);
  EXPECT_EQ(r.time, 7);
  EXPECT_EQ(r.crashed, 2);
  EXPECT_EQ(r.from_last_start, 0);
}

TEST(StepEnvironment, OriginTargetAllDoaIsNotFound) {
  const EastStrategy east;
  const rng::Rng trial(14);
  EngineConfig config;
  config.time_cap = 50;
  TrialEnvironment env = single_target_environment(grid::kOrigin);
  env.lifetimes = {0, 0, 0};
  const TrialResult r = run_trial(east, 3, env, trial, config);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.crashed, 3);
  EXPECT_EQ(r.time, 50);
  EXPECT_EQ(r.from_last_start, 50);
}

TEST(StepEnvironment, OriginTargetSurvivorPastCapIsNotFound) {
  const EastStrategy east;
  const rng::Rng trial(15);
  EngineConfig config;
  config.time_cap = 10;
  TrialEnvironment env = single_target_environment(grid::kOrigin);
  env.starts = {3, 25};
  env.lifetimes = {0, 9000};  // only survivor wakes up after the cap
  const TrialResult r = run_trial(east, 2, env, trial, config);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.crashed, 1);
  EXPECT_EQ(r.time, 10);
}

// ---------------------------------------------------------------------------
// New semantics: multi-target races, both backends.
// ---------------------------------------------------------------------------

TEST(MultiTargetTrial, StepBackendNearTargetWins) {
  const EastStrategy east;
  const rng::Rng trial(13);
  EngineConfig config;
  config.time_cap = 100;
  TrialEnvironment env;
  env.targets = {Point{7, 0}, Point{3, 0}};
  const TrialResult r = run_trial(east, 1, env, trial, config);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.first_target, 1);
  EXPECT_EQ(r.time, 3);
}

TEST(MultiTargetTrial, CrashCanForfeitTheNearPatch) {
  // Agent 0 would reach the near patch at t = 3 but dies at t = 2; agent 1
  // (delayed, immortal) reaches the far patch instead.
  const PerAgentScriptedStrategy s({
      {GoTo{Point{3, 0}}},   // agent 0: heads for the near patch
      {GoTo{Point{0, 8}}},   // agent 1: heads for the far patch
  });
  const rng::Rng trial(14);
  EngineConfig config;
  config.time_cap = 1000;
  TrialEnvironment env;
  env.targets = {Point{3, 0}, Point{0, 8}};
  env.starts = {0, 2};
  env.lifetimes = {2, kNeverTime};
  const TrialResult r = run_trial(s, 2, env, trial, config);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.first_target, 1);
  EXPECT_EQ(r.finder, 1);
  EXPECT_EQ(r.time, 10);  // started at 2, walked 8
  EXPECT_EQ(r.crashed, 1);
}

TEST(MultiTargetTrial, TieBreaksOnLowestTargetIndex) {
  // Two targets at the SAME node: the lower index wins the tie.
  const ScriptedStrategy s({GoTo{Point{4, 0}}});
  const rng::Rng trial(15);
  TrialEnvironment env;
  env.targets = {Point{4, 0}, Point{4, 0}};
  const TrialResult r = run_trial(s, 1, env, trial);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.first_target, 0);
}

// ---------------------------------------------------------------------------
// The unified Monte-Carlo driver.
// ---------------------------------------------------------------------------

TEST(RunEnvTrials, MeanFirstTargetSeesTheForagingPreference) {
  // pair-style draw: near patch at distance 2, far patch at distance 16.
  const core::HarmonicStrategy s(0.5);
  TrialStrategy strategy;
  strategy.segment = &s;
  const Placement placement = uniform_ring_placement();
  TargetProcess pair;
  pair.grid = [&placement](rng::Rng& rng, std::int64_t d, Time,
                           TrialEnvironment* env) {
    env->targets = {placement(rng, 2), placement(rng, d)};
  };
  RunConfig config;
  config.trials = 60;
  config.seed = 0xF00D;
  config.time_cap = 500'000;
  const CellStats rs = run_env_trials(strategy, 8, 16, pair, SyncStart(),
                                          NoCrash(), config);
  EXPECT_GT(rs.stats.success_rate, 0.9);
  // The near patch (index 0) wins nearly every race.
  EXPECT_LT(rs.mean_first_target, 0.2);
  EXPECT_GE(rs.mean_first_target, 0.0);
}

TEST(RunEnvTrials, StepStrategyUnderScheduleAndCrash) {
  const baselines::RandomWalkStrategy rw;
  TrialStrategy strategy;
  strategy.step = &rw;
  RunConfig one;
  one.trials = 24;
  one.seed = 31;
  one.time_cap = 4000;
  one.threads = 1;
  RunConfig many = one;
  many.threads = 6;
  const StaggeredStart schedule(5);
  const DoaCrash crashes(0.25);
  const CellStats a =
      run_env_trials(strategy, 4, 1, single_target(uniform_ring_placement()),
                     schedule, crashes, one);
  const CellStats b =
      run_env_trials(strategy, 4, 1, single_target(uniform_ring_placement()),
                     schedule, crashes, many);
  // Thread-count independence extends to the new family/environment combo.
  EXPECT_EQ(a.stats.times, b.stats.times);
  EXPECT_DOUBLE_EQ(a.mean_crashed, b.mean_crashed);
  EXPECT_DOUBLE_EQ(a.from_last_start.mean, b.from_last_start.mean);
  // k = 4 with staggered(gap=5): the last start is always 15.
  EXPECT_DOUBLE_EQ(a.mean_last_start, 15.0);
  EXPECT_GT(a.mean_crashed, 0.0);
  EXPECT_LT(a.mean_crashed, 4.0);
}

TEST(RunEnvTrials, StepStrategyRequiresFiniteCap) {
  const baselines::RandomWalkStrategy rw;
  TrialStrategy strategy;
  strategy.step = &rw;
  RunConfig config;
  config.trials = 2;
  EXPECT_THROW(
      run_env_trials(strategy, 1, 2, single_target(axis_placement()),
                     SyncStart(), NoCrash(), config),
      std::invalid_argument);
}

}  // namespace
}  // namespace ants::sim
