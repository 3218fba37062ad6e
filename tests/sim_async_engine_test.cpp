#include "sim/async_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/harmonic.h"
#include "core/known_k.h"
#include "rng/rng.h"
#include "sim/trial.h"
#include "support/reference_trial.h"
#include "test_support.h"

namespace ants::sim {
namespace {

using testing::PerAgentScriptedStrategy;
using testing::ScriptedStrategy;

// ---------------------------------------------------------------------------
// Schedules and crash models in isolation.
// ---------------------------------------------------------------------------

TEST(StartSchedule, SyncIsAllZero) {
  rng::Rng rng(1);
  const auto d = SyncStart().draw(5, rng);
  EXPECT_EQ(d, (std::vector<Time>{0, 0, 0, 0, 0}));
}

TEST(StartSchedule, StaggeredIsArithmetic) {
  rng::Rng rng(1);
  const auto d = StaggeredStart(7).draw(4, rng);
  EXPECT_EQ(d, (std::vector<Time>{0, 7, 14, 21}));
}

TEST(StartSchedule, StaggeredRejectsNegativeGap) {
  EXPECT_THROW(StaggeredStart(-1), std::invalid_argument);
}

TEST(StartSchedule, UniformRandomWithinRange) {
  rng::Rng rng(99);
  const UniformRandomStart sched(100);
  const auto d = sched.draw(1000, rng);
  EXPECT_EQ(d.size(), 1000u);
  for (const Time t : d) {
    EXPECT_GE(t, 0);
    EXPECT_LE(t, 100);
  }
  // Not all equal (probability of that is astronomically small).
  EXPECT_NE(*std::min_element(d.begin(), d.end()),
            *std::max_element(d.begin(), d.end()));
}

TEST(StartSchedule, UniformRandomZeroMaxDegeneratesToSync) {
  rng::Rng rng(7);
  const auto d = UniformRandomStart(0).draw(16, rng);
  for (const Time t : d) EXPECT_EQ(t, 0);
}

TEST(StartSchedule, FixedValidatesCount) {
  rng::Rng rng(1);
  FixedStart sched({3, 1, 4});
  EXPECT_EQ(sched.draw(3, rng), (std::vector<Time>{3, 1, 4}));
  EXPECT_THROW(sched.draw(2, rng), std::invalid_argument);
}

TEST(StartSchedule, FixedRejectsNegativeDelay) {
  EXPECT_THROW(FixedStart({1, -2}), std::invalid_argument);
}

TEST(CrashModel, NoCrashIsImmortal) {
  rng::Rng rng(1);
  for (const Time l : NoCrash().draw_lifetimes(4, rng)) {
    EXPECT_EQ(l, kNeverTime);
  }
}

TEST(CrashModel, DoaRateMatchesP) {
  rng::Rng rng(1234);
  const DoaCrash model(0.3);
  int dead = 0;
  const int n = 20000;
  const auto lifetimes = model.draw_lifetimes(n, rng);
  for (const Time l : lifetimes) {
    ASSERT_TRUE(l == 0 || l == kNeverTime);
    dead += (l == 0);
  }
  EXPECT_NEAR(static_cast<double>(dead) / n, 0.3, 0.02);
}

TEST(CrashModel, DoaRejectsBadP) {
  EXPECT_THROW(DoaCrash(-0.1), std::invalid_argument);
  EXPECT_THROW(DoaCrash(1.1), std::invalid_argument);
}

TEST(CrashModel, ExponentialMeanIsRight) {
  rng::Rng rng(5678);
  const ExponentialLifetime model(500.0);
  double sum = 0;
  const int n = 20000;
  for (const Time l : model.draw_lifetimes(n, rng)) {
    sum += static_cast<double>(l);
  }
  EXPECT_NEAR(sum / n, 500.0, 25.0);
}

TEST(CrashModel, FixedLifetimeIsConstant) {
  rng::Rng rng(1);
  for (const Time l : FixedLifetime(42).draw_lifetimes(3, rng)) {
    EXPECT_EQ(l, 42);
  }
}

// ---------------------------------------------------------------------------
// Base-model equivalence: a drawn sync + immortal environment must run
// exactly like the empty-vector base model the drivers use for it.
// ---------------------------------------------------------------------------

TEST(AsyncEngine, SyncNoCrashDrawMatchesBaseModelOnPaperStrategies) {
  const core::KnownKStrategy known(8);
  const core::HarmonicStrategy harmonic(0.5);
  const grid::Point treasure{13, -6};
  for (const Strategy* s :
       {static_cast<const Strategy*>(&known),
        static_cast<const Strategy*>(&harmonic)}) {
    for (std::uint64_t seed = 0; seed < 25; ++seed) {
      const rng::Rng trial(seed);
      const TrialResult plain =
          run_trial(*s, 8, single_target_environment(treasure), trial);
      const TrialResult async = run_trial(
          *s, 8, draw_environment(8, {treasure}, SyncStart(), NoCrash(), trial),
          trial);
      ASSERT_EQ(async.time, plain.time) << s->name() << " seed " << seed;
      ASSERT_EQ(async.finder, plain.finder);
      ASSERT_EQ(async.found, plain.found);
      ASSERT_EQ(async.segments, plain.segments);
      ASSERT_EQ(async.from_last_start, plain.time);
      ASSERT_EQ(async.crashed, 0);
    }
  }
}

TEST(AsyncEngine, TreasureAtSourceFoundAtFirstStart) {
  const ScriptedStrategy s({GoTo{grid::Point{5, 5}}});
  const rng::Rng trial(3);
  const TrialEnvironment env = draw_environment(
      3, {grid::kOrigin}, FixedStart({9, 4, 11}), NoCrash(), trial);
  const auto r = run_trial(s, 3, env, trial);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.time, 4);  // earliest starter wakes up on the treasure
  EXPECT_EQ(r.finder, 1);
  EXPECT_EQ(r.last_start, 11);
  EXPECT_EQ(r.from_last_start, 0);
}

// ---------------------------------------------------------------------------
// Start delays shift absolute hit times.
// ---------------------------------------------------------------------------

TEST(AsyncEngine, DelayShiftsHitTimeExactly) {
  // One agent walking straight to the treasure at (10, 0): hit at delay + 10.
  const ScriptedStrategy s({GoTo{grid::Point{10, 0}}});
  const rng::Rng trial(7);
  for (const Time delay : {0, 1, 17, 400}) {
    const TrialEnvironment env = draw_environment(
        1, {grid::Point{10, 0}}, FixedStart({delay}), NoCrash(), trial);
    const auto r = run_trial(s, 1, env, trial);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.time, delay + 10);
    EXPECT_EQ(r.from_last_start, 10);  // invariant in the agent's own frame
  }
}

TEST(AsyncEngine, EarlierStarterWinsRace) {
  // Both agents walk to (6, 0); agent 1 starts 3 earlier than agent 0.
  const ScriptedStrategy s({GoTo{grid::Point{6, 0}}});
  const rng::Rng trial(11);
  const TrialEnvironment env = draw_environment(
      2, {grid::Point{6, 0}}, FixedStart({3, 0}), NoCrash(), trial);
  const auto r = run_trial(s, 2, env, trial);
  EXPECT_EQ(r.finder, 1);
  EXPECT_EQ(r.time, 6);
  EXPECT_EQ(r.last_start, 3);
  EXPECT_EQ(r.from_last_start, 3);
}

TEST(AsyncEngine, FromLastStartNeverNegative) {
  // Agent 0 (no delay) finds the treasure before the last agent starts.
  const PerAgentScriptedStrategy s({
      {GoTo{grid::Point{2, 0}}},      // agent 0: finds it at t = 2
      {GoTo{grid::Point{0, 30}}},     // agent 1: wanders off
  });
  const rng::Rng trial(13);
  const TrialEnvironment env = draw_environment(
      2, {grid::Point{2, 0}}, FixedStart({0, 50}), NoCrash(), trial);
  const auto r = run_trial(s, 2, env, trial);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.time, 2);
  EXPECT_EQ(r.last_start, 50);
  EXPECT_EQ(r.from_last_start, 0);
}

// ---------------------------------------------------------------------------
// Crashes.
// ---------------------------------------------------------------------------

TEST(AsyncEngine, AgentCrashingBeforeHitDoesNotFind) {
  const ScriptedStrategy s({GoTo{grid::Point{10, 0}}});
  const rng::Rng trial(17);
  // Lifetime 9 < hit offset 10: the agent dies one step short.
  const TrialEnvironment env = draw_environment(
      1, {grid::Point{10, 0}}, SyncStart(), FixedLifetime(9), trial);
  const auto r = run_trial(s, 1, env, trial, {.time_cap = 10'000});
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.crashed, 1);
}

TEST(AsyncEngine, AgentHittingExactlyAtLifetimeCounts) {
  const ScriptedStrategy s({GoTo{grid::Point{10, 0}}});
  const rng::Rng trial(17);
  const TrialEnvironment env = draw_environment(
      1, {grid::Point{10, 0}}, SyncStart(), FixedLifetime(10), trial);
  const auto r = run_trial(s, 1, env, trial);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.time, 10);
}

TEST(AsyncEngine, DoaAgentsNeverAct) {
  // p = 1: every agent is dead on arrival; nothing is ever found.
  const ScriptedStrategy s({GoTo{grid::Point{3, 0}}});
  const rng::Rng trial(19);
  const TrialEnvironment env = draw_environment(
      4, {grid::Point{3, 0}}, SyncStart(), DoaCrash(1.0), trial);
  const auto r = run_trial(s, 4, env, trial, {.time_cap = 1000});
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.crashed, 4);
  EXPECT_EQ(r.segments, 0);  // no dead agent pulled a segment
}

TEST(AsyncEngine, SurvivorStillFindsUnderPartialDoa) {
  // With k agents all walking to the treasure and p < 1, a single survivor
  // suffices; sweep seeds until both outcomes (some crash, found anyway)
  // co-occur.
  const ScriptedStrategy s({GoTo{grid::Point{4, 0}}});
  bool saw_mixed = false;
  for (std::uint64_t seed = 0; seed < 50 && !saw_mixed; ++seed) {
    const rng::Rng trial(seed);
    const TrialEnvironment env = draw_environment(
        6, {grid::Point{4, 0}}, SyncStart(), DoaCrash(0.5), trial);
    const auto r = run_trial(s, 6, env, trial, {.time_cap = 1000});
    if (r.crashed > 0 && r.found) {
      EXPECT_EQ(r.time, 4);
      saw_mixed = true;
    }
  }
  EXPECT_TRUE(saw_mixed);
}

TEST(AsyncEngine, CrashedCountIsDeterministicPerSeed) {
  const core::HarmonicStrategy s(0.5);
  const rng::Rng trial(123);
  const auto run = [&] {
    const TrialEnvironment env = draw_environment(
        16, {grid::Point{9, 9}}, SyncStart(), DoaCrash(0.25), trial);
    return run_trial(s, 16, env, trial, {.time_cap = 100'000});
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.crashed, b.crashed);
  EXPECT_EQ(a.finder, b.finder);
}

TEST(AsyncEngine, ScheduleStreamDoesNotPerturbAgentPrograms) {
  // The same trial seed must explore the same trajectories whether or not
  // delays are enabled: with all delays equal the outcome shifts rigidly.
  const core::KnownKStrategy s(4);
  const rng::Rng trial(777);
  const grid::Point treasure{7, 3};
  const auto sync = run_trial(
      s, 4, draw_environment(4, {treasure}, SyncStart(), NoCrash(), trial),
      trial);
  const auto shifted = run_trial(
      s, 4,
      draw_environment(4, {treasure}, FixedStart({5, 5, 5, 5}), NoCrash(),
                       trial),
      trial);
  ASSERT_TRUE(sync.found);
  ASSERT_TRUE(shifted.found);
  EXPECT_EQ(shifted.time, sync.time + 5);
  EXPECT_EQ(shifted.finder, sync.finder);
  EXPECT_EQ(shifted.from_last_start, sync.time);
}

TEST(AsyncEngine, StaggeredStartFromLastStartMatchesSyncScale) {
  // Paper section 2: measuring from the last start recovers the synchronous
  // analysis. With a gap of 1 and the known-k strategy, from_last_start must
  // stay within the same order as the synchronous time (same seed).
  const core::KnownKStrategy s(8);
  const grid::Point treasure{12, 5};
  double sync_total = 0, async_total = 0;
  const int trials = 40;
  for (std::uint64_t seed = 0; seed < trials; ++seed) {
    const rng::Rng trial(seed);
    const auto sync = run_trial(
        s, 8, draw_environment(8, {treasure}, SyncStart(), NoCrash(), trial),
        trial);
    const auto stag = run_trial(
        s, 8,
        draw_environment(8, {treasure}, StaggeredStart(1), NoCrash(), trial),
        trial);
    ASSERT_TRUE(sync.found);
    ASSERT_TRUE(stag.found);
    sync_total += sync.time;
    async_total += stag.from_last_start;
  }
  // from_last_start can only be cheaper in expectation than a fresh
  // synchronous run of the same horizon (early starters pre-cover ground);
  // allow generous slack in both directions but pin the scale.
  EXPECT_LT(async_total, 3.0 * sync_total);
  EXPECT_GT(async_total, 0.05 * sync_total);
}

TEST(AsyncEngine, RejectsNonPositiveK) {
  const ScriptedStrategy s({GoTo{grid::Point{1, 0}}});
  const rng::Rng trial(1);
  EXPECT_THROW(run_trial(s, 0, single_target_environment({1, 0}), trial),
               std::invalid_argument);
}

}  // namespace
}  // namespace ants::sim
