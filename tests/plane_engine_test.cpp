#include "plane/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "plane/strategies.h"
#include "sim/batch/batch.h"
#include "sim/batch/simd.h"
#include "sim/batch/trip_chain.h"
#include "sim/placement.h"
#include "sim/runner.h"
#include "sim/trial.h"
#include "core/known_k.h"
#include "support/reference_trial.h"
#include "test_support.h"

namespace ants::plane {
namespace {

// A plane strategy replaying a fixed op list, then shuttling between home
// and (-1,-1) (mirrors tests/test_support.h for the grid engine).
class ScriptedPlaneStrategy final : public PlaneStrategy {
 public:
  explicit ScriptedPlaneStrategy(std::vector<PlaneOp> ops)
      : ops_(std::move(ops)) {}

  std::string name() const override { return "scripted-plane"; }

  std::unique_ptr<PlaneAgentProgram> make_program(int /*agent*/,
                                                  int /*k*/) const override {
    class Program final : public PlaneAgentProgram {
     public:
      explicit Program(std::vector<PlaneOp> ops) : ops_(std::move(ops)) {}
      PlaneOp next(rng::Rng& /*rng*/) override {
        if (pos_ < ops_.size()) return ops_[pos_++];
        park_out_ = !park_out_;
        if (park_out_) return GoToPoint{Vec2{-1, -1}};
        return ReturnHome{};
      }

     private:
      std::vector<PlaneOp> ops_;
      std::size_t pos_ = 0;
      bool park_out_ = false;
    };
    return std::make_unique<Program>(ops_);
  }

 private:
  std::vector<PlaneOp> ops_;
};

/// The paper's base model around one treasure: simultaneous starts,
/// immortal agents.
PlaneTrialEnvironment treasure_at(Vec2 treasure) {
  PlaneTrialEnvironment env;
  env.targets = {treasure};
  return env;
}

TEST(PlaneEngine, RejectsBadArguments) {
  const ScriptedPlaneStrategy s({GoToPoint{{1, 0}}});
  const rng::Rng trial(1);
  const PlaneTrialEnvironment env = treasure_at(Vec2{5, 0});
  EXPECT_THROW(run_plane_trial(s, 0, env, trial), std::invalid_argument);
  PlaneEngineConfig config;
  config.sight_radius = 0;
  EXPECT_THROW(run_plane_trial(s, 1, env, trial, config),
               std::invalid_argument);
}

TEST(PlaneEngine, TreasureWithinSightOfHomeIsInstant) {
  const ScriptedPlaneStrategy s({GoToPoint{{50, 0}}});
  const rng::Rng trial(2);
  const auto r = run_plane_trial(s, 1, treasure_at(Vec2{0.5, 0.5}), trial);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.time, 0.0);
}

TEST(PlaneEngine, StraightWalkHitTimeIsExact) {
  const ScriptedPlaneStrategy s({GoToPoint{{20, 0}}});
  const rng::Rng trial(3);
  const auto r = run_plane_trial(s, 1, treasure_at(Vec2{10, 0}), trial);
  ASSERT_TRUE(r.found);
  EXPECT_NEAR(r.time, 9.0, 1e-9);  // sighted at distance eps = 1
  EXPECT_EQ(r.finder, 0);
}

TEST(PlaneEngine, TimeCapCensorsSlowRuns) {
  const ScriptedPlaneStrategy s({GoToPoint{{200, 0}}});
  const rng::Rng trial(4);
  PlaneEngineConfig config;
  config.time_cap = 50.0;
  const auto r =
      run_plane_trial(s, 1, treasure_at(Vec2{199, 0}), trial, config);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.time, 50.0);
}

TEST(PlaneEngine, SpiralSweepFindsNearbyTreasure) {
  const ScriptedPlaneStrategy s({SpiralSweep{5000.0}});
  const rng::Rng trial(5);
  const auto r = run_plane_trial(s, 1, treasure_at(Vec2{6, 3}), trial);
  ASSERT_TRUE(r.found);
  // Radius ~6.7 is reached at arc length ~ r^2 * pi / pitch ~ 141; allow
  // the coil slack.
  EXPECT_GT(r.time, 50.0);
  EXPECT_LT(r.time, 400.0);
}

TEST(PlaneEngine, FirstFinderAmongManyWins) {
  // Two-op agents: all head to different corners; only agent 0's path
  // passes the treasure.
  class Fanout final : public PlaneStrategy {
   public:
    std::string name() const override { return "fanout"; }
    std::unique_ptr<PlaneAgentProgram> make_program(int agent,
                                                    int /*k*/) const override {
      class Program final : public PlaneAgentProgram {
       public:
        explicit Program(int agent) : agent_(agent) {}
        PlaneOp next(rng::Rng&) override {
          if (!sent_) {
            sent_ = true;
            const double angle = agent_ * 1.5707963267948966;
            return GoToPoint{unit(angle) * 50.0};
          }
          back_ = !back_;
          return back_ ? PlaneOp{ReturnHome{}} : PlaneOp{GoToPoint{{-1, -1}}};
        }

       private:
        int agent_;
        bool sent_ = false;
        bool back_ = false;
      };
      return std::make_unique<Program>(agent);
    }
  };
  const Fanout s;
  const rng::Rng trial(6);
  // The treasure lies on the +y axis.
  const auto r = run_plane_trial(s, 4, treasure_at(Vec2{0, 30}), trial);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.finder, 1);  // agent 1 heads along +y
  EXPECT_NEAR(r.time, 29.0, 1e-9);
}

TEST(PlaneEngine, DeterministicAcrossCalls) {
  const PlaneHarmonicStrategy s(0.5);
  const rng::Rng trial(7);
  PlaneEngineConfig config;
  config.time_cap = 1e6;
  const PlaneTrialEnvironment env = treasure_at(Vec2{15, 9});
  const auto a = run_plane_trial(s, 8, env, trial, config);
  const auto b = run_plane_trial(s, 8, env, trial, config);
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.finder, b.finder);
}

// ---------------------------------------------------------------------------
// The grid reduction: plane and grid runs agree up to constants.
// ---------------------------------------------------------------------------

TEST(PlaneVsGrid, KnownKSameOrderOfMagnitude) {
  // Same D, same k, same algorithm family: expected times must be within a
  // single constant factor (the reduction the paper applies in section 2).
  const std::int64_t k = 8, d = 24;
  const int trials = 60;

  // Plane runs.
  const PlaneKnownKStrategy plane_strategy(k);
  double plane_sum = 0;
  for (int t = 0; t < trials; ++t) {
    const rng::Rng trial(static_cast<std::uint64_t>(t) * 7919 + 13);
    rng::Rng placement_rng = trial.child(0xFACADE);
    const Vec2 treasure = unit(placement_rng.angle()) *
                          static_cast<double>(d);
    PlaneEngineConfig config;
    config.time_cap = 1e7;
    const auto r = run_plane_trial(plane_strategy, static_cast<int>(k),
                                   treasure_at(treasure), trial, config);
    EXPECT_TRUE(r.found);
    plane_sum += r.time;
  }
  const double plane_mean = plane_sum / trials;

  // Grid runs (Euclidean distance d corresponds to L1 distance up to
  // sqrt(2); use the ring placement at the same nominal D).
  const core::KnownKStrategy grid_strategy(k);
  sim::RunConfig config;
  config.trials = trials;
  config.seed = 1234;
  const sim::RunStats rs = sim::run_trials(
      grid_strategy, static_cast<int>(k), d, sim::uniform_ring_placement(),
      config);

  const double ratio = plane_mean / rs.time.mean;
  EXPECT_GT(ratio, 1.0 / 12.0);
  EXPECT_LT(ratio, 12.0);
}

TEST(PlaneVsGrid, HarmonicSuccessProbabilityComparable) {
  // Theorem 5.1 on both substrates with the same (delta, k, D) and the
  // same relative budget: success rates must both be high.
  const double delta = 0.5;
  const std::int64_t d = 16;
  const int k = 64;
  const double budget =
      32 * (static_cast<double>(d) +
            std::pow(static_cast<double>(d), 2.5) / static_cast<double>(k));

  const PlaneHarmonicStrategy plane_strategy(delta);
  int plane_found = 0;
  const int trials = 80;
  for (int t = 0; t < trials; ++t) {
    const rng::Rng trial(static_cast<std::uint64_t>(t) * 104729 + 7);
    rng::Rng placement_rng = trial.child(0xFACADE);
    const Vec2 treasure =
        unit(placement_rng.angle()) * static_cast<double>(d);
    PlaneEngineConfig config;
    config.time_cap = budget;
    const auto r = run_plane_trial(plane_strategy, k, treasure_at(treasure),
                                   trial, config);
    plane_found += r.found;
  }
  EXPECT_GT(static_cast<double>(plane_found) / trials, 0.7);
}

// ---------------------------------------------------------------------------
// Windowed and collect-all trials pinned by digest: seeded Poisson target
// windows (arrival rate, mean life; 0 = immortal) under staggered starts and
// finite lifetimes, for three plane strategies at two k, in both collect
// modes, every result field hashed with the doubles taken by their bit
// patterns. The digest of the short-lived windows was recorded before the
// engine solved a spiral's end angle once per move and skipped the targets
// whose window had closed; that of the sparse immortal ones, where a
// collect-all trial can end at its last sighting, before the engine cached
// the collect-all bound between improvements. Those cuts provably move no
// bit.
// ---------------------------------------------------------------------------

std::uint64_t windowed_trials_digest(double rate, double mean_life) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over 64-bit words
  const auto add = [&h](std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  const auto add_time = [&add](double t) {
    add(std::bit_cast<std::uint64_t>(t));
  };
  const PlaneKnownKStrategy known_k(4);
  const PlaneHarmonicStrategy harmonic(0.5);
  const PlaneUniformStrategy uniform(0.5);
  const std::vector<const PlaneStrategy*> strategies = {&known_k, &harmonic,
                                                        &uniform};
  const sim::TargetProcess process = sim::poisson_plane_targets(
      rate, mean_life, [](rng::Rng& rng) { return rng.angle(); });
  PlaneEngineConfig config;
  config.time_cap = 3000;
  for (const PlaneStrategy* strategy : strategies) {
    for (const int k : {2, 5}) {
      for (const bool collect : {false, true}) {
        for (std::uint64_t trial = 0; trial < 12; ++trial) {
          const rng::Rng trial_rng(trial * 7919 + 17);
          sim::TrialEnvironment grid_env;
          rng::Rng realize = trial_rng;
          process.plane(realize, 6, 3000, &grid_env);
          PlaneTrialEnvironment env;
          env.targets = grid_env.plane_targets;
          env.target_appear = grid_env.target_appear;
          env.target_vanish = grid_env.target_vanish;
          env.windowed = true;
          env.collect_all = collect;
          for (int a = 0; a < k; ++a) {
            env.starts.push_back(3.0 * a);
            // Agent 1 dies young: hits past its lifetime must not count.
            env.lifetimes.push_back(a == 1 ? 40.0 : kPlaneNever);
          }
          const PlaneTrialResult r =
              run_plane_trial(*strategy, k, env, trial_rng, config);
          add(r.found ? 1 : 0);
          add_time(r.time);
          add(static_cast<std::uint64_t>(r.finder));
          add(static_cast<std::uint64_t>(r.first_target));
          add(static_cast<std::uint64_t>(r.segments));
          add(static_cast<std::uint64_t>(r.crashed));
          add_time(r.from_last_start);
          for (const double t : r.target_times) add_time(t);
        }
      }
    }
  }
  return h;
}

TEST(PlaneEngine, WindowClosingJustAfterAMoveStartsStillCounts) {
  // One agent starts at t = 2 with the target in sight of home: a window
  // closing at 2.5 still holds the sighting at offset 0 of its first move,
  // one closing at exactly 2 does not. Both for a line and a spiral.
  for (const PlaneOp op : {PlaneOp{GoToPoint{Vec2{5, 0}}},
                           PlaneOp{SpiralSweep{20.0}}}) {
    const ScriptedPlaneStrategy s({op});
    for (const bool collect : {false, true}) {
      for (const double vanish : {2.0, 2.5}) {
        PlaneTrialEnvironment env;
        env.targets = {Vec2{0.5, 0}};
        env.target_appear = {0.0};
        env.target_vanish = {vanish};
        env.starts = {2.0};
        env.collect_all = collect;
        PlaneEngineConfig config;
        config.time_cap = 50;
        const auto r = run_plane_trial(s, 1, env, rng::Rng(1), config);
        EXPECT_EQ(r.found, vanish > 2.0) << vanish;
        if (r.found) {
          EXPECT_EQ(r.time, 2.0);
        }
      }
    }
  }
}

TEST(PlaneEngine, WindowedAndCollectTrialsMatchPinnedDigest) {
  EXPECT_EQ(windowed_trials_digest(0.01, 300.0), 0x44e4a53d7b6d2d3aULL);
}

TEST(PlaneEngine, CollectAllTrialsEndingAtTheLastSightingMatchPinnedDigest) {
  EXPECT_EQ(windowed_trials_digest(0.001, 0.0), 0x237bd608a3091b93ULL);
}

// ---------------------------------------------------------------------------
// Folded legs: the batch plane loop (sim/batch) against the reference.
// The loop runs a pop's leg and folds up to two more line legs of the same
// agent into the pop (a spiral waits for the agent's next pop), then, at
// the end, takes back the folded legs that started at or past the final
// bound (and a death in one). Each case compares run_block with the
// reference sim::run_trial, all fields, at every dispatch level.
// ---------------------------------------------------------------------------

/// ScriptedPlaneStrategy with one script per agent (indexed by agent).
class PerAgentScriptedPlaneStrategy final : public PlaneStrategy {
 public:
  explicit PerAgentScriptedPlaneStrategy(std::vector<std::vector<PlaneOp>> s)
      : scripts_(std::move(s)) {}

  std::string name() const override { return "per-agent-scripted-plane"; }

  std::unique_ptr<PlaneAgentProgram> make_program(int agent,
                                                  int k) const override {
    const ScriptedPlaneStrategy one(
        scripts_[static_cast<std::size_t>(agent) % scripts_.size()]);
    return one.make_program(agent, k);
  }

 private:
  std::vector<std::vector<PlaneOp>> scripts_;
};

#define EXPECT_SAME_TRIAL(want, got)                             \
  do {                                                           \
    EXPECT_EQ((want).time, (got).time);                          \
    EXPECT_EQ((want).found, (got).found);                        \
    EXPECT_EQ((want).finder, (got).finder);                      \
    EXPECT_EQ((want).first_target, (got).first_target);          \
    EXPECT_EQ((want).segments, (got).segments);                  \
    EXPECT_EQ((want).last_start, (got).last_start);              \
    EXPECT_EQ((want).from_last_start, (got).from_last_start);    \
    EXPECT_EQ((want).crashed, (got).crashed);                    \
  } while (0)

/// One trial through the reference and through run_block at every
/// dispatch level: both throw std::runtime_error or both return the same
/// result. Returns the reference's result, or nullopt when it threw.
std::optional<sim::TrialResult> expect_same_outcome(
    const PlaneStrategy& strategy, int k, const sim::TrialEnvironment& env,
    const sim::EngineConfig& config, std::uint64_t seed = 23) {
  sim::TrialStrategy s;
  s.plane = &strategy;
  const rng::Rng trial_rng(seed);
  std::optional<sim::TrialResult> want;
  try {
    want = sim::run_trial(s, k, env, trial_rng, config);
  } catch (const std::runtime_error&) {
  }
  testing::LevelGuard guard;
  for (const sim::batch::SimdLevel level : testing::testable_levels()) {
    sim::batch::force_simd_level(level);
    sim::batch::BatchRunner runner(s, k, config);
    sim::TrialResult got;
    if (want) {
      EXPECT_NO_THROW(runner.run_block(&env, &trial_rng, 1, &got));
      EXPECT_SAME_TRIAL(*want, got);
    } else {
      EXPECT_THROW(runner.run_block(&env, &trial_rng, 1, &got),
                   std::runtime_error);
    }
  }
  return want;
}

sim::TrialEnvironment plane_targets_at(std::vector<Vec2> targets) {
  sim::TrialEnvironment env;
  env.plane_targets = std::move(targets);
  return env;
}

TEST(BatchPlaneFold, DeathInsideAFoldedLegCountsIffTheLegStartsByTheBound) {
  // Agent 0 walks to (0, a) and spirals for 10: its second pop, at a, runs
  // the spiral and folds the return and the next walk, before agent 1
  // (starting at s1 > a) sees the target (d, 0) at s1 + d - 1. Agent 0 dies
  // inside one of the folded legs; the reference runs that leg, and counts
  // the death, iff the leg starts before the find (at d = 10 the return
  // starts at the very time of the find).
  const sim::EngineConfig config = [] {
    sim::EngineConfig c;
    c.time_cap = 1'000;
    return c;
  }();
  int counted = 0;
  int uncounted = 0;
  for (const double a : {2.0, 4.0}) {
    const PerAgentScriptedPlaneStrategy scripted(
        {{GoToPoint{{0, a}}, SpiralSweep{10.0}, ReturnHome{},
          GoToPoint{{0, -6}}},
         {GoToPoint{{30, 0}}}});
    for (const double d : {8.0, 10.0, 12.0, 16.0, 20.0}) {
      for (const double into : {0.5, 2.0, 4.0, 7.0}) {
        sim::TrialEnvironment env = plane_targets_at({{d, 0}});
        const auto s1 = static_cast<sim::Time>(a) + 1;
        env.starts = {0, s1};
        env.lifetimes = {static_cast<sim::Time>(a + 10.0 + into),
                         sim::kNeverTime};
        SCOPED_TRACE("a " + std::to_string(a) + " d " + std::to_string(d) +
                     " into " + std::to_string(into));
        const auto want = expect_same_outcome(scripted, 2, env, config);
        ASSERT_TRUE(want.has_value());
        ++(want->crashed == 1 ? counted : uncounted);
      }
    }
  }
  EXPECT_GT(counted, 0);
  EXPECT_GT(uncounted, 0);
}

TEST(BatchPlaneFold, BudgetCrossedInsideAFoldThrowsIffTheLegStartsByTheBound) {
  // Agent 0 parks from the start: line legs of length sqrt(2), folded two
  // at a time from clock 0 on, so its (budget + 1)-th leg is the one a fold
  // stops at. Agent 1 sees the target (d, 0) at d - 1; the reference throws
  // iff that leg starts before then.
  const PerAgentScriptedPlaneStrategy scripted({{}, {GoToPoint{{30, 0}}}});
  int threw = 0;
  int returned = 0;
  for (const std::int64_t budget : {1, 2, 3, 4, 5}) {
    for (const double d : {3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0}) {
      SCOPED_TRACE("budget " + std::to_string(budget) + " d " +
                   std::to_string(d));
      sim::EngineConfig config;
      config.time_cap = 1'000;
      config.max_segments_per_agent = budget;
      const auto want =
          expect_same_outcome(scripted, 2, plane_targets_at({{d, 0}}), config);
      EXPECT_EQ(want.has_value(),
                static_cast<double>(budget) * std::sqrt(2.0) > d - 1);
      ++(want ? returned : threw);
    }
  }
  EXPECT_GT(threw, 0);
  EXPECT_GT(returned, 0);
}

TEST(BatchPlaneFold, TargetsAtALegJunctionKeepFinderAndFirstTarget) {
  // Agent 0's folded walk from (0, 1) to (4, 1) comes within sight of two
  // targets at (5, 1) exactly at its end, at 5 + its start; agent 1 sees a
  // third target at time t1. In every order of the three targets the
  // earliest time wins, then the lower agent, then the lower target index.
  const PerAgentScriptedPlaneStrategy scripted(
      {{GoToPoint{{0, 1}}, GoToPoint{{4, 1}}, GoToPoint{{4, 9}}},
       {GoToPoint{{0, -3}}, GoToPoint{{-12, -3}}}});
  sim::EngineConfig config;
  config.time_cap = 1'000;
  for (const double t1 : {4.0, 5.0, 6.0}) {
    const std::array<Vec2, 3> spots = {Vec2{5, 1}, Vec2{5, 1},
                                       Vec2{-(t1 - 3) - 1, -3}};
    std::array<std::size_t, 3> order = {0, 1, 2};
    do {
      for (const sim::Time start0 : {0, 1}) {
        sim::TrialEnvironment env = plane_targets_at(
            {spots[order[0]], spots[order[1]], spots[order[2]]});
        env.starts = {start0, 0};
        const auto want = expect_same_outcome(scripted, 2, env, config);
        ASSERT_TRUE(want.has_value());
        ASSERT_TRUE(want->found);
        EXPECT_EQ(want->time,
                  std::min(5.0 + static_cast<double>(start0), t1));
      }
    } while (std::next_permutation(order.begin(), order.end()));
  }
}

TEST(BatchPlaneFold, SightingAtItsOwnLegsStartRunsTheTrialUnfolded) {
  // The walk from home to p ends exactly eps from the target t, but the
  // walk's quadratic puts its entry a rounding step past its end, so the
  // next walk (folded into the first pop) sees t at its own start. Only
  // there is folding not exact: the trial must still match the reference,
  // which runs that walk as a pop of its own.
  const Vec2 p{4.9995775059501746, 0.064998169182137161};
  const Vec2 t{5.9994930071402095, 0.077997803018564599};
  const double len = p.norm();
  ASSERT_FALSE(line_first_sighting(LineMove{{0, 0}, p}, len, t, 1.0));
  ASSERT_EQ(line_first_sighting(LineMove{p, {-20, 0}}, (Vec2{-20, 0} - p).norm(),
                                t, 1.0),
            0.0);
  const PerAgentScriptedPlaneStrategy scripted(
      {{GoToPoint{p}, GoToPoint{{-20, 0}}}, {GoToPoint{{0, -40}}}});
  for (const int k : {1, 2}) {
    sim::EngineConfig config;
    config.time_cap = 1'000;
    const auto want =
        expect_same_outcome(scripted, k, plane_targets_at({t}), config);
    ASSERT_TRUE(want.has_value());
    EXPECT_TRUE(want->found);
    EXPECT_EQ(want->time, len);
    EXPECT_EQ(want->finder, 0);
  }
}

/// Wraps a plane strategy and counts the ops its programs hand out.
class CountingPlaneStrategy final : public PlaneStrategy {
 public:
  explicit CountingPlaneStrategy(const PlaneStrategy& inner) : inner_(inner) {}

  std::string name() const override { return "counting-plane"; }

  std::unique_ptr<PlaneAgentProgram> make_program(int agent,
                                                  int k) const override {
    class Program final : public PlaneAgentProgram {
     public:
      Program(std::unique_ptr<PlaneAgentProgram> inner, std::int64_t* pulls,
              std::int64_t* trips)
          : inner_(std::move(inner)), pulls_(pulls), trips_(trips) {}
      PlaneOp next(rng::Rng& rng) override {
        ++*pulls_;
        return inner_->next(rng);
      }
      bool next_trip(rng::Rng& rng, PlaneTrip* trip) override {
        if (!inner_->next_trip(rng, trip)) return false;
        ++*trips_;
        return true;
      }

     private:
      std::unique_ptr<PlaneAgentProgram> inner_;
      std::int64_t* pulls_;
      std::int64_t* trips_;
    };
    return std::make_unique<Program>(inner_.make_program(agent, k), &pulls,
                                     &trips);
  }

  mutable std::int64_t pulls = 0;
  mutable std::int64_t trips = 0;

 private:
  const PlaneStrategy& inner_;
};

TEST(BatchPlaneFold, PullsNoOpForALegPastTheBound) {
  // Once a sighting has set the bound, a fold stops before the first leg
  // that starts at or past it without pulling its op. Alone, the agent sees
  // (10.5, 0) at 9.5 on its first walk, or (11, 0) at 10, and its second
  // walk would start at 10. Paired, agent 1 sees (5, 0) at 4 before agent 0
  // (starting at 1) pops; agent 0's second walk starts at 3 and folds, its
  // third would start at 8.
  sim::EngineConfig config;
  config.time_cap = 1'000;
  struct Case {
    std::vector<std::vector<PlaneOp>> scripts;
    Vec2 target;
    std::vector<sim::Time> starts;
  };
  const std::vector<Case> cases = {
      {{{GoToPoint{{10, 0}}, GoToPoint{{10, 5}}, ReturnHome{}}},
       {10.5, 0},
       {0}},
      {{{GoToPoint{{10, 0}}, GoToPoint{{10, 5}}, ReturnHome{}}},
       {11, 0},
       {0}},
      {{{GoToPoint{{0, 2}}, GoToPoint{{0, 7}}, ReturnHome{}},
        {GoToPoint{{9, 0}}}},
       {5, 0},
       {1, 0}}};
  for (const Case& c : cases) {
    const PerAgentScriptedPlaneStrategy scripted(c.scripts);
    const CountingPlaneStrategy counting(scripted);
    sim::TrialStrategy s;
    s.plane = &counting;
    const int k = static_cast<int>(c.scripts.size());
    sim::TrialEnvironment env = plane_targets_at({c.target});
    env.starts = c.starts;
    const rng::Rng trial_rng(5);
    counting.pulls = 0;
    const sim::TrialResult want = sim::run_trial(s, k, env, trial_rng, config);
    const std::int64_t reference_pulls = counting.pulls;
    EXPECT_EQ(reference_pulls, want.segments);
    testing::LevelGuard guard;
    for (const sim::batch::SimdLevel level : testing::testable_levels()) {
      sim::batch::force_simd_level(level);
      sim::batch::BatchRunner runner(s, k, config);
      counting.pulls = 0;
      sim::TrialResult got;
      runner.run_block(&env, &trial_rng, 1, &got);
      EXPECT_SAME_TRIAL(want, got);
      EXPECT_EQ(counting.pulls, reference_pulls);
    }
  }
}

TEST(BatchPlaneFold, TripStrategiesMatchRunTrialAtEveryK) {
  const PlaneKnownKStrategy known(4);
  const PlaneUniformStrategy uniform(0.5);
  const PlaneHarmonicStrategy harmonic(0.5);
  const std::vector<std::pair<std::string, const PlaneStrategy*>> strategies =
      {{"plane-known-k", &known},
       {"plane-uniform", &uniform},
       {"plane-harmonic", &harmonic}};
  sim::EngineConfig config;
  config.time_cap = 20'000;
  // Near targets, which most trips can reach, and targets at D = 8, 32 and
  // 64, where most trips are quiet and chain. Short lifetimes end agents
  // inside their chains.
  const std::vector<std::vector<Vec2>> target_sets = {
      {{9.5, -4.0}, {-6.0, 3.5}},
      {{8.0, 0.0}, {-5.5, 6.0}},
      {{-32.0, 7.25}, {20.0, 29.0}},
      {{45.25, -45.25}}};
  std::uint64_t seed = 700;
  for (const auto& [label, strategy] : strategies) {
    sim::TrialStrategy s;
    s.plane = strategy;
    for (const int k : {1, 3, 4, 17, 64}) {
      for (const std::vector<Vec2>& targets : target_sets) {
        SCOPED_TRACE(label + " k = " + std::to_string(k) + " D = " +
                     std::to_string(targets.front().norm()));
        for (int env_kind = 0; env_kind < 4; ++env_kind) {
          std::vector<sim::TrialEnvironment> envs;
          std::vector<rng::Rng> rngs;
          for (std::uint64_t trial = 0; trial < 6; ++trial) {
            rngs.emplace_back(rng::mix_seed(++seed, trial));
            if (env_kind == 0) {
              envs.push_back(plane_targets_at(targets));
            } else if (env_kind == 1) {
              envs.push_back(sim::draw_environment(
                  k, plane_targets_at(targets), sim::StaggeredStart(3),
                  sim::ExponentialLifetime(400.0), rngs.back()));
            } else if (env_kind == 2) {
              envs.push_back(sim::draw_environment(
                  k, plane_targets_at(targets), sim::UniformRandomStart(20),
                  sim::DoaCrash(0.3), rngs.back()));
            } else {
              envs.push_back(sim::draw_environment(
                  k, plane_targets_at(targets), sim::StaggeredStart(5),
                  sim::ExponentialLifetime(60.0), rngs.back()));
            }
          }
          testing::LevelGuard guard;
          for (const sim::batch::SimdLevel level :
               testing::testable_levels()) {
            sim::batch::force_simd_level(level);
            sim::batch::BatchRunner runner(s, k, config);
            std::vector<sim::TrialResult> got(envs.size());
            runner.run_block(envs.data(), rngs.data(), envs.size(),
                             got.data());
            for (std::size_t i = 0; i < envs.size(); ++i) {
              const sim::TrialResult want =
                  sim::run_trial(s, k, envs[i], rngs[i], config);
              EXPECT_SAME_TRIAL(want, got[i]);
            }
          }
        }
      }
    }
  }
}

TEST(BatchPlaneFold, SegmentBudgetCrossedInsideAChainMatchesRunTrial) {
  // Far targets make most trips quiet, so an agent's budget runs out inside
  // a chain: the reference throws iff the leg past the budget starts before
  // the bound, and the runner must throw exactly then.
  const PlaneKnownKStrategy known(4);
  const PlaneUniformStrategy uniform(0.5);
  const PlaneHarmonicStrategy harmonic(0.5);
  int threw = 0;
  int returned = 0;
  std::uint64_t seed = 900;
  for (const PlaneStrategy* strategy :
       {static_cast<const PlaneStrategy*>(&known),
        static_cast<const PlaneStrategy*>(&uniform),
        static_cast<const PlaneStrategy*>(&harmonic)}) {
    for (const int k : {1, 4, 17}) {
      for (const std::int64_t budget : {5, 20, 60}) {
        for (const sim::Time cap : {200, 3'000}) {
          for (const Vec2 target : {Vec2{8.0, 0.0}, Vec2{-20.0, 31.0}}) {
            SCOPED_TRACE(strategy->name() + " k " + std::to_string(k) +
                         " budget " + std::to_string(budget) + " cap " +
                         std::to_string(cap));
            sim::EngineConfig config;
            config.time_cap = cap;
            config.max_segments_per_agent = budget;
            const auto want = expect_same_outcome(
                *strategy, k, plane_targets_at({target}), config, ++seed);
            ++(want ? returned : threw);
          }
        }
      }
    }
  }
  EXPECT_GT(threw, 0);
  EXPECT_GT(returned, 0);
}

TEST(BatchPlaneChain, PullsNoTripPastTheBound) {
  // One agent, so the bound falls only at its own sighting or sits at the
  // cap. The loop pulls a trip iff its walk out starts before the bound, so
  // it pulls ceil(legs / 3) trips for the legs the reference runs, and no
  // single op. Far targets make most trips quiet; they chain under the cap.
  const PlaneKnownKStrategy known(4);
  const PlaneUniformStrategy uniform(0.5);
  const PlaneHarmonicStrategy harmonic(0.5);
  int chained = 0;
  for (const PlaneStrategy* strategy :
       {static_cast<const PlaneStrategy*>(&known),
        static_cast<const PlaneStrategy*>(&uniform),
        static_cast<const PlaneStrategy*>(&harmonic)}) {
    const CountingPlaneStrategy counting(*strategy);
    sim::TrialStrategy s;
    s.plane = &counting;
    for (const sim::Time cap : {50, 500, 5'000}) {
      for (const Vec2 target : {Vec2{6.0, 0.0}, Vec2{40.0, -3.0},
                                Vec2{100.0, 100.0}}) {
        SCOPED_TRACE(strategy->name() + " cap " + std::to_string(cap) +
                     " target x " + std::to_string(target.x));
        sim::EngineConfig config;
        config.time_cap = cap;
        const sim::TrialEnvironment env = plane_targets_at({target});
        const rng::Rng trial_rng(static_cast<std::uint64_t>(cap) + 7);
        counting.pulls = 0;
        const sim::TrialResult want =
            sim::run_trial(s, 1, env, trial_rng, config);
        const std::int64_t reference_pulls = counting.pulls;
        EXPECT_EQ(reference_pulls, want.segments);
        if (want.segments > 6) ++chained;
        testing::LevelGuard guard;
        for (const sim::batch::SimdLevel level : testing::testable_levels()) {
          sim::batch::force_simd_level(level);
          sim::batch::BatchRunner runner(s, 1, config);
          counting.pulls = 0;
          counting.trips = 0;
          sim::TrialResult got;
          runner.run_block(&env, &trial_rng, 1, &got);
          EXPECT_SAME_TRIAL(want, got);
          EXPECT_EQ(counting.pulls, 0);
          EXPECT_EQ(counting.trips, (reference_pulls + 2) / 3);
        }
      }
    }
  }
  EXPECT_GT(chained, 0);
}

TEST(BatchPlaneChain, QuietPlaneTripsSightNothing) {
  // A quiet trip's three legs, tested with the reference first_sighting:
  // none sees a target whose norm is past the trip's reach. Targets sit on
  // the reach and one ulp either side of it, on the rays through the walk's
  // end and the spiral's end, where a leg comes closest, and at random
  // angles. Half the trips head along the spiral's end angle, so the walk
  // out, the spiral and the walk home line up with one ray.
  rng::Rng rng(4099);
  int quiet = 0;
  for (int iter = 0; iter < 4'000; ++iter) {
    const double pitch = iter % 2 == 0 ? 1.0 : 2.0;
    const double eps = iter % 3 == 0 ? 1.0 : 0.5;
    const double a = pitch / kTwoPi;
    double budget = 0.0;
    switch (iter % 4) {
      case 0: budget = 0.0; break;
      case 1: budget = rng.uniform_real(0.0, 1e-6); break;
      case 2: budget = rng.uniform_real(0.0, 60.0); break;
      default: budget = rng.uniform_real(0.0, 5'000.0); break;
    }
    const double theta_end = spiral_theta_for_arc(a, budget);
    const double r = rng.uniform_real(0.0, 1'000.0);
    const Vec2 to = unit(iter % 8 < 4 ? theta_end : rng.angle()) * r;
    const SpiralMove sweep{to, pitch, budget};
    const Vec2 end = move_end(sweep);
    const std::vector<Move> legs = {LineMove{kPlaneOrigin, to}, sweep,
                                    LineMove{end, kPlaneOrigin}};
    const double reach = sim::batch::plane_trip_reach(
        to, sim::batch::plane_sweep_radius(a, budget), eps);
    std::vector<Vec2> dirs = {unit(rng.angle())};
    if (to.norm() > 0) dirs.push_back(to * (1.0 / to.norm()));
    if (end.norm() > 0) dirs.push_back(end * (1.0 / end.norm()));
    for (const Vec2 dir : dirs) {
      for (const double n : {std::nextafter(reach, 0.0), reach,
                             std::nextafter(reach, 2 * reach + 1)}) {
        const Vec2 target = dir * n;
        if (!sim::batch::plane_trip_quiet(
                to, sim::batch::plane_sweep_radius(a, budget), eps,
                target.norm())) {
          continue;
        }
        ++quiet;
        for (const Move& leg : legs) {
          EXPECT_FALSE(first_sighting(leg, target, eps).has_value())
              << "to (" << to.x << ", " << to.y << ") budget " << budget
              << " target (" << target.x << ", " << target.y << ")";
        }
      }
    }
  }
  EXPECT_GT(quiet, 4'000);
}

}  // namespace
}  // namespace ants::plane
