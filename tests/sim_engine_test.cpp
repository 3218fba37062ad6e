#include "sim/engine.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/trial.h"
#include "support/reference_trial.h"
#include "test_support.h"

namespace ants::sim {
namespace {

using grid::Point;
using testing::PerAgentScriptedStrategy;
using testing::ScriptedStrategy;

TEST(Realize, GoToMakesWalkFromCurrent) {
  const Segment seg = realize(GoTo{{3, 4}}, {1, 1}, grid::kOrigin);
  EXPECT_EQ(duration(seg), 5);
  EXPECT_EQ(end_position(seg), (Point{3, 4}));
}

TEST(Realize, ReturnWalksToSource) {
  const Segment seg = realize(ReturnToSource{}, {5, -5}, grid::kOrigin);
  EXPECT_EQ(duration(seg), 10);
  EXPECT_EQ(end_position(seg), grid::kOrigin);
}

TEST(Realize, SpiralCenteredAtCurrent) {
  const Segment seg = realize(SpiralFor{8}, {2, 2}, grid::kOrigin);
  EXPECT_EQ(duration(seg), 8);
  EXPECT_EQ(hit_offset(seg, {2, 2}).value(), 0);
}

TEST(Realize, FollowPathStartsAtCurrent) {
  const Segment seg =
      realize(FollowPath{{{1, 1}, {1, 2}}}, {1, 0}, grid::kOrigin);
  EXPECT_EQ(duration(seg), 2);
  EXPECT_EQ(end_position(seg), (Point{1, 2}));
}

TEST(Engine, FindsTreasureOnScriptedRoute) {
  // Walk to (4,0), spiral 8 (covers ring 1 around it), return.
  const ScriptedStrategy strategy(
      {GoTo{{4, 0}}, SpiralFor{8}, ReturnToSource{}});
  // Treasure directly on the walk: hit at time 2.
  rng::Rng rng(1);
  TrialResult r =
      run_trial(strategy, 1, single_target_environment({2, 0}), rng);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.time, 2);
  EXPECT_EQ(r.finder, 0);

  // Treasure adjacent to (4,0): the spiral reaches (4,1) at offset 2
  // (spiral visits (5,0) at 1, (5,1)... no: relative ring (0,1) has spiral
  // index 3), so time = 4 (walk) + index.
  r = run_trial(strategy, 1, single_target_environment({4, 1}), rng);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.time, 4 + grid::spiral_index({0, 1}));
}

TEST(Engine, TreasureAtSourceIsInstant) {
  const ScriptedStrategy strategy({GoTo{{4, 0}}});
  rng::Rng rng(2);
  const TrialResult r =
      run_trial(strategy, 3, single_target_environment(grid::kOrigin), rng);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.time, 0);
  EXPECT_EQ(r.finder, 0);
}

TEST(Engine, MinimumOverAgents) {
  // Agent 0 reaches (6,0) at t=6; agent 1 reaches it at t=2 via (2,0)?? No:
  // agent 1 walks straight to (0,6) — misses. Agent 2 walks to (6,0) but
  // first detours, arriving later. The earliest hit must win.
  const PerAgentScriptedStrategy strategy({
      {GoTo{{6, 0}}},                        // hits (6,0) at t=6
      {GoTo{{0, 6}}},                        // never hits
      {GoTo{{0, 2}}, GoTo{{6, 2}}, GoTo{{6, 0}}},  // hits at 2+6+2=10
  });
  rng::Rng rng(3);
  const TrialResult r =
      run_trial(strategy, 3, single_target_environment({6, 0}), rng);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.time, 6);
  EXPECT_EQ(r.finder, 0);
}

TEST(Engine, FinderIsEarliestNotFirstListed) {
  const PerAgentScriptedStrategy strategy({
      {GoTo{{0, 9}}, GoTo{{5, 9}}, GoTo{{5, 0}}},  // long way, hits late
      {GoTo{{5, 0}}},                              // hits (5,0) at t=5
  });
  rng::Rng rng(4);
  const TrialResult r =
      run_trial(strategy, 2, single_target_environment({5, 0}), rng);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.time, 5);
  EXPECT_EQ(r.finder, 1);
}

TEST(Engine, CapCensorsSlowRuns) {
  const ScriptedStrategy strategy({GoTo{{100, 0}}});
  rng::Rng rng(5);
  EngineConfig config;
  config.time_cap = 50;
  const TrialResult r = run_trial(
      strategy, 1, single_target_environment({100, 0}), rng, config);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.time, 50);
  EXPECT_EQ(r.finder, -1);
}

TEST(Engine, HitExactlyAtCapCounts) {
  const ScriptedStrategy strategy({GoTo{{50, 0}}});
  rng::Rng rng(6);
  EngineConfig config;
  config.time_cap = 50;
  const TrialResult r = run_trial(
      strategy, 1, single_target_environment({50, 0}), rng, config);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.time, 50);
}

TEST(Engine, SegmentBudgetGuardsNonTermination) {
  // A strategy that never moves: zero-duration segments forever.
  const ScriptedStrategy empty({});
  struct Stuck final : sim::Strategy {
    std::string name() const override { return "stuck"; }
    std::unique_ptr<AgentProgram> make_program(AgentContext) const override {
      class P final : public AgentProgram {
        Op next(rng::Rng&) override { return GoTo{grid::kOrigin}; }
      };
      return std::make_unique<P>();
    }
  };
  rng::Rng rng(7);
  EngineConfig config;
  config.time_cap = 100;
  config.max_segments_per_agent = 1000;
  EXPECT_THROW(
      run_trial(Stuck{}, 1, single_target_environment({5, 5}), rng, config),
      std::runtime_error);
}

TEST(Engine, RejectsNonPositiveK) {
  const ScriptedStrategy strategy({GoTo{{1, 0}}});
  rng::Rng rng(8);
  EXPECT_THROW(run_trial(strategy, 0, single_target_environment({1, 0}), rng),
               std::invalid_argument);
}

TEST(Engine, DeterministicAcrossCalls) {
  const ScriptedStrategy strategy({GoTo{{7, 3}}, SpiralFor{30}});
  rng::Rng rng_a(42), rng_b(42);
  const TrialEnvironment env = single_target_environment({6, 3});
  const TrialResult a = run_trial(strategy, 4, env, rng_a);
  const TrialResult b = run_trial(strategy, 4, env, rng_b);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.finder, b.finder);
  EXPECT_EQ(a.segments, b.segments);
}

TEST(SingleAgentHitTime, BoundStopsEarly) {
  const ScriptedStrategy strategy({GoTo{{30, 0}}});
  const auto program = strategy.make_program(AgentContext{});
  rng::Rng rng(9);
  std::int64_t segments = 0;
  const Time t = single_agent_hit_time(*program, rng, {30, 0}, grid::kOrigin,
                                       10, 1000, &segments);
  EXPECT_EQ(t, kNeverTime);  // hit at 30 lies beyond bound 10
}

TEST(SingleAgentHitTime, ReportsExactHit) {
  const ScriptedStrategy strategy({GoTo{{3, 3}}, SpiralFor{100}});
  const auto program = strategy.make_program(AgentContext{});
  rng::Rng rng(10);
  const Time t = single_agent_hit_time(*program, rng, {3, 4}, grid::kOrigin,
                                       1 << 20, 1000, nullptr);
  EXPECT_EQ(t, 6 + grid::spiral_index({0, 1}));
}

}  // namespace
}  // namespace ants::sim
