// Environment-aware continuous-plane executor (plane::run_plane_trial) and
// its sim::run_trial plane backend.
//
// The conformance tests pin the zero-delay/no-crash path against a verbatim
// in-test reimplementation of the PRE-environment-port plane search
// loop, field for field — the same technique the unified grid executor used
// for the step/async engines — so the port provably did not move a single
// double on the base model. The environment tests cover the new axes:
// delayed starts, fail-stop lifetimes (including crash-at-time-zero and
// all-agents-dead-before-discovery), and first-of-set sight-disc races.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "plane/engine.h"
#include "plane/strategies.h"
#include "sim/runner.h"
#include "sim/trial.h"
#include "support/reference_trial.h"

namespace ants::plane {
namespace {

// A plane strategy replaying a fixed op list, then shuttling between home
// and the last target so the run always terminates under a cap.
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
        if (i_ < ops_.size()) return ops_[i_++];
        back_ = !back_;
        return back_ ? PlaneOp{ReturnHome{}} : ops_.back();
      }

     private:
      std::vector<PlaneOp> ops_;
      std::size_t i_ = 0;
      bool back_ = false;
    };
    return std::make_unique<Program>(ops_);
  }

 private:
  std::vector<PlaneOp> ops_;
};

// --- verbatim reimplementation of the legacy (pre-port) engine ------------

Move legacy_realize(const PlaneOp& op, Vec2 current, double pitch) {
  struct Visitor {
    Vec2 current;
    double pitch;

    Move operator()(const GoToPoint& go) const {
      return LineMove{current, go.target};
    }
    Move operator()(const SpiralSweep& sp) const {
      return SpiralMove{current, pitch, sp.duration};
    }
    Move operator()(const ReturnHome&) const {
      return LineMove{current, kPlaneOrigin};
    }
  };
  return std::visit(Visitor{current, pitch}, op);
}

PlaneTrialResult legacy_plane_search(const PlaneStrategy& strategy, int k,
                                     Vec2 treasure, const rng::Rng& trial_rng,
                                     const PlaneEngineConfig& config) {
  PlaneTrialResult result;
  if (distance(treasure, kPlaneOrigin) <= config.sight_radius) {
    result.found = true;
    result.time = 0;
    result.finder = 0;
    return result;
  }

  struct AgentState {
    std::unique_ptr<PlaneAgentProgram> program;
    rng::Rng rng;
    Vec2 pos = kPlaneOrigin;
    Time clock = 0;
    std::int64_t segments = 0;
  };
  std::vector<AgentState> agents;
  agents.reserve(static_cast<std::size_t>(k));
  for (int a = 0; a < k; ++a) {
    agents.push_back(AgentState{strategy.make_program(a, k),
                                trial_rng.child(static_cast<std::uint64_t>(a)),
                                kPlaneOrigin, 0, 0});
  }

  using Entry = std::pair<Time, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  for (int a = 0; a < k; ++a) queue.emplace(0.0, a);

  Time best = kPlaneNever;
  int finder = -1;

  while (!queue.empty()) {
    const auto [clock, a] = queue.top();
    queue.pop();
    const Time bound = std::min(config.time_cap, best);
    if (clock >= bound) break;

    AgentState& agent = agents[static_cast<std::size_t>(a)];
    ++agent.segments;
    ++result.segments;

    const Move move = legacy_realize(agent.program->next(agent.rng),
                                     agent.pos, config.spiral_pitch);
    if (const auto hit = first_sighting(move, treasure, config.sight_radius)) {
      const Time when = agent.clock + *hit;
      if (when <= config.time_cap && when < best) {
        best = when;
        finder = a;
      }
    }
    agent.clock += move_duration(move);
    agent.pos = move_end(move);
    queue.emplace(agent.clock, a);
  }

  if (best != kPlaneNever) {
    result.found = true;
    result.time = best;
    result.finder = finder;
  } else {
    result.found = false;
    result.time = config.time_cap;
    result.finder = -1;
  }
  return result;
}

// --------------------------------------------------------------------------

TEST(PlaneTrialConformance, ZeroDelayNoCrashMatchesLegacyEngineExactly) {
  const PlaneKnownKStrategy known(4);
  const PlaneUniformStrategy uniform(0.5);
  const PlaneHarmonicStrategy harmonic(0.5);
  const PlaneStrategy* strategies[] = {&known, &uniform, &harmonic};

  PlaneEngineConfig config;
  config.time_cap = 200000;
  for (const PlaneStrategy* s : strategies) {
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
      const rng::Rng trial(seed);
      const double angle = 0.26180 * static_cast<double>(seed);
      const Vec2 treasure = unit(angle) * 12.0;

      const PlaneTrialResult legacy =
          legacy_plane_search(*s, 4, treasure, trial, config);

      PlaneTrialEnvironment env;
      env.targets = {treasure};
      const PlaneTrialResult r = run_plane_trial(*s, 4, env, trial, config);
      ASSERT_EQ(r.time, legacy.time) << s->name() << " seed " << seed;
      ASSERT_EQ(r.found, legacy.found);
      ASSERT_EQ(r.finder, legacy.finder);
      ASSERT_EQ(r.segments, legacy.segments);
      EXPECT_EQ(r.crashed, 0);
      EXPECT_EQ(r.last_start, 0.0);
      if (r.found) EXPECT_EQ(r.from_last_start, r.time);
    }
  }
}

TEST(PlaneTrialConformance, SimRunTrialPlaneBackendIsTheSameExecutor) {
  const PlaneHarmonicStrategy s(0.5);
  sim::EngineConfig config;
  config.time_cap = 200000;
  PlaneEngineConfig plane_config;
  plane_config.time_cap = 200000;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const rng::Rng trial(seed);
    const Vec2 treasure = unit(0.5 * static_cast<double>(seed)) * 9.0;

    PlaneTrialEnvironment plane_env;
    plane_env.targets = {treasure};
    const PlaneTrialResult direct =
        run_plane_trial(s, 3, plane_env, trial, plane_config);

    sim::TrialEnvironment env;
    env.plane_targets = {treasure};
    const sim::TrialResult r = sim::run_trial(s, 3, env, trial, config);
    ASSERT_EQ(r.time, direct.time) << seed;
    ASSERT_EQ(r.found, direct.found);
    ASSERT_EQ(r.finder, direct.finder);
    ASSERT_EQ(r.first_target, direct.first_target);
    ASSERT_EQ(r.segments, direct.segments);
  }
}

TEST(PlaneTrial, RejectsBadArguments) {
  const ScriptedPlaneStrategy s({GoToPoint{{1, 0}}});
  const rng::Rng trial(7);
  PlaneTrialEnvironment env;
  env.targets = {Vec2{5, 0}};
  EXPECT_THROW(run_plane_trial(s, 0, env, trial), std::invalid_argument);
  PlaneTrialEnvironment no_targets;
  EXPECT_THROW(run_plane_trial(s, 1, no_targets, trial),
               std::invalid_argument);
  PlaneTrialEnvironment bad_starts = env;
  bad_starts.starts = {0, 0};
  EXPECT_THROW(run_plane_trial(s, 1, bad_starts, trial),
               std::invalid_argument);
  PlaneTrialEnvironment bad_lives = env;
  bad_lives.lifetimes = {10, 10, 10};
  EXPECT_THROW(run_plane_trial(s, 1, bad_lives, trial),
               std::invalid_argument);
  // The sim-level dispatcher requires plane targets for a plane strategy.
  sim::TrialEnvironment grid_env;
  grid_env.targets = {grid::Point{5, 0}};
  EXPECT_THROW(sim::run_trial(s, 1, grid_env, trial), std::invalid_argument);
}

TEST(PlaneTrial, DelayedStartShiftsAbsoluteTime) {
  // One agent walking straight through the treasure's sight disc: base hit
  // at distance 10 - eps = 9, so a start delay of 5 sights it at 14.
  const ScriptedPlaneStrategy s({GoToPoint{{200, 0}}});
  const rng::Rng trial(3);
  PlaneEngineConfig config;
  config.time_cap = 1000;
  PlaneTrialEnvironment env;
  env.targets = {Vec2{10, 0}};
  env.starts = {5};
  const PlaneTrialResult r = run_plane_trial(s, 1, env, trial, config);
  ASSERT_TRUE(r.found);
  EXPECT_NEAR(r.time, 14.0, 1e-9);
  EXPECT_EQ(r.last_start, 5.0);
  EXPECT_NEAR(r.from_last_start, 9.0, 1e-9);
}

TEST(PlaneTrial, EarliestStarterSightsHomeTarget) {
  const ScriptedPlaneStrategy s({GoToPoint{{50, 0}}});
  const rng::Rng trial(3);
  PlaneTrialEnvironment env;
  env.targets = {Vec2{0.5, 0.5}};  // inside the sight disc of home
  env.starts = {7, 3};
  const PlaneTrialResult r = run_plane_trial(s, 2, env, trial);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.time, 3.0);
  EXPECT_EQ(r.finder, 1);
  EXPECT_EQ(r.from_last_start, 0.0);
}

TEST(PlaneTrial, LifetimeTruncatesTheTrajectory) {
  const ScriptedPlaneStrategy s({GoToPoint{{200, 0}}});
  const rng::Rng trial(3);
  PlaneEngineConfig config;
  config.time_cap = 1000;
  PlaneTrialEnvironment env;
  env.targets = {Vec2{10, 0}};

  // Dead at active time 5: the sighting at 9 never happens.
  env.lifetimes = {5};
  const PlaneTrialResult dead = run_plane_trial(s, 1, env, trial, config);
  EXPECT_FALSE(dead.found);
  EXPECT_EQ(dead.crashed, 1);
  EXPECT_EQ(dead.time, 1000.0);

  // Dead at exactly the sighting time: the sighting still counts (the
  // agent sees the treasure with its dying breath), and the halt is still
  // recorded.
  env.lifetimes = {9};
  const PlaneTrialResult edge = run_plane_trial(s, 1, env, trial, config);
  ASSERT_TRUE(edge.found);
  EXPECT_NEAR(edge.time, 9.0, 1e-9);
  EXPECT_EQ(edge.crashed, 1);
}

TEST(PlaneTrial, CrashAtTimeZeroKillsEveryAgentBeforeDiscovery) {
  const ScriptedPlaneStrategy s({GoToPoint{{200, 0}}});
  const rng::Rng trial(3);
  PlaneEngineConfig config;
  config.time_cap = 500;
  PlaneTrialEnvironment env;
  env.targets = {Vec2{10, 0}};
  env.lifetimes = {0, 0, 0};
  const PlaneTrialResult r = run_plane_trial(s, 3, env, trial, config);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.crashed, 3);
  EXPECT_EQ(r.segments, 0);  // dead on arrival: nobody ever acts
  EXPECT_EQ(r.time, 500.0);            // censored, finite
  EXPECT_EQ(r.from_last_start, 500.0)  // finite, no NaN/negative
      << "all-dead trials must censor from_last_start at the cap";
}

TEST(PlaneTrial, FirstOfSetRaceOverSightDiscs) {
  const ScriptedPlaneStrategy s({GoToPoint{{50, 0}}});
  const rng::Rng trial(3);
  PlaneEngineConfig config;
  config.time_cap = 1000;
  PlaneTrialEnvironment env;
  // The walk passes (10,0) before (30,0); target order must not matter.
  env.targets = {Vec2{30, 0}, Vec2{10, 0}};
  const PlaneTrialResult r = run_plane_trial(s, 1, env, trial, config);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.first_target, 1);
  EXPECT_NEAR(r.time, 9.0, 1e-9);
}

// The Monte-Carlo driver runs the plane backend with finite aggregates even
// when every agent dies before discovery in every trial.
TEST(PlaneTrial, RunEnvTrialsAllAgentsDeadStaysFinite) {
  const PlaneKnownKStrategy s(4);
  sim::TrialStrategy strategy;
  strategy.plane = &s;
  sim::RunConfig config;
  config.trials = 8;
  config.seed = 0xDEAD;
  config.time_cap = 5000;
  const sim::CellStats rs = sim::run_env_trials(
      strategy, 4, 8,
      sim::single_plane_target([](rng::Rng& rng) { return rng.angle(); }),
      sim::SyncStart(), sim::FixedLifetime(0), config);
  EXPECT_EQ(rs.stats.success_rate, 0.0);
  EXPECT_DOUBLE_EQ(rs.mean_crashed, 4.0);  // survivors column: k - 4 = 0
  EXPECT_DOUBLE_EQ(rs.stats.time.mean, 5000.0);
  EXPECT_DOUBLE_EQ(rs.from_last_start.mean, 5000.0);
  EXPECT_EQ(rs.mean_first_target, -1.0);  // nothing ever found
  EXPECT_TRUE(std::isfinite(rs.stats.mean_competitiveness));
}

TEST(PlaneTrial, RunEnvTrialsThreadCountIndependence) {
  const PlaneKnownKStrategy s(2);
  sim::TrialStrategy strategy;
  strategy.plane = &s;
  sim::RunConfig one;
  one.trials = 16;
  one.seed = 77;
  one.time_cap = 100000;
  one.threads = 1;
  sim::RunConfig many = one;
  many.threads = 6;
  const auto angle = [](rng::Rng& rng) { return rng.angle(); };
  const sim::StaggeredStart schedule(2);
  const sim::DoaCrash crashes(0.25);
  const sim::CellStats a =
      sim::run_env_trials(strategy, 2, 8, sim::single_plane_target(angle),
                          schedule, crashes, one);
  const sim::CellStats b =
      sim::run_env_trials(strategy, 2, 8, sim::single_plane_target(angle),
                          schedule, crashes, many);
  EXPECT_EQ(a.stats.times, b.stats.times);
  EXPECT_DOUBLE_EQ(a.mean_crashed, b.mean_crashed);
  EXPECT_DOUBLE_EQ(a.from_last_start.mean, b.from_last_start.mean);
  EXPECT_DOUBLE_EQ(a.mean_last_start, 2.0);  // k = 2, staggered(gap=2)
}

}  // namespace
}  // namespace ants::plane
