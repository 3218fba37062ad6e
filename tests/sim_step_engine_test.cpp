#include "sim/step_engine.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "baselines/random_walk.h"
#include "sim/trial.h"
#include "support/reference_trial.h"

namespace ants::sim {
namespace {

using grid::Point;

// Lock-step trials need a finite cap.
const EngineConfig kCap100{.time_cap = 100};
const EngineConfig kCap1000{.time_cap = 1000};

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

TEST(StepEngine, DeterministicMarchHitsAtDistance) {
  rng::Rng rng(1);
  const TrialResult r = run_trial(
      EastStrategy{}, 1, single_target_environment({25, 0}), rng, kCap1000);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.time, 25);
  EXPECT_EQ(r.finder, 0);
}

TEST(StepEngine, MissesOffAxisTarget) {
  rng::Rng rng(2);
  const TrialResult r = run_trial(
      EastStrategy{}, 1, single_target_environment({5, 1}), rng, kCap100);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.time, 100);
}

TEST(StepEngine, TreasureAtSourceInstant) {
  rng::Rng rng(3);
  const TrialResult r = run_trial(
      EastStrategy{}, 2, single_target_environment(grid::kOrigin), rng,
      kCap100);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.time, 0);
  EXPECT_EQ(r.finder, 0);
}

TEST(StepEngine, FanOutFinderIdentity) {
  rng::Rng rng(4);
  // Treasure north: only agent with direction (0,1) (index 1 mod 4) hits.
  const TrialResult r = run_trial(
      FanOutStrategy{}, 4, single_target_environment({0, 12}), rng, kCap100);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.time, 12);
  EXPECT_EQ(r.finder, 1);
}

TEST(StepEngine, RequiresFiniteCap) {
  rng::Rng rng(5);
  EXPECT_THROW(run_trial(EastStrategy{}, 1, single_target_environment({1, 0}),
                         rng, {.time_cap = kNeverTime}),
               std::invalid_argument);
}

TEST(StepEngine, RejectsNonPositiveK) {
  rng::Rng rng(6);
  EXPECT_THROW(run_trial(EastStrategy{}, 0, single_target_environment({1, 0}),
                         rng, kCap100),
               std::invalid_argument);
}

TEST(StepEngine, RandomWalkFindsAdjacentTreasureUsually) {
  // With 8 walkers and a treasure at distance 1, most trials succeed within
  // a 10k-step cap (the walk is recurrent in the "visits neighborhood"
  // sense; only the EXPECTED time is infinite).
  const baselines::RandomWalkStrategy rw;
  const TrialEnvironment env = single_target_environment({1, 0});
  int found = 0;
  for (int trial = 0; trial < 50; ++trial) {
    rng::Rng rng(1000 + static_cast<std::uint64_t>(trial));
    const TrialResult r = run_trial(rw, 8, env, rng, {.time_cap = 10000});
    found += r.found ? 1 : 0;
  }
  EXPECT_GE(found, 45);
}

TEST(StepEngine, RandomWalkDeterministicPerSeed) {
  const baselines::RandomWalkStrategy rw;
  const TrialEnvironment env = single_target_environment({2, 1});
  rng::Rng a(99), b(99);
  const TrialResult ra = run_trial(rw, 3, env, a, {.time_cap = 5000});
  const TrialResult rb = run_trial(rw, 3, env, b, {.time_cap = 5000});
  EXPECT_EQ(ra.found, rb.found);
  EXPECT_EQ(ra.time, rb.time);
  EXPECT_EQ(ra.finder, rb.finder);
}

}  // namespace
}  // namespace ants::sim
