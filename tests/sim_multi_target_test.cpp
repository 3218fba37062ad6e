// Multi-target races and collect-all discovery schedules on the unified
// executor: the paper's central-place-foraging motivation.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/harmonic.h"
#include "core/known_k.h"
#include "sim/trial.h"
#include "support/reference_trial.h"
#include "test_support.h"

namespace ants::sim {
namespace {

using testing::ScriptedStrategy;

/// The target set as a static environment: first-of-set race, or every
/// target's discovery time when `collect_all`.
TrialEnvironment patches(std::vector<grid::Point> targets,
                         bool collect_all = false) {
  TrialEnvironment env;
  env.targets = std::move(targets);
  env.collect_all = collect_all;
  return env;
}

TEST(MultiTarget, RejectsBadArguments) {
  const ScriptedStrategy s({GoTo{grid::Point{1, 0}}});
  const rng::Rng trial(1);
  EXPECT_THROW(run_trial(s, 0, patches({grid::Point{1, 0}}), trial),
               std::invalid_argument);
  EXPECT_THROW(run_trial(s, 1, patches({}), trial), std::invalid_argument);
}

TEST(MultiTarget, NearTargetOnPathWinsRace) {
  // One agent walks through (3,0) then (10,0): the near target must win
  // with the exact walk offset.
  const ScriptedStrategy s({GoTo{grid::Point{10, 0}}});
  const rng::Rng trial(2);
  const TrialResult r = run_trial(
      s, 1, patches({grid::Point{10, 0}, grid::Point{3, 0}}), trial);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.first_target, 1);
  EXPECT_EQ(r.time, 3);
}

TEST(MultiTarget, TargetAtOriginIsInstant) {
  const ScriptedStrategy s({GoTo{grid::Point{5, 5}}});
  const rng::Rng trial(3);
  const TrialResult r =
      run_trial(s, 2, patches({grid::Point{7, 7}, grid::kOrigin}), trial);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.time, 0);
  EXPECT_EQ(r.finder, 0);
  EXPECT_EQ(r.first_target, 1);
}

TEST(MultiTarget, CollectAllCreditsOriginTargetToAgentZero) {
  // Every agent wakes up on the origin patch at t = 0; the lowest index
  // is the finder of record, exactly as in the first-of-set race.
  const ScriptedStrategy s({GoTo{grid::Point{5, 5}}});
  const rng::Rng trial(3);
  const TrialResult r = run_trial(
      s, 2, patches({grid::Point{7, 7}, grid::kOrigin}, /*collect_all=*/true),
      trial, {.time_cap = 1000});
  EXPECT_EQ(r.finder, 0);
  EXPECT_EQ(r.first_target, 1);
  EXPECT_EQ(r.target_times[1], 0);
  EXPECT_EQ(r.target_times[0], -1);  // (7,7) is off every route
  EXPECT_FALSE(r.found);             // not every patch was discovered
}

TEST(MultiTarget, CollectAllRecordsEveryVisit) {
  // The agent walks to (4,0), then (from there) the engine realizes GoTo
  // (4,3): both targets' first-visit times are exact.
  const ScriptedStrategy s({GoTo{grid::Point{4, 0}}, GoTo{grid::Point{4, 3}}});
  const rng::Rng trial(4);
  const TrialResult r = run_trial(
      s, 1,
      patches({grid::Point{4, 0}, grid::Point{4, 3}, grid::Point{50, 50}},
              /*collect_all=*/true),
      trial, {.time_cap = 1000});
  EXPECT_EQ(r.finder, 0);
  EXPECT_EQ(r.first_target, 0);
  EXPECT_EQ(r.target_times[0], 4);
  EXPECT_EQ(r.target_times[1], 7);
  EXPECT_EQ(r.target_times[2], -1);  // never reached within the cap
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.time, 1000);  // time-to-all-found, censored at the cap
}

TEST(MultiTarget, CollectAllMatchesFirstOfSetOnTheWinner) {
  const core::HarmonicStrategy s(0.5);
  const std::vector<grid::Point> targets{{6, 2}, {-9, 4}, {0, -12}};
  const EngineConfig config{.time_cap = 200'000};
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const rng::Rng trial(seed);
    const TrialResult race = run_trial(s, 6, patches(targets), trial, config);
    const TrialResult all =
        run_trial(s, 6, patches(targets, /*collect_all=*/true), trial, config);
    ASSERT_EQ(race.found, all.finder >= 0) << seed;
    if (race.found) {
      ASSERT_EQ(race.finder, all.finder) << seed;
      ASSERT_EQ(race.first_target, all.first_target) << seed;
      EXPECT_EQ(all.target_times[static_cast<std::size_t>(all.first_target)],
                race.time);
    }
  }
}

TEST(MultiTarget, DiscoveryTimesAreMonotoneInTargetDistance) {
  // Collect-all with the harmonic strategy: averaged over trials, nearer
  // patches are discovered earlier — the central-place-foraging preference
  // from the paper's introduction.
  const core::HarmonicStrategy s(0.5);
  const TrialEnvironment env =
      patches({{4, 0}, {0, 16}, {-48, 0}}, /*collect_all=*/true);
  const EngineConfig config{.time_cap = 500'000};
  const auto cap = static_cast<double>(config.time_cap);
  double sums[3] = {0, 0, 0};
  const int trials = 60;
  for (std::uint64_t seed = 0; seed < trials; ++seed) {
    const rng::Rng trial(seed * 31 + 5);
    const TrialResult r = run_trial(s, 8, env, trial, config);
    for (std::size_t i = 0; i < 3; ++i) {
      sums[i] += r.target_times[i] < 0 ? cap : r.target_times[i];
    }
  }
  EXPECT_LT(sums[0], sums[1]);
  EXPECT_LT(sums[1], sums[2]);
}

TEST(MultiTarget, NearestFirstProbabilityIsHigh) {
  // First-of-set mode: the patch at distance 4 should win the race against
  // the patch at distance 40 almost always.
  const core::HarmonicStrategy s(0.5);
  const TrialEnvironment env = patches({{2, 2}, {20, 20}});
  int near_wins = 0, races = 0;
  for (std::uint64_t seed = 0; seed < 80; ++seed) {
    const rng::Rng trial(seed * 17 + 3);
    const TrialResult r =
        run_trial(s, 8, env, trial, {.time_cap = 1'000'000});
    if (!r.found) continue;
    ++races;
    near_wins += (r.first_target == 0);
  }
  ASSERT_GT(races, 60);
  EXPECT_GT(static_cast<double>(near_wins) / races, 0.85);
}

TEST(MultiTarget, DeterministicPerSeed) {
  const core::KnownKStrategy s(8);
  const TrialEnvironment env = patches({{5, 5}, {-7, 2}});
  const rng::Rng trial(99);
  const TrialResult a = run_trial(s, 8, env, trial);
  const TrialResult b = run_trial(s, 8, env, trial);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.finder, b.finder);
  EXPECT_EQ(a.first_target, b.first_target);
}

}  // namespace
}  // namespace ants::sim
