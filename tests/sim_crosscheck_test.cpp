// The load-bearing property test of the whole simulator: the analytic
// engine (closed-form hit detection, shrinking bounds) must agree EXACTLY
// with a brute-force simulation that materializes every visited node of
// every agent, for every strategy in the library, across many random
// instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "baselines/levy.h"
#include "baselines/sector_sweep.h"
#include "baselines/spiral_single.h"
#include "core/harmonic.h"
#include "core/hedged.h"
#include "core/known_k.h"
#include "core/uniform.h"
#include "grid/ball.h"
#include "sim/engine.h"
#include "sim/trial.h"
#include "support/reference_trial.h"
#include "util/sat.h"

namespace ants::sim {
namespace {

/// Brute-force reference: enumerates every visited node with for_each_visit
/// and returns the earliest treasure visit <= cap (same agent-rng derivation
/// as the engine).
TrialResult brute_force_search(const Strategy& strategy, int k,
                               grid::Point treasure,
                               const rng::Rng& trial_rng, Time cap) {
  TrialResult result;
  result.time = cap;
  Time best = kNeverTime;

  for (int a = 0; a < k; ++a) {
    rng::Rng rng = trial_rng.child(static_cast<std::uint64_t>(a));
    const auto program = strategy.make_program(AgentContext{a, k});
    grid::Point pos = grid::kOrigin;
    Time clock = 0;
    Time hit = kNeverTime;
    while (clock <= cap && hit == kNeverTime) {
      const Segment seg = realize(program->next(rng), pos, grid::kOrigin);
      const Time limit = cap - clock;
      for_each_visit(seg, limit, [&](grid::Point p, Time t) {
        if (hit == kNeverTime && p == treasure) {
          hit = clock + t;
        }
      });
      clock = util::sat_add(clock, duration(seg));
      pos = end_position(seg);
    }
    if (hit != kNeverTime && hit < best) {
      best = hit;
      result.finder = a;
    }
  }

  if (best != kNeverTime) {
    result.found = true;
    result.time = best;
  }
  return result;
}

struct CrossCase {
  std::string label;
  const Strategy* strategy;
};

void expect_engine_matches_brute_force(const Strategy& strategy, int k,
                                       std::uint64_t seed, Time cap) {
  rng::Rng placement_rng(rng::mix_seed(seed, 17));
  const std::int64_t d = placement_rng.uniform_int(1, 24);
  const grid::Point treasure = grid::uniform_ring_point(placement_rng, d);

  const rng::Rng trial_rng(seed);
  EngineConfig config;
  config.time_cap = cap;
  const TrialResult fast = run_trial(
      strategy, k, single_target_environment(treasure), trial_rng, config);
  const TrialResult slow =
      brute_force_search(strategy, k, treasure, trial_rng, cap);

  ASSERT_EQ(fast.found, slow.found)
      << strategy.name() << " k=" << k << " seed=" << seed << " D=" << d;
  ASSERT_EQ(fast.time, slow.time)
      << strategy.name() << " k=" << k << " seed=" << seed << " D=" << d;
  if (fast.found) {
    ASSERT_EQ(fast.finder, slow.finder)
        << strategy.name() << " k=" << k << " seed=" << seed;
  }
}

class CrossCheckTest : public ::testing::TestWithParam<int> {};

TEST_P(CrossCheckTest, KnownK) {
  const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(GetParam());
  for (const int k : {1, 2, 5}) {
    const core::KnownKStrategy strategy(k);
    expect_engine_matches_brute_force(strategy, k, seed, 3000);
  }
}

TEST_P(CrossCheckTest, KnownKBeliefMismatch) {
  const std::uint64_t seed = 2000 + static_cast<std::uint64_t>(GetParam());
  const core::KnownKStrategy strategy(64);  // belief != true k
  expect_engine_matches_brute_force(strategy, 3, seed, 3000);
}

TEST_P(CrossCheckTest, Uniform) {
  const std::uint64_t seed = 3000 + static_cast<std::uint64_t>(GetParam());
  const core::UniformStrategy strategy(0.4);
  for (const int k : {1, 3}) {
    expect_engine_matches_brute_force(strategy, k, seed, 2500);
  }
}

TEST_P(CrossCheckTest, UniformEpsZero) {
  const std::uint64_t seed = 4000 + static_cast<std::uint64_t>(GetParam());
  const core::UniformStrategy strategy(0.0);
  expect_engine_matches_brute_force(strategy, 2, seed, 2000);
}

TEST_P(CrossCheckTest, Harmonic) {
  const std::uint64_t seed = 5000 + static_cast<std::uint64_t>(GetParam());
  const core::HarmonicStrategy strategy(0.5);
  for (const int k : {1, 4}) {
    expect_engine_matches_brute_force(strategy, k, seed, 2500);
  }
}

TEST_P(CrossCheckTest, HarmonicSmallDelta) {
  const std::uint64_t seed = 6000 + static_cast<std::uint64_t>(GetParam());
  const core::HarmonicStrategy strategy(0.2);
  expect_engine_matches_brute_force(strategy, 2, seed, 2000);
}

TEST_P(CrossCheckTest, Hedged) {
  const std::uint64_t seed = 7000 + static_cast<std::uint64_t>(GetParam());
  const core::HedgedApproxStrategy strategy(256.0, 0.5);
  expect_engine_matches_brute_force(strategy, 2, seed, 2500);
}

TEST_P(CrossCheckTest, LevyFreeAndLoop) {
  const std::uint64_t seed = 8000 + static_cast<std::uint64_t>(GetParam());
  const baselines::LevyStrategy free(2.0, /*loop=*/false);
  const baselines::LevyStrategy loop(1.5, /*loop=*/true, /*scan=*/16);
  expect_engine_matches_brute_force(free, 2, seed, 1500);
  expect_engine_matches_brute_force(loop, 2, seed, 1500);
}

TEST_P(CrossCheckTest, SectorSweep) {
  const std::uint64_t seed = 9000 + static_cast<std::uint64_t>(GetParam());
  const baselines::SectorSweepStrategy strategy;
  for (const int k : {1, 3, 7}) {
    expect_engine_matches_brute_force(strategy, k, seed, 2500);
  }
}

TEST_P(CrossCheckTest, SpiralSingle) {
  const std::uint64_t seed = 9500 + static_cast<std::uint64_t>(GetParam());
  const baselines::SpiralSingleStrategy strategy;
  expect_engine_matches_brute_force(strategy, 2, seed, 4000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossCheckTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace ants::sim
