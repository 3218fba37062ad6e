#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <variant>
#include <vector>

#include "baselines/biased_walk.h"
#include "baselines/levy.h"
#include "baselines/random_walk.h"
#include "baselines/sector_sweep.h"
#include "baselines/spiral_single.h"
#include "grid/spiral.h"
#include "sim/runner.h"
#include "sim/trial.h"
#include "support/reference_trial.h"
#include "support/visited_set.h"
#include "util/sat.h"

namespace ants::baselines {
namespace {

using grid::Point;

// ---------------------------------------------------------------------------
// Reference walkers: the per-agent step bodies the tick kernels replaced,
// kept verbatim (one Rng and one program object per agent) so the kernels
// stay pinned to them position for position.
// ---------------------------------------------------------------------------

class ReferenceRandomWalk {
 public:
  Point step(rng::Rng& rng, Point current) {
    return current + grid::kDirections[rng.direction4()];
  }
};

class ReferenceBiasedWalk {
 public:
  ReferenceBiasedWalk(double outward_bias, double persistence)
      : outward_bias_(outward_bias), persistence_(persistence) {}

  Point step(rng::Rng& rng, Point current) {
    if (has_last_ && rng.bernoulli(persistence_)) {
      return current + grid::kDirections[last_dir_];
    }

    // Weight each move by whether it increases or decreases the distance
    // from the nest; lateral moves keep weight 1.
    const std::int64_t here = grid::l1_norm(current);
    double weight[4];
    double total = 0;
    for (int d = 0; d < 4; ++d) {
      const std::int64_t there = grid::l1_norm(current + grid::kDirections[d]);
      weight[d] = there > here ? 1.0 + outward_bias_
                  : there < here ? 1.0 - outward_bias_
                                 : 1.0;
      total += weight[d];
    }

    double u = rng.uniform_unit() * total;
    int dir = 3;
    for (int d = 0; d < 4; ++d) {
      if (u < weight[d]) {
        dir = d;
        break;
      }
      u -= weight[d];
    }
    last_dir_ = dir;
    has_last_ = true;
    return current + grid::kDirections[dir];
  }

 private:
  double outward_bias_;
  double persistence_;
  int last_dir_ = 0;
  bool has_last_ = false;
};

/// Agents first, first + stride, ... below n.
std::vector<std::uint32_t> agent_list(std::uint32_t n, std::uint32_t first = 0,
                                      std::uint32_t stride = 1) {
  std::vector<std::uint32_t> agents;
  for (std::uint32_t a = first; a < n; a += stride) agents.push_back(a);
  return agents;
}

/// Drives k agents for `ticks` ticks through the strategy's tick kernel and
/// through one reference walker per agent (stream trial.child(a), as the
/// executors seed lanes). Half the ticks step every agent, as the base
/// model does; the other half step a random subset, as starts and crashes
/// do. Every agent's position must agree after every tick.
template <typename MakeRef>
void expect_kernel_matches_reference(const sim::StepStrategy& strategy, int k,
                                     int ticks, std::uint64_t seed,
                                     MakeRef make_ref) {
  const rng::Rng trial(seed);
  const auto uk = static_cast<std::size_t>(k);
  sim::StepLanes lanes;
  lanes.reset(k, trial);
  std::vector<decltype(make_ref())> refs;
  std::vector<rng::Rng> rngs;
  std::vector<Point> pos(uk, grid::kOrigin);
  for (std::size_t a = 0; a < uk; ++a) {
    refs.push_back(make_ref());
    rngs.push_back(trial.child(a));
  }
  rng::Rng pick(seed ^ 0xAC71'7E5E'7000'0001ULL);
  std::vector<std::uint32_t> active;
  for (int t = 0; t < ticks; ++t) {
    active.clear();
    const bool everyone = pick.coin();
    for (std::uint32_t a = 0; a < uk; ++a) {
      if (everyone || pick.coin()) active.push_back(a);
    }
    strategy.step(lanes, active.data(), active.size());
    for (const std::uint32_t a : active) pos[a] = refs[a].step(rngs[a], pos[a]);
    bool same = true;
    for (std::size_t a = 0; a < uk; ++a) {
      same &= lanes.x[a] == pos[a].x && lanes.y[a] == pos[a].y;
    }
    ASSERT_TRUE(same) << strategy.name() << " k=" << k << " tick " << t;
  }
}

TEST(StepKernel, MatchesReferenceWalkersPositionForPosition) {
  constexpr int kTicks = 100'000;
  const RandomWalkStrategy rw;
  const struct {
    double bias, persistence;
  } params[] = {{0.0, 0.0}, {0.3, 0.8}, {0.6, 0.0}, {0.0, 0.9}};
  for (const int k : {1, 3, 4, 5, 64, 65}) {
    const auto seed = static_cast<std::uint64_t>(1000 + k);
    expect_kernel_matches_reference(rw, k, kTicks, seed,
                                    [] { return ReferenceRandomWalk{}; });
    for (const auto& p : params) {
      const BiasedWalkStrategy biased(p.bias, p.persistence);
      expect_kernel_matches_reference(biased, k, kTicks, seed, [&] {
        return ReferenceBiasedWalk(p.bias, p.persistence);
      });
    }
  }
}

TEST(RandomWalk, StepsAreAlwaysAdjacent) {
  const RandomWalkStrategy rw;
  sim::StepLanes lanes;
  lanes.reset(1, rng::Rng(1));
  const std::uint32_t agent = 0;
  Point pos = grid::kOrigin;
  for (int i = 0; i < 5000; ++i) {
    rw.step(lanes, &agent, 1);
    const Point next{lanes.x[0], lanes.y[0]};
    ASSERT_EQ(grid::l1_dist(next, pos), 1);
    pos = next;
  }
}

TEST(RandomWalk, MeanSquaredDisplacementIsLinear) {
  // E[||X_t||^2] = t for the simple walk; empirical check at t = 400. Agent
  // `trial` draws from master.child(trial).
  const RandomWalkStrategy rw;
  const rng::Rng master(2);
  const int n = 3000;
  sim::StepLanes lanes;
  lanes.reset(n, master);
  const std::vector<std::uint32_t> agents = agent_list(n);
  for (int t = 0; t < 400; ++t) rw.step(lanes, agents.data(), agents.size());
  double sum = 0;
  for (std::size_t a = 0; a < agents.size(); ++a) {
    sum += static_cast<double>(lanes.x[a] * lanes.x[a] + lanes.y[a] * lanes.y[a]);
  }
  EXPECT_NEAR(sum / n, 400.0, 30.0);
}

TEST(BiasedWalk, Validation) {
  EXPECT_THROW(BiasedWalkStrategy(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(BiasedWalkStrategy(-0.1, 0.0), std::invalid_argument);
  EXPECT_THROW(BiasedWalkStrategy(0.0, 1.0), std::invalid_argument);
  EXPECT_NO_THROW(BiasedWalkStrategy(0.0, 0.0));
}

TEST(BiasedWalk, OutwardBiasGrowsRadiusFaster) {
  // Trial i pairs an unbiased walker (agent 2i, stream master.child(2i))
  // with a biased one (agent 2i + 1); each strategy steps its own agents.
  const BiasedWalkStrategy unbiased(0.0, 0.0);
  const BiasedWalkStrategy biased(0.6, 0.0);
  const rng::Rng master(3);
  const int n = 800, steps = 300;
  sim::StepLanes lanes;
  lanes.reset(2 * n, master);
  const std::vector<std::uint32_t> evens = agent_list(2 * n, 0, 2);
  const std::vector<std::uint32_t> odds = agent_list(2 * n, 1, 2);
  for (int t = 0; t < steps; ++t) {
    unbiased.step(lanes, evens.data(), evens.size());
    biased.step(lanes, odds.data(), odds.size());
  }
  double r_unbiased = 0, r_biased = 0;
  for (int trial = 0; trial < n; ++trial) {
    const auto a = static_cast<std::size_t>(2 * trial);
    r_unbiased += static_cast<double>(grid::l1_norm({lanes.x[a], lanes.y[a]}));
    r_biased +=
        static_cast<double>(grid::l1_norm({lanes.x[a + 1], lanes.y[a + 1]}));
  }
  // Biased drift is ballistic (~ bias/2 per step); unbiased is diffusive.
  EXPECT_GT(r_biased / n, 3.0 * r_unbiased / n);
}

TEST(BiasedWalk, PersistenceKeepsDirection) {
  const BiasedWalkStrategy persistent(0.0, 0.9);
  sim::StepLanes lanes;
  lanes.reset(1, rng::Rng(4));
  const std::uint32_t agent = 0;
  Point pos = grid::kOrigin;
  Point prev_step{0, 0};
  int repeats = 0, moves = 0;
  for (int t = 0; t < 4000; ++t) {
    persistent.step(lanes, &agent, 1);
    const Point next{lanes.x[0], lanes.y[0]};
    const Point step{next.x - pos.x, next.y - pos.y};
    if (t > 0 && step == prev_step) ++repeats;
    ++moves;
    prev_step = step;
    pos = next;
  }
  // With persistence 0.9 plus chance agreement, repeats ~ 0.9 + 0.1/4.
  EXPECT_GT(static_cast<double>(repeats) / moves, 0.85);
}

TEST(Levy, Validation) {
  EXPECT_THROW(LevyStrategy(1.0, false), std::invalid_argument);
  EXPECT_THROW(LevyStrategy(3.5, false), std::invalid_argument);
  EXPECT_THROW(LevyStrategy(2.0, false, -1), std::invalid_argument);
  EXPECT_NO_THROW(LevyStrategy(2.0, true, 100));
}

TEST(Levy, LoopVariantReturnsToSource) {
  const LevyStrategy levy(2.0, /*loop=*/true);
  const auto program = levy.make_program(sim::AgentContext{});
  rng::Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    const sim::Op fly = program->next(rng);
    ASSERT_TRUE(std::holds_alternative<sim::GoTo>(fly));
    const sim::Op ret = program->next(rng);
    ASSERT_TRUE(std::holds_alternative<sim::ReturnToSource>(ret));
  }
}

TEST(Levy, ScanInsertsSpiral) {
  const LevyStrategy levy(2.0, /*loop=*/true, /*scan=*/64);
  const auto program = levy.make_program(sim::AgentContext{});
  rng::Rng rng(6);
  ASSERT_TRUE(std::holds_alternative<sim::GoTo>(program->next(rng)));
  const sim::Op scan = program->next(rng);
  ASSERT_TRUE(std::holds_alternative<sim::SpiralFor>(scan));
  EXPECT_EQ(std::get<sim::SpiralFor>(scan).duration, 64);
  ASSERT_TRUE(std::holds_alternative<sim::ReturnToSource>(program->next(rng)));
}

TEST(Levy, FlightLengthTailMatchesMu) {
  const LevyStrategy levy(2.5, /*loop=*/true);
  const auto program = levy.make_program(sim::AgentContext{});
  rng::Rng rng(7);
  int long_flights = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    const sim::Op fly = program->next(rng);
    const Point target = std::get<sim::GoTo>(fly).target;
    // Euclidean length ~ L1/sqrt(2)..L1; use L1 as a proxy threshold.
    if (grid::l1_norm(target) > 10) ++long_flights;
    (void)program->next(rng);
  }
  // P(L > 10) = 10^-(mu-1) = 10^-1.5 ~ 0.032 (the lattice rounding and the
  // L1 proxy shift this a bit; just require the right order of magnitude).
  const double frac = static_cast<double>(long_flights) / n;
  EXPECT_GT(frac, 0.01);
  EXPECT_LT(frac, 0.10);
}

TEST(SpiralSingle, MatchesPureSpiralTime) {
  // A single agent finds the treasure at exactly spiral_index(tau) steps.
  const SpiralSingleStrategy strategy;
  rng::Rng rng(8);
  for (const Point tau : {Point{3, 2}, Point{-5, 0}, Point{0, -7}}) {
    const sim::TrialResult r =
        sim::run_trial(strategy, 1, sim::single_target_environment(tau), rng);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.time, grid::spiral_index(tau));
  }
}

TEST(SpiralSingle, NoSpeedupFromMoreAgents) {
  const SpiralSingleStrategy strategy;
  rng::Rng rng(9);
  const sim::TrialEnvironment env = sim::single_target_environment({6, -4});
  const sim::TrialResult one = sim::run_trial(strategy, 1, env, rng);
  const sim::TrialResult many = sim::run_trial(strategy, 16, env, rng);
  EXPECT_EQ(one.time, many.time);  // identical deterministic agents
}

TEST(SectorSweep, SingleAgentCoversBallInOrder) {
  // k=1: the sweep degenerates to the full spiral ring-by-ring.
  const SectorSweepStrategy strategy;
  rng::Rng rng(10);
  const sim::TrialResult r =
      sim::run_trial(strategy, 1, sim::single_target_environment({4, 4}), rng);
  EXPECT_TRUE(r.found);
  EXPECT_GT(r.time, 0);
}

TEST(SectorSweep, EveryRingNodeCoveredByExactlyOneAgent) {
  // Partition property: for each ring r and k, the arcs tile [0, 8r).
  for (const int k : {1, 2, 3, 5, 8}) {
    for (std::int64_t r = 1; r <= 30; ++r) {
      std::vector<int> owner(static_cast<std::size_t>(8 * r), -1);
      for (int i = 0; i < k; ++i) {
        const std::int64_t lo = 8 * r * i / k;
        const std::int64_t hi = 8 * r * (i + 1) / k;
        for (std::int64_t m = lo; m < hi; ++m) {
          ASSERT_EQ(owner[static_cast<std::size_t>(m)], -1);
          owner[static_cast<std::size_t>(m)] = i;
        }
      }
      for (const int o : owner) ASSERT_NE(o, -1);
    }
  }
}

TEST(SectorSweep, CoversEverythingWithinTimeBudget) {
  // With k=4 agents, every node with Chebyshev norm <= 10 must be visited
  // within a generous horizon (deterministic coverage).
  const SectorSweepStrategy strategy;
  for (std::int64_t x = -10; x <= 10; x += 5) {
    for (std::int64_t y = -10; y <= 10; y += 5) {
      if (x == 0 && y == 0) continue;
      rng::Rng rng(11);
      sim::EngineConfig config;
      config.time_cap = 4000;
      const sim::TrialResult r = sim::run_trial(
          strategy, 4, sim::single_target_environment({x, y}), rng, config);
      EXPECT_TRUE(r.found) << x << "," << y;
    }
  }
}

TEST(SectorSweep, MoreAgentsFindFaster) {
  const SectorSweepStrategy strategy;
  rng::Rng rng(12);
  const sim::TrialEnvironment env = sim::single_target_environment({0, 20});
  const sim::TrialResult k1 = sim::run_trial(strategy, 1, env, rng);
  const sim::TrialResult k8 = sim::run_trial(strategy, 8, env, rng);
  EXPECT_TRUE(k1.found);
  EXPECT_TRUE(k8.found);
  EXPECT_LT(k8.time, k1.time);
}

}  // namespace
}  // namespace ants::baselines
