// Conformance suite: every sim::Strategy in the library, one contract.
//
// Parameterized over a factory list so each requirement is checked against
// EVERY strategy — paper algorithms, remark variants, baselines, ablations.
// The contract (what the engine and runner assume):
//
//   1. programs are infinite: next() keeps producing ops without throwing;
//   2. ops are well-formed: non-negative spiral budgets, adjacent FollowPath
//      hops, finite GoTo targets;
//   3. determinism: same rng seed => identical op stream;
//   4. engine integration: a small-scale collaborative search terminates
//      and (for the searching strategies) succeeds under a generous cap;
//   5. sync/no-crash async runs reproduce the plain engine exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "baselines/ablation_variants.h"
#include "baselines/levy.h"
#include "baselines/sector_sweep.h"
#include "baselines/spiral_single.h"
#include "core/approx_k.h"
#include "core/harmonic.h"
#include "core/hedged.h"
#include "core/known_k.h"
#include "core/lowmem.h"
#include "core/single_shot.h"
#include "core/uniform.h"
#include "sim/placement.h"
#include "sim/runner.h"
#include "sim/trial.h"
#include "support/reference_trial.h"

namespace ants {
namespace {

struct StrategyCase {
  std::string label;
  std::function<std::unique_ptr<sim::Strategy>()> make;
  bool always_finds;  ///< finds a D=8 treasure at k=8 under a generous cap
};

std::vector<StrategyCase> all_cases() {
  return {
      {"known-k", [] { return std::make_unique<core::KnownKStrategy>(8); },
       true},
      {"approx-under",
       [] {
         return std::make_unique<core::ApproxKStrategy>(
             8, 2.0, core::ApproxMode::kUnder);
       },
       true},
      {"uniform",
       [] { return std::make_unique<core::UniformStrategy>(0.5); }, true},
      {"harmonic",
       [] { return std::make_unique<core::HarmonicStrategy>(0.5); }, true},
      {"hedged",
       [] { return std::make_unique<core::HedgedApproxStrategy>(16.0, 0.5); },
       true},
      {"sweep-known-k",
       [] { return std::make_unique<core::SingleSweepKnownK>(8); }, true},
      {"sweep-uniform",
       [] { return std::make_unique<core::SingleSweepUniform>(0.5); }, true},
      {"lowmem-uniform",
       [] { return std::make_unique<core::LowMemUniformStrategy>(0.5); },
       true},
      {"lowmem-harmonic",
       [] { return std::make_unique<core::LowMemHarmonicStrategy>(0.5); },
       true},
      {"sector-sweep",
       [] { return std::make_unique<baselines::SectorSweepStrategy>(); },
       true},
      {"spiral-single",
       [] { return std::make_unique<baselines::SpiralSingleStrategy>(); },
       true},
      {"levy-loop",
       [] { return std::make_unique<baselines::LevyStrategy>(2.0, true, 32); },
       true},
      // Free Levy flights drift off; success within the cap is not
      // guaranteed, only the op-stream contract is.
      {"levy-free",
       [] {
         return std::make_unique<baselines::LevyStrategy>(1.5, false, 0);
       },
       false},
      {"ak-rw-local",
       [] {
         return std::make_unique<baselines::KnownKRandomLocalStrategy>(8);
       },
       true},
      {"ak-no-return",
       [] { return std::make_unique<baselines::KnownKNoReturnStrategy>(8); },
       true},
  };
}

class StrategyConformanceTest
    : public ::testing::TestWithParam<StrategyCase> {};

TEST_P(StrategyConformanceTest, ProducesWellFormedInfiniteOpStream) {
  const auto strategy = GetParam().make();
  const auto program = strategy->make_program(sim::AgentContext{0, 8});
  rng::Rng rng(12345);
  for (int i = 0; i < 200; ++i) {
    const sim::Op op = program->next(rng);
    if (const auto* sp = std::get_if<sim::SpiralFor>(&op)) {
      EXPECT_GE(sp->duration, 0) << i;
    } else if (const auto* go = std::get_if<sim::GoTo>(&op)) {
      // Targets must be sane lattice points (|coord| leaves arithmetic
      // headroom; see grid/point.h).
      EXPECT_LT(util::iabs(go->target.x), std::int64_t{1} << 50) << i;
      EXPECT_LT(util::iabs(go->target.y), std::int64_t{1} << 50) << i;
    } else if (const auto* fp = std::get_if<sim::FollowPath>(&op)) {
      for (std::size_t s = 1; s < fp->steps.size(); ++s) {
        ASSERT_TRUE(grid::adjacent(fp->steps[s - 1], fp->steps[s]));
      }
    }
  }
}

TEST_P(StrategyConformanceTest, OpStreamIsDeterministicPerSeed) {
  const auto strategy = GetParam().make();
  const auto p0 = strategy->make_program(sim::AgentContext{0, 8});
  const auto p1 = strategy->make_program(sim::AgentContext{0, 8});
  rng::Rng r0(777), r1(777);
  for (int i = 0; i < 120; ++i) {
    const sim::Op a = p0->next(r0);
    const sim::Op b = p1->next(r1);
    ASSERT_EQ(a.index(), b.index()) << i;
    if (const auto* go = std::get_if<sim::GoTo>(&a)) {
      EXPECT_EQ(go->target, std::get<sim::GoTo>(b).target) << i;
    } else if (const auto* sp = std::get_if<sim::SpiralFor>(&a)) {
      EXPECT_EQ(sp->duration, std::get<sim::SpiralFor>(b).duration) << i;
    } else if (const auto* fp = std::get_if<sim::FollowPath>(&a)) {
      const auto& fb = std::get<sim::FollowPath>(b);
      ASSERT_EQ(fp->steps.size(), fb.steps.size()) << i;
      for (std::size_t s = 0; s < fp->steps.size(); ++s) {
        ASSERT_EQ(fp->steps[s], fb.steps[s]);
      }
    }
  }
}

TEST_P(StrategyConformanceTest, SmallScaleSearchTerminates) {
  const auto strategy = GetParam().make();
  sim::RunConfig config;
  config.trials = 30;
  config.seed = 2468;
  config.time_cap = 1 << 20;
  const sim::RunStats rs = sim::run_trials(
      *strategy, 8, 8, sim::uniform_ring_placement(), config);
  if (GetParam().always_finds) {
    EXPECT_GT(rs.success_rate, 0.9) << strategy->name();
  }
  EXPECT_GE(rs.time.mean, 0.0);
}

TEST_P(StrategyConformanceTest, DrawnSyncNoCrashMatchesBaseModel) {
  // The drivers skip draw_environment under the base model; that shortcut
  // must be invisible for every strategy.
  const auto strategy = GetParam().make();
  const grid::Point treasure{5, -3};
  sim::EngineConfig config;
  config.time_cap = 1 << 20;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const rng::Rng trial(seed);
    const sim::TrialResult plain = sim::run_trial(
        *strategy, 8, sim::single_target_environment(treasure), trial, config);
    const sim::TrialResult async = sim::run_trial(
        *strategy, 8,
        sim::draw_environment(8, {treasure}, sim::SyncStart(), sim::NoCrash(),
                              trial),
        trial, config);
    ASSERT_EQ(async.found, plain.found) << seed;
    ASSERT_EQ(async.time, plain.time) << seed;
    ASSERT_EQ(async.finder, plain.finder) << seed;
  }
}

TEST_P(StrategyConformanceTest, NameIsStableAndNonEmpty) {
  const auto a = GetParam().make();
  const auto b = GetParam().make();
  EXPECT_FALSE(a->name().empty());
  EXPECT_EQ(a->name(), b->name());
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyConformanceTest, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<StrategyCase>& info) {
      std::string id = info.param.label;
      for (char& c : id) {
        if (c == '-') c = '_';
      }
      return id;
    });

}  // namespace
}  // namespace ants
