#include "scenario/registry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "rng/rng.h"
#include "sim/batch/simd.h"
#include "sim/step_engine.h"
#include "test_support.h"

namespace ants::scenario {
namespace {

// The complete strategy surface of src/core + src/baselines. A strategy
// added there without a registry entry (or renamed) fails this test.
const char* kExpectedNames[] = {
    "approx-k",        "biased-walk",     "harmonic",
    "hedged",          "known-k",         "known-k-no-return",
    "known-k-rw-local", "levy",           "lowmem-harmonic",
    "lowmem-uniform",  "plane-harmonic",  "plane-known-k",
    "plane-uniform",   "random-walk",     "sector-sweep",
    "spiral",          "sweep-known-k",   "sweep-uniform",
    "uniform",
};

TEST(Registry, EveryStrategyIsRegistered) {
  const auto names = Registry::instance().names();
  ASSERT_EQ(names.size(), std::size(kExpectedNames));
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(names[i], kExpectedNames[i]) << "at index " << i;
  }
}

TEST(Registry, EveryStrategyConstructibleWithDefaults) {
  for (const char* name : kExpectedNames) {
    SCOPED_TRACE(name);
    const BuiltStrategy built =
        Registry::instance().make(name, BuildContext{4});
    EXPECT_TRUE(built.segment != nullptr || built.step != nullptr ||
                built.plane != nullptr);
    EXPECT_FALSE(built.display_name().empty());
  }
}

TEST(Registry, StepStrategiesAreMarkedAsStep) {
  EXPECT_TRUE(Registry::instance().make("random-walk", {}).is_step());
  EXPECT_TRUE(Registry::instance().make("biased-walk", {}).is_step());
  EXPECT_FALSE(Registry::instance().make("uniform", {}).is_step());
  EXPECT_FALSE(Registry::instance().make("sector-sweep", {}).is_step());
}

TEST(Registry, PlaneStrategiesAreMarkedAsPlane) {
  EXPECT_TRUE(Registry::instance().make("plane-known-k", {}).is_plane());
  EXPECT_TRUE(Registry::instance().make("plane-harmonic", {}).is_plane());
  EXPECT_TRUE(Registry::instance().make("plane-uniform", {}).is_plane());
  EXPECT_FALSE(Registry::instance().make("known-k", {}).is_plane());
  EXPECT_FALSE(Registry::instance().make("random-walk", {}).is_plane());
}

// StepStrategy::step's contract that every lane moves to a grid neighbour
// or stays put is what the lock-step loop's quiet gate rests on (an agent
// out of reach of every target skips its scans for as many ticks as it
// provably stays out of reach). Every registered step strategy, with its
// defaults and with extreme parameters, at every dispatch level, over
// stepped lane lists with gaps and odd lengths.
TEST(Registry, EveryStepStrategyMovesEachLaneAtMostOneEdgePerTick) {
  std::vector<std::string> specs;
  for (const std::string& name : Registry::instance().names()) {
    if (Registry::instance().make(name, BuildContext{4}).is_step()) {
      specs.push_back(name);
    }
  }
  ASSERT_FALSE(specs.empty());
  specs.push_back("biased-walk(bias=0.95, persistence=0.95)");
  specs.push_back("biased-walk(bias=0, persistence=0)");
  constexpr int kLanes = 13;
  for (const std::string& spec : specs) {
    const BuiltStrategy built =
        Registry::instance().make(spec, BuildContext{4});
    ASSERT_TRUE(built.is_step()) << spec;
    for (const sim::batch::SimdLevel level : ants::testing::testable_levels()) {
      sim::StepLanes lanes;
      lanes.reset(kLanes, rng::Rng(20261019));
      lanes.level = level;
      std::vector<std::uint32_t> stepped;
      for (std::uint32_t a = 0; a < kLanes; ++a) {
        if (a % 4 != 2) stepped.push_back(a);  // gaps in the lane list
      }
      for (int tick = 0; tick < 2000; ++tick) {
        const std::vector<std::int64_t> x = lanes.x, y = lanes.y;
        built.step->step(lanes, stepped.data(), stepped.size());
        for (std::uint32_t a = 0; a < kLanes; ++a) {
          const std::int64_t moved =
              std::llabs(lanes.x[a] - x[a]) + std::llabs(lanes.y[a] - y[a]);
          // A lane left off the list stays put.
          ASSERT_LE(moved, a % 4 == 2 ? 0 : 1)
              << spec << " lane " << a << " tick " << tick
                              << " level "
                              << sim::batch::simd_level_name(level);
        }
      }
    }
  }
}

TEST(Registry, DollarKDefaultResolvesToCellK) {
  const BuiltStrategy built =
      Registry::instance().make("known-k", BuildContext{8});
  EXPECT_EQ(built.display_name(), "known-k(k=8)");
}

TEST(Registry, ExplicitParamOverridesDollarKDefault) {
  const BuiltStrategy built =
      Registry::instance().make("known-k(k_belief=64)", BuildContext{8});
  EXPECT_EQ(built.display_name(), "known-k(k=64)");
}

TEST(Registry, ParamsReachTheConstructor) {
  const BuiltStrategy built = Registry::instance().make(
      "levy(mu=2, loop=true, scan=32)", BuildContext{1});
  EXPECT_EQ(built.display_name(), "levy(mu=2,loop,scan=32)");
}

TEST(Registry, UnknownStrategyThrows) {
  EXPECT_THROW(Registry::instance().make("no-such-strategy", {}),
               std::invalid_argument);
}

TEST(Registry, UnknownParameterThrows) {
  EXPECT_THROW(Registry::instance().make("uniform(delta=0.5)", {}),
               std::invalid_argument);
}

TEST(Registry, MalformedParameterValueThrows) {
  EXPECT_THROW(Registry::instance().make("uniform(eps=banana)", {}),
               std::invalid_argument);
  EXPECT_THROW(Registry::instance().make("known-k(k_belief=3.5)", {}),
               std::invalid_argument);
  EXPECT_THROW(Registry::instance().make("levy(loop=maybe)", {}),
               std::invalid_argument);
}

TEST(StrategySpecParse, BareNameAndParams) {
  const StrategySpec bare = parse_strategy_spec("  uniform ");
  EXPECT_EQ(bare.name, "uniform");
  EXPECT_TRUE(bare.params.empty());

  const StrategySpec with = parse_strategy_spec("levy( mu=2 , loop=true )");
  EXPECT_EQ(with.name, "levy");
  ASSERT_EQ(with.params.size(), 2u);
  EXPECT_EQ(with.params.at("mu"), "2");
  EXPECT_EQ(with.params.at("loop"), "true");
}

TEST(StrategySpecParse, CanonicalSortsKeysAndRoundTrips) {
  const StrategySpec spec = parse_strategy_spec("levy(scan=32, mu=2)");
  EXPECT_EQ(spec.canonical(), "levy(mu=2,scan=32)");
  const StrategySpec again = parse_strategy_spec(spec.canonical());
  EXPECT_EQ(again.canonical(), spec.canonical());
}

TEST(StrategySpecParse, GrammarErrorsThrow) {
  EXPECT_THROW(parse_strategy_spec(""), std::invalid_argument);
  EXPECT_THROW(parse_strategy_spec("levy(mu=2"), std::invalid_argument);
  EXPECT_THROW(parse_strategy_spec("levy(mu)"), std::invalid_argument);
  EXPECT_THROW(parse_strategy_spec("levy(mu=)"), std::invalid_argument);
  EXPECT_THROW(parse_strategy_spec("levy(mu=2,mu=3)"), std::invalid_argument);
  EXPECT_THROW(parse_strategy_spec("le vy"), std::invalid_argument);
}

}  // namespace
}  // namespace ants::scenario
