#include "plane/engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "plane/strategies.h"
#include "sim/placement.h"
#include "sim/runner.h"
#include "core/known_k.h"

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

}  // namespace
}  // namespace ants::plane
