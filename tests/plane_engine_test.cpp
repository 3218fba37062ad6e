#include "plane/engine.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "plane/strategies.h"
#include "sim/placement.h"
#include "sim/runner.h"
#include "sim/trial.h"
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

}  // namespace
}  // namespace ants::plane
