#include "plane/strategies.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>

#include "core/uniform.h"
#include "plane/engine.h"
#include "rng/rng.h"

namespace ants::plane {
namespace {

// ---------------------------------------------------------------------------
// PlaneKnownK.
// ---------------------------------------------------------------------------

TEST(PlaneKnownK, RejectsBadK) {
  EXPECT_THROW(PlaneKnownKStrategy(0), std::invalid_argument);
  EXPECT_NO_THROW(PlaneKnownKStrategy(1));
}

TEST(PlaneKnownK, ScheduleMatchesGridAk) {
  // Disk radius 2^i and sweep budget 2^(2i+2)/k — the grid schedule's
  // closed forms carried over verbatim.
  const PlaneKnownKStrategy s(4);
  for (int i = 1; i <= 20; ++i) {
    EXPECT_DOUBLE_EQ(s.disk_radius(i), std::ldexp(1.0, i));
    EXPECT_DOUBLE_EQ(s.sweep_budget(i), std::ldexp(1.0, 2 * i + 2) / 4.0);
  }
}

TEST(PlaneKnownK, TripsStayInPhaseDisk) {
  const PlaneKnownKStrategy s(2);
  const auto program = s.make_program(0, 2);
  rng::Rng rng(11);
  const double radii[] = {2, 2, 4, 2, 4, 8};
  for (const double r : radii) {
    const PlaneOp go = program->next(rng);
    ASSERT_TRUE(std::holds_alternative<GoToPoint>(go));
    EXPECT_LE(std::get<GoToPoint>(go).target.norm(), r + 1e-9);
    (void)program->next(rng);
    (void)program->next(rng);
  }
}

// ---------------------------------------------------------------------------
// PlaneHarmonic.
// ---------------------------------------------------------------------------

TEST(PlaneHarmonic, RejectsNonPositiveDelta) {
  EXPECT_THROW(PlaneHarmonicStrategy(0.0), std::invalid_argument);
  EXPECT_NO_THROW(PlaneHarmonicStrategy(0.5));
}

TEST(PlaneHarmonic, TripRadiiAreParetoTail) {
  // P(R > r) = r^-delta for the Pareto(1, delta) radial draw: check the
  // empirical survival at r = 4 for delta = 1 (expected 1/4).
  const PlaneHarmonicStrategy s(1.0);
  const auto program = s.make_program(0, 1);
  rng::Rng rng(22);
  int beyond = 0;
  const int n = 8000;
  for (int i = 0; i < n; ++i) {
    const PlaneOp go = program->next(rng);
    beyond += (std::get<GoToPoint>(go).target.norm() > 4.0);
    (void)program->next(rng);
    (void)program->next(rng);
  }
  EXPECT_NEAR(static_cast<double>(beyond) / n, 0.25, 0.03);
}

TEST(PlaneHarmonic, SweepBudgetIsRadiusPower) {
  const PlaneHarmonicStrategy s(0.5);
  const auto program = s.make_program(0, 1);
  rng::Rng rng(33);
  for (int trip = 0; trip < 200; ++trip) {
    const PlaneOp go = program->next(rng);
    const double r = std::get<GoToPoint>(go).target.norm();
    const PlaneOp sweep = program->next(rng);
    const double budget = std::get<SpiralSweep>(sweep).duration;
    EXPECT_NEAR(budget, std::min(std::pow(r, 2.5), 1e18), 1e-6 * budget);
    (void)program->next(rng);
  }
}

// ---------------------------------------------------------------------------
// PlaneUniform.
// ---------------------------------------------------------------------------

TEST(PlaneUniform, RejectsNegativeEps) {
  EXPECT_THROW(PlaneUniformStrategy(-0.5), std::invalid_argument);
  EXPECT_NO_THROW(PlaneUniformStrategy(0.0));
}

TEST(PlaneUniform, ClosedFormsMatchGridUniform) {
  // The grid UniformStrategy computes the same D_ij and t_ij (integerized);
  // the plane version must agree within rounding.
  const PlaneUniformStrategy plane_s(0.4);
  const core::UniformStrategy grid_s(0.4);
  for (int i = 0; i <= 18; ++i) {
    for (int j = 0; j <= i; ++j) {
      const auto grid_r = static_cast<double>(grid_s.ball_radius(i, j));
      EXPECT_NEAR(plane_s.disk_radius(i, j), grid_r, 1.0 + 0.01 * grid_r)
          << i << "," << j;
      const auto grid_t = static_cast<double>(grid_s.spiral_budget(i, j));
      EXPECT_NEAR(plane_s.sweep_budget(i, j), grid_t, 1.0 + 0.01 * grid_t)
          << i << "," << j;
    }
  }
}

TEST(PlaneUniform, IsUniformIgnoresK) {
  const PlaneUniformStrategy s(0.5);
  const auto p0 = s.make_program(0, 1);
  const auto p1 = s.make_program(7, 9999);
  rng::Rng r0(44), r1(44);
  for (int i = 0; i < 36; ++i) {
    const PlaneOp a = p0->next(r0);
    const PlaneOp b = p1->next(r1);
    ASSERT_EQ(a.index(), b.index());
    if (const auto* go = std::get_if<GoToPoint>(&a)) {
      EXPECT_EQ(go->target, std::get<GoToPoint>(b).target);
    } else if (const auto* sw = std::get_if<SpiralSweep>(&a)) {
      EXPECT_EQ(sw->duration, std::get<SpiralSweep>(b).duration);
    }
  }
}

TEST(PlaneUniform, FindsTreasureSmallScale) {
  const PlaneUniformStrategy s(0.5);
  int found = 0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    const rng::Rng trial(static_cast<std::uint64_t>(t) * 131 + 7);
    rng::Rng placement = trial.child(0xFACADE);
    const Vec2 treasure = unit(placement.angle()) * 12.0;
    PlaneEngineConfig config;
    config.time_cap = 1 << 20;
    PlaneTrialEnvironment env;
    env.targets = {treasure};
    const auto r = run_plane_trial(s, 4, env, trial, config);
    found += r.found;
  }
  EXPECT_GT(static_cast<double>(found) / trials, 0.9);
}

// ---------------------------------------------------------------------------
// Op-stream pins (TEST_P): the first 2000 ops of agents 0-3 at a fixed seed,
// hashed with the doubles taken by their bit patterns, equal the digest
// recorded for each strategy, so a refactor of a program cannot move a
// random draw or change a rounding unnoticed.
// ---------------------------------------------------------------------------

struct PinCase {
  std::string label;
  std::function<std::unique_ptr<PlaneStrategy>()> make;
  std::uint64_t digest;
};

/// With `trips`, the stream is pulled as the executor's chains pull it: a
/// whole trip (next_trip, read as its three ops) at every second or third
/// op where three ops are left, next() elsewhere and wherever next_trip
/// declines; `*trips_taken` counts the trips handed out.
std::uint64_t plane_op_digest(const PlaneStrategy& strategy,
                              bool trips = false,
                              int* trips_taken = nullptr) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over 64-bit words
  const auto add = [&h](std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  const auto add_op = [&add](const PlaneOp& op) {
    add(static_cast<std::uint64_t>(op.index()));
    if (const auto* go = std::get_if<GoToPoint>(&op)) {
      add(std::bit_cast<std::uint64_t>(go->target.x));
      add(std::bit_cast<std::uint64_t>(go->target.y));
    } else if (const auto* sw = std::get_if<SpiralSweep>(&op)) {
      add(std::bit_cast<std::uint64_t>(sw->duration));
    }
  };
  const rng::Rng trial(20261019);
  for (int a = 0; a < 4; ++a) {
    const auto program = strategy.make_program(a, 4);
    rng::Rng rng = trial.child(static_cast<std::uint64_t>(a));
    for (int i = 0; i < 2000;) {
      PlaneTrip trip;
      if (trips && (i + a) % 5 != 1 && 2000 - i >= 3 &&
          program->next_trip(rng, &trip)) {
        add_op(GoToPoint{trip.to});
        add_op(SpiralSweep{trip.budget});
        add_op(ReturnHome{});
        i += 3;
        if (trips_taken != nullptr) ++*trips_taken;
      } else {
        add_op(program->next(rng));
        ++i;
      }
    }
  }
  return h;
}

class PlaneOpStreamPinTest : public ::testing::TestWithParam<PinCase> {};

TEST_P(PlaneOpStreamPinTest, MatchesPinnedDigest) {
  const auto strategy = GetParam().make();
  EXPECT_EQ(plane_op_digest(*strategy), GetParam().digest) << strategy->name();
}

TEST_P(PlaneOpStreamPinTest, TripCallsInterleavedWithNextMatchPinnedDigest) {
  // The chains' whole-trip call draws exactly what three next() calls draw:
  // interleaved with next(), it reproduces the pinned op stream.
  const auto strategy = GetParam().make();
  int trips = 0;
  EXPECT_EQ(plane_op_digest(*strategy, true, &trips), GetParam().digest)
      << strategy->name();
  EXPECT_GT(trips, 2000 / 6) << strategy->name();
}

INSTANTIATE_TEST_SUITE_P(
    PlaneStrategies, PlaneOpStreamPinTest,
    ::testing::Values(
        PinCase{"known_k",
                [] { return std::make_unique<PlaneKnownKStrategy>(8); },
                14930090319201143640ULL},
        PinCase{"uniform",
                [] { return std::make_unique<PlaneUniformStrategy>(0.5); },
                7996165716627837234ULL},
        PinCase{"harmonic",
                [] { return std::make_unique<PlaneHarmonicStrategy>(0.5); },
                17166547285844218993ULL}),
    [](const ::testing::TestParamInfo<PinCase>& info) {
      return info.param.label;
    });

// ---------------------------------------------------------------------------
// Pitch/coverage property sweep (TEST_P): any pitch <= 2*eps leaves no
// blind ring, so a long-enough sweep must sight every target within reach.
// ---------------------------------------------------------------------------

class PitchCoverageTest : public ::testing::TestWithParam<double> {};

TEST_P(PitchCoverageTest, SweepSightsEverythingWithinReach) {
  const double pitch = GetParam();
  const double eps = 1.0;
  const SpiralMove sp{{0, 0}, pitch, 3000.0};
  const double a = pitch / 6.283185307179586;
  const double theta_end = spiral_theta_for_arc(a, sp.duration);
  const double reach = a * theta_end - pitch - eps;  // margin of one coil
  rng::Rng rng(1234 + static_cast<std::uint64_t>(pitch * 100));
  for (int iter = 0; iter < 60; ++iter) {
    const double r = rng.uniform_real(0.0, reach);
    const Vec2 target = unit(rng.angle()) * r;
    EXPECT_TRUE(first_sighting(Move{sp}, target, eps).has_value())
        << "pitch=" << pitch << " r=" << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Pitches, PitchCoverageTest,
                         ::testing::Values(0.5, 1.0, 1.5, 2.0));

}  // namespace
}  // namespace ants::plane
