#include "plane/segment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>

#include "rng/rng.h"

namespace ants::plane {
namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

// ---------------------------------------------------------------------------
// Vec2 basics.
// ---------------------------------------------------------------------------

TEST(Vec2, ArithmeticAndNorms) {
  const Vec2 a{3, 4}, b{1, -1};
  EXPECT_EQ((a + b), (Vec2{4, 3}));
  EXPECT_EQ((a - b), (Vec2{2, 5}));
  EXPECT_EQ((a * 2.0), (Vec2{6, 8}));
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.norm2(), 25.0);
  EXPECT_DOUBLE_EQ(a.dot(b), -1.0);
  EXPECT_NEAR(distance(a, b), std::hypot(2, 5), 1e-12);
}

TEST(Vec2, UnitVectorOnCircle) {
  for (double th = 0; th < kTwoPi; th += 0.1) {
    EXPECT_NEAR(unit(th).norm(), 1.0, 1e-12);
  }
  EXPECT_NEAR(unit(0).x, 1.0, 1e-12);
  EXPECT_NEAR(unit(kTwoPi / 4).y, 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Line sightings (exact quadratic).
// ---------------------------------------------------------------------------

TEST(LineSighting, HeadOnHitAtDistanceMinusEps) {
  // Walking from (0,0) to (10,0), target at (6,0), eps = 1: first sighting
  // when the agent reaches x = 5.
  const LineMove move{{0, 0}, {10, 0}};
  const auto t = first_sighting(Move{move}, Vec2{6, 0}, 1.0);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 5.0, 1e-9);
}

TEST(LineSighting, StartInsideSightIsImmediate) {
  const LineMove move{{0, 0}, {10, 0}};
  EXPECT_EQ(first_sighting(Move{move}, Vec2{0.5, 0.3}, 1.0), 0.0);
}

TEST(LineSighting, PerpendicularGrazePasses) {
  // Target 0.99 off the line: sighted; 1.01 off: missed (eps = 1).
  const LineMove move{{0, 0}, {10, 0}};
  EXPECT_TRUE(first_sighting(Move{move}, Vec2{5, 0.99}, 1.0).has_value());
  EXPECT_FALSE(first_sighting(Move{move}, Vec2{5, 1.01}, 1.0).has_value());
}

TEST(LineSighting, BehindTheSegmentIsMissed) {
  const LineMove move{{0, 0}, {10, 0}};
  EXPECT_FALSE(first_sighting(Move{move}, Vec2{-3, 0}, 1.0).has_value());
  EXPECT_FALSE(first_sighting(Move{move}, Vec2{13, 0}, 1.0).has_value());
}

TEST(LineSighting, ZeroLengthMoveOnlySeesItsOwnDisk) {
  const LineMove move{{2, 2}, {2, 2}};
  EXPECT_TRUE(first_sighting(Move{move}, Vec2{2.5, 2}, 1.0).has_value());
  EXPECT_FALSE(first_sighting(Move{move}, Vec2{4, 2}, 1.0).has_value());
}

TEST(LineSighting, MatchesDenseSamplingOnRandomInstances) {
  rng::Rng rng(404);
  for (int iter = 0; iter < 300; ++iter) {
    const LineMove move{{rng.uniform_real(-20, 20), rng.uniform_real(-20, 20)},
                        {rng.uniform_real(-20, 20), rng.uniform_real(-20, 20)}};
    const Vec2 target{rng.uniform_real(-25, 25), rng.uniform_real(-25, 25)};
    const double eps = rng.uniform_real(0.5, 2.0);
    const auto got = first_sighting(Move{move}, target, eps);

    // Dense reference: sample every 1e-3 of travel.
    const double len = (move.to - move.from).norm();
    std::optional<Time> expect;
    const Vec2 dir = len > 0 ? (move.to - move.from) * (1.0 / len) : Vec2{};
    for (double s = 0; s <= len; s += 1e-3) {
      if (distance(move.from + dir * s, target) <= eps) {
        expect = s;
        break;
      }
    }
    if (expect.has_value()) {
      ASSERT_TRUE(got.has_value()) << iter;
      EXPECT_NEAR(*got, *expect, 2e-3) << iter;
    } else if (got.has_value()) {
      // The analytic hit must be a graze the sampler stepped over.
      const Vec2 p = move.from + dir * *got;
      EXPECT_NEAR(distance(p, target), eps, 1e-6) << iter;
    }
  }
}

// ---------------------------------------------------------------------------
// Archimedean spiral math.
// ---------------------------------------------------------------------------

TEST(MovePositionAt, LineInterpolatesAndClamps) {
  const Move move = LineMove{{1, 1}, {1, 11}};
  EXPECT_EQ(move_position_at(move, -3.0), (Vec2{1, 1}));
  EXPECT_EQ(move_position_at(move, 0.0), (Vec2{1, 1}));
  const Vec2 mid = move_position_at(move, 5.0);
  EXPECT_NEAR(mid.x, 1.0, 1e-12);
  EXPECT_NEAR(mid.y, 6.0, 1e-12);
  EXPECT_EQ(move_position_at(move, 10.0), (Vec2{1, 11}));
  EXPECT_EQ(move_position_at(move, 99.0), (Vec2{1, 11}));
  // Degenerate zero-length move: every offset is the start point.
  EXPECT_EQ(move_position_at(Move{LineMove{{2, 3}, {2, 3}}}, 1.0),
            (Vec2{2, 3}));
}

TEST(MovePositionAt, SpiralTracksArcLengthAndEndsAtMoveEnd) {
  const SpiralMove sp{{5, -2}, 2.0, 300.0};
  const Move move{sp};
  const double a = sp.pitch / (2.0 * 3.14159265358979323846);
  for (const double s : {0.0, 1.0, 37.5, 150.0, 299.0}) {
    const Vec2 p = move_position_at(move, s);
    // The point sits on the spiral: its radius from the center is a*theta
    // for the theta whose arc length is s.
    const double theta = spiral_theta_for_arc(a, s);
    EXPECT_NEAR(distance(p, sp.center), a * theta, 1e-8) << "s=" << s;
    EXPECT_EQ(p, spiral_point_at(sp.center, a, theta));
  }
  EXPECT_EQ(move_position_at(move, sp.duration), move_end(move));
  EXPECT_EQ(move_position_at(move, sp.duration + 50.0), move_end(move));
}

TEST(SpiralMath, ArcLengthMonotoneAndConvex) {
  const double a = 0.3;
  double prev = 0;
  for (double th = 0.5; th < 60; th += 0.5) {
    const double s = spiral_arc_length(a, th);
    EXPECT_GT(s, prev);
    prev = s;
  }
  // Large-theta asymptotic: s ~ (a/2) theta^2.
  EXPECT_NEAR(spiral_arc_length(a, 100.0), 0.5 * a * 100 * 100,
              0.01 * 0.5 * a * 100 * 100);
}

TEST(SpiralMath, ThetaForArcInvertsArcLength) {
  const double a = 0.15915494309189535;  // pitch 1
  for (double th = 0; th < 80; th += 0.37) {
    const double s = spiral_arc_length(a, th);
    EXPECT_NEAR(spiral_theta_for_arc(a, s), th, 1e-8 * (1 + th));
  }
}

TEST(SpiralMath, PointAtRadiusGrowsLinearly) {
  const double a = 0.5;
  for (double th = 0; th < 40; th += 1.1) {
    const Vec2 p = spiral_point_at({0, 0}, a, th);
    EXPECT_NEAR(p.norm(), a * th, 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Spiral sightings vs dense path sampling.
// ---------------------------------------------------------------------------

// Reference: walk the spiral in theta space with arc steps of ~ds (the
// local arc per radian is sqrt(a^2 + r^2), so dtheta = ds / that) and
// report the first sample within eps. Avoids a Newton solve per sample.
std::optional<Time> dense_spiral_sighting(const SpiralMove& sp, Vec2 target,
                                          double eps, double ds) {
  const double a = sp.pitch / kTwoPi;
  double th = 0;
  while (true) {
    const double s = spiral_arc_length(a, th);
    if (s > sp.duration) return std::nullopt;
    if (distance(spiral_point_at(sp.center, a, th), target) <= eps) {
      return s;
    }
    const double r = a * th;
    th += ds / std::sqrt(a * a + r * r);
  }
}

TEST(SpiralSighting, CenterTargetImmediate) {
  const SpiralMove sp{{0, 0}, 1.0, 100.0};
  EXPECT_EQ(first_sighting(Move{sp}, Vec2{0.2, -0.1}, 1.0), 0.0);
}

TEST(SpiralSighting, FarTargetBeyondBudgetMissed) {
  // Budget 100 reaches radius ~ sqrt(2*a*100) ~ 5.6 with pitch 1; a target
  // at radius 30 cannot be sighted.
  const SpiralMove sp{{0, 0}, 1.0, 100.0};
  EXPECT_FALSE(first_sighting(Move{sp}, Vec2{30, 0}, 1.0).has_value());
}

TEST(SpiralSighting, CoversEverythingWithinSweptRadius) {
  // pitch = 1, eps = 1 > pitch/2: no blind rings. Every target within the
  // (conservative) swept radius must be sighted.
  const SpiralMove sp{{0, 0}, 1.0, 4000.0};
  const double a = sp.pitch / kTwoPi;
  const double theta_end = spiral_theta_for_arc(a, sp.duration);
  const double reach = a * theta_end - 2.0;  // one coil of margin
  rng::Rng rng(505);
  for (int iter = 0; iter < 250; ++iter) {
    const double r = rng.uniform_real(0.0, reach);
    const Vec2 target = unit(rng.angle()) * r;
    EXPECT_TRUE(first_sighting(Move{sp}, target, 1.0).has_value())
        << "r=" << r << " iter=" << iter;
  }
}

// Sampled references detect grazes one ds late or miss them; treat "one
// side missed but the other's sighting is within band of eps" as agreement.
void expect_sighting_agreement(const SpiralMove& sp, Vec2 target, double eps,
                               double ds, int iter) {
  const double a = sp.pitch / kTwoPi;
  const auto got = first_sighting(Move{sp}, target, eps);
  const auto expect = dense_spiral_sighting(sp, target, eps, ds);
  if (got.has_value() && expect.has_value()) {
    EXPECT_NEAR(*got, *expect, ds + 0.01 * *expect) << iter;
    return;
  }
  if (got.has_value() != expect.has_value()) {
    // Grazing pass: the minimum approach must hug the sight boundary.
    const double th = spiral_theta_for_arc(
        a, got.has_value() ? *got : *expect);
    const double approach =
        distance(spiral_point_at(sp.center, a, th), target);
    EXPECT_NEAR(approach, eps, 0.1) << iter << " graze check";
  }
}

TEST(SpiralSighting, MatchesDenseSamplingNearCenter) {
  // Near-center regime (dense-scan path in the implementation).
  rng::Rng rng(606);
  const SpiralMove sp{{0, 0}, 1.0, 600.0};
  for (int iter = 0; iter < 40; ++iter) {
    const Vec2 target = unit(rng.angle()) * rng.uniform_real(1.5, 12.0);
    expect_sighting_agreement(sp, target, 0.8, 2e-2, iter);
  }
}

TEST(SpiralSighting, MatchesDenseSamplingDeepRegime) {
  // Deep regime (per-coil ternary path): pitch 1, targets past the 50-pitch
  // threshold.
  rng::Rng rng(707);
  const SpiralMove sp{{0, 0}, 1.0, 12000.0};
  for (int iter = 0; iter < 12; ++iter) {
    const Vec2 target = unit(rng.angle()) * rng.uniform_real(52.0, 60.0);
    expect_sighting_agreement(sp, target, 0.9, 2e-2, iter);
  }
}

TEST(SpiralSighting, OffCenterSpiralsWork) {
  const SpiralMove sp{{100, -50}, 1.0, 3000.0};
  const auto t = first_sighting(Move{sp}, Vec2{104, -50}, 1.0);
  ASSERT_TRUE(t.has_value());
  // Radius 4 is reached at arc ~ (a/2) (r/a)^2 = r^2/(2a) with a = 1/2pi.
  const double a = 1.0 / kTwoPi;
  EXPECT_LT(*t, 16.0 / (2 * a) * 1.5);
  EXPECT_GT(*t, 1.0);
}

// ---------------------------------------------------------------------------
// Bitwise pin of the scan against the plain scan it replaced.
// ---------------------------------------------------------------------------

// The spiral scan as it was before the certified skip and the fixed-point
// exits: every step evaluated, 80 bisection and 100 ternary iterations.
// theta_begin = 0 is spiral_first_sighting_at, theta_begin > 0 the
// appear-window form.
double plain_dist2(Vec2 center, double a, double theta, Vec2 target) {
  return (spiral_point_at(center, a, theta) - target).norm2();
}

std::optional<Time> plain_refine(const SpiralMove& sp, double a, Vec2 target,
                                 double eps2, double outside, double inside) {
  double x0 = outside, x1 = inside;
  for (int it = 0; it < 80; ++it) {
    const double mid = 0.5 * (x0 + x1);
    if (plain_dist2(sp.center, a, mid, target) <= eps2) {
      x1 = mid;
    } else {
      x0 = mid;
    }
  }
  const double s = spiral_arc_length(a, x1);
  if (s <= sp.duration) return s;
  return std::nullopt;
}

std::optional<Time> plain_scan(const SpiralMove& sp, Vec2 target, double eps,
                               double theta_begin, double theta_end) {
  const double a = sp.pitch / kTwoPi;
  const Vec2 rel = target - sp.center;
  const double d = rel.norm();
  const double theta_lo = std::max(theta_begin, std::max(0.0, (d - eps) / a));
  const double theta_hi = std::min(theta_end, (d + eps) / a);
  if (theta_lo > theta_hi) return std::nullopt;
  const double eps2 = eps * eps;
  if (d <= 50.0 * sp.pitch) {
    const double dtheta = eps / (20.0 * std::max(d, eps));
    double prev = theta_lo;
    if (plain_dist2(sp.center, a, prev, target) <= eps2) {
      return spiral_arc_length(a, prev);
    }
    for (double theta = theta_lo + dtheta;; theta += dtheta) {
      const double th = std::min(theta, theta_hi);
      if (plain_dist2(sp.center, a, th, target) <= eps2) {
        return plain_refine(sp, a, target, eps2, prev, th);
      }
      prev = th;
      if (th >= theta_hi) break;
    }
    return std::nullopt;
  }
  const double phi = std::atan2(rel.y, rel.x);
  const double n_min = std::floor((theta_lo - phi) / kTwoPi) - 1.0;
  const double n_max = std::ceil((theta_hi - phi) / kTwoPi) + 1.0;
  for (double n = std::max(n_min, 0.0); n <= n_max; n += 1.0) {
    const double theta_c = phi + n * kTwoPi;
    const double lo =
        std::max(theta_begin, std::max(0.0, theta_c - 0.5 * kTwoPi));
    const double hi = std::min(theta_end, theta_c + 0.5 * kTwoPi);
    if (lo >= hi) continue;
    double a1 = lo, b1 = hi;
    for (int it = 0; it < 100; ++it) {
      const double m1 = a1 + (b1 - a1) / 3.0;
      const double m2 = b1 - (b1 - a1) / 3.0;
      if (plain_dist2(sp.center, a, m1, target) <
          plain_dist2(sp.center, a, m2, target)) {
        b1 = m2;
      } else {
        a1 = m1;
      }
    }
    const double theta_min = 0.5 * (a1 + b1);
    if (plain_dist2(sp.center, a, theta_min, target) > eps2) continue;
    return plain_refine(sp, a, target, eps2, lo, theta_min);
  }
  return std::nullopt;
}

/// The plain form of spiral_first_sighting_at.
std::optional<Time> plain_sighting_at(const SpiralMove& sp, Vec2 target,
                                      double eps, double theta_end) {
  if ((target - sp.center).norm() <= eps) return 0.0;
  if (sp.duration <= 0) return std::nullopt;
  return plain_scan(sp, target, eps, 0.0, theta_end);
}

/// The plain form of first_sighting_from on a spiral, from > 0.
std::optional<Time> plain_sighting_from(const SpiralMove& sp, Vec2 target,
                                        double eps, Time from) {
  if (from >= sp.duration) return std::nullopt;
  if ((move_position_at(Move{sp}, from) - target).norm2() <= eps * eps) {
    return from;
  }
  const double a = sp.pitch / kTwoPi;
  return plain_scan(sp, target, eps, spiral_theta_for_arc(a, from),
                    spiral_theta_for_arc(a, sp.duration));
}

bool same_bits(std::optional<Time> x, std::optional<Time> y) {
  if (x.has_value() != y.has_value()) return false;
  return !x || std::bit_cast<std::uint64_t>(*x) ==
                   std::bit_cast<std::uint64_t>(*y);
}

TEST(SpiralScanPin, SameBitsAsThePlainScanOnSeededInstances) {
  // 12000 instances, three quarters in the dense regime (d <= 50 pitch).
  // Each draws a pitch and an eps off 1, a center up to 10^4 out, and one of
  // four shapes: a uniform target in the annulus the spiral sweeps, a
  // grazing target whose nearest approach to the curve is within 1e-9 of
  // eps, a target whose annulus the budget cuts (theta_end < theta_hi), or
  // a deep-regime target. Every instance is also run from an arc offset
  // into the move (theta_begin > 0) through first_sighting_from.
  rng::Rng rng(2505);
  int hits = 0, clamped = 0, grazes = 0, windowed_hits = 0, dense = 0;
  constexpr int kInstances = 12000;
  for (int iter = 0; iter < kInstances; ++iter) {
    const double pitch = rng.uniform_real(0.3, 3.0);
    const double eps = pitch * rng.uniform_real(0.2, 1.2);
    const double a = pitch / kTwoPi;
    const Vec2 center =
        rng.bernoulli(0.5)
            ? Vec2{rng.uniform_real(-1e4, 1e4), rng.uniform_real(-1e4, 1e4)}
            : Vec2{rng.uniform_real(-3, 3), rng.uniform_real(-3, 3)};
    const int shape = static_cast<int>(rng.uniform_u64(4));
    Vec2 target;
    double duration;
    if (shape == 3) {
      // Deep regime: past 50 coils, budget over the annulus.
      const double d = pitch * rng.uniform_real(50.5, 56.0);
      target = center + unit(rng.angle()) * d;
      duration = spiral_arc_length(a, (d + 2 * eps) / a);
    } else if (shape == 1) {
      // Graze: offset from the curve along its normal by eps +- 1e-9.
      const double theta = rng.uniform_real(2.0, 40.0 * kTwoPi);
      const Vec2 p = spiral_point_at(center, a, theta);
      const Vec2 tangent{std::cos(theta) - theta * std::sin(theta),
                         std::sin(theta) + theta * std::cos(theta)};
      const Vec2 normal = Vec2{tangent.y, -tangent.x} *
                          (1.0 / tangent.norm()) *
                          (rng.bernoulli(0.5) ? 1.0 : -1.0);
      target = p + normal * (eps + rng.uniform_real(-1e-9, 1e-9));
      duration = spiral_arc_length(a, theta + rng.uniform_real(0.0, 20.0));
      ++grazes;
    } else {
      const double d = pitch * rng.uniform_real(0.0, 50.0);
      target = center + unit(rng.angle()) * d;
      const double theta_hi = (d + eps) / a;
      // Shape 2 ends the budget inside the annulus, so the scan clamps.
      const double theta_end =
          shape == 2 ? std::max(0.0, (d - eps) / a) +
                           rng.uniform_real(0.0, 2.0 * eps / a)
                     : theta_hi + rng.uniform_real(0.0, 10.0);
      duration = spiral_arc_length(a, theta_end);
    }
    const SpiralMove sp{center, pitch, duration};
    const double theta_end = spiral_theta_for_arc(a, duration);
    const double d = (target - center).norm();
    dense += d <= 50.0 * pitch;
    clamped += theta_end < (d + eps) / a;

    const auto want = plain_sighting_at(sp, target, eps, theta_end);
    const auto got = spiral_first_sighting_at(sp, target, eps, theta_end);
    ASSERT_TRUE(same_bits(got, want)) << "iter " << iter;
    hits += want.has_value();

    const Time from = duration * rng.uniform_real(0.0, 1.0);
    if (from <= 0) continue;
    const auto want_from = plain_sighting_from(sp, target, eps, from);
    const auto got_from = first_sighting_from(Move{sp}, target, eps, from);
    ASSERT_TRUE(same_bits(got_from, want_from)) << "iter " << iter << " from";
    windowed_hits += want_from.has_value();
  }
  // The mix must exercise every path it claims to.
  EXPECT_GT(dense, kInstances * 7 / 10);
  EXPECT_GT(hits, kInstances / 4);
  EXPECT_GT(kInstances - hits, kInstances / 10);
  EXPECT_GT(clamped, kInstances / 5);
  EXPECT_GT(grazes, kInstances / 5);
  EXPECT_GT(windowed_hits, kInstances / 10);
}

// ---------------------------------------------------------------------------
// Durations and end positions.
// ---------------------------------------------------------------------------

TEST(MoveGeometry, LineDurationIsLength) {
  EXPECT_DOUBLE_EQ(move_duration(Move{LineMove{{0, 0}, {3, 4}}}), 5.0);
  EXPECT_EQ(move_end(Move{LineMove{{0, 0}, {3, 4}}}), (Vec2{3, 4}));
}

TEST(MoveGeometry, SpiralDurationIsBudgetAndEndOnSpiral) {
  const SpiralMove sp{{1, 1}, 1.0, 500.0};
  EXPECT_DOUBLE_EQ(move_duration(Move{sp}), 500.0);
  const Vec2 end = move_end(Move{sp});
  const double a = sp.pitch / kTwoPi;
  const double theta = spiral_theta_for_arc(a, sp.duration);
  EXPECT_NEAR(distance(end, sp.center), a * theta, 1e-9);
}

}  // namespace
}  // namespace ants::plane
