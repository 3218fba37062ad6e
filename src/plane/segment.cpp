#include "plane/segment.h"

#include <algorithm>
#include <cmath>

namespace ants::plane {

std::optional<Time> line_first_sighting(const LineMove& line, double len,
                                        Vec2 target, double eps) {
  const Vec2 d = line.to - line.from;
  const Vec2 w = line.from - target;
  if (w.norm2() <= eps * eps) return 0.0;  // already in sight at the start
  if (len == 0.0) return std::nullopt;
  const Vec2 u = d * (1.0 / len);
  // |w + t u|^2 = eps^2  =>  t^2 + 2 (w.u) t + (|w|^2 - eps^2) = 0.
  const double b = w.dot(u);
  const double c = w.norm2() - eps * eps;
  const double disc = b * b - c;
  if (disc < 0) return std::nullopt;
  const double t = -b - std::sqrt(disc);  // earliest root; start is outside
  if (t < 0 || t > len) return std::nullopt;
  return t;
}

namespace {

/// Squared distance from `target` to the spiral point at angle theta.
double spiral_dist2(Vec2 center, double a, double theta, Vec2 target) {
  const Vec2 p = spiral_point_at(center, a, theta);
  return (p - target).norm2();
}

/// Bisects the sight-disk entry in (outside, inside] and converts to arc
/// length, honoring the budget. The update is a deterministic function of
/// (x0, x1), so the first iteration that leaves both unchanged (mid has
/// reached one end: the ends are adjacent doubles) would be repeated by every
/// later one; stopping there returns what all 80 iterations would.
std::optional<Time> refine_entry(const SpiralMove& sp, double a, Vec2 target,
                                 double eps2, double outside, double inside) {
  double x0 = outside, x1 = inside;
  for (int it = 0; it < 80; ++it) {
    const double mid = 0.5 * (x0 + x1);
    if (spiral_dist2(sp.center, a, mid, target) <= eps2) {
      if (mid == x1) break;
      x1 = mid;
    } else {
      if (mid == x0) break;
      x0 = mid;
    }
  }
  const double s = spiral_arc_length(a, x1);
  if (s <= sp.duration) return s;
  return std::nullopt;  // sighted only past the budget
}

// First sighting on an Archimedean spiral at angles >= theta_begin, for a
// target at distance d > eps from the center. Sighting is only possible
// while the coil radius a*theta is inside the annulus [d - eps, d + eps] —
// an angular interval of width 2*eps/a (O(eps/pitch) coils). Two regimes:
//
//  * d within ~50 coils of the center: scan that interval with arc-length
//    steps of eps/20 and bisect the first crossing. This is the common case,
//    not a rare one: every spiral move whose reach covers a target scans it.
//    On the paper-segment-plane workload's plane-harmonic cells the scan
//    is at least 40% of the time: the certified skip and the fixed-point
//    exits below take a 1-thread run of them from 78 to 47 ms.
//  * d deeper out: visit each coil pass (angles congruent to the target's
//    angle phi), where the distance along one coil window is unimodal (the
//    sin(u) term of d/du |spiral - target|^2 dominates once theta >> 1), so
//    ternary search + bisection is exact and O(#coils) total.
//
// Grazing passes with penetration depth below the tolerance (~eps/40) can
// be reported one coil late; the asymptotic claims this module supports are
// insensitive to that, and the dense cross-check tests use a matching
// tolerance.
//
// theta_begin > 0 is the appear-window form: the caller has established that
// the spiral point at theta_begin is OUTSIDE the sight disc, so every anchor
// clamped to theta_begin is a valid outside point. At theta_begin = 0 the
// clamps are no-ops (max(0, max(0, x)) == max(0, x)).
std::optional<Time> spiral_scan(const SpiralMove& sp, Vec2 target, double d,
                                double eps, double theta_begin,
                                double theta_end) {
  const double a = sp.pitch / kTwoPi;
  const double theta_lo = std::max(theta_begin, std::max(0.0, (d - eps) / a));
  const double theta_hi = std::min(theta_end, (d + eps) / a);
  if (theta_lo > theta_hi) return std::nullopt;
  const double eps2 = eps * eps;

  if (d <= 50.0 * sp.pitch) {
    const double dtheta = eps / (20.0 * std::max(d, eps));
    // Certified skip. The spiral point moves at speed a*sqrt(1+theta^2) per
    // unit angle, which grows with theta, so one step (at most dtheta below
    // theta_hi) moves it at most `reach`. After an evaluation at distance
    // dist, the next m steps with m * reach <= dist - keep_out therefore
    // stay more than keep_out from the target, and their evaluations would
    // all miss. They are stepped without evaluating: theta, the clamp, prev
    // and the theta_hi exit run exactly as in the evaluated loop, so every
    // angle the scan does evaluate is the same double.
    //
    // Rounding: a computed point has absolute error below ~8u * scale
    // (u = 2^-53; scale bounds |center|, |target| and the radius), so the
    // computed and true distances differ by less than ~1e-14 * scale plus a
    // few ulps of eps. keep_out = eps * (1 + 1e-6) + 1e-12 * scale covers
    // both evaluations by orders of magnitude, and the 1e-15 term in reach
    // covers the rounding of each `theta += dtheta`.
    const double reach = (dtheta + 1e-15 * (theta_hi + dtheta)) * a *
                         std::sqrt(1.0 + theta_hi * theta_hi);
    const double scale = std::abs(sp.center.x) + std::abs(sp.center.y) +
                         std::abs(target.x) + std::abs(target.y) +
                         a * theta_hi;
    const double keep_out = eps * (1.0 + 1e-6) + 1e-12 * scale;

    double prev = theta_lo;
    double dist2 = spiral_dist2(sp.center, a, prev, target);
    if (dist2 <= eps2) return spiral_arc_length(a, prev);
    for (double theta = theta_lo;;) {
      for (double m = std::floor((std::sqrt(dist2) - keep_out) / reach);
           m >= 1.0; m -= 1.0) {
        theta += dtheta;
        prev = std::min(theta, theta_hi);
        if (prev >= theta_hi) return std::nullopt;
      }
      theta += dtheta;
      const double th = std::min(theta, theta_hi);
      dist2 = spiral_dist2(sp.center, a, th, target);
      if (dist2 <= eps2) return refine_entry(sp, a, target, eps2, prev, th);
      prev = th;
      if (th >= theta_hi) break;
    }
    return std::nullopt;
  }

  // Deep regime: one unimodal window per coil pass. The ternary search stops
  // at its fixed point, as refine_entry does.
  const Vec2 rel = target - sp.center;
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
      if (spiral_dist2(sp.center, a, m1, target) <
          spiral_dist2(sp.center, a, m2, target)) {
        if (m2 == b1) break;
        b1 = m2;
      } else {
        if (m1 == a1) break;
        a1 = m1;
      }
    }
    const double theta_min = 0.5 * (a1 + b1);
    if (spiral_dist2(sp.center, a, theta_min, target) > eps2) continue;
    return refine_entry(sp, a, target, eps2, lo, theta_min);
  }
  return std::nullopt;
}

}  // namespace

std::optional<Time> spiral_first_sighting_at(const SpiralMove& sp, Vec2 target,
                                             double eps, double theta_end) {
  const double d = (target - sp.center).norm();
  if (d <= eps) return 0.0;  // visible from the spiral's very first point
  if (sp.duration <= 0) return std::nullopt;
  return spiral_scan(sp, target, d, eps, 0.0, theta_end);
}

namespace {

/// A spiral's first sighting at offset from in (0, duration): at `from`
/// itself when the mover is already inside the disc there, else the scan
/// of the coils from the angle reached at `from` (a spiral may re-enter the
/// disc on a later coil).
std::optional<Time> spiral_sighting_inside(const SpiralMove& sp, Vec2 target,
                                           double eps, Time from,
                                           double theta_end) {
  const double a = sp.pitch / kTwoPi;
  const double theta_from = spiral_theta_for_arc(a, from);
  if ((spiral_point_at(sp.center, a, theta_from) - target).norm2() <=
      eps * eps) {
    return from;
  }
  return spiral_scan(sp, target, (target - sp.center).norm(), eps, theta_from,
                     theta_end);
}

/// Single-trial path: solves for theta_end itself, once the early exits have
/// not settled the answer.
std::optional<Time> spiral_first_sighting(const SpiralMove& sp, Vec2 target,
                                          double eps) {
  const double d = (target - sp.center).norm();
  if (d <= eps) return 0.0;  // visible from the very first point
  if (sp.duration <= 0) return std::nullopt;
  const double a = sp.pitch / kTwoPi;
  return spiral_scan(sp, target, d, eps, 0.0,
                     spiral_theta_for_arc(a, sp.duration));
}

}  // namespace

Time move_duration(const Move& move) noexcept {
  if (const auto* line = std::get_if<LineMove>(&move)) {
    return (line->to - line->from).norm();
  }
  return std::get<SpiralMove>(move).duration;
}

Vec2 move_end(const Move& move) noexcept {
  if (const auto* line = std::get_if<LineMove>(&move)) return line->to;
  const auto& sp = std::get<SpiralMove>(move);
  const double a = sp.pitch / kTwoPi;
  const double theta = spiral_theta_for_arc(a, sp.duration);
  return spiral_point_at(sp.center, a, theta);
}

Vec2 move_position_at(const Move& move, Time t) noexcept {
  if (t <= 0) {
    if (const auto* line = std::get_if<LineMove>(&move)) return line->from;
    return std::get<SpiralMove>(move).center;
  }
  if (t >= move_duration(move)) return move_end(move);
  if (const auto* line = std::get_if<LineMove>(&move)) {
    const Vec2 d = line->to - line->from;
    const double len = d.norm();
    if (len == 0.0) return line->from;
    return line->from + d * (t / len);
  }
  const auto& sp = std::get<SpiralMove>(move);
  const double a = sp.pitch / kTwoPi;
  return spiral_point_at(sp.center, a, spiral_theta_for_arc(a, t));
}

std::optional<Time> first_sighting(const Move& move, Vec2 target, double eps) {
  if (const auto* line = std::get_if<LineMove>(&move)) {
    return line_first_sighting(*line, (line->to - line->from).norm(), target,
                               eps);
  }
  return spiral_first_sighting(std::get<SpiralMove>(move), target, eps);
}

std::optional<Time> first_sighting_from(const Move& move, Vec2 target,
                                        double eps, Time from) {
  if (from <= 0) return first_sighting(move, target, eps);
  const Time duration = move_duration(move);
  if (from >= duration) return std::nullopt;
  if (const auto* sp = std::get_if<SpiralMove>(&move)) {
    return spiral_sighting_inside(
        *sp, target, eps, from, spiral_theta_for_arc(sp->pitch / kTwoPi,
                                                     duration));
  }
  // Already inside the disc the instant the window opens.
  if ((move_position_at(move, from) - target).norm2() <= eps * eps) {
    return from;
  }
  // A line crosses the disc in at most one interval; since the position at
  // `from` is outside, either the entry is still ahead (valid iff >= from)
  // or the disc was exited before `from` (no re-entry).
  const auto hit =
      line_first_sighting(std::get<LineMove>(move), duration, target, eps);
  if (hit && *hit >= from) return hit;
  return std::nullopt;
}

std::optional<Time> spiral_first_sighting_from_at(const SpiralMove& sp,
                                                  Vec2 target, double eps,
                                                  Time from, double theta_end) {
  if (from <= 0) return spiral_first_sighting_at(sp, target, eps, theta_end);
  if (from >= sp.duration) return std::nullopt;
  return spiral_sighting_inside(sp, target, eps, from, theta_end);
}

double spiral_arc_length(double a, double theta) noexcept {
  // s(theta) = (a/2) (theta*sqrt(1+theta^2) + asinh(theta)).
  return 0.5 * a * (theta * std::sqrt(1.0 + theta * theta) +
                    std::asinh(theta));
}

double spiral_theta_for_arc(double a, double s) noexcept {
  if (s <= 0 || a <= 0) return 0;
  // s ~ (a/2) theta^2 for large theta: a robust starting point.
  double theta = std::sqrt(2.0 * s / a);
  for (int it = 0; it < 60; ++it) {
    const double f = spiral_arc_length(a, theta) - s;
    const double fp = a * std::sqrt(1.0 + theta * theta);  // ds/dtheta
    const double step = f / fp;
    theta -= step;
    if (theta < 0) theta = 0;
    if (std::abs(step) < 1e-12 * (1.0 + theta)) break;
  }
  return theta;
}

Vec2 spiral_point_at(Vec2 center, double a, double theta) noexcept {
  const double r = a * theta;
  return center + Vec2{r * std::cos(theta), r * std::sin(theta)};
}

}  // namespace ants::plane
