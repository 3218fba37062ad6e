// Continuous motion segments with closed-form / numeric first-sighting
// detection.
//
// The continuous agent moves at unit speed and SEES the treasure as soon as
// it comes within the sight radius eps (the paper's "bounded field of view
// of say eps > 0"). Two motion primitives cover the paper's navigation
// procedures on R^2:
//
//   LineMove    straight segment; first sighting is the smaller root of a
//               quadratic (exact, O(1)).
//   SpiralMove  Archimedean spiral r = a*theta around a center, pitch
//               2*pi*a <= 2*eps so successive coils leave no blind ring;
//               first sighting is located by walking the O(1) candidate
//               coil passes near the treasure's angle and bisecting the
//               earliest entry into the sight disk (numeric, validated
//               against dense path sampling in tests).
//
// Durations and hit offsets are arc lengths == travel times (unit speed).
#pragma once

#include <optional>
#include <variant>

#include "plane/vec2.h"

namespace ants::plane {

using Time = double;

/// 2*pi at the precision every spiral coefficient here is derived with
/// (a = pitch / kTwoPi). Exposed so the batch kernels compute the exact same
/// coefficient the scalar path does — a ULP of drift in `a` would break the
/// byte-identity contract between the two executors.
inline constexpr double kTwoPi = 6.283185307179586476925286766559;

struct LineMove {
  Vec2 from;
  Vec2 to;
};

struct SpiralMove {
  Vec2 center;
  double pitch = 2.0;    ///< radial gap between successive coils
  Time duration = 0;     ///< arc-length budget
};

using Move = std::variant<LineMove, SpiralMove>;

/// Travel time of the move (arc length; unit speed).
Time move_duration(const Move& move) noexcept;

/// Position when the move completes.
Vec2 move_end(const Move& move) noexcept;

/// Position after traveling `t` arc-length units into the move (clamped to
/// [0, duration]). Lets the environment-aware engine truncate a trajectory
/// mid-move: an agent whose lifetime expires partway through a move halts at
/// move_position_at(move, remaining_budget).
Vec2 move_position_at(const Move& move, Time t) noexcept;

/// Earliest time offset in [0, duration] at which the mover comes within
/// `eps` of `target`, if any.
std::optional<Time> first_sighting(const Move& move, Vec2 target, double eps);

/// Earliest time offset in [from, duration] at which the mover is within
/// `eps` of `target` — first_sighting constrained to start at offset `from`.
/// If the mover is already inside the disc at `from`, the answer is `from`
/// itself. Serves the appear-window check of dynamic target processes
/// (sim/trial.h): a target that appears mid-move must not be credited with
/// a sighting from before it existed — including a spiral that crossed the
/// disc on an earlier coil and re-enters on a later one.
std::optional<Time> first_sighting_from(const Move& move, Vec2 target,
                                        double eps, Time from);

/// The LineMove case of first_sighting, exposed so the batch kernels
/// (sim/batch/) can re-check SIMD-prefiltered candidate targets with the
/// byte-identical scalar arithmetic. `len` is the move's length,
/// (line.to - line.from).norm(): the caller has it already (it is the move's
/// duration), so the hit test of each target does not pay a hypot for it.
std::optional<Time> line_first_sighting(const LineMove& line, double len,
                                        Vec2 target, double eps);

/// The SpiralMove case of first_sighting with the final angle
/// `theta_end = spiral_theta_for_arc(pitch / 2pi, duration)` supplied by
/// the caller. The Newton solve behind theta_end dominates the spiral hit
/// test, and the batch kernels evaluate one spiral against many targets —
/// memoizing theta_end there and passing it here keeps results
/// byte-identical while paying for the solve once per move.
std::optional<Time> spiral_first_sighting_at(const SpiralMove& sp, Vec2 target,
                                             double eps, double theta_end);

/// first_sighting_from on a spiral, with `theta_end` supplied as for
/// spiral_first_sighting_at: the scalar plane engine tests one move against
/// every target of a windowed trial and solves the end angle once.
std::optional<Time> spiral_first_sighting_from_at(const SpiralMove& sp,
                                                  Vec2 target, double eps,
                                                  Time from, double theta_end);

// --- Archimedean spiral math (exposed for tests) ---------------------------

/// Arc length of r = a*theta from angle 0 to theta (>= 0).
double spiral_arc_length(double a, double theta) noexcept;

/// Inverse of spiral_arc_length: the angle reached after arc length s >= 0
/// (Newton, converges in a handful of iterations).
double spiral_theta_for_arc(double a, double s) noexcept;

/// Point of the spiral around `center` at angle theta.
Vec2 spiral_point_at(Vec2 center, double a, double theta) noexcept;

}  // namespace ants::plane
