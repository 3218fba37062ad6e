// 2D Euclidean vectors for the continuous-plane model.
//
// Section 2 of the paper: "Each agent has a bounded field of view of say
// eps > 0, hence, for simplicity, we can assume that the agents are actually
// walking on the integer two-dimensional infinite grid." The plane module
// implements the model BEFORE that reduction — agents move on R^2 at unit
// speed and detect the treasure within sight radius eps — so the reduction
// itself becomes testable (plane and grid runs must agree up to constants;
// see tests/plane_engine_test.cpp and bench/paper/e11.spec).
#pragma once

#include <cmath>

namespace ants::plane {

struct Vec2 {
  double x = 0;
  double y = 0;

  constexpr Vec2 operator+(Vec2 o) const noexcept { return {x + o.x, y + o.y}; }
  constexpr Vec2 operator-(Vec2 o) const noexcept { return {x - o.x, y - o.y}; }
  constexpr Vec2 operator*(double s) const noexcept { return {x * s, y * s}; }
  constexpr bool operator==(const Vec2&) const noexcept = default;

  double norm() const noexcept { return std::hypot(x, y); }
  constexpr double norm2() const noexcept { return x * x + y * y; }
  constexpr double dot(Vec2 o) const noexcept { return x * o.x + y * o.y; }
};

inline constexpr Vec2 kPlaneOrigin{0.0, 0.0};

inline double distance(Vec2 a, Vec2 b) noexcept { return (a - b).norm(); }

/// Unit vector at angle theta (radians).
inline Vec2 unit(double theta) noexcept {
  return {std::cos(theta), std::sin(theta)};
}

}  // namespace ants::plane
