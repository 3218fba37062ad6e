// The square spiral: the paper's atomic procedure (3), "perform a spiral
// search around a node".
//
// Layout (relative to the spiral's center):
//   index 0 is the center; ring r >= 1 (Chebyshev radius r) occupies indices
//   [(2r-1)^2, (2r+1)^2 - 1], entered at (r, -r+1) and traversed
//   counterclockwise: up the east side, west along the north side, down the
//   west side, east along the south side, ending at the corner (r, -r).
// Consecutive spiral points are grid-adjacent (ring-to-ring transitions
// included), so the node at spiral index m is visited exactly m time steps
// after the search begins. spiral_point and spiral_index are exact O(1)
// inverses — this turns treasure-hit detection inside a spiral of any length
// into two integer operations.
//
// Coverage guarantee (the paper assumes radius sqrt(x)/2 after x steps): a
// spiral of duration t covers the full Chebyshev — hence L1 — ball of radius
// spiral_coverage_radius(t) = floor((floor(sqrt(t+1)) - 1) / 2), which is
// sqrt(t)/2 - O(1): the spiral completes the (2r+1) x (2r+1) square at
// index (2r+1)^2 - 1.
#pragma once

#include <cstdint>
#include <limits>

#include "grid/point.h"

namespace ants::grid {

/// Indices are exact for points with Chebyshev norm up to 2^30; beyond that
/// spiral_index returns kSpiralIndexOverflow, a value larger than any
/// representable spiral duration (durations saturate at 2^62).
inline constexpr std::int64_t kMaxSpiralRadius = std::int64_t{1} << 30;
inline constexpr std::int64_t kSpiralIndexOverflow =
    std::numeric_limits<std::int64_t>::max();

/// n-th point of the spiral (relative to its center), n in [0, 2^62].
Point spiral_point(std::int64_t n) noexcept;

/// Inverse of spiral_point (kSpiralIndexOverflow for far points, see above).
std::int64_t spiral_index(Point p) noexcept;

/// Minimal duration t such that a spiral of duration t (visiting indices
/// 0..t) covers every node with Chebyshev norm <= r: (2r+1)^2 - 1.
constexpr std::int64_t spiral_length_for_radius(std::int64_t r) noexcept {
  return (2 * r + 1) * (2 * r + 1) - 1;
}

/// Largest fully covered Chebyshev radius after a spiral of duration t.
std::int64_t spiral_coverage_radius(std::int64_t t) noexcept;

}  // namespace ants::grid
