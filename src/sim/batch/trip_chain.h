// The static segment and plane loops' trip chains (clock_loops.cpp): when a
// trip cannot reach any target, and what an agent's chain leaves behind.
//
// A trip program hands its trips out whole (AgentProgram::next_trip). A trip
// starts at the source, walks to `to`, spirals around it for `budget` and
// walks back. Its reach is the largest norm any point it visits can have;
// a trip is quiet when its reach is strictly below the nearest target's
// norm, and a quiet trip's legs run without hit or sighting tests. The
// loops chain a pop's quiet trips and at most one ordinary trip, and keep in
// ChainTails the legs each agent chained since its last pop.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "grid/point.h"
#include "grid/spiral.h"
#include "plane/vec2.h"
#include "sim/types.h"

namespace ants::sim::batch {

/// The largest L-infinity norm a grid trip visits: the walk out stays in
/// the box of the origin and `to` (a staircase is monotone), every spiral
/// node is within |spiral_point(budget)|_inf of `to` (the spiral ring the
/// budget reaches), and the walk home stays in the box of the origin and
/// the spiral's end. `end_offset` is spiral_point(budget).
constexpr std::int64_t grid_trip_reach(grid::Point to,
                                       grid::Point end_offset) noexcept {
  return grid::linf_norm(to) + grid::linf_norm(end_offset);
}

/// Whether no node of the trip is a target: its reach is strictly below
/// `nearest`, the smallest L-infinity norm of a target.
constexpr bool grid_trip_quiet(grid::Point to, grid::Point end_offset,
                               std::int64_t nearest) noexcept {
  return grid_trip_reach(to, end_offset) < nearest;
}

/// The relative rounding margin of plane_trip_quiet. The sighting tests'
/// worst rounding is a line grazing the sight disc: the root -b -
/// sqrt(b^2 - c) of plane::line_first_sighting then carries an absolute
/// error up to about sqrt(12u)|w| ~ 4e-8 |w| (u = 2^-53, |w| the distance
/// from the line's start to the target), and |w| <= 3 * reach for every
/// target whose norm is below 2 * reach (a farther target is farther from
/// the trip than reach, which dwarfs every error). The spiral's early exit
/// (d - eps) / a > theta_end and the start tests |w|^2 <= eps^2 err by a
/// few ulps of reach. A margin of 1e-6 * reach covers the worst of these
/// about eight times over.
inline constexpr double kPlaneQuietMargin = 1e-6;

/// An upper bound on the radius a * theta_end of the last coil of a sweep
/// of arc length s, free of the Newton solve for theta_end: the arc length
/// (a/2)(theta sqrt(1 + theta^2) + asinh theta) is at least (a/2) theta^2,
/// so a * theta_end <= sqrt(2 a s). For long sweeps the two differ by a
/// relative ln(theta) / theta^2; the solve stops at a relative 1e-12, which
/// the margin below absorbs.
inline double plane_sweep_radius(double a, double s) noexcept {
  return std::sqrt(2.0 * a * s);
}

/// The plane trip's reach with its rounding margin: |to| + r + eps, where r
/// bounds the radius of the sweep's last coil (plane_sweep_radius: the
/// spiral never leaves the disc of that radius around `to`, and the walk
/// home starts inside it) and eps is the sight radius. |to| is taken as
/// sqrt(to.norm2()), within a few ulps of the hypot the walk out measures
/// its length with; the margin covers them.
inline double plane_trip_reach(plane::Vec2 to, double sweep_radius,
                               double eps) noexcept {
  const double reach = std::sqrt(to.norm2()) + sweep_radius + eps;
  return reach + reach * kPlaneQuietMargin;
}

/// Whether no leg of the trip sights a target: its reach, margin included,
/// is strictly below `nearest`, the smallest Euclidean norm of a target.
inline bool plane_trip_quiet(plane::Vec2 to, double sweep_radius, double eps,
                             double nearest) noexcept {
  return plane_trip_reach(to, sweep_radius, eps) < nearest;
}

/// grid::spiral_point(n) through a small direct-mapped memo keyed on n.
/// Strategies reuse a few spiral budgets (phase budgets) across trips,
/// agents and trials, and the memo returns spiral_point's own bits. Every
/// slot starts as n = 0, whose point is the center.
class SpiralPointMemo {
 public:
  static constexpr std::size_t kSlots = 64;

  /// The slot n maps to.
  static constexpr std::size_t slot(Time n) noexcept {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(n) * 0x9E3779B97F4A7C15ULL) >> 58);
  }

  grid::Point at(Time n) noexcept {
    Entry& e = entries_[slot(n)];
    if (e.n != n) {
      e.n = n;
      e.point = grid::spiral_point(n);
    }
    return e.point;
  }

 private:
  struct Entry {
    Time n = 0;
    grid::Point point{};
  };
  std::array<Entry, kSlots> entries_{};
};

/// The legs each agent chained since its last pop, T its loop's clock type:
/// their start clocks, whether the agent died in the last of them, and an
/// op the agent pulled but left for its next pop (`Pending`). Only these
/// legs can start past the trial's final bound (clock_loops.cpp says why).
///
/// Storage is k * kCap starts, allocated at the first trial and reused.
/// An agent is listed the first time in a trial that it chains a leg or
/// leaves an op; a trial resets and scans only the listed agents.
template <typename T, typename Pending>
class ChainTails {
 public:
  /// The most legs one pop chains after its first: the loops stop a chain
  /// at a trip's start once the next trip might not fit, so a pop runs at
  /// most three trips. The cap also bounds the run-ahead: an agent chaining
  /// before the first find may run legs past the final bound, which cost
  /// their draws and are then taken back. With 32 legs the harmonic cells,
  /// whose agents find early, ran slower than with 8, and the uniform cells
  /// faster; paper-segment-plane as a whole read the same.
  static constexpr std::uint32_t kCap = 8;

  /// Readies the tails for a trial of k agents.
  void begin(std::size_t k) {
    if (heads_.size() != k) {
      starts_.assign(k * kCap, T{});
      heads_.assign(k, Head{});
      pending_.assign(k, std::nullopt);
      touched_.clear();
      return;
    }
    for (const std::uint32_t a : touched_) {
      heads_[a] = Head{};
      pending_[a].reset();
    }
    touched_.clear();
  }

  /// Agent a pops: its tail empties.
  void open(std::size_t a) noexcept { heads_[a].n = 0; }
  /// Whether `legs` more legs fit in agent a's tail.
  bool has_room(std::size_t a, std::uint32_t legs) const noexcept {
    return heads_[a].n + legs <= kCap;
  }
  /// Agent a chains a leg starting at `start`.
  void push(std::size_t a, T start) {
    list(a);
    starts_[a * kCap + heads_[a].n++] = start;
  }
  /// Whether agent a died in the last leg it ran.
  void set_dead(std::size_t a, bool dead) noexcept { heads_[a].dead = dead; }

  /// The op agent a left for its next pop, if any; the caller resets it
  /// when it takes it.
  std::optional<Pending>& pending(std::size_t a) noexcept {
    return pending_[a];
  }
  /// Agent a leaves `op` for its next pop.
  void leave(std::size_t a, Pending op) {
    list(a);
    pending_[a] = std::move(op);
  }

  /// Takes back every chained leg for which past(start) holds: it leaves
  /// *segments, and a death in the agent's last leg leaves *crashed.
  template <typename Past, typename Count>
  void settle(Past past, Count* segments, int* crashed) const {
    for (const std::uint32_t a : touched_) {
      const Head& h = heads_[a];
      const T* start = starts_.data() + std::size_t{a} * kCap;
      for (std::uint32_t j = 0; j < h.n; ++j) {
        if (!past(start[j])) continue;
        --*segments;
        if (j + 1 == h.n && h.dead) --*crashed;
      }
    }
  }

 private:
  struct Head {
    std::uint32_t n = 0;
    bool dead = false;
    bool listed = false;
  };

  void list(std::size_t a) {
    if (heads_[a].listed) return;
    heads_[a].listed = true;
    touched_.push_back(static_cast<std::uint32_t>(a));
  }

  std::vector<T> starts_;
  std::vector<Head> heads_;
  std::vector<std::optional<Pending>> pending_;
  std::vector<std::uint32_t> touched_;
};

}  // namespace ants::sim::batch
