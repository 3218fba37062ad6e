// Sparse set of visited grid nodes.
//
// Only visitation accounting over dyadic annuli (the E4 claims) and the
// baseline tests materialize visits; the paper algorithms are simulated
// analytically. Points are packed into 64-bit keys,
// which requires |coords| < 2^31 — always true within the bounded horizons
// these consumers run under (asserted).
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_set>

#include "grid/point.h"

namespace ants::grid {

class VisitedSet {
 public:
  VisitedSet() = default;

  /// Marks p visited; returns true iff p was new.
  bool insert(Point p);

  bool contains(Point p) const;

  /// Number of distinct nodes visited.
  std::size_t size() const noexcept { return set_.size(); }

  void clear() { set_.clear(); }

  /// Reserve capacity for an expected number of distinct nodes.
  void reserve(std::size_t n) { set_.reserve(n); }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const std::uint64_t key : set_) fn(unpack(key));
  }

 private:
  static Point unpack(std::uint64_t key) noexcept {
    return {static_cast<std::int32_t>(key >> 32),
            static_cast<std::int32_t>(key & 0xFFFFFFFFULL)};
  }

  struct KeyHash {
    std::size_t operator()(std::uint64_t z) const noexcept {
      z += 0x9E3779B97F4A7C15ULL;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      return static_cast<std::size_t>(z ^ (z >> 31));
    }
  };

  std::unordered_set<std::uint64_t, KeyHash> set_;
};

}  // namespace ants::grid
