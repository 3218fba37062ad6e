// A winner tree over a clock array: the segment and plane loops' min-clock
// advance.
//
// Both loops pop the agent with the smallest clock, lowest index on ties —
// the reference executor's heap order. The tree has L leaves, L the next
// power of two >= n: leaf i is clock i, and the L - n padding leaves read as
// std::numeric_limits<T>::max(). Internal node p holds the index of the
// smallest clock under it, ties to the left child, so the root is the
// lowest index attaining the minimum: exactly a flat lowest-index argmin.
// A parked agent's clock (kNeverTime, which equals the int64 maximum, or
// kPlaneNever < DBL_MAX) loses to every live clock and never to padding,
// which sits to its right.
//
// build is O(L) once per trial; update(i) after clock i changes walks the
// log2 L levels above leaf i with one compare-select each.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace ants::sim::batch {

class MinTree {
 public:
  /// Builds the tree over the n >= 1 clocks in *clock and pads *clock to
  /// the leaf count with numeric_limits<T>::max().
  template <typename T>
  void build(std::vector<T>* clock) {
    std::size_t leaves = 1;
    while (leaves < clock->size()) leaves *= 2;
    clock->resize(leaves, std::numeric_limits<T>::max());
    node_.resize(2 * leaves);
    for (std::size_t i = 0; i < leaves; ++i) {
      node_[leaves + i] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t p = leaves - 1; p > 0; --p) pick(clock->data(), p);
  }

  /// The lowest index holding the smallest clock.
  std::size_t top() const noexcept { return node_[1]; }

  /// Restores the tree after clock[i] changed. The path's winner stays in
  /// registers; each level loads only the sibling's winner, which no other
  /// level writes, so the loads do not wait on one another, and the
  /// compare feeds masks rather than a branch on random clocks.
  template <typename T>
  void update(const std::vector<T>& clock, std::size_t i) noexcept {
    static_assert(sizeof(T) == sizeof(std::uint64_t));
    const T* c = clock.data();
    std::uint32_t w = static_cast<std::uint32_t>(i);
    T cw = c[i];
    for (std::size_t p = node_.size() / 2 + i; p > 1; p /= 2) {
      const std::uint32_t s = node_[p ^ 1];
      const T cs = c[s];
      // A left sibling (p odd) holds lower indices, so it wins ties.
      const bool take = (cs < cw) | ((cs == cw) & ((p & 1) != 0));
      const std::uint32_t m = 0u - static_cast<std::uint32_t>(take);
      const std::uint64_t mb = 0u - static_cast<std::uint64_t>(take);
      w = (s & m) | (w & ~m);
      cw = std::bit_cast<T>((std::bit_cast<std::uint64_t>(cs) & mb) |
                            (std::bit_cast<std::uint64_t>(cw) & ~mb));
      node_[p / 2] = w;
    }
  }

 private:
  template <typename T>
  void pick(const T* clock, std::size_t p) noexcept {
    const std::uint32_t l = node_[2 * p];
    const std::uint32_t r = node_[2 * p + 1];
    node_[p] = clock[r] < clock[l] ? r : l;
  }

  std::vector<std::uint32_t> node_;  ///< [1, L) internal, [L, 2L) leaves
};

}  // namespace ants::sim::batch
