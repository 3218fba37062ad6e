// The vectorizable primitives of the batch trial executor, as a function
// table selected by SIMD level (simd.h).
//
// Each kernel is a pure array operation over the batch runner's
// struct-of-arrays state. The entries the executor calls have scalar and
// AVX2 implementations that are RESULT-identical by construction:
//
//   * find_point returns the first index whose (x, y) pair equals the
//     probe — exactly the lock-step backend's in-order occupancy scan.
//   * line_candidates evaluates, per target, the same IEEE expression tree
//     the scalar sight test (plane::line_first_sighting) starts with — no
//     FMA contraction, same operation order — so the candidate set equals
//     the set the scalar loop would shortlist; every candidate is then
//     re-checked by the scalar test, making the prefilter byte-safe.
//   * the step kernels (step_random, step_biased) advance the listed lanes
//     of a StepLanes by one tick, each lane drawing from its own
//     xoshiro256** stream exactly as the scalar loop does. At AVX2 every
//     run of 4 consecutive listed lanes is one vector: xoshiro's x5 and x9
//     are shift-adds, the 53-bit uniform converts to double exactly through
//     the 2^52 / 2^84 exponent trick, and the biased walk's second draw is
//     blended in only on the lanes whose scalar short-circuit draws it.
//     Every other lane takes the scalar kernel. Lanes never interact, so
//     how a list splits into vectors changes no draw.
//
// BatchRunner calls find_point (lock-step occupancy over the targets of a
// static slot with eight or more; the dynamic loop's pass over its
// live-target list also measures the nearest distance, so it runs one
// scalar loop) and line_candidates (plane). random-walk and biased-walk
// call their step kernel at StepLanes::level, which BatchRunner sets to its
// own level.
//
// The other six entries run on no executor path and are scalar at every
// level; they stay in the table only because perfbench's replay times them
// through it and sim_batch_test pins their contracts:
//   * argmin_i64 and argmin_f64 return the lowest index attaining the
//     minimum — the segment and plane min-clock advance is a winner tree
//     (min_tree.h), O(log k) per pop where a rescan is O(k);
//   * window_gate, find_point_gated, drift_positions and dwell_advance
//     compute the per-target window/drift/dwell tests of the scalar
//     lock-step loop (tests/support/reference_trial.cpp) over a whole
//     target block — the dynamic lock-step loop walks a short live-target
//     list instead.
//
// Kernels never allocate and have no internal state; the dispatch level is
// chosen per block by the runner via kernels_for(active_simd_level()).
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/batch/simd.h"
#include "sim/step_engine.h"

namespace ants::sim::batch {

inline constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// The biased walk's move law (baselines/biased_walk.h), as its step kernel
/// reads it. weight[mask][d] is 1 + bias when direction d moves outward
/// (bit d of the outward mask set) and 1 - bias otherwise; total[mask] is
/// their sum in direction order.
struct BiasedWalkTable {
  std::uint64_t persist_threshold;  ///< rng::bernoulli_threshold(persistence)
  const double (*weight)[4];        ///< [16][4]
  const double* total;              ///< [16]
};

struct Kernels {
  SimdLevel level = SimdLevel::kScalar;

  /// Index of the minimum of v[0..n), lowest index on ties. n >= 1.
  std::size_t (*argmin_i64)(const std::int64_t* v, std::size_t n);
  std::size_t (*argmin_f64)(const double* v, std::size_t n);

  /// First i with xs[i] == x && ys[i] == y, else kNpos.
  std::size_t (*find_point)(const std::int64_t* xs, const std::int64_t* ys,
                            std::size_t n, std::int64_t x, std::int64_t y);

  /// Sight-disc prefilter for a unit-direction line move from (fx, fy):
  /// writes the indices (ascending) of every target that could be sighted —
  /// start inside the disc (|w|^2 <= eps^2) or nonnegative quadratic
  /// discriminant ((w.u)^2 - (|w|^2 - eps^2) >= 0) — and returns the count.
  /// `out` must have room for n entries. Callers re-check candidates with
  /// plane::line_first_sighting (range test included there).
  std::size_t (*line_candidates)(const double* tx, const double* ty,
                                 std::size_t n, double fx, double fy,
                                 double ux, double uy, double eps,
                                 std::uint32_t* out);

  /// out[i] = 1 iff appear[i] <= t && t < vanish[i], else 0 — the scalar
  /// lock-step loop's per-target liveness test over the whole target block.
  void (*window_gate)(const double* appear, const double* vanish,
                      std::size_t n, double t, char* out);

  /// First i with gate[i] != 0 && xs[i] == x && ys[i] == y, else kNpos —
  /// find_point restricted to targets whose gate byte is set (alive and not
  /// yet found).
  std::size_t (*find_point_gated)(const std::int64_t* xs,
                                  const std::int64_t* ys, const char* gate,
                                  std::size_t n, std::int64_t x,
                                  std::int64_t y);

  /// ox[i] = bx[i] + llround(vx[i] * t) (likewise oy) — drifted-target
  /// positions at tick t.
  void (*drift_positions)(const std::int64_t* bx, const std::int64_t* by,
                          const double* vx, const double* vy, std::size_t n,
                          double t, std::int64_t* ox, std::int64_t* oy);

  /// Dwell-contact advance for one agent standing at (x, y): per target i,
  /// held[i] <- held[i] + 1 when alive[i] && |tx[i]-x| + |ty[i]-y| <= 1,
  /// else 0. Writes the indices (ascending) of every confirmable target
  /// (found[i] == 0 && held[i] >= need) to `out`, returns the count. `out`
  /// must have room for n entries. (held of already-found targets keeps
  /// advancing where the scalar loop freezes it — unobservable, since
  /// confirmation excludes them and nothing else reads held.)
  std::size_t (*dwell_advance)(const std::int64_t* tx, const std::int64_t* ty,
                               const char* alive, const char* found,
                               std::size_t n, std::int64_t x, std::int64_t y,
                               std::int64_t* held, std::int64_t need,
                               std::uint32_t* out);

  /// One tick of the simple random walk on lanes idx[0..n) (distinct,
  /// ascending): each draws one direction from its own stream and moves.
  void (*step_random)(StepLanes& lanes, const std::uint32_t* idx,
                      std::size_t n);

  /// One tick of the biased walk on lanes idx[0..n) (distinct, ascending).
  /// The program word is the last move's direction in bits 0-1 plus bit 2
  /// once the lane has moved. A lane that has moved repeats its last move
  /// on a Bernoulli(persistence) draw; otherwise (or on a first move) it
  /// draws u and takes the first direction whose weight exceeds what is
  /// left of u * total[mask] after the weights before it.
  void (*step_biased)(StepLanes& lanes, const std::uint32_t* idx,
                      std::size_t n, const BiasedWalkTable& table);
};

/// The kernel table for `level` (clamping is the caller's concern; passing
/// an unsupported level returns that level's table regardless — only tests
/// that bypass active_simd_level() can do this, on hardware they control).
const Kernels& kernels_for(SimdLevel level) noexcept;

}  // namespace ants::sim::batch
