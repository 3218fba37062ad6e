// Discrete power-law radius sampler: P(r) proportional to r^(-exponent) on
// r in [1, r_max].
//
// This is the distance distribution of the harmonic algorithm (Alg. 2 of the
// paper): p(u) = c / d(u)^(2+delta) over nodes u, and the L1 ring at radius r
// carries 4r nodes, so the radius law is P(r) proportional to r^(-(1+delta)).
//
// Sampling is exact (up to IEEE rounding in the octave weights): radii are
// grouped into octaves [2^o, 2^(o+1)); an octave is drawn by inversion over
// precomputed weights, then the radius inside the octave by uniform proposal
// + rejection with acceptance (2^o / r)^exponent, which is >= 2^-exponent.
// An octave's weight is its exact sum while the Euler-Maclaurin (E-M)
// remainder could matter, and the E-M-corrected integral from the octave
// start euler_maclaurin_start(exponent) on: the smallest power of two
// >= 2^10 where the remainder bound e(e+1)(e+2) lo^-(e+3) / 720 is at most
// 1e-13 of a full octave's weight. That start is 2^10 for exponents below
// about 2.4 and rises as the bound grows (about as e^4): 2^11 at 2.5 and 3,
// 2^12 at 6. A partial last octave's bound is at most 4 ln 2 times a full
// one's, and the integral's difference is taken without cancellation, so
// every weight is within 3e-13 relative (< 1e-12).
// The acceptance values of the proposals r < 1024 — where the heavy head of
// the law puts most draws — are tabled, computed by the same expression the
// sampler evaluates for larger r, so a draw costs a pow only past 1023 and
// the draws, their order and the radii are those of the untabled sampler.
//
// The octave table is a pure function of (exponent, r_max) and costs about
// 2^11 std::pow calls at the default r_max, tens of microseconds: one per
// term below the E-M start, five (and an expm1 and a log1p) per E-M
// octave, and the 1023 acceptance values. Each distinct pair is built once
// per process and shared by every law built on it: copies and repeat
// constructions are O(1).
//
// The truncation at r_max (default 2^45) is a simulation artifact, not a
// model change: a trip to radius r costs >= r steps, so every truncated
// sample lies beyond any experiment's time bound.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "rng/rng.h"

namespace ants::rng {

class DiscretePowerLaw {
 public:
  /// exponent > 1 so the untruncated series converges; r_max >= 1.
  explicit DiscretePowerLaw(double exponent,
                            std::int64_t r_max = std::int64_t{1} << 45);

  std::int64_t sample(Rng& rng) const;

  /// Normalized mass of radius r (0 outside [1, r_max]).
  double pmf(std::int64_t r) const;

  /// P(X <= r): the whole octaves below r from the table, the partial octave
  /// holding r term by term, so O(r - 2^floor(log2 r) + #octaves), up to
  /// 2^44 terms at the default r_max. Test helper.
  double cdf(std::int64_t r) const;

  double exponent() const { return exponent_; }
  std::int64_t r_max() const { return r_max_; }
  /// Unnormalized total weight sum_{r=1}^{r_max} r^-exponent.
  double total_weight() const { return table_->total; }

  struct OctaveTable {
    std::vector<std::int64_t> octave_lo;  // first radius of each octave
    std::vector<double> cum_weight;  // inclusive cumulative octave weights
    double total = 0;
    // accept[r] = (lo/r)^exponent, lo the first radius of r's octave, for
    // r in [1, min(r_max, kAcceptTabled - 1)]; accept[0] is unused.
    std::vector<double> accept;
  };

  /// One unmemoised table build; the constructor memoises its result per
  /// (exponent, r_max).
  static std::shared_ptr<const OctaveTable> build_table(double exponent,
                                                        std::int64_t r_max);
  /// sum_{r=lo}^{hi-1} r^-exponent as the table sums it, for hi <= 2 lo.
  static double octave_weight(double exponent, std::int64_t lo,
                              std::int64_t hi);
  /// First octave start whose weight is the E-M integral (see above).
  static std::int64_t euler_maclaurin_start(double exponent);

 private:
  static constexpr std::int64_t kAcceptTabled = 1024;

  double exponent_;
  std::int64_t r_max_;
  std::shared_ptr<const OctaveTable> table_;  // shared per (exponent, r_max)
};

}  // namespace ants::rng
