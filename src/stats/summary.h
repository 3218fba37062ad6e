// Descriptive statistics for Monte-Carlo trial results.
//
// Two entry points: Accumulator for streaming (Welford) aggregation inside
// the runner, and Summary::from for a full vector when quantiles are needed.
// Heavy-tailed experiments (harmonic algorithm) must report medians and
// quantiles, not just means: one harmonic trip's cost has infinite
// expectation, so a sample mean never settles. Summary therefore always
// carries order statistics.
#pragma once

#include <cstddef>
#include <vector>

namespace ants::stats {

/// Welford online mean/variance; numerically stable for any trial count.
class Accumulator {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance (0 for fewer than two samples).
  double variance() const noexcept;
  double stddev() const noexcept;
  /// Standard error of the mean.
  double std_error() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
};

struct Summary {
  std::size_t n = 0;
  double mean = 0;
  double stddev = 0;
  double std_error = 0;
  double min = 0;
  double max = 0;
  double median = 0;
  double q25 = 0;
  double q75 = 0;
  double q95 = 0;

  /// Half-width of the normal-approximation 95% confidence interval of the
  /// mean (1.96 * std_error).
  double ci95_half() const noexcept { return 1.96 * std_error; }

  /// Builds the summary; sorts a copy of the samples for the quantiles.
  static Summary from(std::vector<double> samples);
};

/// Linear-interpolation quantile of a SORTED sample, q in [0, 1].
double quantile_sorted(const std::vector<double>& sorted, double q);

}  // namespace ants::stats
