// Ordinary least squares on (x, y) pairs, plus the log-log convenience
// wrapper the scaling claims use to extract empirical exponents
// (e.g. "does T(D, k) scale like D^2/k?" becomes "is the fitted log-log
// slope 2 in D and -1 in k?").
#pragma once

#include <cstddef>
#include <vector>

namespace ants::stats {

struct LinearFit {
  double slope = 0;
  double intercept = 0;
  double r_squared = 0;
  std::size_t n = 0;
};

/// OLS fit y ~ intercept + slope * x; requires >= 2 points and non-constant x.
LinearFit fit_linear(const std::vector<double>& x,
                     const std::vector<double>& y);

/// Fits y ~ c * x^p by OLS on (ln x, ln y); all inputs must be positive.
/// Returned slope is the exponent p, intercept is ln(c).
LinearFit fit_power_law(const std::vector<double>& x,
                        const std::vector<double>& y);

}  // namespace ants::stats
