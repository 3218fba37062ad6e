// Competitive-curve analysis for the paper-claims tests: given
// measured competitiveness phi(k) at swept k values, quantify how phi grows
// — the quantity Theorems 3.3/4.1/4.2 are about.
#pragma once

#include <cstdint>
#include <vector>

#include "support/regression.h"

namespace ants::core {

/// One measured point of a competitiveness curve.
struct CompetitivePoint {
  std::int64_t k = 1;
  double phi = 0;
};

/// Fits phi(k) ~ a * (log2 k)^p over points with k >= 4 (smaller k make
/// log log k degenerate) and returns the fit in (p = slope) form.
/// Theorem 3.3 predicts p <= 1 + eps for A_uniform(eps); Theorem 4.1
/// predicts p > 1 for every uniform algorithm as k grows.
stats::LinearFit fit_log_exponent(const std::vector<CompetitivePoint>& curve);

/// phi / (log2 k)^power columns for the tables (clamps log2 k below 1).
double ratio_to_log_power(double phi, std::int64_t k, double power);

}  // namespace ants::core
