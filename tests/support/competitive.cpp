#include "support/competitive.h"

#include <cmath>
#include <stdexcept>

#include "sim/metrics.h"

namespace ants::core {

stats::LinearFit fit_log_exponent(const std::vector<CompetitivePoint>& curve) {
  std::vector<double> x, y;
  for (const auto& pt : curve) {
    if (pt.k < 4 || pt.phi <= 0) continue;
    x.push_back(std::log(std::log2(static_cast<double>(pt.k))));
    y.push_back(std::log(pt.phi));
  }
  if (x.size() < 2) {
    throw std::invalid_argument("fit_log_exponent: need >= 2 points k >= 4");
  }
  return stats::fit_linear(x, y);
}

double ratio_to_log_power(double phi, std::int64_t k, double power) {
  return phi / sim::log_power(k, power);
}

}  // namespace ants::core
