#include "support/regression.h"

#include <cmath>
#include <stdexcept>

namespace ants::stats {

LinearFit fit_linear(const std::vector<double>& x,
                     const std::vector<double>& y) {
  if (x.size() != y.size()) throw std::invalid_argument("size mismatch");
  if (x.size() < 2) throw std::invalid_argument("need >= 2 points");
  const auto n = static_cast<double>(x.size());

  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
  }
  const double mx = sx / n;
  const double my = sy / n;

  double sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx == 0) throw std::invalid_argument("x is constant");

  LinearFit fit;
  fit.n = x.size();
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r_squared = syy == 0 ? 1.0 : (sxy * sxy) / (sxx * syy);
  return fit;
}

LinearFit fit_power_law(const std::vector<double>& x,
                        const std::vector<double>& y) {
  if (x.size() != y.size()) throw std::invalid_argument("size mismatch");
  std::vector<double> lx, ly;
  lx.reserve(x.size());
  ly.reserve(y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] <= 0 || y[i] <= 0) {
      throw std::invalid_argument("power-law fit needs positive data");
    }
    lx.push_back(std::log(x[i]));
    ly.push_back(std::log(y[i]));
  }
  return fit_linear(lx, ly);
}

}  // namespace ants::stats
