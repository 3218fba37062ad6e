#include "rng/power_law.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace ants::rng {

namespace {

// Octaves starting below this are summed term by term at every exponent.
constexpr std::int64_t kMinEulerMaclaurinStart = 1024;
// Largest admitted bound on a full octave's Euler-Maclaurin remainder,
// relative to the octave's weight.
constexpr double kEulerMaclaurinTolerance = 1e-13;

double octave_weight_exact(double e, std::int64_t lo, std::int64_t hi) {
  // Terms are decreasing in r, so iterate from hi-1 down to lo to add the
  // tiny ones first (better rounding).
  double w = 0;
  for (std::int64_t r = hi - 1; r >= lo; --r) {
    w += std::pow(static_cast<double>(r), -e);
  }
  return w;
}

double octave_weight_integral(double e, std::int64_t lo, std::int64_t hi) {
  // Euler-Maclaurin: sum_{r=lo}^{hi-1} f(r)
  //   ~ int_lo^hi f + (f(lo) - f(hi))/2 + (f'(hi) - f'(lo))/12,
  // with f(x) = x^-e, f' = -e x^-(e+1). Every derivative of f is monotone
  // and alternates in sign, so the remainder is at most the first omitted
  // (B4) term, e(e+1)(e+2) (lo^-(e+3) - hi^-(e+3)) / 720.
  const auto f = [e](double x) { return std::pow(x, -e); };
  const auto fp = [e](double x) { return -e * std::pow(x, -(e + 1)); };
  const auto a = static_cast<double>(lo);
  const auto b = static_cast<double>(hi);
  // int_lo^hi f = lo^(1-e) (1 - (hi/lo)^(1-e)) / (e-1), the difference taken
  // by expm1/log1p so that a short partial octave loses no digits to it.
  const double integral =
      -std::pow(a, 1 - e) * std::expm1((1 - e) * std::log1p((b - a) / a)) /
      (e - 1);
  return integral + (f(a) - f(b)) / 2 + (fp(b) - fp(a)) / 12;
}

}  // namespace

std::int64_t DiscretePowerLaw::euler_maclaurin_start(double exponent) {
  // The full octave [lo, 2 lo) weighs at least its integral,
  // lo^(1-e) (1 - 2^(1-e)) / (e - 1), and its remainder is at most
  // e(e+1)(e+2) lo^-(e+3) / 720; their ratio falls as lo^-4, so the
  // tolerance holds from the first lo with lo^4 >= need on.
  const double e = exponent;
  const double need = e * (e + 1) * (e + 2) * (e - 1) /
                      (720 * (1 - std::exp2(1 - e)) * kEulerMaclaurinTolerance);
  std::int64_t lo = kMinEulerMaclaurinStart;
  while (lo < (std::int64_t{1} << 62)) {
    const auto a = static_cast<double>(lo);
    if (a * a * a * a >= need) break;
    lo <<= 1;
  }
  return lo;
}

double DiscretePowerLaw::octave_weight(double exponent, std::int64_t lo,
                                       std::int64_t hi) {
  return lo < euler_maclaurin_start(exponent)
             ? octave_weight_exact(exponent, lo, hi)
             : octave_weight_integral(exponent, lo, hi);
}

DiscretePowerLaw::DiscretePowerLaw(double exponent, std::int64_t r_max)
    : exponent_(exponent), r_max_(r_max) {
  if (!(exponent > 1.0)) {
    throw std::invalid_argument("power-law exponent must exceed 1");
  }
  if (r_max < 1) throw std::invalid_argument("power-law r_max must be >= 1");

  // Process-wide memo, never evicted: a run uses a handful of distinct
  // (exponent, r_max) pairs at under 1 KiB each. The build runs under the
  // lock, so concurrent first uses of one pair sum it once.
  static std::mutex mutex;
  static std::map<std::pair<double, std::int64_t>,
                  std::shared_ptr<const OctaveTable>>
      tables;
  const std::lock_guard<std::mutex> lock(mutex);
  std::shared_ptr<const OctaveTable>& slot = tables[{exponent_, r_max_}];
  if (slot == nullptr) slot = build_table(exponent_, r_max_);
  table_ = slot;
}

std::shared_ptr<const DiscretePowerLaw::OctaveTable>
DiscretePowerLaw::build_table(double exponent, std::int64_t r_max) {
  auto table = std::make_shared<OctaveTable>();
  for (std::int64_t lo = 1; lo <= r_max; lo <<= 1) {
    const std::int64_t hi = std::min(r_max + 1, lo << 1);  // [lo, hi)
    table->total += octave_weight(exponent, lo, hi);
    table->octave_lo.push_back(lo);
    table->cum_weight.push_back(table->total);
  }
  const std::int64_t tabled = std::min(r_max + 1, kAcceptTabled);
  table->accept.resize(static_cast<std::size_t>(tabled));
  for (std::int64_t lo = 1; lo < tabled; lo <<= 1) {
    for (std::int64_t r = lo; r < std::min(tabled, lo << 1); ++r) {
      table->accept[static_cast<std::size_t>(r)] =
          std::pow(static_cast<double>(lo) / r, exponent);
    }
  }
  return table;
}

std::int64_t DiscretePowerLaw::sample(Rng& rng) const {
  // Octave by inversion over the cumulative weights.
  const std::vector<double>& cum = table_->cum_weight;
  const double u = rng.uniform_unit() * table_->total;
  const auto it = std::lower_bound(cum.begin(), cum.end(), u);
  const std::size_t o = it == cum.end()
                            ? cum.size() - 1
                            : static_cast<std::size_t>(it - cum.begin());
  const std::int64_t lo = table_->octave_lo[o];
  const std::int64_t hi = std::min(r_max_ + 1, lo << 1);

  // Radius inside the octave by rejection: proposal uniform on [lo, hi),
  // acceptance (lo/r)^e in (2^-e, 1]. Expected iterations < 2^e.
  const std::vector<double>& tabled = table_->accept;
  for (;;) {
    const std::int64_t r = lo + static_cast<std::int64_t>(rng.uniform_u64(
                                    static_cast<std::uint64_t>(hi - lo)));
    const double accept =
        r < kAcceptTabled ? tabled[static_cast<std::size_t>(r)]
                          : std::pow(static_cast<double>(lo) / r, exponent_);
    if (rng.uniform_unit() < accept) return r;
  }
}

double DiscretePowerLaw::pmf(std::int64_t r) const {
  if (r < 1 || r > r_max_) return 0;
  return std::pow(static_cast<double>(r), -exponent_) / table_->total;
}

double DiscretePowerLaw::cdf(std::int64_t r) const {
  if (r < 1) return 0;
  r = std::min(r, r_max_);
  double acc = 0;
  // Whole octaves below r from the precomputed table, partial octave exactly.
  const OctaveTable& table = *table_;
  std::size_t o = 0;
  while (o < table.octave_lo.size()) {
    const std::int64_t lo = table.octave_lo[o];
    const std::int64_t hi = std::min(r_max_ + 1, lo << 1);
    if (hi - 1 <= r) {
      acc = table.cum_weight[o];
      ++o;
    } else {
      for (std::int64_t q = lo; q <= r; ++q) {
        acc += std::pow(static_cast<double>(q), -exponent_);
      }
      break;
    }
  }
  return acc / table.total;
}

}  // namespace ants::rng
