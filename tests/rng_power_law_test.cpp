#include "rng/power_law.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/regression.h"

namespace ants::rng {
namespace {

TEST(PowerLaw, RejectsBadParameters) {
  EXPECT_THROW(DiscretePowerLaw(1.0), std::invalid_argument);
  EXPECT_THROW(DiscretePowerLaw(0.5), std::invalid_argument);
  EXPECT_THROW(DiscretePowerLaw(1.5, 0), std::invalid_argument);
}

TEST(PowerLaw, PmfNormalizesOnSmallSupport) {
  const DiscretePowerLaw law(1.5, 1000);
  double total = 0;
  for (std::int64_t r = 1; r <= 1000; ++r) total += law.pmf(r);
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_EQ(law.pmf(0), 0.0);
  EXPECT_EQ(law.pmf(1001), 0.0);
}

TEST(PowerLaw, PmfMatchesDirectRatio) {
  const DiscretePowerLaw law(2.0, 100);
  // p(r) / p(1) = r^-2 exactly.
  for (std::int64_t r = 1; r <= 100; ++r) {
    EXPECT_NEAR(law.pmf(r) / law.pmf(1), std::pow(r, -2.0), 1e-12);
  }
}

TEST(PowerLaw, CdfMonotoneAndComplete) {
  const DiscretePowerLaw law(1.3, 4096);
  double prev = 0;
  for (std::int64_t r = 1; r <= 4096; r = r * 2) {
    const double c = law.cdf(r);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_NEAR(law.cdf(4096), 1.0, 1e-9);
  EXPECT_EQ(law.cdf(0), 0.0);
}

TEST(PowerLaw, CdfAgreesWithPmfSums) {
  const DiscretePowerLaw law(1.7, 500);
  double acc = 0;
  for (std::int64_t r = 1; r <= 500; ++r) {
    acc += law.pmf(r);
    if (r % 37 == 0) {
      EXPECT_NEAR(law.cdf(r), acc, 1e-10) << r;
    }
  }
}

TEST(PowerLaw, SamplesRespectSupport) {
  const DiscretePowerLaw law(1.5, 64);
  Rng rng(100);
  for (int i = 0; i < 20000; ++i) {
    const std::int64_t r = law.sample(rng);
    EXPECT_GE(r, 1);
    EXPECT_LE(r, 64);
  }
}

TEST(PowerLaw, SamplingMatchesPmfOnSmallSupport) {
  // Frequency check against the exact pmf: n * p(r) +- 5 sigma.
  const DiscretePowerLaw law(1.5, 32);
  Rng rng(101);
  const int n = 300000;
  std::map<std::int64_t, int> counts;
  for (int i = 0; i < n; ++i) ++counts[law.sample(rng)];
  for (std::int64_t r = 1; r <= 32; ++r) {
    const double expect = n * law.pmf(r);
    const double sigma = std::sqrt(expect * (1 - law.pmf(r)));
    EXPECT_NEAR(counts[r], expect, 5 * sigma + 1) << "r=" << r;
  }
}

TEST(PowerLaw, EmpiricalTailExponent) {
  // Survival function of samples should decay with exponent ~ -(e-1).
  const DiscretePowerLaw law(1.6, std::int64_t{1} << 30);
  Rng rng(102);
  const int n = 200000;
  std::vector<std::int64_t> samples;
  samples.reserve(n);
  for (int i = 0; i < n; ++i) samples.push_back(law.sample(rng));

  std::vector<double> xs, survival;
  for (std::int64_t threshold = 2; threshold <= 512; threshold *= 2) {
    int count = 0;
    for (const auto s : samples) count += (s > threshold) ? 1 : 0;
    if (count > 50) {
      xs.push_back(static_cast<double>(threshold));
      survival.push_back(static_cast<double>(count) / n);
    }
  }
  ASSERT_GE(xs.size(), 4u);
  const auto fit = stats::fit_power_law(xs, survival);
  EXPECT_NEAR(fit.slope, -0.6, 0.1);
  EXPECT_GT(fit.r_squared, 0.98);
}

/// Neumaier's compensated sum: the reference the Euler-Maclaurin octaves
/// are checked against.
class CompensatedSum {
 public:
  void add(double term) {
    const double next = sum_ + term;
    comp_ += std::abs(sum_) >= std::abs(term) ? (sum_ - next) + term
                                              : (term - next) + sum_;
    sum_ = next;
  }
  double value() const { return sum_ + comp_; }

 private:
  double sum_ = 0;
  double comp_ = 0;
};

/// sum_{r=lo}^{hi-1} r^-e term by term, compensated.
double compensated_sum(double e, std::int64_t lo, std::int64_t hi) {
  CompensatedSum sum;
  for (std::int64_t r = lo; r < hi; ++r) {
    sum.add(std::pow(static_cast<double>(r), -e));
  }
  return sum.value();
}

TEST(PowerLaw, OctaveWeightsConsistentAcrossExactIntegralBoundary) {
  // At exponent 1.4 the octaves below 2^10 are summed exactly and those
  // from 2^10 on by Euler-Maclaurin; r_max 2^16 puts six E-M octaves and a
  // one-radius octave after the exact ones.
  ASSERT_EQ(DiscretePowerLaw::euler_maclaurin_start(1.4), 1024);
  const DiscretePowerLaw small(1.4, std::int64_t{1} << 16);
  const DiscretePowerLaw large(1.4, std::int64_t{1} << 26);
  // Ratios p(r)/p(1) are truncation-independent.
  for (const std::int64_t r :
       {std::int64_t{2}, std::int64_t{64}, std::int64_t{1023},
        std::int64_t{1024}, std::int64_t{1} << 15}) {
    EXPECT_NEAR(small.pmf(r) / small.pmf(1), large.pmf(r) / large.pmf(1),
                1e-12);
  }
  // The total across the boundary is the term-by-term sum.
  EXPECT_NEAR(small.total_weight() / compensated_sum(1.4, 1, (1 << 16) + 1),
              1.0, 1e-12);
  // Total weights differ only by the (tiny) tail beyond 2^16.
  EXPECT_GT(large.total_weight(), small.total_weight());
  EXPECT_NEAR(large.total_weight() / small.total_weight(), 1.0, 1e-2);
}

TEST(PowerLaw, EulerMaclaurinOctavesMatchCompensatedSums) {
  // Every octave the table weighs by Euler-Maclaurin, from the exponent's
  // E-M start through [2^23, 2^24), and partial octaves of 1, 7 and a third
  // of lo terms, is within 1e-12 relative of the term-by-term compensated
  // sum. A full octave's even terms (2j)^-e = 2^-e j^-e sum to 2^-e times
  // the octave below's reference, so only its odd terms take a pow (a few
  // ulp of reference error, far below the bound): about 2^23 pows per
  // exponent, one thread per exponent.
  constexpr double kBound = 1e-12;
  const std::vector<double> exponents = {1.05, 1.1, 1.5, 1.8, 2.0, 3.0, 6.0};
  std::vector<double> worst(exponents.size(), 0);
  std::vector<std::int64_t> checked(exponents.size(), 0);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < exponents.size(); ++i) {
    threads.emplace_back([&, i] {
      const double e = exponents[i];
      const auto check = [&](std::int64_t lo, std::int64_t hi, double exact) {
        const double rel =
            std::abs(DiscretePowerLaw::octave_weight(e, lo, hi) - exact) /
            exact;
        worst[i] = std::max(worst[i], rel);
        ++checked[i];
      };
      const std::int64_t start = DiscretePowerLaw::euler_maclaurin_start(e);
      check(start, start + start / 3,
            compensated_sum(e, start, start + start / 3));
      double below = compensated_sum(e, start / 2, start);
      for (std::int64_t lo = start; lo < (std::int64_t{1} << 24); lo <<= 1) {
        check(lo, lo + 1, compensated_sum(e, lo, lo + 1));
        check(lo, lo + 7, compensated_sum(e, lo, lo + 7));
        CompensatedSum octave;
        octave.add(std::exp2(-e) * below);
        for (std::int64_t r = lo + 1; r < lo << 1; r += 2) {
          octave.add(std::pow(static_cast<double>(r), -e));
        }
        below = octave.value();
        check(lo, lo << 1, below);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t i = 0; i < exponents.size(); ++i) {
    EXPECT_GE(checked[i], 30) << exponents[i];
    EXPECT_LE(worst[i], kBound) << exponents[i];
  }
}

TEST(PowerLaw, EulerMaclaurinStartGrowsWithTheExponent) {
  EXPECT_EQ(DiscretePowerLaw::euler_maclaurin_start(1.05), 1024);
  EXPECT_EQ(DiscretePowerLaw::euler_maclaurin_start(1.5), 1024);
  EXPECT_EQ(DiscretePowerLaw::euler_maclaurin_start(2.0), 1024);
  EXPECT_EQ(DiscretePowerLaw::euler_maclaurin_start(3.0), 2048);
  EXPECT_EQ(DiscretePowerLaw::euler_maclaurin_start(6.0), 4096);
}

TEST(PowerLaw, HarmonicRadiusLawExponent) {
  // The harmonic algorithm uses exponent 1 + delta; sanity-check the mean
  // trip radius is finite/infinite as theory predicts: for exponent 1.8
  // (delta = 0.8) the mean over a big support converges to a small value.
  const DiscretePowerLaw law(1.8, std::int64_t{1} << 40);
  Rng rng(103);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(law.sample(rng));
  }
  EXPECT_LT(sum / n, 50.0);  // E[r] = zeta-ish constant, well under 50
}

/// The sampler before the acceptance table: every proposal's acceptance is a
/// pow, and the octave weights are summed here as the law's table sums them:
/// exactly below the exponent's Euler-Maclaurin start, by E-M from it on.
class PlainPowerLaw {
 public:
  PlainPowerLaw(double e, std::int64_t r_max) : e_(e), r_max_(r_max) {
    const std::int64_t em_start = DiscretePowerLaw::euler_maclaurin_start(e);
    for (std::int64_t lo = 1; lo <= r_max_; lo <<= 1) {
      const std::int64_t hi = std::min(r_max_ + 1, lo << 1);
      total_ += lo < em_start ? exact(lo, hi) : integral(lo, hi);
      lo_.push_back(lo);
      cum_.push_back(total_);
    }
  }

  double total() const { return total_; }

  std::int64_t sample(Rng& rng) const {
    const double u = rng.uniform_unit() * total_;
    const auto it = std::lower_bound(cum_.begin(), cum_.end(), u);
    const std::size_t o = it == cum_.end()
                              ? cum_.size() - 1
                              : static_cast<std::size_t>(it - cum_.begin());
    const std::int64_t lo = lo_[o];
    const std::int64_t hi = std::min(r_max_ + 1, lo << 1);
    for (;;) {
      const std::int64_t r = lo + static_cast<std::int64_t>(rng.uniform_u64(
                                      static_cast<std::uint64_t>(hi - lo)));
      const double accept = std::pow(static_cast<double>(lo) / r, e_);
      if (rng.uniform_unit() < accept) return r;
    }
  }

 private:
  double exact(std::int64_t lo, std::int64_t hi) const {
    double w = 0;
    for (std::int64_t r = hi - 1; r >= lo; --r) {
      w += std::pow(static_cast<double>(r), -e_);
    }
    return w;
  }

  double integral(std::int64_t lo, std::int64_t hi) const {
    const double e = e_;
    const auto f = [e](double x) { return std::pow(x, -e); };
    const auto fp = [e](double x) { return -e * std::pow(x, -(e + 1)); };
    const auto a = static_cast<double>(lo);
    const auto b = static_cast<double>(hi);
    const double integral = -std::pow(a, 1 - e) *
                            std::expm1((1 - e) * std::log1p((b - a) / a)) /
                            (e - 1);
    return integral + (f(a) - f(b)) / 2 + (fp(b) - fp(a)) / 12;
  }

  double e_;
  std::int64_t r_max_;
  double total_ = 0;
  std::vector<std::int64_t> lo_;
  std::vector<double> cum_;
};

TEST(PowerLaw, TabledAcceptanceDrawsThePlainSamplersRadii) {
  // Draw for draw from one seed: the same radii in the same order, and the
  // rngs left in the same state. r_max 1023/1024/1025 put the table's last
  // entry, the first untabled octave and a one-radius octave at the edge.
  for (const double e : {1.1, 1.5, 2.5}) {
    for (const std::int64_t r_max :
         {std::int64_t{1}, std::int64_t{2}, std::int64_t{1023},
          std::int64_t{1024}, std::int64_t{1025}, std::int64_t{1} << 45}) {
      const DiscretePowerLaw law(e, r_max);
      const PlainPowerLaw plain(e, r_max);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(law.total_weight()),
                std::bit_cast<std::uint64_t>(plain.total()))
          << e << " " << r_max;
      Rng rng_law(2025), rng_plain(2025);
      std::int64_t past_table = 0;
      for (int i = 0; i < 100000; ++i) {
        const std::int64_t r = law.sample(rng_law);
        ASSERT_EQ(r, plain.sample(rng_plain)) << e << " " << r_max << " " << i;
        past_table += r >= 1024;
      }
      EXPECT_EQ(rng_law.uniform_u64(~std::uint64_t{0}),
                rng_plain.uniform_u64(~std::uint64_t{0}));
      // The untabled pow branch runs too (P(r >= 1024) is ~1e-5 at 2.5).
      if (r_max == (std::int64_t{1} << 45) && e < 2.0) {
        EXPECT_GT(past_table, 0) << e;
      }
    }
  }
}

/// Everything observable about a law, doubles as bit patterns so equality
/// is bit-for-bit: the total weight, pmf and cdf at probe radii, and a
/// 10^4-draw sample stream from a fixed seed.
struct LawSignature {
  std::vector<std::uint64_t> weights;
  std::vector<std::int64_t> samples;
  bool operator==(const LawSignature&) const = default;
};

LawSignature signature_of(const DiscretePowerLaw& law) {
  LawSignature sig;
  sig.weights.push_back(std::bit_cast<std::uint64_t>(law.total_weight()));
  for (const std::int64_t r : {std::int64_t{1}, std::int64_t{7},
                               std::int64_t{3000}, std::int64_t{1} << 17,
                               law.r_max()}) {
    sig.weights.push_back(std::bit_cast<std::uint64_t>(law.pmf(r)));
    sig.weights.push_back(std::bit_cast<std::uint64_t>(law.cdf(r)));
  }
  Rng rng(104);
  for (int i = 0; i < 10000; ++i) sig.samples.push_back(law.sample(rng));
  return sig;
}

TEST(PowerLaw, MemoisedTablesAreBitIdenticalAcrossBuildsAndThreads) {
  // Octave tables are memoised per (exponent, r_max) for the whole process.
  // Exponents no other test here uses, so the first serial build below is
  // the one that sums the table; r_max 2^20 ends on an Euler-Maclaurin
  // octave, 2^45 is the harmonic default.
  const std::vector<double> exponents = {1.31, 1.57, 1.83};
  const std::vector<std::int64_t> r_maxes = {std::int64_t{1} << 20,
                                             std::int64_t{1} << 45};
  std::vector<LawSignature> first;
  for (const double e : exponents) {
    for (const std::int64_t r_max : r_maxes) {
      first.push_back(signature_of(DiscretePowerLaw(e, r_max)));
    }
  }
  const auto all_match = [&](std::size_t* mismatches) {
    std::size_t i = 0;
    for (const double e : exponents) {
      for (const std::int64_t r_max : r_maxes) {
        const DiscretePowerLaw law(e, r_max);
        const DiscretePowerLaw copy = law;
        if (!(signature_of(law) == first[i])) ++*mismatches;
        if (!(signature_of(copy) == first[i])) ++*mismatches;
        ++i;
      }
    }
  };
  std::size_t serial_mismatches = 0;
  all_match(&serial_mismatches);
  EXPECT_EQ(serial_mismatches, 0u);

  // Eight threads at once: every one rebuilds the six memoised laws, and
  // all race on the first build of a pair nobody has built yet.
  constexpr int kThreads = 8;
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<LawSignature> fresh(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      fresh[t] = signature_of(DiscretePowerLaw(1.77, std::int64_t{1} << 30));
      all_match(&mismatches[t]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
    EXPECT_TRUE(fresh[t] == fresh[0]) << "thread " << t;
  }
}

}  // namespace
}  // namespace ants::rng
