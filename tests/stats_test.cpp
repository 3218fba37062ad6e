#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "rng/rng.h"
#include "stats/histogram.h"
#include "stats/summary.h"
#include "support/regression.h"

namespace ants::stats {
namespace {

TEST(Accumulator, MeanVarianceMinMax) {
  Accumulator acc;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_NEAR(acc.std_error(), acc.stddev() / std::sqrt(8.0), 1e-12);
}

TEST(Accumulator, SingleAndEmpty) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  acc.add(3.5);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.5);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, NumericallyStableAroundLargeOffset) {
  Accumulator acc;
  const double offset = 1e12;
  for (int i = 0; i < 1000; ++i) acc.add(offset + (i % 2 ? 1.0 : -1.0));
  EXPECT_NEAR(acc.mean(), offset, 1e-2);
  EXPECT_NEAR(acc.variance(), 1.001, 0.01);
}

TEST(Summary, QuantilesOfKnownVector) {
  const Summary s = Summary::from({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(s.median, 5.5);
  EXPECT_DOUBLE_EQ(s.q25, 3.25);
  EXPECT_DOUBLE_EQ(s.q75, 7.75);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 10);
  EXPECT_DOUBLE_EQ(s.mean, 5.5);
  EXPECT_EQ(s.n, 10u);
}

TEST(Summary, CI95HalfWidth) {
  const Summary s = Summary::from({1, 2, 3, 4, 5});
  EXPECT_NEAR(s.ci95_half(), 1.96 * s.std_error, 1e-12);
}

TEST(Summary, EmptyIsAllZero) {
  const Summary s = Summary::from({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0);
}

TEST(QuantileSorted, InterpolatesLinearly) {
  const std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.0), 0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 1.0), 10);
  EXPECT_DOUBLE_EQ(quantile_sorted({42}, 0.5), 42);
}

TEST(Regression, RecoversExactLine) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y;
  for (const double xi : x) y.push_back(3.0 * xi - 2.0);
  const LinearFit fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 3.0, 1e-12);
  EXPECT_NEAR(fit.intercept, -2.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Regression, NoisyLineApproximate) {
  rng::Rng rng(99);
  std::vector<double> x, y;
  for (int i = 0; i < 2000; ++i) {
    const double xi = static_cast<double>(i) / 100;
    x.push_back(xi);
    y.push_back(2.5 * xi + 1.0 + (rng.uniform_unit() - 0.5));
  }
  const LinearFit fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 2.5, 0.02);
  EXPECT_NEAR(fit.intercept, 1.0, 0.2);
  EXPECT_GT(fit.r_squared, 0.99);
}

TEST(Regression, PowerLawExponent) {
  std::vector<double> x, y;
  for (double xi = 1; xi <= 1024; xi *= 2) {
    x.push_back(xi);
    y.push_back(5.0 * std::pow(xi, 1.7));
  }
  const LinearFit fit = fit_power_law(x, y);
  EXPECT_NEAR(fit.slope, 1.7, 1e-10);
  EXPECT_NEAR(std::exp(fit.intercept), 5.0, 1e-9);
}

TEST(Regression, Validation) {
  EXPECT_THROW(fit_linear({1}, {1}), std::invalid_argument);
  EXPECT_THROW(fit_linear({1, 2}, {1}), std::invalid_argument);
  EXPECT_THROW(fit_linear({2, 2, 2}, {1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(fit_power_law({1, -2}, {1, 2}), std::invalid_argument);
  EXPECT_THROW(fit_power_law({1, 2}, {0, 2}), std::invalid_argument);
}

TEST(Histogram, BinningAndEdges) {
  Histogram h(0, 10, 5);
  h.add(0);     // bin 0
  h.add(1.99);  // bin 0
  h.add(2);     // bin 1
  h.add(9.99);  // bin 4
  h.add(10);    // overflow -> bin 4
  h.add(-1);    // underflow -> bin 0
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.count(0), 3u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
}

TEST(Histogram, RenderContainsBars) {
  Histogram h(0, 4, 2);
  for (int i = 0; i < 8; ++i) h.add(1.0);
  h.add(3.0);
  const std::string out = h.render(10);
  EXPECT_NE(out.find("##########"), std::string::npos);  // peak bin
  EXPECT_NE(out.find('\n'), std::string::npos);
}

TEST(Histogram, Validation) {
  EXPECT_THROW(Histogram(1, 1, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0, 1, 0), std::invalid_argument);
}

TEST(Histogram, EmptyRenderSaysEmptyAndQuantileIsNaN) {
  const Histogram h(0, 10, 5);
  EXPECT_EQ(h.render(), "(empty: 0 samples)\n");
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
}

TEST(Histogram, RenderAnnotatesSaturation) {
  Histogram h(0, 4, 2);
  h.add(1);
  h.add(-5);  // saturates into bin 0
  h.add(99);  // saturates into bin 1
  const std::string out = h.render(10);
  EXPECT_NE(out.find("saturated: 1 below lo, 1 at/above hi"),
            std::string::npos);
}

TEST(Histogram, QuantileInterpolatesWithinBins) {
  // 100 samples spread uniformly over [0, 10): quantiles track p * 10 to
  // within one bin width.
  Histogram h(0, 10, 10);
  for (int i = 0; i < 100; ++i) h.add(i / 10.0);
  EXPECT_NEAR(h.quantile(0.5), 5.0, 1.0);
  EXPECT_NEAR(h.quantile(0.9), 9.0, 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
  EXPECT_THROW(h.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW(h.quantile(1.1), std::invalid_argument);
}

TEST(Histogram, QuantileOnPointMass) {
  Histogram h(0, 10, 10);
  for (int i = 0; i < 7; ++i) h.add(3.5);  // all in bin 3 = [3, 4)
  EXPECT_GE(h.quantile(0.5), 3.0);
  EXPECT_LE(h.quantile(0.5), 4.0);
  EXPECT_GE(h.quantile(0.99), 3.0);
  EXPECT_LE(h.quantile(0.99), 4.0);
}

TEST(Histogram, MergeIsExactBinwiseSum) {
  Histogram a(0, 10, 5);
  Histogram b(0, 10, 5);
  Histogram all(0, 10, 5);
  for (int i = 0; i < 40; ++i) {
    const double x = (i * 7 % 11) - 0.5;  // exercises underflow too
    ((i % 2 == 0) ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  ASSERT_EQ(a.total(), all.total());
  for (std::size_t bin = 0; bin < all.bins(); ++bin) {
    EXPECT_EQ(a.count(bin), all.count(bin)) << "bin " << bin;
  }
  EXPECT_EQ(a.underflow(), all.underflow());
  EXPECT_EQ(a.overflow(), all.overflow());
  EXPECT_EQ(a.quantile(0.5), all.quantile(0.5));

  Histogram mismatched(0, 10, 4);
  EXPECT_THROW(a.merge(mismatched), std::invalid_argument);
  Histogram shifted(1, 11, 5);
  EXPECT_THROW(a.merge(shifted), std::invalid_argument);
}

TEST(Histogram, AddCountRebuildsSerializedBins) {
  Histogram h(0, 10, 5);
  h.add(1);
  h.add(5);
  h.add(5.5);
  Histogram rebuilt(0, 10, 5);
  for (std::size_t b = 0; b < h.bins(); ++b) {
    if (h.count(b) > 0) rebuilt.add_count(b, h.count(b));
  }
  EXPECT_EQ(rebuilt.total(), h.total());
  EXPECT_EQ(rebuilt.count(0), h.count(0));
  EXPECT_EQ(rebuilt.count(2), h.count(2));
  EXPECT_EQ(rebuilt.quantile(0.5), h.quantile(0.5));
  EXPECT_THROW(rebuilt.add_count(99, 1), std::out_of_range);
}

TEST(Histogram, AddSaturationRestoresClippedCounters) {
  // Saturated samples land in the edge bins AND bump the under/overflow
  // counters; a sparse (bin, count) serialization rebuilds the bins but not
  // the counters. add_saturation closes the gap without double-counting.
  Histogram h(0, 10, 5);
  h.add(-3);  // clips into bin 0, underflow
  h.add(-1);  // clips into bin 0, underflow
  h.add(4);   // in-range
  h.add(25);  // clips into bin 4, overflow
  ASSERT_EQ(h.underflow(), 2u);
  ASSERT_EQ(h.overflow(), 1u);

  Histogram rebuilt(0, 10, 5);
  for (std::size_t b = 0; b < h.bins(); ++b) {
    if (h.count(b) > 0) rebuilt.add_count(b, h.count(b));
  }
  // Bins alone: totals match, saturation lost — the pre-fix behavior.
  EXPECT_EQ(rebuilt.total(), h.total());
  EXPECT_EQ(rebuilt.underflow(), 0u);
  EXPECT_EQ(rebuilt.overflow(), 0u);

  rebuilt.add_saturation(h.underflow(), h.overflow());
  EXPECT_EQ(rebuilt.underflow(), h.underflow());
  EXPECT_EQ(rebuilt.overflow(), h.overflow());
  // No double-count: the clipped samples were already in the edge bins.
  EXPECT_EQ(rebuilt.total(), h.total());
  EXPECT_EQ(rebuilt.count(0), h.count(0));
  EXPECT_EQ(rebuilt.count(4), h.count(4));
  EXPECT_EQ(rebuilt.render(), h.render());
  EXPECT_NE(rebuilt.render().find("(saturated:"), std::string::npos);
}

TEST(Histogram, MergeSumsSaturationCounters) {
  Histogram a(0, 10, 5);
  a.add(-1);
  a.add(12);
  Histogram b(0, 10, 5);
  b.add(-2);
  b.add(-4);
  b.add(99);
  a.merge(b);
  EXPECT_EQ(a.underflow(), 3u);
  EXPECT_EQ(a.overflow(), 2u);
  EXPECT_EQ(a.total(), 5u);
}

TEST(Log2Histogram, DyadicBuckets) {
  Log2Histogram h;
  h.add(0.5);  // bucket 0
  h.add(1);    // bucket 0
  h.add(2);    // bucket 1
  h.add(3);    // bucket 1
  h.add(4);    // bucket 2
  h.add(1023); // bucket 9
  h.add(1024); // bucket 10
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 2u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.count(10), 1u);
  EXPECT_EQ(h.max_bucket(), 10u);
  EXPECT_EQ(h.total(), 7u);
}

}  // namespace
}  // namespace ants::stats
