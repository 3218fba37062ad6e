#include "util/math.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "util/sat.h"

namespace ants::util {
namespace {

TEST(Isqrt, ExactOnSmallSweep) {
  for (std::int64_t n = 0; n <= 100000; ++n) {
    const std::int64_t r = isqrt(n);
    EXPECT_LE(r * r, n) << n;
    EXPECT_GT((r + 1) * (r + 1), n) << n;
  }
}

TEST(Isqrt, PerfectSquares) {
  for (std::int64_t r = 0; r <= 3000000; r += 997) {
    EXPECT_EQ(isqrt(r * r), r);
    if (r > 0) {
      EXPECT_EQ(isqrt(r * r - 1), r - 1);
      // r^2 + 1 < (r+1)^2 only holds for r >= 1; isqrt(0*0 + 1) is 1.
      EXPECT_EQ(isqrt(r * r + 1), r);
    }
  }
}

TEST(Isqrt, LargeValuesWhereDoubleRoundsBadly) {
  // Near 2^62: double sqrt is not exact; the fixup loop must correct it.
  const std::int64_t big = std::int64_t{1} << 62;
  const std::int64_t r = isqrt(big);
  EXPECT_LE(r * r, big);
  // (r+1)^2 may overflow if naively squared near INT64_MAX; r ~ 2^31 so ok.
  EXPECT_GT((r + 1) * (r + 1), big);

  const std::int64_t exact = std::int64_t{3037000499};  // floor(sqrt(2^63-1))
  EXPECT_EQ(isqrt(std::numeric_limits<std::int64_t>::max()), exact);
}

TEST(IsqrtCeil, MatchesDefinition) {
  EXPECT_EQ(isqrt_ceil(0), 0);
  EXPECT_EQ(isqrt_ceil(1), 1);
  EXPECT_EQ(isqrt_ceil(2), 2);
  EXPECT_EQ(isqrt_ceil(4), 2);
  EXPECT_EQ(isqrt_ceil(5), 3);
  for (std::int64_t n = 1; n < 5000; ++n) {
    const std::int64_t c = isqrt_ceil(n);
    EXPECT_GE(c * c, n);
    EXPECT_LT((c - 1) * (c - 1), n);
  }
}

TEST(Log2, FloorAndCeil) {
  EXPECT_EQ(log2_floor(1), 0);
  EXPECT_EQ(log2_floor(2), 1);
  EXPECT_EQ(log2_floor(3), 1);
  EXPECT_EQ(log2_floor(4), 2);
  EXPECT_EQ(log2_ceil(1), 0);
  EXPECT_EQ(log2_ceil(2), 1);
  EXPECT_EQ(log2_ceil(3), 2);
  EXPECT_EQ(log2_ceil(5), 3);
  for (int e = 0; e <= 62; ++e) {
    EXPECT_EQ(log2_floor(pow2(e)), e);
    EXPECT_EQ(log2_ceil(pow2(e)), e);
  }
  for (int e = 1; e <= 61; ++e) {
    EXPECT_EQ(log2_floor(pow2(e) + 1), e);
    EXPECT_EQ(log2_ceil(pow2(e) + 1), e + 1);
  }
}

TEST(Pow2AndIpow, Basics) {
  EXPECT_EQ(pow2(0), 1);
  EXPECT_EQ(pow2(10), 1024);
  EXPECT_EQ(pow2(62), std::int64_t{1} << 62);
  EXPECT_EQ(ipow(3, 0), 1);
  EXPECT_EQ(ipow(3, 4), 81);
  EXPECT_EQ(ipow(2, 20), 1 << 20);
  EXPECT_EQ(ipow(0, 5), 0);
  EXPECT_EQ(ipow(-2, 3), -8);
  // Near overflow with a negative base, and the one power at INT64_MIN.
  EXPECT_EQ(ipow(-3, 39), -4052555153018976267);
  EXPECT_EQ(ipow(-2, 63), std::numeric_limits<std::int64_t>::min());
}

TEST(DivCeil, RoundsUp) {
  EXPECT_EQ(div_ceil(0, 4), 0);
  EXPECT_EQ(div_ceil(1, 4), 1);
  EXPECT_EQ(div_ceil(4, 4), 1);
  EXPECT_EQ(div_ceil(5, 4), 2);
  EXPECT_EQ(div_ceil(-4, 4), -1);
  EXPECT_EQ(div_ceil(-5, 4), -1);
}

TEST(SignAbs, Basics) {
  EXPECT_EQ(sign(5), 1);
  EXPECT_EQ(sign(-5), -1);
  EXPECT_EQ(sign(0), 0);
  EXPECT_EQ(iabs(-7), 7);
  EXPECT_EQ(iabs(7), 7);
  EXPECT_EQ(iabs(0), 0);
}

TEST(Saturating, AddCapsAtLimit) {
  EXPECT_EQ(sat_add(1, 2), 3);
  EXPECT_EQ(sat_add(kTimeCap, 1), kTimeCap);
  EXPECT_EQ(sat_add(kTimeCap - 1, 1), kTimeCap);
  EXPECT_EQ(sat_add(kTimeCap - 1, kTimeCap - 1), kTimeCap);
  EXPECT_EQ(sat_add(0, 0), 0);
}

TEST(Saturating, MulCapsAtLimit) {
  EXPECT_EQ(sat_mul(3, 4), 12);
  EXPECT_EQ(sat_mul(0, kTimeCap), 0);
  EXPECT_EQ(sat_mul(kTimeCap, 2), kTimeCap);
  EXPECT_EQ(sat_mul(std::int64_t{1} << 32, std::int64_t{1} << 32), kTimeCap);
  EXPECT_EQ(sat_mul(std::int64_t{1} << 30, std::int64_t{1} << 30),
            std::int64_t{1} << 60);
}

TEST(Saturating, FromDouble) {
  EXPECT_EQ(sat_from_double(0.0), 0);
  EXPECT_EQ(sat_from_double(-5.0), 0);
  EXPECT_EQ(sat_from_double(42.9), 42);
  EXPECT_EQ(sat_from_double(1e30), kTimeCap);
  EXPECT_EQ(sat_from_double(std::numeric_limits<double>::quiet_NaN()),
            kTimeCap);
  EXPECT_EQ(sat_from_double(std::numeric_limits<double>::infinity()),
            kTimeCap);
}

}  // namespace
}  // namespace ants::util
