#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <variant>

#include "core/approx_k.h"
#include "core/hedged.h"
#include "sim/runner.h"
#include "support/competitive.h"
#include "util/math.h"
#include "util/sat.h"

namespace ants::core {
namespace {

using sim::GoTo;
using sim::Op;
using sim::SpiralFor;

TEST(ApproxK, Validation) {
  EXPECT_THROW(ApproxKStrategy(0, 2.0, ApproxMode::kUnder),
               std::invalid_argument);
  EXPECT_THROW(ApproxKStrategy(4, 0.5, ApproxMode::kUnder),
               std::invalid_argument);
  EXPECT_NO_THROW(ApproxKStrategy(4, 1.0, ApproxMode::kOver));
}

TEST(ApproxK, ParameterMapping) {
  const ApproxKStrategy s(64, 2.0, ApproxMode::kUnder);
  // Estimate k/rho = 32 -> parameter 16; estimate k*rho = 128 -> 64.
  EXPECT_EQ(s.parameter_for_estimate(32.0), 16);
  EXPECT_EQ(s.parameter_for_estimate(128.0), 64);
  EXPECT_EQ(s.parameter_for_estimate(0.5), 1);  // clamps to 1
}

TEST(ApproxK, EstimatesRespectMode) {
  rng::Rng rng(1);
  const ApproxKStrategy under(100, 4.0, ApproxMode::kUnder);
  EXPECT_DOUBLE_EQ(under.draw_estimate(rng), 25.0);
  const ApproxKStrategy over(100, 4.0, ApproxMode::kOver);
  EXPECT_DOUBLE_EQ(over.draw_estimate(rng), 400.0);
  const ApproxKStrategy lu(100, 4.0, ApproxMode::kLogUniform);
  for (int i = 0; i < 2000; ++i) {
    const double e = lu.draw_estimate(rng);
    EXPECT_GE(e, 25.0 - 1e-9);
    EXPECT_LE(e, 400.0 + 1e-9);
  }
}

TEST(ApproxK, BehavesLikeKnownKWithScaledParameter) {
  // Under-mode with rho=1 is exactly KnownK(k): spiral budgets match.
  const ApproxKStrategy approx(16, 1.0, ApproxMode::kUnder);
  const auto program = approx.make_program(sim::AgentContext{});
  rng::Rng rng(2);
  (void)program->next(rng);
  const Op sp = program->next(rng);
  // First phase (i=1): t_1 = 2^4/16 = 1.
  EXPECT_EQ(std::get<SpiralFor>(sp).duration, 1);
}

TEST(ApproxK, StillFindsTreasure) {
  const ApproxKStrategy strategy(8, 2.0, ApproxMode::kLogUniform);
  sim::RunConfig config;
  config.trials = 60;
  config.seed = 3;
  const sim::RunStats rs =
      sim::run_trials(strategy, 8, 6, sim::uniform_ring_placement(), config);
  EXPECT_EQ(rs.success_rate, 1.0);
  EXPECT_LT(rs.mean_competitiveness, 80.0);
}

TEST(Hedged, Validation) {
  EXPECT_THROW(HedgedApproxStrategy(0.5, 0.5), std::invalid_argument);
  EXPECT_THROW(HedgedApproxStrategy(16, -0.1), std::invalid_argument);
  EXPECT_THROW(HedgedApproxStrategy(16, 1.5), std::invalid_argument);
}

TEST(Hedged, CandidateWindowMatchesEps) {
  // k~ = 2^12, eps = 0.5: candidates cover j in [6, 12] — 7 octaves.
  const HedgedApproxStrategy s(4096.0, 0.5);
  const auto& cands = s.candidate_exponents();
  ASSERT_EQ(cands.size(), 7u);
  EXPECT_EQ(cands.front(), 6);
  EXPECT_EQ(cands.back(), 12);
}

TEST(Hedged, EpsZeroHasSingleishCandidate) {
  // eps = 0: perfect knowledge; window collapses to the k~ octave.
  const HedgedApproxStrategy s(1024.0, 0.0);
  EXPECT_LE(s.candidate_exponents().size(), 2u);
}

TEST(Hedged, EpsOneCoversAllOctaves) {
  const HedgedApproxStrategy s(1024.0, 1.0);
  EXPECT_EQ(s.candidate_exponents().front(), 0);
  EXPECT_EQ(s.candidate_exponents().back(), 10);
}

TEST(Hedged, SpiralBudgetPerCandidate) {
  const HedgedApproxStrategy s(256.0, 0.5);
  // t = 2^(2i+2-j).
  EXPECT_EQ(s.spiral_budget(3, 4), util::pow2(4));
  EXPECT_EQ(s.spiral_budget(3, 8), 1);   // exponent 0 -> clamp
  EXPECT_EQ(s.spiral_budget(2, 8), 1);   // negative exponent -> clamp
  EXPECT_EQ(s.spiral_budget(31, 0), util::kTimeCap);  // saturate
}

TEST(Hedged, CyclesThroughCandidatesWithinPhase) {
  const HedgedApproxStrategy s(16.0, 1.0);  // candidates j = 0..4
  const auto program = s.make_program(sim::AgentContext{});
  rng::Rng rng(4);
  // First 5 trips are phase i=1 with candidates 0..4: budgets 2^4-j.
  for (const int j : s.candidate_exponents()) {
    (void)program->next(rng);
    const Op sp = program->next(rng);
    EXPECT_EQ(std::get<SpiralFor>(sp).duration, s.spiral_budget(1, j));
    (void)program->next(rng);
  }
}

TEST(Hedged, FindsTreasure) {
  const HedgedApproxStrategy strategy(64.0, 0.5);
  sim::RunConfig config;
  config.trials = 50;
  config.seed = 5;
  const sim::RunStats rs =
      sim::run_trials(strategy, 8, 6, sim::uniform_ring_placement(), config);
  EXPECT_EQ(rs.success_rate, 1.0);
}

TEST(Competitive, FitRecoversExponent) {
  // phi(k) = 3 * (log2 k)^1.5 exactly.
  std::vector<CompetitivePoint> curve;
  for (std::int64_t k = 4; k <= 4096; k *= 2) {
    curve.push_back({k, 3.0 * std::pow(std::log2(double(k)), 1.5)});
  }
  const auto fit = fit_log_exponent(curve);
  EXPECT_NEAR(fit.slope, 1.5, 1e-9);
  EXPECT_GT(fit.r_squared, 0.999);
}

TEST(Competitive, FitRejectsDegenerateInput) {
  EXPECT_THROW(fit_log_exponent({{2, 1.0}}), std::invalid_argument);
  EXPECT_THROW(fit_log_exponent({{4, 1.0}, {2, 2.0}}), std::invalid_argument);
}

TEST(Competitive, RatioColumns) {
  EXPECT_DOUBLE_EQ(ratio_to_log_power(8.0, 16, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(ratio_to_log_power(8.0, 16, 2.0), 0.5);
}

}  // namespace
}  // namespace ants::core
