#include "core/uniform.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <variant>
#include <vector>

#include "core/params.h"
#include "grid/ball.h"
#include "sim/runner.h"

namespace ants::core {
namespace {

using sim::GoTo;
using sim::Op;
using sim::ReturnToSource;
using sim::SpiralFor;

TEST(Uniform, RejectsNegativeEps) {
  EXPECT_THROW(UniformStrategy(-0.1), std::invalid_argument);
  EXPECT_NO_THROW(UniformStrategy(0.0));
  EXPECT_NO_THROW(UniformStrategy(2.0));
}

TEST(Uniform, BallRadiusMatchesFormula) {
  const UniformStrategy s(0.5);
  // D_ij = sqrt(2^(i+j)/j^1.5), with j^ = max(j,1).
  for (int i = 0; i <= 12; ++i) {
    for (int j = 0; j <= i; ++j) {
      const double jj = j < 1 ? 1.0 : j;
      const double expect = std::sqrt(std::ldexp(1.0, i + j) /
                                      std::pow(jj, 1.5));
      const std::int64_t clamped =
          expect < 1 ? 1 : static_cast<std::int64_t>(expect);
      EXPECT_EQ(s.ball_radius(i, j), clamped) << i << "," << j;
    }
  }
}

TEST(Uniform, SpiralBudgetMatchesFormula) {
  const UniformStrategy s(0.3);
  for (int i = 0; i <= 12; ++i) {
    for (int j = 0; j <= i; ++j) {
      const double jj = j < 1 ? 1.0 : j;
      const double expect = std::ldexp(1.0, i + 2) / std::pow(jj, 1.3);
      const std::int64_t clamped =
          expect < 1 ? 1 : static_cast<std::int64_t>(expect);
      EXPECT_EQ(s.spiral_budget(i, j), clamped) << i << "," << j;
    }
  }
}

TEST(Uniform, PhaseTableEqualsClosedForms) {
  // The table serves i < 32 and the closed forms beyond: every phase of
  // stages 0..39 must read back as the closed forms, bit for bit. eps = 300
  // and 2000 push the divisor j^(1+eps) to the top of the double range and
  // past it (inf), where the quotients reach 0.
  for (const double eps : {0.0, 0.3, 0.5, 1.0, 2.0, 300.0, 2000.0}) {
    const UniformStrategy s(eps);
    for (int i = 0; i < 40; ++i) {
      for (int j = 0; j <= i; ++j) {
        const UniformStrategy::Phase phase = s.phase(i, j);
        EXPECT_EQ(phase.radius, s.ball_radius(i, j))
            << eps << " " << i << "," << j;
        EXPECT_EQ(phase.budget, s.spiral_budget(i, j))
            << eps << " " << i << "," << j;
      }
    }
  }
}

TEST(Uniform, OpStreamFollowsClosedFormsPastTheTable) {
  // Every op through big-stage 33 (7140 phases, stages up to 33): each GoTo
  // is the ball point of the closed-form radius drawn from a twin rng, each
  // spiral the closed-form budget.
  const UniformStrategy s(0.5);
  const auto program = s.make_program(sim::AgentContext{});
  rng::Rng rng(31), twin(31);
  for (int l = 0; l <= 33; ++l) {
    for (int i = 0; i <= l; ++i) {
      for (int j = 0; j <= i; ++j) {
        const Op go = program->next(rng);
        ASSERT_EQ(std::get<GoTo>(go).target,
                  grid::uniform_ball_point(twin, s.ball_radius(i, j)))
            << l << " " << i << "," << j;
        ASSERT_EQ(std::get<SpiralFor>(program->next(rng)).duration,
                  s.spiral_budget(i, j))
            << l << " " << i << "," << j;
        ASSERT_TRUE(std::holds_alternative<ReturnToSource>(program->next(rng)));
      }
    }
  }
}

TEST(Uniform, ScheduleTraversalOrder) {
  // Phases iterate (l, i, j) with j in [0,i], i in [0,l]: the first few
  // (i, j) pairs are (0,0); (0,0),(1,0),(1,1); (0,0),(1,0),(1,1),(2,0)...
  const UniformStrategy s(1.0);
  const auto program = s.make_program(sim::AgentContext{});
  rng::Rng rng(5);
  std::vector<sim::Time> budgets;
  for (int trip = 0; trip < 10; ++trip) {
    (void)program->next(rng);
    budgets.push_back(std::get<SpiralFor>(program->next(rng)).duration);
    (void)program->next(rng);
  }
  const std::vector<sim::Time> expected{
      s.spiral_budget(0, 0),                                          // l=0
      s.spiral_budget(0, 0), s.spiral_budget(1, 0), s.spiral_budget(1, 1),
      s.spiral_budget(0, 0), s.spiral_budget(1, 0), s.spiral_budget(1, 1),
      s.spiral_budget(2, 0), s.spiral_budget(2, 1), s.spiral_budget(2, 2)};
  EXPECT_EQ(budgets, expected);
}

TEST(Uniform, IsTrulyUniform) {
  // The defining property: the op stream must be independent of ctx.k and
  // ctx.agent_index (Theorem 3.3's algorithm never reads them).
  const UniformStrategy s(0.7);
  const auto p_small = s.make_program(sim::AgentContext{0, 1});
  const auto p_large = s.make_program(sim::AgentContext{9, 1 << 20});
  rng::Rng ra(123), rb(123);
  for (int i = 0; i < 90; ++i) {
    const Op a = p_small->next(ra);
    const Op b = p_large->next(rb);
    ASSERT_EQ(a.index(), b.index()) << i;
    if (const auto* go = std::get_if<GoTo>(&a)) {
      EXPECT_EQ(go->target, std::get<GoTo>(b).target);
    } else if (const auto* sp = std::get_if<SpiralFor>(&a)) {
      EXPECT_EQ(sp->duration, std::get<SpiralFor>(b).duration);
    }
  }
}

TEST(Uniform, TargetsWithinScheduleBall) {
  const UniformStrategy s(0.5);
  const auto program = s.make_program(sim::AgentContext{});
  rng::Rng rng(6);
  const std::vector<std::pair<int, int>> ij{
      {0, 0}, {0, 0}, {1, 0}, {1, 1}, {0, 0}, {1, 0}, {1, 1},
      {2, 0}, {2, 1}, {2, 2}};
  for (const auto& [i, j] : ij) {
    const Op go = program->next(rng);
    EXPECT_LE(grid::l1_norm(std::get<GoTo>(go).target), s.ball_radius(i, j))
        << i << "," << j;
    (void)program->next(rng);
    (void)program->next(rng);
  }
}

TEST(Uniform, LargerEpsShrinksLatePhaseBudgets) {
  // Bigger eps divides later phases (large j) harder.
  const UniformStrategy small(0.1), large(1.0);
  EXPECT_GT(small.spiral_budget(12, 8), large.spiral_budget(12, 8));
  EXPECT_GE(small.ball_radius(12, 8), large.ball_radius(12, 8));
  // j = 0 and j = 1 are unaffected (divisor 1).
  EXPECT_EQ(small.spiral_budget(9, 0), large.spiral_budget(9, 0));
  EXPECT_EQ(small.spiral_budget(9, 1), large.spiral_budget(9, 1));
}

TEST(Uniform, FindsTreasureAtSmallScale) {
  const UniformStrategy strategy(0.5);
  sim::RunConfig config;
  config.trials = 80;
  config.seed = 21;
  const sim::RunStats rs =
      sim::run_trials(strategy, 2, 6, sim::uniform_ring_placement(), config);
  EXPECT_EQ(rs.success_rate, 1.0);
  EXPECT_GT(rs.time.mean, 0.0);
  EXPECT_LT(rs.mean_competitiveness, 100.0);
}

}  // namespace
}  // namespace ants::core
