#include "support/visitation.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/trajectory.h"
#include "test_support.h"

namespace ants::sim {
namespace {

using ants::testing::ScriptedStrategy;
using grid::Point;

TEST(DyadicRadii, PowersOfTwo) {
  const auto radii = dyadic_radii(5);
  ASSERT_EQ(radii.size(), 6u);
  EXPECT_EQ(radii.front(), 1);
  EXPECT_EQ(radii.back(), 32);
}

TEST(Visitation, StraightWalkCountsPerAnnulus) {
  // Walk to (8, 0): visits x = 0..8 on the axis. With radii {1,2,4,8}:
  // annulus 0 (d<=1): (0,0),(1,0) -> 2; annulus 1 (1<d<=2): (2,0) -> 1;
  // annulus 2: (3,0),(4,0) -> 2; annulus 3: (5..8,0) -> 4.
  const ScriptedStrategy strategy({GoTo{{8, 0}}});
  rng::Rng rng(1);
  const auto report =
      record_visitation(strategy, AgentContext{}, rng, 8, {1, 2, 4, 8});
  ASSERT_EQ(report.distinct.size(), 4u);
  EXPECT_EQ(report.distinct[0], 2);
  EXPECT_EQ(report.distinct[1], 1);
  EXPECT_EQ(report.distinct[2], 2);
  EXPECT_EQ(report.distinct[3], 4);
  EXPECT_EQ(report.total_distinct, 9);
  EXPECT_EQ(report.steps, 8);
}

TEST(Visitation, HorizonTruncatesSegments) {
  const ScriptedStrategy strategy({GoTo{{100, 0}}});
  rng::Rng rng(2);
  const auto report =
      record_visitation(strategy, AgentContext{}, rng, 10, {1000});
  EXPECT_EQ(report.total_distinct, 11);  // x = 0..10
  EXPECT_EQ(report.steps, 10);
}

TEST(Visitation, RepeatVisitsCountOnce) {
  // Out and back twice: distinct nodes on the segment only counted once.
  const ScriptedStrategy strategy(
      {GoTo{{4, 0}}, ReturnToSource{}, GoTo{{4, 0}}, ReturnToSource{}});
  rng::Rng rng(3);
  const auto report =
      record_visitation(strategy, AgentContext{}, rng, 16, {64});
  EXPECT_EQ(report.total_distinct, 5);  // x = 0..4
  EXPECT_EQ(report.steps, 16);
}

TEST(Visitation, BeyondLastRadiusUncounted) {
  const ScriptedStrategy strategy({GoTo{{10, 0}}});
  rng::Rng rng(4);
  const auto report =
      record_visitation(strategy, AgentContext{}, rng, 10, {1, 2});
  EXPECT_EQ(report.distinct[0], 2);
  EXPECT_EQ(report.distinct[1], 1);
  EXPECT_EQ(report.total_distinct, 11);  // total still counts everything
}

TEST(Visitation, SpiralCoversBall) {
  // Spiral long enough to cover Chebyshev radius 3 from the source: visits
  // 49 nodes; L1-annulus counts must sum accordingly inside radius 6.
  const ScriptedStrategy strategy({SpiralFor{48}});
  rng::Rng rng(5);
  const auto report =
      record_visitation(strategy, AgentContext{}, rng, 48, {1, 2, 4, 8});
  EXPECT_EQ(report.total_distinct, 49);
  EXPECT_EQ(report.distinct[0] + report.distinct[1] + report.distinct[2] +
                report.distinct[3],
            49);
}

TEST(Visitation, Validation) {
  const ScriptedStrategy strategy({GoTo{{1, 0}}});
  rng::Rng rng(6);
  EXPECT_THROW(record_visitation(strategy, AgentContext{}, rng, 5, {}),
               std::invalid_argument);
  EXPECT_THROW(record_visitation(strategy, AgentContext{}, rng, 5, {4, 2}),
               std::invalid_argument);
  EXPECT_THROW(record_visitation(strategy, AgentContext{}, rng, 5, {2, 2}),
               std::invalid_argument);
  EXPECT_THROW(record_visitation(strategy, AgentContext{}, rng, -1, {2}),
               std::invalid_argument);
}

TEST(Trajectory, TraceMatchesScript) {
  const ScriptedStrategy strategy({GoTo{{2, 0}}, GoTo{{2, 2}}});
  rng::Rng rng(7);
  const auto trace = trace_program(strategy, AgentContext{}, rng, 4);
  ASSERT_EQ(trace.size(), 5u);
  EXPECT_EQ(trace[0].position, grid::kOrigin);
  EXPECT_EQ(trace[0].time, 0);
  EXPECT_EQ(trace[2].position, (Point{2, 0}));
  EXPECT_EQ(trace[4].position, (Point{2, 2}));
  EXPECT_EQ(trace[4].time, 4);
}

TEST(Trajectory, ConsecutiveTracePointsAdjacent) {
  const ScriptedStrategy strategy({GoTo{{3, 2}}, SpiralFor{20},
                                   ReturnToSource{}});
  rng::Rng rng(8);
  const auto trace = trace_program(strategy, AgentContext{}, rng, 60);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_TRUE(grid::adjacent(trace[i - 1].position, trace[i].position)) << i;
    EXPECT_EQ(trace[i].time, trace[i - 1].time + 1) << i;
  }
}

TEST(Trajectory, RenderMarksSourceTreasureAndPath) {
  const ScriptedStrategy strategy({GoTo{{2, 0}}});
  rng::Rng rng(9);
  const auto trace = trace_program(strategy, AgentContext{}, rng, 2);
  const std::string img = render_trace(trace, 3, {2, 1});
  EXPECT_NE(img.find('S'), std::string::npos);
  EXPECT_NE(img.find('T'), std::string::npos);
  EXPECT_NE(img.find('#'), std::string::npos);
  // 7 rows of 7 chars + newlines.
  EXPECT_EQ(img.size(), 7u * 8u);
}

TEST(Trajectory, RenderValidation) {
  EXPECT_THROW(render_trace({}, 0, grid::kOrigin), std::invalid_argument);
}

}  // namespace
}  // namespace ants::sim
