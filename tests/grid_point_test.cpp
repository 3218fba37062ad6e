#include "grid/point.h"

#include <gtest/gtest.h>

#include <set>

#include "support/visited_set.h"

namespace ants::grid {
namespace {

TEST(Point, ArithmeticAndComparison) {
  const Point a{3, -2};
  const Point b{-1, 5};
  EXPECT_EQ(a + b, (Point{2, 3}));
  EXPECT_EQ(a - b, (Point{4, -7}));
  EXPECT_EQ(a, (Point{3, -2}));
  EXPECT_NE(a, b);
  EXPECT_EQ(kOrigin, (Point{0, 0}));
}

TEST(Point, L1Norm) {
  EXPECT_EQ(l1_norm({0, 0}), 0);
  EXPECT_EQ(l1_norm({3, 4}), 7);
  EXPECT_EQ(l1_norm({-3, 4}), 7);
  EXPECT_EQ(l1_norm({-3, -4}), 7);
  EXPECT_EQ(l1_dist({1, 1}, {4, 5}), 7);
}

TEST(Point, LinfNorm) {
  EXPECT_EQ(linf_norm({0, 0}), 0);
  EXPECT_EQ(linf_norm({3, 4}), 4);
  EXPECT_EQ(linf_norm({-5, 4}), 5);
  EXPECT_EQ(linf_norm({-5, -5}), 5);
}

TEST(Point, Adjacency) {
  EXPECT_TRUE(adjacent({0, 0}, {1, 0}));
  EXPECT_TRUE(adjacent({0, 0}, {0, -1}));
  EXPECT_FALSE(adjacent({0, 0}, {1, 1}));
  EXPECT_FALSE(adjacent({0, 0}, {0, 0}));
  EXPECT_FALSE(adjacent({0, 0}, {2, 0}));
}

TEST(Point, DirectionsAreTheFourNeighbors) {
  std::set<std::pair<std::int64_t, std::int64_t>> seen;
  for (const Point d : kDirections) {
    EXPECT_EQ(l1_norm(d), 1);
    seen.insert({d.x, d.y});
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Point, PackRoundTripsThroughVisitedSet) {
  VisitedSet set;
  const Point pts[] = {{0, 0}, {1, -1}, {-100000, 99999}, {12345, -54321}};
  for (const Point p : pts) {
    EXPECT_TRUE(set.insert(p));
    EXPECT_FALSE(set.insert(p));  // second insert is a duplicate
    EXPECT_TRUE(set.contains(p));
  }
  EXPECT_EQ(set.size(), 4u);
}

TEST(Point, PackDistinguishesSignCombinations) {
  EXPECT_NE(pack({1, 2}), pack({2, 1}));
  EXPECT_NE(pack({-1, 2}), pack({1, -2}));
  EXPECT_NE(pack({-1, -2}), pack({1, 2}));
}

TEST(VisitedSet, ForEachRecoversPoints) {
  VisitedSet set;
  set.insert({5, -3});
  set.insert({-2, 7});
  std::set<std::pair<std::int64_t, std::int64_t>> seen;
  set.for_each([&](Point p) { seen.insert({p.x, p.y}); });
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_TRUE(seen.count({5, -3}));
  EXPECT_TRUE(seen.count({-2, 7}));
}

TEST(VisitedSet, ClearAndReserve) {
  VisitedSet set;
  set.reserve(100);
  for (int i = 0; i < 50; ++i) set.insert({i, i});
  EXPECT_EQ(set.size(), 50u);
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.contains({1, 1}));
}

}  // namespace
}  // namespace ants::grid
