// Unit tests for CAN geometry: points, zones, splits, adjacency.
#include <gtest/gtest.h>

#include "src/can/geometry.hpp"

namespace soc::can {
namespace {

TEST(Point, NormalizedClampsIntoUnitCube) {
  const ResourceVector v{5.0, 20.0, 0.0};
  const ResourceVector cmax{10.0, 10.0, 10.0};
  const Point p = Point::normalized(v, cmax);
  EXPECT_DOUBLE_EQ(p[0], 0.5);
  EXPECT_DOUBLE_EQ(p[1], 1.0);  // clamped
  EXPECT_DOUBLE_EQ(p[2], 0.0);
}

TEST(Zone, UnitCubeContainsEverything) {
  const Zone z = Zone::unit(3);
  EXPECT_TRUE(z.contains(Point{0.0, 0.0, 0.0}));
  EXPECT_TRUE(z.contains(Point{0.5, 0.7, 0.2}));
  EXPECT_TRUE(z.contains(Point{1.0, 1.0, 1.0}));  // closed top edge
  EXPECT_DOUBLE_EQ(z.volume(), 1.0);
}

TEST(Zone, SplitHalvesAreDisjointAndCover) {
  const Zone z = Zone::unit(2);
  const auto [lo, hi] = z.split(0);
  EXPECT_DOUBLE_EQ(lo.volume() + hi.volume(), 1.0);
  EXPECT_TRUE(lo.contains(Point{0.25, 0.5}));
  EXPECT_FALSE(lo.contains(Point{0.5, 0.5}));  // boundary belongs to upper
  EXPECT_TRUE(hi.contains(Point{0.5, 0.5}));
  EXPECT_FALSE(lo.overlaps(hi));
}

TEST(Zone, ContainmentIsHalfOpenExceptTopEdge) {
  const auto [lo, hi] = Zone::unit(1).split(0);
  EXPECT_TRUE(lo.contains(Point{0.0}));
  EXPECT_FALSE(lo.contains(Point{0.5}));
  EXPECT_TRUE(hi.contains(Point{0.5}));
  EXPECT_TRUE(hi.contains(Point{1.0}));
}

TEST(Zone, AdjacencyAlongOneDim) {
  const auto [left, right] = Zone::unit(2).split(0);
  const auto d = left.adjacency_dim(right);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, 0u);
  EXPECT_TRUE(left.positive_side(right, 0));
  EXPECT_FALSE(right.positive_side(left, 0));
}

TEST(Zone, CornerContactIsNotAdjacency) {
  // Split the square into four quadrants; diagonal quadrants touch only at
  // the corner and must not count as neighbors.
  const auto [left, right] = Zone::unit(2).split(0);
  const auto [ll, lu] = left.split(1);
  const auto [rl, ru] = right.split(1);
  EXPECT_FALSE(ll.adjacency_dim(ru).has_value());
  EXPECT_FALSE(lu.adjacency_dim(rl).has_value());
  EXPECT_TRUE(ll.adjacency_dim(rl).has_value());
  EXPECT_TRUE(ll.adjacency_dim(lu).has_value());
}

TEST(Zone, AdjacencyRequiresPositiveOverlapElsewhere) {
  // Two zones abutting on x but with disjoint y ranges are not neighbors.
  const Zone a(Point{0.0, 0.0}, Point{0.5, 0.5});
  const Zone b(Point{0.5, 0.5}, Point{1.0, 1.0});
  EXPECT_FALSE(a.adjacency_dim(b).has_value());
}

TEST(Zone, DistanceSqIsZeroInside) {
  const Zone z(Point{0.25, 0.25}, Point{0.5, 0.5});
  EXPECT_DOUBLE_EQ(z.distance_sq(Point{0.3, 0.3}), 0.0);
  EXPECT_DOUBLE_EQ(z.distance_sq(Point{0.75, 0.375}), 0.0625);
  EXPECT_DOUBLE_EQ(z.distance_sq(Point{0.0, 0.0}), 2 * 0.0625);
}

TEST(Zone, IntersectsUpperRange) {
  const Zone z(Point{0.0, 0.0}, Point{0.5, 0.5});
  EXPECT_TRUE(z.intersects_upper_range(Point{0.4, 0.4}));
  EXPECT_FALSE(z.intersects_upper_range(Point{0.6, 0.1}));
  EXPECT_FALSE(z.intersects_upper_range(Point{0.5, 0.1}));  // boundary open
  const Zone top(Point{0.5, 0.5}, Point{1.0, 1.0});
  EXPECT_TRUE(top.intersects_upper_range(Point{1.0, 1.0}));  // closed at 1
}

TEST(Zone, CenterAndSides) {
  const Zone z(Point{0.0, 0.5}, Point{0.5, 1.0});
  const Point c = z.center();
  EXPECT_DOUBLE_EQ(c[0], 0.25);
  EXPECT_DOUBLE_EQ(c[1], 0.75);
  EXPECT_DOUBLE_EQ(z.side(0), 0.5);
}

}  // namespace
}  // namespace soc::can
