// Tests for relay routing (min-hop paths + induced link networks).
#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace raysched::algorithms {
namespace {

using core::Propagation;
using model::Point;

std::vector<Point> line_relays(std::size_t count, double spacing) {
  std::vector<Point> relays;
  for (std::size_t i = 0; i < count; ++i) {
    relays.push_back(Point{static_cast<double>(i) * spacing, 0.0});
  }
  return relays;
}

TEST(MinHopPath, StraightLine) {
  const auto relays = line_relays(5, 10.0);
  const auto path = min_hop_path(relays, 10.5, 0, 4);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(MinHopPath, LongRangeSkipsRelays) {
  const auto relays = line_relays(5, 10.0);
  const auto path = min_hop_path(relays, 20.5, 0, 4);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 3u);  // 0 -> 2 -> 4
  EXPECT_EQ(path->front(), 0u);
  EXPECT_EQ(path->back(), 4u);
}

TEST(MinHopPath, DisconnectedReturnsNullopt) {
  const auto relays = line_relays(3, 10.0);
  EXPECT_FALSE(min_hop_path(relays, 5.0, 0, 2).has_value());
}

TEST(MinHopPath, TrivialSelfPath) {
  const auto relays = line_relays(3, 10.0);
  const auto path = min_hop_path(relays, 10.5, 1, 1);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (std::vector<std::size_t>{1}));
}

TEST(MinHopPath, Validates) {
  const auto relays = line_relays(3, 10.0);
  EXPECT_THROW(min_hop_path(relays, 0.0, 0, 1), raysched::error);
  EXPECT_THROW(min_hop_path(relays, 10.0, 0, 9), raysched::error);
}

TEST(RouteRequests, BuildsNetworkAndHops) {
  const auto relays = line_relays(4, 10.0);
  const std::vector<RouteRequest> requests = {{0, 3}, {1, 3}};
  const auto routed =
      route_requests(relays, 10.5, requests,
                     model::PowerAssignment::uniform(2.0), 2.5, units::Power(1e-9).value());
  // Edges used: (0,1),(1,2),(2,3) shared by both requests.
  EXPECT_EQ(routed.network.size(), 3u);
  ASSERT_EQ(routed.requests.size(), 2u);
  EXPECT_EQ(routed.requests[0].hops.size(), 3u);
  EXPECT_EQ(routed.requests[1].hops.size(), 2u);
  // Request 1 shares the (1,2),(2,3) suffix with request 0.
  EXPECT_EQ(routed.requests[0].hops[1], routed.requests[1].hops[0]);
  EXPECT_EQ(routed.requests[0].hops[2], routed.requests[1].hops[1]);
  // Endpoint bookkeeping matches.
  ASSERT_EQ(routed.link_endpoints.size(), 3u);
  EXPECT_EQ(routed.link_endpoints[routed.requests[0].hops[0]],
            (std::pair<std::size_t, std::size_t>{0, 1}));
}

TEST(RouteRequests, BidirectionalEdgesAreDistinctLinks) {
  const auto relays = line_relays(2, 10.0);
  const std::vector<RouteRequest> requests = {{0, 1}, {1, 0}};
  const auto routed =
      route_requests(relays, 10.5, requests,
                     model::PowerAssignment::uniform(2.0), 2.5, units::Power(1e-9).value());
  EXPECT_EQ(routed.network.size(), 2u);  // (0,1) and (1,0)
}

TEST(RouteRequests, EndToEndScheduling) {
  // Route then schedule: the full Section-4 multi-hop pipeline.
  const auto relays = line_relays(5, 10.0);
  const std::vector<RouteRequest> requests = {{0, 4}, {2, 0}, {3, 4}};
  const auto routed =
      route_requests(relays, 10.5, requests,
                     model::PowerAssignment::uniform(2.0), 2.5, units::Power(1e-9).value());
  for (auto prop : {Propagation::NonFading, Propagation::Rayleigh}) {
    util::RngStream rng(static_cast<std::uint64_t>(prop) + 5);
    const auto result = schedule_multihop(routed.network, routed.requests,
                                          1.5, prop, rng);
    EXPECT_TRUE(result.completed);
  }
}

TEST(RouteRequests, Validates) {
  const auto relays = line_relays(3, 10.0);
  const auto power = model::PowerAssignment::uniform(1.0);
  EXPECT_THROW(route_requests({}, 1.0, {{0, 1}}, power, 2.0, 0.0),
               raysched::error);
  EXPECT_THROW(route_requests(relays, 10.5, {}, power, 2.0, 0.0),
               raysched::error);
  EXPECT_THROW(route_requests(relays, 10.5, {{1, 1}}, power, 2.0, 0.0),
               raysched::error);
  EXPECT_THROW(route_requests(relays, 5.0, {{0, 2}}, power, 2.0, 0.0),
               raysched::error);
  // Duplicate relay positions rejected.
  std::vector<Point> dup = {Point{0, 0}, Point{0, 0}};
  EXPECT_THROW(route_requests(dup, 1.0, {{0, 1}}, power, 2.0, 0.0),
               raysched::error);
}

TEST(SampleSet, QuantilesExact) {
  sim::SampleSet s;
  for (double x : {5.0, 1.0, 3.0, 2.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.125), 1.5);  // interpolated
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_EQ(s.count(), 5u);
}

TEST(SampleSet, SingleSampleAndValidation) {
  sim::SampleSet s;
  EXPECT_THROW(s.median(), raysched::error);
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 7.0);
  EXPECT_THROW(s.quantile(1.5), raysched::error);
}

TEST(SampleSet, AddAfterQuantileResorts) {
  sim::SampleSet s;
  s.add(10.0);
  s.add(20.0);
  EXPECT_DOUBLE_EQ(s.median(), 15.0);
  s.add(0.0);
  EXPECT_DOUBLE_EQ(s.median(), 10.0);
}

}  // namespace
}  // namespace raysched::algorithms
