// Tests for geometry, links, power assignments, and Network construction.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "test_helpers.hpp"

namespace raysched::model {
namespace {

TEST(Geometry, DistanceAndOffset) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance_sq({0, 0}, {3, 4}), 25.0);
  const Point p = offset({1, 1}, 0.0, 2.0);
  EXPECT_NEAR(p.x, 3.0, 1e-12);
  EXPECT_NEAR(p.y, 1.0, 1e-12);
  const Point q = offset({0, 0}, std::numbers::pi / 2.0, 1.0);
  EXPECT_NEAR(q.x, 0.0, 1e-12);
  EXPECT_NEAR(q.y, 1.0, 1e-12);
}

TEST(Link, Length) {
  Link l{Point{0, 0}, Point{6, 8}};
  EXPECT_DOUBLE_EQ(l.length(), 10.0);
}

TEST(Power, UniformIgnoresLength) {
  auto p = PowerAssignment::uniform(2.0);
  EXPECT_DOUBLE_EQ(p.power(0, units::Distance(5.0), 2.2).value(), 2.0);
  EXPECT_DOUBLE_EQ(p.power(3, units::Distance(50.0), 2.2).value(), 2.0);
  EXPECT_TRUE(p.is_oblivious());
  EXPECT_EQ(p.name(), "uniform");
}

TEST(Power, SquareRootScalesWithHalfAlpha) {
  auto p = PowerAssignment::square_root(2.0);
  // p = 2 * sqrt(d^alpha) = 2 * d^(alpha/2)
  EXPECT_NEAR(p.power(0, units::Distance(4.0), 2.0).value(), 2.0 * 4.0, 1e-12);
  EXPECT_NEAR(p.power(0, units::Distance(9.0), 2.0).value(), 2.0 * 9.0, 1e-12);
  EXPECT_NEAR(p.power(0, units::Distance(4.0), 3.0).value(), 2.0 * 8.0, 1e-12);
}

TEST(Power, LinearScalesWithAlpha) {
  auto p = PowerAssignment::linear(1.5);
  EXPECT_NEAR(p.power(0, units::Distance(2.0), 3.0).value(), 1.5 * 8.0, 1e-12);
}

TEST(Power, ExplicitPerLink) {
  auto p = PowerAssignment::explicit_powers({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(p.power(1, units::Distance(99.0), 2.0).value(), 2.0);
  EXPECT_FALSE(p.is_oblivious());
  EXPECT_THROW(p.power(5, units::Distance(1.0), 2.0), raysched::error);
  EXPECT_THROW(PowerAssignment::explicit_powers({}), raysched::error);
  EXPECT_THROW(PowerAssignment::explicit_powers({1.0, -1.0}), raysched::error);
}

TEST(Power, RejectsNonPositiveBase) {
  EXPECT_THROW(PowerAssignment::uniform(0.0), raysched::error);
  EXPECT_THROW(PowerAssignment::square_root(-1.0), raysched::error);
}

TEST(Network, GeometricGainMatrix) {
  // Link 0: s=(0,0) r=(1,0); link 1: s=(0,10) r=(1,10). alpha=2, power 4.
  std::vector<Link> links = {{Point{0, 0}, Point{1, 0}},
                             {Point{0, 10}, Point{1, 10}}};
  Network net(links, PowerAssignment::uniform(4.0), 2.0, units::Power(0.5));
  EXPECT_EQ(net.size(), 2u);
  EXPECT_DOUBLE_EQ(net.noise(), 0.5);
  EXPECT_DOUBLE_EQ(net.alpha(), 2.0);
  EXPECT_TRUE(net.has_geometry());
  // Own gains: 4 / 1^2 = 4.
  EXPECT_DOUBLE_EQ(net.signal(0), 4.0);
  EXPECT_DOUBLE_EQ(net.signal(1), 4.0);
  // Cross gain 0 -> receiver 1: d((0,0),(1,10))^2 = 1 + 100 = 101.
  EXPECT_NEAR(net.mean_gain(0, 1), 4.0 / 101.0, 1e-12);
  EXPECT_DOUBLE_EQ(net.power(0), 4.0);
}

TEST(Network, MatrixConstructorValidation) {
  EXPECT_NO_THROW(raysched::testing::hand_matrix_network());
  // Wrong size.
  EXPECT_THROW(Network(2, {1.0, 2.0, 3.0}, units::Power(0.0)), raysched::error);
  // Zero diagonal.
  EXPECT_THROW(Network(2, {0.0, 1.0, 1.0, 1.0}, units::Power(0.0)), raysched::error);
  // Negative gain.
  EXPECT_THROW(Network(2, {1.0, -1.0, 1.0, 1.0}, units::Power(0.0)), raysched::error);
  // Negative noise.
  EXPECT_THROW(Network(1, {1.0}, units::Power(-0.5)), raysched::error);
}

TEST(Network, MatrixNetworkHasNoGeometry) {
  auto net = raysched::testing::hand_matrix_network();
  EXPECT_FALSE(net.has_geometry());
  EXPECT_THROW(net.link(0), raysched::error);
  EXPECT_THROW(net.length_ratio(), raysched::error);
  EXPECT_DOUBLE_EQ(net.power(0), 1.0);
}

TEST(Network, SetPowersRescalesGains) {
  std::vector<Link> links = {{Point{0, 0}, Point{1, 0}},
                             {Point{0, 10}, Point{1, 10}}};
  Network net(links, PowerAssignment::uniform(1.0), 2.0, units::Power(0.0));
  const double g01 = net.mean_gain(0, 1);
  net.set_powers({3.0, 1.0});
  EXPECT_DOUBLE_EQ(net.signal(0), 3.0);
  EXPECT_NEAR(net.mean_gain(0, 1), 3.0 * g01, 1e-12);
  EXPECT_DOUBLE_EQ(net.signal(1), 1.0);
  EXPECT_THROW(net.set_powers({1.0}), raysched::error);
  EXPECT_THROW(net.set_powers({0.0, 1.0}), raysched::error);
}

TEST(Network, CoincidentSenderReceiverRejected) {
  // Sender of link 1 sits exactly on receiver of link 0.
  std::vector<Link> links = {{Point{0, 0}, Point{1, 0}},
                             {Point{1, 0}, Point{2, 0}}};
  EXPECT_THROW(Network(links, PowerAssignment::uniform(1.0), 2.0, units::Power(0.0)),
               raysched::error);
}

TEST(Network, LengthRatio) {
  std::vector<Link> links = {{Point{0, 0}, Point{2, 0}},
                             {Point{0, 10}, Point{8, 10}}};
  Network net(links, PowerAssignment::uniform(1.0), 2.0, units::Power(0.0));
  EXPECT_DOUBLE_EQ(net.length_ratio(), 4.0);
}

TEST(Network, RestrictionCopiesGainsBitForBit) {
  const Network parent = raysched::testing::paper_network(40, 3);
  Network block = raysched::testing::hand_matrix_network();
  const LinkSet ids = {17, 5, 39, 2};  // set order, not id order
  block.assign_restriction(parent, ids);
  ASSERT_EQ(block.size(), ids.size());
  EXPECT_FALSE(block.has_geometry());
  EXPECT_EQ(block.alpha(), 0.0);
  EXPECT_EQ(block.noise(), parent.noise());
  for (std::size_t a = 0; a < ids.size(); ++a) {
    EXPECT_EQ(block.power(a), 1.0);
    for (std::size_t b = 0; b < ids.size(); ++b) {
      EXPECT_EQ(block.mean_gain(a, b), parent.mean_gain(ids[a], ids[b]))
          << "entry (" << a << ", " << b << ")";
    }
  }
}

TEST(Network, RestrictionDecidesLikeTheParent) {
  // The slot kernels read the same gains in the same order on the block
  // (positions) as on the parent (ids): same decisions, same RNG state.
  const Network parent = raysched::testing::paper_network(64, 8);
  LinkSet ids;
  for (LinkId i = 3; i < 64; i += 5) ids.push_back(i);
  Network block = raysched::testing::hand_matrix_network();
  block.assign_restriction(parent, ids);
  LinkSet positions(ids.size());
  for (std::size_t a = 0; a < ids.size(); ++a) positions[a] = a;

  EXPECT_EQ(sinr_nonfading_all(block, positions),
            sinr_nonfading_all(parent, ids));
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::RngStream on_parent(seed);
    util::RngStream on_block(seed);
    std::vector<char> ok_parent;
    std::vector<char> ok_block;
    (void)rayleigh_successes(parent, ids, units::Threshold(0.5), on_parent,
                             ok_parent);
    (void)rayleigh_successes(block, positions, units::Threshold(0.5),
                             on_block, ok_block);
    EXPECT_EQ(ok_block, ok_parent) << "seed " << seed;
    EXPECT_EQ(on_block.next_u64(), on_parent.next_u64()) << "seed " << seed;
  }
}

TEST(Network, RestrictionValidatesEveryIdBeforeReading) {
  const Network parent = raysched::testing::paper_network(10, 4);
  Network block = raysched::testing::hand_matrix_network();
  const LinkSet bad = {1, 2, 10};
  EXPECT_THROW(block.assign_restriction(parent, bad), raysched::error);
  // Refused before anything changed.
  EXPECT_EQ(block.size(), 3u);
  EXPECT_EQ(block.mean_gain(1, 0), 2.0);
  EXPECT_THROW(block.assign_restriction(block, LinkSet{0}), raysched::error);
}

TEST(Network, RestrictionToEmptySetIsEmpty) {
  const Network parent = raysched::testing::paper_network(10, 4);
  Network block = raysched::testing::hand_matrix_network();
  block.assign_restriction(parent, LinkSet{});
  EXPECT_EQ(block.size(), 0u);
  EXPECT_EQ(block.noise(), parent.noise());
}

TEST(Generator, RandomPlaneRespectsParameters) {
  util::RngStream rng(5);
  RandomPlaneParams params;
  params.num_links = 200;
  params.plane_size = 500.0;
  params.min_length = 10.0;
  params.max_length = 30.0;
  const auto links = random_plane_links(params, rng);
  ASSERT_EQ(links.size(), 200u);
  for (const Link& l : links) {
    EXPECT_GE(l.receiver.x, 0.0);
    EXPECT_LE(l.receiver.x, 500.0);
    EXPECT_GE(l.receiver.y, 0.0);
    EXPECT_LE(l.receiver.y, 500.0);
    EXPECT_GE(l.length(), 10.0 - 1e-9);
    EXPECT_LE(l.length(), 30.0 + 1e-9);
  }
}

TEST(Generator, RandomPlaneDeterministicPerSeed) {
  RandomPlaneParams params;
  util::RngStream r1(7), r2(7), r3(8);
  const auto a = random_plane_links(params, r1);
  const auto b = random_plane_links(params, r2);
  const auto c = random_plane_links(params, r3);
  EXPECT_EQ(a[0].receiver, b[0].receiver);
  EXPECT_FALSE(a[0].receiver == c[0].receiver);
}

TEST(Generator, GridShape) {
  const auto links = grid_links(2, 3, 10.0, 1.0);
  ASSERT_EQ(links.size(), 6u);
  for (const Link& l : links) EXPECT_DOUBLE_EQ(l.length(), 1.0);
  EXPECT_DOUBLE_EQ(links[4].receiver.x, 10.0);  // row 1, col 1
  EXPECT_DOUBLE_EQ(links[4].receiver.y, 10.0);
}

TEST(Generator, TwoClusters) {
  util::RngStream rng(9);
  const auto links = two_cluster_links(5, 2.0, 1000.0, 1.0, rng);
  ASSERT_EQ(links.size(), 10u);
  // First five receivers near origin, last five near (1000, 0).
  for (int i = 0; i < 5; ++i) {
    EXPECT_LT(distance(links[i].receiver, Point{0, 0}), 2.0 + 1e-9);
    EXPECT_LT(distance(links[i + 5].receiver, Point{1000, 0}), 2.0 + 1e-9);
  }
}

TEST(Generator, ChainLaysLinksAlongAxis) {
  const auto links = chain_links(3, 5.0, 1.0);
  ASSERT_EQ(links.size(), 3u);
  EXPECT_DOUBLE_EQ(links[0].sender.x, 0.0);
  EXPECT_DOUBLE_EQ(links[0].receiver.x, 5.0);
  EXPECT_DOUBLE_EQ(links[1].sender.x, 6.0);
  EXPECT_DOUBLE_EQ(links[2].receiver.x, 17.0);
  for (const Link& l : links) EXPECT_DOUBLE_EQ(l.length(), 5.0);
}

TEST(Generator, ChainDefaultGapAvoidsCoincidentNodes) {
  const auto links = chain_links(4, 10.0);
  // Constructing a network over the chain must not throw (no sender sits on
  // a receiver).
  EXPECT_NO_THROW(Network(links, PowerAssignment::uniform(1.0), 2.0, units::Power(1e-6)));
}

TEST(Generator, ExponentialChainGeometry) {
  const auto links = exponential_chain_links(4, 1.0, 2.0, 4.0);
  ASSERT_EQ(links.size(), 4u);
  EXPECT_DOUBLE_EQ(links[0].length(), 1.0);
  EXPECT_DOUBLE_EQ(links[1].length(), 2.0);
  EXPECT_DOUBLE_EQ(links[3].length(), 8.0);
  // Spacing: sender k+1 at sender k + 4 * length k.
  EXPECT_DOUBLE_EQ(links[1].sender.x, 4.0);
  EXPECT_DOUBLE_EQ(links[2].sender.x, 12.0);
  // Length ratio is growth^(n-1).
  Network net(links, PowerAssignment::uniform(1.0), 3.0, units::Power(1e-9));
  EXPECT_DOUBLE_EQ(net.length_ratio(), 8.0);
}

TEST(Generator, ExponentialChainValidation) {
  EXPECT_THROW(exponential_chain_links(0, 1.0, 2.0), raysched::error);
  EXPECT_THROW(exponential_chain_links(3, 0.0, 2.0), raysched::error);
  EXPECT_THROW(exponential_chain_links(3, 1.0, 1.0), raysched::error);
  EXPECT_THROW(exponential_chain_links(3, 1.0, 2.0, 1.0), raysched::error);
}

TEST(Generator, ParameterValidation) {
  util::RngStream rng(1);
  RandomPlaneParams bad;
  bad.num_links = 0;
  EXPECT_THROW(random_plane_links(bad, rng), raysched::error);
  EXPECT_THROW(grid_links(0, 1, 1.0, 1.0), raysched::error);
  EXPECT_THROW(chain_links(0, 1.0), raysched::error);
}

}  // namespace
}  // namespace raysched::model
