// Tests for link-weighted capacity maximization.
#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace raysched::algorithms {
namespace {

using model::LinkId;
using model::LinkSet;
using raysched::testing::paper_network;
using raysched::testing::two_close_links;

std::vector<double> random_weights(std::size_t n, std::uint64_t seed) {
  util::RngStream rng(seed);
  std::vector<double> w(n);
  for (auto& v : w) v = rng.uniform(0.1, 10.0);
  return w;
}

TEST(WeightedGreedy, PicksHeavierOfConflictingPair) {
  auto net = two_close_links(1e-6);
  const double beta = 2.0;
  const auto light_first =
      weighted_greedy_capacity(net, beta, {1.0, 5.0});
  EXPECT_EQ(light_first.selected, (LinkSet{1}));
  EXPECT_DOUBLE_EQ(light_first.value, 5.0);
  const auto heavy_first =
      weighted_greedy_capacity(net, beta, {7.0, 5.0});
  EXPECT_EQ(heavy_first.selected, (LinkSet{0}));
  EXPECT_DOUBLE_EQ(heavy_first.value, 7.0);
}

TEST(WeightedGreedy, OutputFeasibleAndSkipsZeroWeights) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto net = paper_network(40, 100 + seed);
    auto w = random_weights(net.size(), seed);
    w[0] = 0.0;
    w[5] = 0.0;
    const auto result = weighted_greedy_capacity(net, 2.5, w);
    EXPECT_TRUE(model::is_feasible(net, result.selected, units::Threshold(2.5)));
    for (LinkId i : result.selected) {
      EXPECT_GT(w[i], 0.0);
    }
  }
}

TEST(WeightedGreedy, UnitWeightsBehaveLikeCardinality) {
  auto net = paper_network(30, 7);
  const std::vector<double> ones(net.size(), 1.0);
  const auto weighted = weighted_greedy_capacity(net, 2.5, ones);
  EXPECT_DOUBLE_EQ(weighted.value,
                   static_cast<double>(weighted.selected.size()));
  EXPECT_TRUE(model::is_feasible(net, weighted.selected, units::Threshold(2.5)));
}

// With every weight equal, the weight order is all ties, so the weighted
// greedy orders exactly like greedy_capacity: by length when
// sort_by_length is set, by id when it is not.
TEST(WeightedGreedy, UnitWeightsMatchGreedyCapacityUnderBothOrders) {
  int orders_differ = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    auto net = paper_network(60, seed);
    const std::vector<double> ones(net.size(), 1.0);
    LinkSet by_order[2];
    for (const bool sort_by_length : {false, true}) {
      GreedyOptions options;
      options.sort_by_length = sort_by_length;
      by_order[sort_by_length] =
          greedy_capacity(net, 2.5, {}, options).selected;
      EXPECT_EQ(weighted_greedy_capacity(net, 2.5, ones, options).selected,
                by_order[sort_by_length])
          << "seed " << seed << " sort_by_length " << sort_by_length;
    }
    if (by_order[0] != by_order[1]) ++orders_differ;
  }
  // greedy_capacity runs on the weighted greedy, so the equality alone
  // cannot see the option being ignored: the two orders must also differ.
  EXPECT_GT(orders_differ, 0);
}

TEST(WeightedGreedy, ValidatesWeights) {
  auto net = paper_network(5, 1);
  EXPECT_THROW(weighted_greedy_capacity(net, 2.5, {1.0, 2.0}),
               raysched::error);
  EXPECT_THROW(
      weighted_greedy_capacity(net, 2.5, {1.0, 1.0, 1.0, 1.0, -1.0}),
      raysched::error);
}

TEST(WeightedBnB, MatchesExhaustiveOnTinyInstances) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    auto net = paper_network(8, 400 + seed);
    const auto w = random_weights(8, seed + 50);
    const double beta = 2.5;
    double best = 0.0;
    for (unsigned mask = 0; mask < 256u; ++mask) {
      LinkSet s;
      double weight = 0.0;
      for (LinkId i = 0; i < 8; ++i) {
        if (mask & (1u << i)) {
          s.push_back(i);
          weight += w[i];
        }
      }
      if (model::is_feasible(net, s, units::Threshold(beta))) best = std::max(best, weight);
    }
    const auto bnb = exact_max_weight_feasible_set(net, beta, w);
    EXPECT_NEAR(bnb.value, best, 1e-9) << "seed " << seed;
    EXPECT_TRUE(model::is_feasible(net, bnb.selected, units::Threshold(beta)));
  }
}

TEST(WeightedBnB, PrefersSingleHeavyOverManyLight) {
  // Construct the classic trap: one heavy link that conflicts with several
  // light mutually-compatible links.
  auto net = paper_network(10, 3);
  std::vector<double> w(net.size(), 1.0);
  w[0] = 100.0;
  const auto bnb = exact_max_weight_feasible_set(net, 2.5, w);
  // Whatever the geometry, the optimum must include link 0 if link 0 alone
  // is feasible (weight 100 > sum of all others = 9).
  model::LinkSet solo = {0};
  if (model::is_feasible(net, solo, units::Threshold(2.5))) {
    EXPECT_TRUE(std::find(bnb.selected.begin(), bnb.selected.end(), 0) !=
                bnb.selected.end());
  }
}

TEST(WeightedBnB, RejectsLargeInstances) {
  auto net = paper_network(30, 1);
  EXPECT_THROW(
      exact_max_weight_feasible_set(net, 2.5, random_weights(30, 1), 22),
      raysched::error);
}

TEST(WeightedLocalSearch, AtLeastGreedyAndFeasible) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    auto net = paper_network(35, 200 + seed);
    const auto w = random_weights(net.size(), seed);
    const double beta = 2.5;
    const auto greedy = weighted_greedy_capacity(net, beta, w);
    const auto ls = weighted_local_search(net, beta, w);
    EXPECT_GE(ls.value + 1e-9, greedy.value) << "seed " << seed;
    EXPECT_TRUE(model::is_feasible(net, ls.selected, units::Threshold(beta)));
  }
}

TEST(WeightedLocalSearch, NearOptimalOnSmallInstances) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    auto net = paper_network(12, 300 + seed);
    const auto w = random_weights(12, seed + 9);
    const double beta = 2.5;
    const auto opt = exact_max_weight_feasible_set(net, beta, w);
    const auto ls = weighted_local_search(net, beta, w);
    EXPECT_GE(ls.value, 0.75 * opt.value) << "seed " << seed;
  }
}

TEST(Weighted, TransfersThroughLemma2) {
  // Weighted solution + weighted threshold utility: expected Rayleigh value
  // >= value / e (the weighted instance of Lemma 2).
  auto net = paper_network(30, 44);
  const auto w = random_weights(net.size(), 44);
  const double beta = 2.5;
  const auto result = weighted_greedy_capacity(net, beta, w);
  ASSERT_FALSE(result.selected.empty());
  double rayleigh_value = 0.0;
  for (LinkId i : result.selected) {
    rayleigh_value +=
        w[i] * model::success_probability_rayleigh(net, result.selected, i,
                                                   units::Threshold(beta))
                   .value();
  }
  EXPECT_GE(rayleigh_value, result.value / std::exp(1.0) - 1e-9);
}

}  // namespace
}  // namespace raysched::algorithms
