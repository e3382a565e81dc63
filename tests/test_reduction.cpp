// Tests for the packaged black-box reduction and fictitious play.
#include <gtest/gtest.h>

#include <cmath>

#include "test_helpers.hpp"

namespace raysched::core {
namespace {

using raysched::testing::paper_network;

constexpr double kInvE = 0.36787944117144233;

TEST(Reduction, GreedyDecisionCarriesCertificates) {
  auto net = paper_network(40, 1);
  util::RngStream rng(1);
  algorithms::ReductionOptions opts;
  const auto decision = algorithms::schedule_capacity_rayleigh(
      net, Utility::binary(units::Threshold(2.5)), opts, rng);
  EXPECT_FALSE(decision.transmit_set.empty());
  EXPECT_FALSE(decision.powers.has_value());
  EXPECT_DOUBLE_EQ(decision.nonfading_value,
                   static_cast<double>(decision.transmit_set.size()));
  EXPECT_GE(decision.lemma2_ratio, kInvE - 1e-12);
  EXPECT_LE(decision.lemma2_ratio, 1.0);
  EXPECT_NEAR(decision.expected_rayleigh_value,
              decision.lemma2_ratio * decision.nonfading_value, 1e-9);
}

TEST(Reduction, PowerControlDecisionReturnsPowers) {
  auto net = paper_network(30, 2);
  util::RngStream rng(2);
  algorithms::ReductionOptions opts;
  opts.algorithm = algorithms::NonFadingAlgorithm::PowerControl;
  const auto decision = algorithms::schedule_capacity_rayleigh(
      net, Utility::binary(units::Threshold(2.5)), opts, rng);
  if (!decision.transmit_set.empty()) {
    ASSERT_TRUE(decision.powers.has_value());
    EXPECT_EQ(decision.powers->size(), net.size());
    EXPECT_GE(decision.lemma2_ratio, kInvE - 1e-12);
    // The transmitted set is feasible under the returned powers.
    model::Network powered = net;
    powered.set_powers(*decision.powers);
    EXPECT_TRUE(model::is_feasible(powered, decision.transmit_set, units::Threshold(2.5)));
  }
}

TEST(Reduction, LocalSearchBeatsGreedyValue) {
  auto net = paper_network(35, 3);
  util::RngStream r1(3), r2(3);
  algorithms::ReductionOptions greedy_opts;
  algorithms::ReductionOptions ls_opts;
  ls_opts.algorithm = algorithms::NonFadingAlgorithm::LocalSearch;
  const auto g =
      algorithms::schedule_capacity_rayleigh(net, Utility::binary(units::Threshold(2.5)), greedy_opts, r1);
  const auto l =
      algorithms::schedule_capacity_rayleigh(net, Utility::binary(units::Threshold(2.5)), ls_opts, r2);
  EXPECT_GE(l.nonfading_value, g.nonfading_value);
}

TEST(Reduction, ShannonRequiresFlexibleRate) {
  auto net = paper_network(20, 4);
  util::RngStream rng(4);
  algorithms::ReductionOptions opts;  // Greedy
  EXPECT_THROW(
      algorithms::schedule_capacity_rayleigh(net, Utility::shannon(), opts, rng),
      raysched::error);
  opts.algorithm = algorithms::NonFadingAlgorithm::FlexibleRate;
  const auto decision =
      algorithms::schedule_capacity_rayleigh(net, Utility::shannon(), opts, rng);
  EXPECT_GT(decision.nonfading_value, 0.0);
  // MC estimate: allow sampling slack around the 1/e floor.
  EXPECT_GE(decision.lemma2_ratio, kInvE * 0.85);
}

TEST(Reduction, WeightedUtilityExactEvaluation) {
  auto net = paper_network(25, 5);
  util::RngStream rng(5);
  algorithms::ReductionOptions opts;
  const auto decision = algorithms::schedule_capacity_rayleigh(
      net, Utility::weighted(units::Threshold(2.5), 3.0), opts, rng);
  // Weighted threshold: non-fading value = 3 * |set|.
  EXPECT_DOUBLE_EQ(decision.nonfading_value,
                   3.0 * static_cast<double>(decision.transmit_set.size()));
  EXPECT_GE(decision.lemma2_ratio, kInvE - 1e-12);
}

}  // namespace
}  // namespace raysched::core

namespace raysched::learning {
namespace {

using raysched::testing::paper_network;
using raysched::testing::two_close_links;
using raysched::testing::two_far_links;

TEST(FictitiousPlay, FarLinksConvergeToBothSending) {
  auto net = two_far_links(1e-6);
  FictitiousPlayOptions opts;
  opts.model = core::Propagation::NonFading;
  opts.beta = 2.0;
  opts.rounds = 120;
  util::RngStream rng(1);
  const auto result = run_fictitious_play(net, opts, rng);
  EXPECT_TRUE(result.final_profile[0]);
  EXPECT_TRUE(result.final_profile[1]);
  EXPECT_TRUE(result.reached_fixed_point);
  // Late frequencies near 1 (warmup noise aside).
  EXPECT_GT(result.send_frequency[0].value(), 0.8);
}

TEST(FictitiousPlay, CloseLinksDoNotBothSend) {
  auto net = two_close_links(1e-6);
  FictitiousPlayOptions opts;
  opts.model = core::Propagation::NonFading;
  opts.beta = 2.0;
  opts.rounds = 200;
  util::RngStream rng(2);
  const auto result = run_fictitious_play(net, opts, rng);
  EXPECT_FALSE(result.final_profile[0] && result.final_profile[1]);
}

TEST(FictitiousPlay, RayleighUsesClosedFormAndRuns) {
  auto net = paper_network(15, 6);
  FictitiousPlayOptions opts;
  opts.model = core::Propagation::Rayleigh;
  opts.beta = 2.5;
  opts.rounds = 100;
  util::RngStream rng(3);
  const auto result = run_fictitious_play(net, opts, rng);
  EXPECT_EQ(result.successes_per_round.size(), 100u);
  EXPECT_GE(result.average_successes, 0.0);
  EXPECT_LE(result.average_successes, 15.0);
  for (units::Probability f : result.send_frequency) {
    EXPECT_GE(f.value(), 0.0);
    EXPECT_LE(f.value(), 1.0);
  }
}

TEST(FictitiousPlay, ReachesConstantFractionOfOptOnSmallInstance) {
  auto net = paper_network(14, 7);
  const auto opt = algorithms::exact_max_feasible_set(net, 2.5, 14);
  ASSERT_GT(opt.selected.size(), 0u);
  FictitiousPlayOptions opts;
  opts.model = core::Propagation::NonFading;
  opts.beta = 2.5;
  opts.rounds = 200;
  util::RngStream rng(4);
  const auto result = run_fictitious_play(net, opts, rng);
  double late = 0.0;
  for (std::size_t t = 150; t < 200; ++t) late += result.successes_per_round[t];
  late /= 50.0;
  EXPECT_GT(late, 0.25 * static_cast<double>(opt.selected.size()));
}

TEST(FictitiousPlay, FixedPointIsNashWhenReported) {
  auto net = paper_network(12, 8);
  FictitiousPlayOptions opts;
  opts.model = core::Propagation::NonFading;
  opts.beta = 2.5;
  opts.rounds = 300;
  util::RngStream rng(5);
  const auto result = run_fictitious_play(net, opts, rng);
  if (result.reached_fixed_point) {
    // A stable pure profile that best-responds to its own frequencies
    // (which converge to the profile itself) should be a pure Nash
    // equilibrium of the one-shot game.
    EXPECT_TRUE(is_pure_nash(net, result.final_profile,
                             core::Propagation::NonFading, 2.5));
  }
}

TEST(FictitiousPlay, Validation) {
  auto net = paper_network(5, 9);
  util::RngStream rng(1);
  FictitiousPlayOptions bad;
  bad.rounds = 0;
  EXPECT_THROW(run_fictitious_play(net, bad, rng), raysched::error);
  FictitiousPlayOptions bad2;
  bad2.rounds = 3;
  bad2.warmup_rounds = 5;
  EXPECT_THROW(run_fictitious_play(net, bad2, rng), raysched::error);
}

}  // namespace
}  // namespace raysched::learning
