// Tests for the exact ALOHA latency Markov-chain analysis, including the
// validation of the latency simulators against ground truth.
#include <gtest/gtest.h>

#include <cmath>

#include "test_helpers.hpp"

namespace raysched::core {
namespace {

using raysched::testing::paper_network;
using raysched::testing::two_far_links;

TEST(LatencyExact, SingleAlwaysSuccessfulLinkIsGeometric) {
  // One link, non-fading, always feasible: success per step iff it
  // transmits -> E[steps] = 1/q.
  std::vector<double> gains = {1.0};
  model::Network net(1, gains, units::Power(0.01));  // SINR alone = 100
  const double q = 0.25;
  EXPECT_NEAR(exact_aloha_expected_macro_steps(net, units::Probability(q), units::Threshold(2.0),
                                               Propagation::NonFading),
              1.0 / q, 1e-9);
}

TEST(LatencyExact, SingleRayleighLinkClosedForm) {
  // One link, Rayleigh: per-slot success p = exp(-beta*nu/S); per macro
  // step (4 repeats) b = 1-(1-p)^4; E[steps] = 1/(q*b); slots = 4x.
  std::vector<double> gains = {1.0};
  model::Network net(1, gains, units::Power(0.3));
  const double beta = 2.0, q = 0.5;
  const double p = std::exp(-beta * 0.3 / 1.0);
  const double b = 1.0 - std::pow(1.0 - p, 4);
  EXPECT_NEAR(
      exact_aloha_expected_macro_steps(net, units::Probability(q), units::Threshold(beta), Propagation::Rayleigh),
      1.0 / (q * b), 1e-9);
  EXPECT_NEAR(
      exact_aloha_expected_slots(net, units::Probability(q), units::Threshold(beta), Propagation::Rayleigh),
      4.0 / (q * b), 1e-9);
}

TEST(LatencyExact, TwoIndependentLinksMatchCoverTime) {
  // Far-apart links at a threshold they always meet: each is an
  // independent geometric with success q; the exact chain must equal the
  // closed-form cover time of {q, q}.
  auto net = two_far_links(1e-6);
  const double q = 0.3;
  const double exact = exact_aloha_expected_macro_steps(
      net, units::Probability(q), units::Threshold(2.0), Propagation::NonFading);
  EXPECT_NEAR(exact, expected_cover_time(units::probabilities({q, q})), 1e-9);
}

TEST(LatencyExact, BlockingPairIsSlowerThanIndependentPair) {
  // Co-located links: simultaneous transmissions fail, so the chain must
  // be strictly slower than two independent geometrics.
  auto net = raysched::testing::two_close_links(1e-6);
  const double q = 0.3;
  const double blocking = exact_aloha_expected_macro_steps(
      net, units::Probability(q), units::Threshold(2.0), Propagation::NonFading);
  EXPECT_GT(blocking, expected_cover_time(units::probabilities({q, q})) + 0.5);
  // Known closed form for the blocking pair: only solo transmissions
  // succeed, each happening w.p. q(1-q) per step. From two remaining the
  // first success takes 1/(2q(1-q)); then the survivor alone takes 1/q.
  const double solo = q * (1.0 - q);
  EXPECT_NEAR(blocking, 1.0 / (2.0 * solo) + 1.0 / q, 1e-9);
}

TEST(LatencyExact, SimulatorMatchesGroundTruthNonFading) {
  auto net = paper_network(6, 31);
  const double beta = 2.5, q = 0.25;
  const double exact =
      exact_aloha_expected_slots(net, units::Probability(q), units::Threshold(beta), Propagation::NonFading);
  sim::Accumulator sim_slots;
  for (std::uint64_t s = 0; s < 600; ++s) {
    util::RngStream rng(4000 + s);
    const auto run = raysched::algorithms::aloha_schedule(
        net, beta, Propagation::NonFading, rng);
    ASSERT_TRUE(run.completed);
    sim_slots.add(static_cast<double>(run.slots));
  }
  EXPECT_NEAR(sim_slots.mean(), exact, 4.0 * sim_slots.sem());
}

TEST(LatencyExact, SimulatorMatchesGroundTruthRayleigh) {
  auto net = paper_network(5, 32);
  const double beta = 2.5, q = 0.25;
  const double exact =
      exact_aloha_expected_slots(net, units::Probability(q), units::Threshold(beta), Propagation::Rayleigh);
  sim::Accumulator sim_slots;
  for (std::uint64_t s = 0; s < 600; ++s) {
    util::RngStream rng(5000 + s);
    const auto run = raysched::algorithms::aloha_schedule(
        net, beta, Propagation::Rayleigh, rng);
    ASSERT_TRUE(run.completed);
    sim_slots.add(static_cast<double>(run.slots));
  }
  EXPECT_NEAR(sim_slots.mean(), exact, 4.0 * sim_slots.sem());
}

TEST(LatencyExact, AnalyticEstimatesBracketGroundTruth) {
  // The heuristic cover-time estimates of latency_bounds must bracket (or
  // at least flank) the exact value: solo probabilities are optimistic,
  // full contention pessimistic.
  auto net = paper_network(6, 33);
  const double beta = 2.5, q = 0.25;
  const double exact =
      exact_aloha_expected_slots(net, units::Probability(q), units::Threshold(beta), Propagation::Rayleigh);
  const double lower = aloha_latency_lower_estimate(net, units::Probability(q), units::Threshold(beta));
  const double upper = aloha_latency_upper_estimate(net, units::Probability(q), units::Threshold(beta));
  EXPECT_LE(lower, exact * 1.05);
  EXPECT_GE(upper, exact * 0.9);
}

TEST(LatencyExact, RayleighSlowerThanNonFadingWhenFeasible) {
  // When the instance is fully non-fading feasible per solo transmission,
  // fading can only hurt (per-slot success < 1), so the Rayleigh chain (in
  // macro steps) is at least the non-fading one.
  auto net = paper_network(5, 34);
  const double beta = 2.5, q = 0.25;
  EXPECT_GE(exact_aloha_expected_macro_steps(net, units::Probability(q), units::Threshold(beta),
                                             Propagation::Rayleigh),
            exact_aloha_expected_macro_steps(net, units::Probability(q), units::Threshold(beta),
                                             Propagation::NonFading) -
                1e-9);
}

TEST(LatencyExact, Validation) {
  auto big = paper_network(15, 35);
  EXPECT_THROW(exact_aloha_expected_macro_steps(big, units::Probability(0.25), units::Threshold(2.5),
                                                Propagation::NonFading, 12),
               raysched::error);
  auto net = paper_network(4, 36);
  EXPECT_THROW(exact_aloha_expected_macro_steps(net, units::Probability(0.0), units::Threshold(2.5),
                                                Propagation::NonFading),
               raysched::error);
  // Infinite expected latency (a link that can never succeed) is reported,
  // not looped on: huge noise makes every link hopeless in non-fading.
  auto hopeless = paper_network(3, 37, 2.2, /*noise=*/1.0);
  EXPECT_THROW(exact_aloha_expected_macro_steps(hopeless, units::Probability(0.5), units::Threshold(2.5),
                                                Propagation::NonFading),
               raysched::error);
}

}  // namespace
}  // namespace raysched::core
