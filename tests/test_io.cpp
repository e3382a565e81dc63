// Tests for network (de)serialization and the analytic latency estimators.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "test_helpers.hpp"

namespace raysched::model {
namespace {

using raysched::testing::hand_matrix_network;
using raysched::testing::paper_network;

TEST(NetworkIo, GeometricRoundTrip) {
  auto net = paper_network(12, 42);
  std::stringstream ss;
  write_network(ss, net);
  const Network loaded = read_network(ss);
  ASSERT_EQ(loaded.size(), net.size());
  EXPECT_DOUBLE_EQ(loaded.noise(), net.noise());
  EXPECT_DOUBLE_EQ(loaded.alpha(), net.alpha());
  ASSERT_TRUE(loaded.has_geometry());
  for (LinkId j = 0; j < net.size(); ++j) {
    EXPECT_DOUBLE_EQ(loaded.power(j), net.power(j));
    for (LinkId i = 0; i < net.size(); ++i) {
      EXPECT_DOUBLE_EQ(loaded.mean_gain(j, i), net.mean_gain(j, i))
          << j << "," << i;
    }
  }
}

TEST(NetworkIo, GeometricRoundTripAfterSetPowers) {
  auto net = paper_network(6, 7);
  std::vector<double> powers(net.size());
  for (std::size_t i = 0; i < powers.size(); ++i) {
    powers[i] = 1.0 + static_cast<double>(i);
  }
  net.set_powers(powers);
  std::stringstream ss;
  write_network(ss, net);
  const Network loaded = read_network(ss);
  for (LinkId j = 0; j < net.size(); ++j) {
    EXPECT_DOUBLE_EQ(loaded.power(j), net.power(j));
    EXPECT_DOUBLE_EQ(loaded.signal(j), net.signal(j));
  }
}

TEST(NetworkIo, MatrixRoundTrip) {
  auto net = hand_matrix_network(0.25);
  std::stringstream ss;
  write_network(ss, net);
  const Network loaded = read_network(ss);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_FALSE(loaded.has_geometry());
  EXPECT_DOUBLE_EQ(loaded.noise(), 0.25);
  for (LinkId j = 0; j < 3; ++j) {
    for (LinkId i = 0; i < 3; ++i) {
      EXPECT_DOUBLE_EQ(loaded.mean_gain(j, i), net.mean_gain(j, i));
    }
  }
}

TEST(NetworkIo, FileRoundTrip) {
  auto net = paper_network(5, 3);
  const std::string path = "test_io_roundtrip.net";
  save_network(path, net);
  const Network loaded = load_network(path);
  EXPECT_EQ(loaded.size(), net.size());
  EXPECT_DOUBLE_EQ(loaded.signal(0), net.signal(0));
  std::remove(path.c_str());
  EXPECT_THROW(load_network("does_not_exist.net"), raysched::error);
}

TEST(NetworkIo, RejectsMalformedInput) {
  {
    std::stringstream ss("garbage");
    EXPECT_THROW(read_network(ss), raysched::error);
  }
  {
    std::stringstream ss("raysched-network 99\nkind matrix\n");
    EXPECT_THROW(read_network(ss), raysched::error);
  }
  {
    std::stringstream ss("raysched-network 1\nkind banana\n");
    EXPECT_THROW(read_network(ss), raysched::error);
  }
  {
    // Truncated gains.
    std::stringstream ss(
        "raysched-network 1\nkind matrix\nn 2 noise 0\ngains 1 1\n");
    EXPECT_THROW(read_network(ss), raysched::error);
  }
}

TEST(NetworkIo, RejectsAbsurdLinkCountBeforeAllocating) {
  {
    // A hostile geometric header: would be a ~100 GB allocation if trusted.
    std::stringstream ss(
        "raysched-network 1\nkind geometric\nn 3000000000 noise 0 alpha 2\n");
    EXPECT_THROW(read_network(ss), raysched::error);
  }
  {
    // Matrix networks store n^2 gains, so the cap is much tighter.
    std::stringstream ss("raysched-network 1\nkind matrix\nn 100000 noise 0\n");
    EXPECT_THROW(read_network(ss), raysched::error);
  }
  {
    // Just over the matrix cap must be rejected with a raysched::error, not
    // OOM; well under it proceeds to ordinary parsing (and fails later on
    // truncation, proving the cap check did not fire).
    std::stringstream ss("raysched-network 1\nkind matrix\nn 8193 noise 0\n");
    EXPECT_THROW(read_network(ss), raysched::error);
  }
}

TEST(NetworkIo, RejectsNonFiniteHeaderValues) {
  {
    std::stringstream ss(
        "raysched-network 1\nkind matrix\nn 1 noise nan\ngains 1\n");
    EXPECT_THROW(read_network(ss), raysched::error);
  }
  {
    std::stringstream ss(
        "raysched-network 1\nkind matrix\nn 1 noise inf\ngains 1\n");
    EXPECT_THROW(read_network(ss), raysched::error);
  }
  {
    std::stringstream ss(
        "raysched-network 1\nkind geometric\nn 1 noise 0 alpha nan\n"
        "link 0 0 1 0 1\n");
    EXPECT_THROW(read_network(ss), raysched::error);
  }
  {
    std::stringstream ss(
        "raysched-network 1\nkind geometric\nn 1 noise -0.5 alpha 2\n"
        "link 0 0 1 0 1\n");
    EXPECT_THROW(read_network(ss), raysched::error);
  }
}

TEST(NetworkIo, RejectsNonFiniteAndNegativeBodyValues) {
  {
    // NaN gain entry.
    std::stringstream ss(
        "raysched-network 1\nkind matrix\nn 2 noise 0\n"
        "gains 1 nan\ngains 0.5 1\n");
    EXPECT_THROW(read_network(ss), raysched::error);
  }
  {
    // Negative gain entry.
    std::stringstream ss(
        "raysched-network 1\nkind matrix\nn 2 noise 0\n"
        "gains 1 -0.25\ngains 0.5 1\n");
    EXPECT_THROW(read_network(ss), raysched::error);
  }
  {
    // Infinite link coordinate.
    std::stringstream ss(
        "raysched-network 1\nkind geometric\nn 1 noise 0 alpha 2\n"
        "link inf 0 1 0 1\n");
    EXPECT_THROW(read_network(ss), raysched::error);
  }
  {
    // Negative power.
    std::stringstream ss(
        "raysched-network 1\nkind geometric\nn 1 noise 0 alpha 2\n"
        "link 0 0 1 0 -2\n");
    EXPECT_THROW(read_network(ss), raysched::error);
  }
  {
    // Trailing garbage fused to a number must not silently parse.
    std::stringstream ss(
        "raysched-network 1\nkind matrix\nn 1 noise 0\ngains 1x\n");
    EXPECT_THROW(read_network(ss), raysched::error);
  }
}

}  // namespace
}  // namespace raysched::model

namespace raysched::core {
namespace {

using raysched::testing::paper_network;

TEST(LatencyBounds, SlotProbabilitiesMatchTheorem1) {
  auto net = paper_network(10, 4);
  const double q = 0.25, beta = 2.5;
  const auto probs = aloha_slot_success_probabilities(net, units::Probability(q), units::Threshold(beta));
  std::vector<double> qs(net.size(), q);
  for (model::LinkId i = 0; i < net.size(); ++i) {
    EXPECT_DOUBLE_EQ(probs[i].value(),
                     rayleigh_success_probability(net, units::probabilities(qs), i, units::Threshold(beta)).value());
  }
}

TEST(LatencyBounds, SoloProbabilitiesNoiseOnly) {
  auto net = paper_network(5, 5);
  const auto probs = aloha_solo_success_probabilities(net, units::Probability(0.25), units::Threshold(2.5));
  for (model::LinkId i = 0; i < net.size(); ++i) {
    EXPECT_NEAR(probs[i].value(),
                0.25 * std::exp(-2.5 * net.noise() / net.signal(i)), 1e-15);
  }
}

TEST(CoverTime, SingleLinkIsGeometricMean) {
  EXPECT_NEAR(expected_cover_time(units::probabilities({0.5})), 2.0, 1e-9);
  EXPECT_NEAR(expected_cover_time(units::probabilities({0.25})), 4.0, 1e-9);
  EXPECT_NEAR(expected_cover_time(units::probabilities({1.0})), 1.0, 1e-9);
}

TEST(CoverTime, TwoIdenticalLinksClosedForm) {
  // E[max(G1, G2)] = 2/p - 1/(1-(1-p)^2) for iid geometrics.
  const double p = 0.3;
  const double expected = 2.0 / p - 1.0 / (1.0 - (1.0 - p) * (1.0 - p));
  EXPECT_NEAR(expected_cover_time(units::probabilities({p, p})), expected, 1e-9);
}

TEST(CoverTime, MonotoneInProbabilities) {
  EXPECT_GT(expected_cover_time(units::probabilities({0.2, 0.2})), expected_cover_time(units::probabilities({0.4, 0.4})));
  EXPECT_GT(expected_cover_time(units::probabilities({0.2, 0.9})), expected_cover_time(units::probabilities({0.9, 0.9})));
}

TEST(CoverTime, Validation) {
  EXPECT_THROW(expected_cover_time(units::probabilities({})), raysched::error);
  EXPECT_THROW(expected_cover_time(units::probabilities({0.0})), raysched::error);
  EXPECT_THROW(expected_cover_time(units::probabilities({1.5})), raysched::error);
}

TEST(StepSuccess, ModelsTheFourRepeatBoost) {
  // p_slot = q * p_cond; step = q * (1 - (1 - p_cond)^4).
  const double q = 0.25;
  const auto out = step_success_probabilities(units::probabilities({q * 0.5, q * 1.0, 0.0}), units::Probability(q));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_NEAR(out[0].value(), q * (1.0 - std::pow(0.5, 4)), 1e-15);
  EXPECT_NEAR(out[1].value(), q, 1e-15);  // conditional 1: succeeds on repeat 1
  EXPECT_DOUBLE_EQ(out[2].value(), 0.0);
  EXPECT_THROW(step_success_probabilities(units::probabilities({0.5}), units::Probability(0.25)), raysched::error);
  EXPECT_THROW(step_success_probabilities(units::probabilities({0.1}), units::Probability(0.0)), raysched::error);
}

TEST(LatencyBounds, SandwichSimulatedAlohaLatency) {
  // Fixed-q ALOHA under Rayleigh: the optimistic estimate (no contention)
  // must undercut the simulated mean; the pessimistic one (full contention
  // forever) must exceed it. Note the simulated protocol runs 4 repeats per
  // step but each elementary slot is a fresh Rayleigh trial, so the
  // analytic single-slot model applies directly to elementary slots.
  auto net = paper_network(12, 6);
  const double q = 0.25, beta = 2.5;
  const double lower = aloha_latency_lower_estimate(net, units::Probability(q), units::Threshold(beta));
  const double upper = aloha_latency_upper_estimate(net, units::Probability(q), units::Threshold(beta));
  ASSERT_LE(lower, upper);
  sim::Accumulator sim_latency;
  for (std::uint64_t s = 0; s < 60; ++s) {
    util::RngStream rng(1000 + s);
    const auto result = raysched::algorithms::aloha_schedule(
        net, beta, raysched::core::Propagation::Rayleigh, rng);
    ASSERT_TRUE(result.completed);
    sim_latency.add(static_cast<double>(result.slots));
  }
  // These are heuristic estimates, not strict bounds (the real protocol
  // freezes the transmit set per 4-slot step, which the analytic model
  // approximates); allow a generous statistical bracket.
  EXPECT_GT(sim_latency.mean(), lower * 0.7);
  EXPECT_LT(sim_latency.mean(), upper * 1.5);
}

}  // namespace
}  // namespace raysched::core
