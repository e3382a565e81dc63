// Equivalence suite for the all-links Theorem-1 forms
// (core/success_probability_batch.hpp): every element of the linear,
// conditional and log forms is bit-identical to the per-link public
// function it loops over, since both run core's one per-link body.
// Checked with bit patterns, so -inf (q_i == 0 in log space) and exact
// zeros (underflow, q_i == 0) compare too.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "test_helpers.hpp"

namespace raysched::core {
namespace {

using model::LinkId;
using raysched::testing::hand_matrix_network;
using raysched::testing::paper_network;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Random probability profile with degenerate entries forced in: q[0] = 0,
/// q[1] = 1, rest uniform. Exercises the q=0 skip and the q=1 full factor.
std::vector<double> random_profile(std::size_t n, std::uint64_t seed) {
  util::RngStream rng(seed);
  std::vector<double> q(n);
  for (auto& v : q) v = rng.uniform();
  if (n > 0) q[0] = 0.0;
  if (n > 1) q[1] = 1.0;
  return q;
}

/// Each all-links form against its per-link function, element by element:
/// linear against rayleigh_success_probability, conditional against the
/// same at q with q[i] = 1, log against rayleigh_success_log_probability.
void expect_forms_match_per_link(const model::Network& net,
                                 const units::ProbabilityVector& q,
                                 units::Threshold beta) {
  std::vector<double> linear, conditional, logs;
  rayleigh_success_probabilities(net, q, beta, linear);
  rayleigh_conditional_success_probabilities(net, q, beta, conditional);
  rayleigh_success_log_probabilities(net, q, beta, logs);
  ASSERT_EQ(linear.size(), net.size());
  ASSERT_EQ(conditional.size(), net.size());
  ASSERT_EQ(logs.size(), net.size());
  for (LinkId i = 0; i < net.size(); ++i) {
    units::ProbabilityVector forced = q;
    forced[i] = units::Probability(1.0);
    EXPECT_EQ(bits(linear[i]),
              bits(rayleigh_success_probability(net, q, i, beta).value()))
        << "linear form, link " << i;
    EXPECT_EQ(
        bits(conditional[i]),
        bits(rayleigh_success_probability(net, forced, i, beta).value()))
        << "conditional form, link " << i;
    EXPECT_EQ(bits(logs[i]),
              bits(rayleigh_success_log_probability(net, q, i, beta)))
        << "log form, link " << i;
  }
}

// ---------------------------------------------------------------------------
// All-links forms vs the per-link functions.
// ---------------------------------------------------------------------------

TEST(SuccessBatch, AllLinksFormsMatchPerLinkOnRandomInstances) {
  // Non-power-of-two and larger sizes, degenerate entries included.
  for (const std::size_t n : {std::size_t{17}, std::size_t{64}}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(::testing::Message() << "n " << n << " seed " << seed);
      auto net = paper_network(n, seed);
      const auto q = units::probabilities(random_profile(n, seed ^ 0xBEEF));
      expect_forms_match_per_link(net, q, units::Threshold(2.5));
      std::vector<double> linear;
      rayleigh_success_probabilities(net, q, units::Threshold(2.5), linear);
      EXPECT_EQ(bits(linear[0]), bits(0.0));  // q[0] == 0: an exact +0
    }
  }
}

TEST(SuccessBatch, AllLinksFormsMatchPerLinkOnEdgeNetworks) {
  // The hand network; a saturated one whose linear products underflow to
  // 0 (23 factors of ~1e-15); one where beta*S(j,i) overflows while Q_i is
  // 3.4e-135; one where S(j,i) beta / S(i,i) overflows too. Each at a q
  // with and without a q_i == 0 entry.
  std::vector<double> saturated(24 * 24, 1.0e15);
  for (std::size_t i = 0; i < 24; ++i) saturated[i * 24 + i] = 1.0;
  struct Case {
    model::Network net;
    double beta;
  };
  const Case cases[] = {
      {hand_matrix_network(0.1), 1.2},
      {model::Network(24, saturated, units::Power(1.0e-3)), 1.0},
      {model::Network(2, {1e200, 1e199, 1e199, 1e200}, units::Power(0.0)),
       std::ldexp(1.0, 450)},
      {model::Network(2, {1e-10, 1e300, 1e300, 1e-10}, units::Power(0.0)),
       1e20},
  };
  for (const Case& c : cases) {
    const std::size_t n = c.net.size();
    std::vector<double> mixed(n, 1.0);
    mixed[0] = 0.0;
    if (n > 2) mixed[2] = 0.5;
    for (const auto& raw : {std::vector<double>(n, 1.0), mixed,
                            std::vector<double>(n, 0.5)}) {
      SCOPED_TRACE(::testing::Message()
                   << "n " << n << " beta " << c.beta << " q1 " << raw[1]
                   << " q0 " << raw[0]);
      expect_forms_match_per_link(c.net, units::probabilities(raw),
                                  units::Threshold(c.beta));
    }
  }
}

TEST(SuccessBatch, ZeroCrossGainReducesToNoiseFactor) {
  // With zero off-diagonal gains every interference factor is exactly 1 and
  // Q_i collapses to q_i * exp(-beta*nu/S(i,i)).
  const std::vector<double> gains = {
      4.0, 0.0, 0.0,  //
      0.0, 2.0, 0.0,  //
      0.0, 0.0, 1.0,  //
  };
  model::Network net(3, gains, units::Power(0.5));
  const units::Threshold beta(2.0);
  const auto q = units::probabilities({0.7, 1.0, 0.0});
  std::vector<double> out, conditional;
  rayleigh_success_probabilities(net, q, beta, out);
  rayleigh_conditional_success_probabilities(net, q, beta, conditional);
  EXPECT_DOUBLE_EQ(out[0], 0.7 * std::exp(-2.0 * 0.5 / 4.0));
  EXPECT_DOUBLE_EQ(out[1], std::exp(-2.0 * 0.5 / 2.0));
  EXPECT_DOUBLE_EQ(out[2], 0.0);
  EXPECT_DOUBLE_EQ(conditional[0], std::exp(-2.0 * 0.5 / 4.0));
  EXPECT_DOUBLE_EQ(conditional[2], std::exp(-2.0 * 0.5 / 1.0));
}

TEST(SuccessBatch, ConditionalStripsOwnProbability) {
  // Q_i = q_i * P[success | i sends], up to the rounding of one product.
  auto net = paper_network(12, 9);
  const units::Threshold beta(1.5);
  const auto q = units::probabilities(random_profile(12, 77));
  std::vector<double> linear, conditional;
  rayleigh_success_probabilities(net, q, beta, linear);
  rayleigh_conditional_success_probabilities(net, q, beta, conditional);
  ASSERT_EQ(conditional.size(), 12u);
  EXPECT_GT(conditional[0], 0.0);  // q[0] == 0 does not zero the condition
  for (LinkId i = 0; i < 12; ++i) {
    EXPECT_NEAR(q[i].value() * conditional[i], linear[i],
                linear[i] * 1e-12 + 1e-300)
        << "link " << i;
  }
}

// ---------------------------------------------------------------------------
// Log-space evaluation.
// ---------------------------------------------------------------------------

TEST(SuccessBatch, LogSpaceMatchesPlainEvaluation) {
  auto net = paper_network(20, 5);
  const units::Threshold beta(2.5);
  const auto q = units::probabilities(random_profile(20, 123));
  std::vector<double> plain, logs;
  rayleigh_success_probabilities(net, q, beta, plain);
  rayleigh_success_log_probabilities(net, q, beta, logs);
  ASSERT_EQ(logs.size(), 20u);
  EXPECT_EQ(logs[0], -std::numeric_limits<double>::infinity());  // q[0] == 0
  for (LinkId i = 1; i < 20; ++i) {
    EXPECT_NEAR(logs[i], std::log(plain[i]), 1e-9) << "link " << i;
  }
}

TEST(SuccessBatch, LogSpaceSurvivesUnderflow) {
  // 500 links, each hammered by 499 interferers with cross-gain 1000x its
  // own signal: every per-link product underflows the plain double range
  // (Q_i ~ (1/2500)^499), but the log form stays finite and ordered.
  const std::size_t n = 500;
  std::vector<double> gains(n * n, 1000.0);
  for (std::size_t i = 0; i < n; ++i) gains[i * n + i] = 1.0;
  model::Network net(n, std::move(gains), units::Power(0.0));
  const units::Threshold beta(2.5);
  const auto q = units::probabilities(std::vector<double>(n, 1.0));

  std::vector<double> plain, logs;
  rayleigh_success_probabilities(net, q, beta, plain);
  rayleigh_success_log_probabilities(net, q, beta, logs);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(plain[i], 0.0) << "plain product should underflow at link " << i;
    EXPECT_TRUE(std::isfinite(logs[i])) << "log form underflowed at " << i;
    EXPECT_LT(logs[i], -700.0);  // well below log(DBL_MIN) ~ -708
  }
  // Analytic check: log Q = 499 * log1p(-2500/2501).
  const double expected = 499.0 * std::log1p(-2500.0 / 2501.0);
  EXPECT_NEAR(logs[0], expected, std::abs(expected) * 1e-12);
}

// ---------------------------------------------------------------------------
// Fused batch_* free functions: bit-identical to the scalar loops.
// ---------------------------------------------------------------------------

TEST(SuccessBatch, FusedBatchIsBitIdenticalToScalar) {
  auto net = paper_network(31, 4);
  const units::Threshold beta(2.5);
  const auto q = units::probabilities(random_profile(31, 0xFACE));
  const std::vector<double> batch =
      batch_rayleigh_success_probabilities(net, q, beta);
  ASSERT_EQ(batch.size(), 31u);
  double sum = 0.0;
  for (LinkId i = 0; i < 31; ++i) {
    // EXPECT_EQ on purpose: the fused path promises bitwise equality.
    EXPECT_EQ(batch[i], rayleigh_success_probability(net, q, i, beta).value())
        << "link " << i;
    sum += batch[i];
  }
  EXPECT_EQ(expected_rayleigh_successes(net, q, beta), sum);
}

TEST(SuccessBatch, FusedActiveBatchIsBitIdenticalToScalar) {
  // A fixed set has one closed form: the aggregate adds the per-link values
  // in set order, and the core name rsbench keeps forwards to it.
  auto net = paper_network(25, 6);
  const units::Threshold beta(2.5);
  model::LinkSet active;
  for (LinkId i = 0; i < 25; i += 3) active.push_back(i);
  double sum = 0.0;
  for (LinkId i : active) {
    sum += model::success_probability_rayleigh(net, active, i, beta).value();
  }
  EXPECT_EQ(model::expected_successes_rayleigh(net, active, beta), sum);
  EXPECT_EQ(batch_expected_successes_active(net, active, beta), sum);
}

TEST(SuccessBatch, ValidatesInput) {
  auto net = hand_matrix_network();
  EXPECT_THROW(
      SuccessProbabilityKernel(net, units::Threshold::checked(0.0)),
      raysched::error);
  std::vector<double> out;
  const auto short_q = units::probabilities({0.5, 0.5});  // size mismatch
  EXPECT_THROW(
      rayleigh_success_probabilities(net, short_q, units::Threshold(1.0), out),
      raysched::error);
  EXPECT_THROW(rayleigh_conditional_success_probabilities(
                   net, short_q, units::Threshold(1.0), out),
               raysched::error);
  EXPECT_THROW(rayleigh_success_log_probabilities(net, short_q,
                                                  units::Threshold(1.0), out),
               raysched::error);
  EXPECT_THROW(
      batch_rayleigh_success_probabilities(net, units::probabilities({0.5}),
                                           units::Threshold(1.0)),
      raysched::error);
  EXPECT_THROW(expected_rayleigh_successes(net, units::probabilities({0.5}),
                                           units::Threshold(1.0)),
               raysched::error);
  EXPECT_THROW(model::expected_successes_rayleigh(net, {0, 9},
                                                  units::Threshold(1.0)),
               raysched::error);  // id out of range
}

}  // namespace
}  // namespace raysched::core
