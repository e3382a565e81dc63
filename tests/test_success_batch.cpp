// Equivalence suite for the batched Theorem-1 kernel: pins the kernel and
// the fused batch_* free functions to the scalar reference implementations.
//
// Two tolerance tiers, matching the contracts in
// src/core/success_probability_batch.hpp:
//  * The fused batch_* aggregates are BIT-IDENTICAL to the scalar loops
//    (same expression, same iteration order) — tested with EXPECT_EQ.
//  * The kernel's division-free matrix form differs from the scalar
//    division form only in per-factor rounding — tested at ulp scale
//    (relative 1e-12 over products of up to ~500 factors).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "test_helpers.hpp"

namespace raysched::core {
namespace {

using model::LinkId;
using raysched::testing::hand_matrix_network;
using raysched::testing::paper_network;

/// ulp-scale comparison for the matrix-vs-division forms: relative 1e-12
/// with an absolute floor for values that are legitimately ~0.
void expect_ulp_close(double actual, double reference, const char* what,
                      std::size_t i) {
  EXPECT_NEAR(actual, reference, std::abs(reference) * 1e-12 + 1e-300)
      << what << " diverged from scalar at link " << i;
}

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

// ---------------------------------------------------------------------------
// One-shot kernel vs scalar Theorem 1.
// ---------------------------------------------------------------------------

TEST(SuccessBatch, KernelMatchesScalarOnHandNetwork) {
  auto net = hand_matrix_network(0.1);
  const units::Threshold beta(1.2);
  const auto q = units::probabilities({0.8, 0.5, 0.3});
  SuccessProbabilityKernel kernel(net, beta);
  ASSERT_EQ(kernel.size(), 3u);
  EXPECT_DOUBLE_EQ(kernel.beta().value(), 1.2);
  const std::vector<double> out = kernel.evaluate(q);
  ASSERT_EQ(out.size(), 3u);
  for (LinkId i = 0; i < 3; ++i) {
    expect_ulp_close(out[i],
                     rayleigh_success_probability(net, q, i, beta).value(),
                     "evaluate", i);
  }
}

TEST(SuccessBatch, KernelMatchesScalarOnRandomInstances) {
  // Non-power-of-two and larger sizes, degenerate entries included.
  for (const std::size_t n : {std::size_t{17}, std::size_t{64}}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      auto net = paper_network(n, seed);
      const units::Threshold beta(2.5);
      const auto q = units::probabilities(random_profile(n, seed ^ 0xBEEF));
      SuccessProbabilityKernel kernel(net, beta);
      const std::vector<double> out = kernel.evaluate(q);
      ASSERT_EQ(out.size(), n);
      EXPECT_EQ(out[0], 0.0);  // q[0] == 0 must yield an exact zero
      for (LinkId i = 0; i < n; ++i) {
        expect_ulp_close(out[i],
                         rayleigh_success_probability(net, q, i, beta).value(),
                         "evaluate", i);
      }
    }
  }
}

TEST(SuccessBatch, ZeroCrossGainReducesToNoiseFactor) {
  // With zero off-diagonal gains every interference factor is exactly 1 and
  // both forms collapse to q_i * exp(-beta*nu/S(i,i)).
  const std::vector<double> gains = {
      4.0, 0.0, 0.0,  //
      0.0, 2.0, 0.0,  //
      0.0, 0.0, 1.0,  //
  };
  model::Network net(3, gains, units::Power(0.5));
  const units::Threshold beta(2.0);
  const auto q = units::probabilities({0.7, 1.0, 0.0});
  SuccessProbabilityKernel kernel(net, beta);
  const std::vector<double> out = kernel.evaluate(q);
  EXPECT_DOUBLE_EQ(out[0], 0.7 * std::exp(-2.0 * 0.5 / 4.0));
  EXPECT_DOUBLE_EQ(out[1], std::exp(-2.0 * 0.5 / 2.0));
  EXPECT_DOUBLE_EQ(out[2], 0.0);
  for (LinkId i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(out[i],
                     rayleigh_success_probability(net, q, i, beta).value());
    EXPECT_EQ(kernel.affectance(i, i), 0.0);
  }
  EXPECT_EQ(kernel.affectance(0, 1), 0.0);  // zero gain -> zero affectance
}

TEST(SuccessBatch, ConditionalStripsOwnProbability) {
  auto net = paper_network(12, 9);
  const units::Threshold beta(1.5);
  const auto q = units::probabilities(random_profile(12, 77));
  SuccessProbabilityKernel kernel(net, beta);
  std::vector<double> conditional;
  kernel.evaluate_conditional(q, conditional);
  ASSERT_EQ(conditional.size(), 12u);
  for (LinkId i = 0; i < 12; ++i) {
    // Reference: scalar Theorem 1 with q_i forced to 1 (certain transmit).
    std::vector<double> forced(q.size());
    for (std::size_t j = 0; j < q.size(); ++j) forced[j] = q[j].value();
    forced[i] = 1.0;
    expect_ulp_close(
        conditional[i],
        rayleigh_success_probability(net, units::probabilities(forced), i,
                                     beta)
            .value(),
        "evaluate_conditional", i);
  }
}

// ---------------------------------------------------------------------------
// Log-space evaluation.
// ---------------------------------------------------------------------------

TEST(SuccessBatch, LogSpaceMatchesPlainEvaluation) {
  auto net = paper_network(20, 5);
  const units::Threshold beta(2.5);
  const auto q = units::probabilities(random_profile(20, 123));
  SuccessProbabilityKernel kernel(net, beta);
  const std::vector<double> plain = kernel.evaluate(q);
  const std::vector<double> logs = kernel.evaluate_log(q);
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
  SuccessProbabilityKernel kernel(net, beta);

  const std::vector<double> plain = kernel.evaluate(q);
  const std::vector<double> logs = kernel.evaluate_log(q);
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
  SuccessProbabilityKernel kernel(net, units::Threshold(1.0));
  EXPECT_THROW(kernel.evaluate(units::probabilities({0.5, 0.5})),
               raysched::error);  // size mismatch
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
