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
//
// The incremental path has its own bitwise pin: a chain of update_link
// calls must reproduce a from-scratch set_probabilities exactly, because
// the coordinate-ascent consumer relies on hill-climbing decisions not
// drifting with the update history.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "sim/batch_executor.hpp"
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
  EXPECT_EQ(batch_expected_rayleigh_successes(net, q, beta), sum);
  EXPECT_EQ(expected_rayleigh_successes(net, q, beta), sum);
}

TEST(SuccessBatch, FusedActiveBatchIsBitIdenticalToScalar) {
  auto net = paper_network(25, 6);
  const units::Threshold beta(2.5);
  model::LinkSet active;
  for (LinkId i = 0; i < 25; i += 3) active.push_back(i);
  const std::vector<double> batch =
      batch_success_probabilities_active(net, active, beta);
  ASSERT_EQ(batch.size(), active.size());
  double sum = 0.0;
  for (std::size_t a = 0; a < active.size(); ++a) {
    EXPECT_EQ(
        batch[a],
        model::success_probability_rayleigh(net, active, active[a], beta)
            .value())
        << "active[" << a << "]";
    sum += batch[a];
  }
  EXPECT_EQ(batch_expected_successes_active(net, active, beta), sum);
  EXPECT_EQ(model::expected_successes_rayleigh(net, active, beta), sum);
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
  EXPECT_THROW(batch_success_probabilities_active(net, {0, 9},
                                                  units::Threshold(1.0)),
               raysched::error);  // id out of range
}

// ---------------------------------------------------------------------------
// Incremental mode: update_link must match from-scratch bit-for-bit.
// ---------------------------------------------------------------------------

TEST(SuccessBatchIncremental, UpdateLinkMatchesFromScratchBitwise) {
  // Non-power-of-two size so the padded tree leaves are exercised.
  const std::size_t n = 33;
  auto net = paper_network(n, 21);
  const units::Threshold beta(2.5);
  std::vector<double> q = random_profile(n, 0xD1CE);

  SuccessProbabilityKernel incremental(net, beta);
  incremental.set_probabilities(units::probabilities(q));
  EXPECT_TRUE(incremental.has_state());

  util::RngStream rng(314);
  for (int step = 0; step < 40; ++step) {
    const auto id = static_cast<LinkId>(rng.uniform_index(n));
    // Mix interior values with exact 0 and 1 edges.
    const double v = step % 7 == 0 ? 0.0 : step % 5 == 0 ? 1.0 : rng.uniform();
    q[id] = v;
    incremental.update_link(id, units::Probability(v));

    SuccessProbabilityKernel fresh(net, beta);
    fresh.set_probabilities(units::probabilities(q));
    for (LinkId i = 0; i < n; ++i) {
      // Bitwise: the incremental contract is exact reproduction.
      EXPECT_EQ(incremental.success_probabilities()[i],
                fresh.success_probabilities()[i])
          << "step " << step << " link " << i;
    }
    EXPECT_EQ(incremental.expected_successes(), fresh.expected_successes())
        << "step " << step;
  }
  // The stored vector tracked every change.
  for (LinkId i = 0; i < n; ++i) {
    EXPECT_EQ(incremental.probabilities()[i].value(), q[i]);
  }

  // Single-link network: the forest has one leaf and no interior rows.
  model::Network tiny(1, std::vector<double>{4.0}, units::Power(0.1));
  SuccessProbabilityKernel one(tiny, units::Threshold(1.0));
  one.set_probabilities(units::probabilities({0.25}));
  one.update_link(0, units::Probability(0.75));
  SuccessProbabilityKernel fresh(tiny, units::Threshold(1.0));
  fresh.set_probabilities(units::probabilities({0.75}));
  EXPECT_EQ(one.success_probabilities()[0], fresh.success_probabilities()[0]);
  one.update_link(0, units::Probability(0.0));
  EXPECT_EQ(one.success_probabilities()[0], 0.0);
}

TEST(SuccessBatchIncremental, AgreesWithOneShotAndScalar) {
  auto net = paper_network(17, 8);
  const units::Threshold beta(1.5);
  const auto q = units::probabilities(random_profile(17, 99));
  SuccessProbabilityKernel kernel(net, beta);
  kernel.set_probabilities(q);
  const std::vector<double> oneshot = kernel.evaluate(q);
  for (LinkId i = 0; i < 17; ++i) {
    // Tree association order differs from the sequential product, so this
    // comparison is ulp-scale, not bitwise.
    expect_ulp_close(kernel.success_probabilities()[i], oneshot[i],
                     "incremental value", i);
    expect_ulp_close(kernel.success_probability(i).value(),
                     rayleigh_success_probability(net, q, i, beta).value(),
                     "incremental vs scalar", i);
  }
}

TEST(SuccessBatchIncremental, SetProbabilitiesIsRepeatable) {
  auto net = paper_network(9, 13);
  const units::Threshold beta(2.0);
  SuccessProbabilityKernel kernel(net, beta);
  kernel.set_probabilities(units::probabilities(random_profile(9, 1)));
  const auto q2 = units::probabilities(random_profile(9, 2));
  kernel.set_probabilities(q2);

  SuccessProbabilityKernel fresh(net, beta);
  fresh.set_probabilities(q2);
  for (LinkId i = 0; i < 9; ++i) {
    EXPECT_EQ(kernel.success_probabilities()[i],
              fresh.success_probabilities()[i]);
  }
}

TEST(SuccessBatchIncremental, GuardsItsPreconditions) {
  auto net = hand_matrix_network();
  SuccessProbabilityKernel kernel(net, units::Threshold(1.0));
  EXPECT_FALSE(kernel.has_state());
  EXPECT_THROW(kernel.update_link(0, units::Probability(0.5)),
               raysched::error);  // before set_probabilities
  EXPECT_THROW(kernel.success_probabilities(), raysched::error);
  EXPECT_THROW(kernel.expected_successes(), raysched::error);
  EXPECT_THROW(kernel.probabilities(), raysched::error);
  kernel.set_probabilities(units::probabilities({0.5, 0.5, 0.5}));
  EXPECT_THROW(kernel.update_link(9, units::Probability(0.5)),
               raysched::error);  // id out of range
  EXPECT_THROW(kernel.success_probability(9), raysched::error);
}

// ---------------------------------------------------------------------------
// Lifecycle: reset and re-seeding, pinned bit-for-bit against from-scratch
// set_probabilities.
// ---------------------------------------------------------------------------

TEST(SuccessBatchLifecycle, ResetDropsStateAndAllowsReseeding) {
  auto net = paper_network(8, 46);
  const units::Threshold beta(2.5);
  SuccessProbabilityKernel kernel(net, beta);
  kernel.set_probabilities(units::probabilities(random_profile(8, 3)));
  ASSERT_TRUE(kernel.has_state());

  kernel.reset();
  EXPECT_FALSE(kernel.has_state());
  EXPECT_THROW(kernel.success_probabilities(), raysched::error);
  EXPECT_THROW(kernel.update_link(0, units::Probability(0.5)),
               raysched::error);

  // Re-seeding after reset is bit-identical to a virgin kernel.
  const auto q2 = units::probabilities(random_profile(8, 4));
  kernel.set_probabilities(q2);
  SuccessProbabilityKernel fresh(net, beta);
  fresh.set_probabilities(q2);
  for (LinkId i = 0; i < 8; ++i) {
    EXPECT_EQ(kernel.success_probabilities()[i],
              fresh.success_probabilities()[i]);
  }
}

// ---------------------------------------------------------------------------
// Executor injection: parallel chunking must not change a single bit.
// ---------------------------------------------------------------------------

TEST(SuccessBatchExecutor, PoolChunkingIsBitwiseIdenticalToSerial) {
  auto net = paper_network(41, 17);
  const units::Threshold beta(2.5);
  const auto q = units::probabilities(random_profile(41, 0xF00D));

  SuccessProbabilityKernel serial(net, beta);
  // min_chunk 1 forces maximal chunking so boundaries land everywhere.
  sim::ThreadPool pool(4);
  SuccessProbabilityKernel pooled(net, beta,
                                  sim::pool_batch_executor(pool, 1));

  const std::vector<double> a = serial.evaluate(q);
  const std::vector<double> b = pooled.evaluate(q);
  for (LinkId i = 0; i < 41; ++i) EXPECT_EQ(a[i], b[i]) << "link " << i;

  serial.set_probabilities(q);
  pooled.set_probabilities(q);
  util::RngStream rng(7);
  for (int step = 0; step < 10; ++step) {
    const auto id = static_cast<LinkId>(rng.uniform_index(41));
    const units::Probability v(rng.uniform());
    serial.update_link(id, v);
    pooled.update_link(id, v);
  }
  for (LinkId i = 0; i < 41; ++i) {
    EXPECT_EQ(serial.success_probabilities()[i],
              pooled.success_probabilities()[i])
        << "link " << i;
  }
  EXPECT_EQ(serial.expected_successes(), pooled.expected_successes());

  const auto exec = sim::pool_batch_executor(pool, 1);
  const std::vector<double> plain =
      batch_rayleigh_success_probabilities(net, q, beta);
  const std::vector<double> fanned =
      batch_rayleigh_success_probabilities(net, q, beta, exec);
  for (LinkId i = 0; i < 41; ++i) EXPECT_EQ(plain[i], fanned[i]);
  EXPECT_EQ(batch_expected_rayleigh_successes(net, q, beta),
            batch_expected_rayleigh_successes(net, q, beta, exec));
  // The serial active-set sum runs in place; the fanned one sums a buffer.
  model::LinkSet active;
  for (LinkId i = 0; i < 41; i += 2) active.push_back(i);
  EXPECT_EQ(batch_expected_successes_active(net, active, beta),
            batch_expected_successes_active(net, active, beta, exec));
}

}  // namespace
}  // namespace raysched::core
