// Integration tests: end-to-end pipelines mirroring the paper's experiments
// at reduced scale.
#include <gtest/gtest.h>

#include <cmath>

#include "test_helpers.hpp"

namespace raysched {
namespace {

using model::LinkId;
using model::LinkSet;
using raysched::testing::paper_network;

// Figure-1 pipeline at miniature scale: uniform transmission probability
// sweep; the Rayleigh curve must be a "smoothed" version of the non-fading
// curve — in particular both are 0 at q=0, and the Rayleigh expected
// successes stay within a constant factor of non-fading for interior q.
TEST(Integration, Figure1MiniatureSweep) {
  auto net = paper_network(30, 2024);
  const double beta = 2.5;
  util::RngStream rng(1);
  double prev_nonfading_at_0 = -1.0;
  for (double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    std::vector<double> probs(net.size(), q);
    const double rayleigh = core::expected_rayleigh_successes(net, units::probabilities(probs), units::Threshold(beta));
    const double nonfading =
        core::expected_nonfading_successes_mc(net, units::probabilities(probs), units::Threshold(beta), 800, rng);
    if (q == 0.0) {
      EXPECT_DOUBLE_EQ(rayleigh, 0.0);
      EXPECT_DOUBLE_EQ(nonfading, 0.0);
      prev_nonfading_at_0 = nonfading;
      continue;
    }
    EXPECT_GT(rayleigh, 0.0);
    // Models track each other within a small constant factor (the paper's
    // "curves behave alike" observation).
    if (nonfading > 1.0) {
      EXPECT_LT(rayleigh / nonfading, 4.0) << "q=" << q;
      EXPECT_GT(rayleigh / nonfading, 0.25) << "q=" << q;
    }
  }
  (void)prev_nonfading_at_0;
}

// Full algorithm transfer pipeline: greedy in non-fading -> Lemma 2 transfer
// -> compare to the Theorem-2-simulated bound on the Rayleigh optimum.
TEST(Integration, CapacityTransferPipeline) {
  auto net = paper_network(40, 7);
  const double beta = 2.5;
  const auto greedy = algorithms::greedy_capacity(net, beta);
  ASSERT_GT(greedy.selected.size(), 0u);

  // Lemma 2: expected Rayleigh successes of the transferred solution.
  util::RngStream rng(7);
  const auto transfer = core::transfer_capacity_solution(
      net, greedy.selected, core::Utility::binary(units::Threshold(beta)), 1, rng);
  EXPECT_GE(transfer.ratio(), 1.0 / std::exp(1.0) - 1e-9);

  // The Rayleigh optimum with q in {0,1} cannot exceed n, and the
  // transferred value must be a decent fraction of the local-search OPT
  // estimate times 1/e.
  algorithms::LocalSearchOptions opts;
  opts.restarts = 3;
  const auto opt_lb = algorithms::local_search_max_feasible_set(net, beta, opts);
  EXPECT_GE(transfer.rayleigh_value * std::exp(1.0) * 2.0 + 1e-9,
            static_cast<double>(greedy.selected.size()));
  EXPECT_GE(opt_lb.selected.size(), greedy.selected.size());
}

// Latency pipeline: schedule everything in both models; the Rayleigh run
// with 4x repetition should finish within a constant factor of non-fading.
TEST(Integration, LatencyTransferPipeline) {
  auto net = paper_network(25, 9);
  const double beta = 2.5;
  util::RngStream rng_nf(1), rng_r(2);
  const auto nf = algorithms::aloha_schedule(
      net, beta, core::Propagation::NonFading, rng_nf);
  const auto rl = algorithms::aloha_schedule(
      net, beta, core::Propagation::Rayleigh, rng_r);
  ASSERT_TRUE(nf.completed);
  ASSERT_TRUE(rl.completed);
  // Generous statistical bound: Rayleigh latency within ~20x of non-fading
  // (theory: constant factor; these are single runs).
  EXPECT_LT(rl.slots, 20u * nf.slots + 200u);
}

// Regret-learning pipeline reaching a constant fraction of OPT (Theorem 3's
// empirical shadow at small scale).
TEST(Integration, RegretLearningReachesConstantFractionOfOpt) {
  auto net = paper_network(16, 12);
  const double beta = 2.5;
  const auto opt = algorithms::exact_max_feasible_set(net, beta, 16);
  ASSERT_GT(opt.selected.size(), 0u);

  learning::GameOptions opts;
  opts.rounds = 1200;
  opts.beta = beta;
  for (auto model : {core::Propagation::NonFading,
                     core::Propagation::Rayleigh}) {
    opts.model = model;
    util::RngStream rng(3);
    const auto result = learning::run_capacity_game(
        net, opts,
        [] { return std::make_unique<learning::RwmLearner>(); }, rng);
    // Average successes over the last quarter of the run.
    double late = 0.0;
    const std::size_t tail = opts.rounds / 4;
    for (std::size_t t = opts.rounds - tail; t < opts.rounds; ++t) {
      late += result.successes_per_round[t];
    }
    late /= static_cast<double>(tail);
    EXPECT_GT(late, 0.2 * static_cast<double>(opt.selected.size()))
        << "model " << static_cast<int>(model);
  }
}

// The b_k sequence and the number of simulation slots stay tiny across the
// entire practical range of n — Theorem 2's "almost constant" observation.
TEST(Integration, SimulationSlotsAlmostConstant) {
  EXPECT_LE(util::theorem2_num_levels(100) * core::kSimulationRepeatsPerLevel,
            7 * 19);
  EXPECT_EQ(util::theorem2_num_levels(100), util::theorem2_num_levels(1000));
}

// Shannon-capacity variant end to end: flexible-rate algorithm + MC transfer.
TEST(Integration, ShannonCapacityPipeline) {
  auto net = paper_network(30, 21);
  const core::Utility shannon = core::Utility::shannon();
  const auto result =
      algorithms::flexible_rate_capacity(net, shannon, 0.5, 8.0, 8);
  ASSERT_GT(result.selected.size(), 0u);
  util::RngStream rng(5);
  const auto transfer = core::transfer_capacity_solution(
      net, result.selected, shannon, 2000, rng);
  EXPECT_GT(transfer.nonfading_value, 0.0);
  EXPECT_GE(transfer.ratio(), 1.0 / std::exp(1.0) * 0.85);
}

}  // namespace
}  // namespace raysched
