// Second-order behavior of the learning dynamics: regime extremes,
// fairness of comparisons, sequential-update stability of best response,
// and cross-learner consistency on shared instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "test_helpers.hpp"

namespace raysched::learning {
namespace {

using raysched::testing::paper_network;

// ---------------------------------------------------------------------------
// Regime extremes.
// ---------------------------------------------------------------------------

TEST(DynamicsDeep, ImpossibleBetaDrivesEveryoneQuiet) {
  // beta far above anything achievable: sending always fails (loss 1 vs the
  // stay loss 0.5), so all learners converge to Stay and F -> 0.
  auto net = paper_network(12, 1, 2.2, /*noise=*/5e-3);  // noise-dominated
  GameOptions opts;
  opts.rounds = 400;
  opts.beta = 50.0;
  util::RngStream rng(1);
  const auto result = run_capacity_game(
      net, opts, [] { return std::make_unique<RwmLearner>(); }, rng);
  double late_f = 0.0;
  for (std::size_t t = 300; t < 400; ++t) {
    late_f += result.transmitters_per_round[t];
  }
  EXPECT_LT(late_f / 100.0, 1.0);
  EXPECT_DOUBLE_EQ(result.successes_per_round.back(), 0.0);
}

TEST(DynamicsDeep, TrivialBetaDrivesEveryoneToSend) {
  // beta so low every link succeeds regardless: send strictly dominates.
  auto net = paper_network(12, 2);
  GameOptions opts;
  opts.rounds = 300;
  opts.beta = 1e-6;
  util::RngStream rng(2);
  const auto result = run_capacity_game(
      net, opts, [] { return std::make_unique<RwmLearner>(); }, rng);
  double late_f = 0.0;
  for (std::size_t t = 250; t < 300; ++t) {
    late_f += result.transmitters_per_round[t];
  }
  EXPECT_GT(late_f / 50.0, 11.0);
}

TEST(DynamicsDeep, BestResponseMatchesGameExtremes) {
  auto net = paper_network(12, 3);
  BestResponseOptions quiet;
  quiet.beta = 1e6;
  quiet.model = core::Propagation::NonFading;
  quiet.start_all_sending = true;
  const auto q = run_best_response(net, quiet);
  EXPECT_TRUE(q.converged);
  EXPECT_EQ(std::count(q.sending.begin(), q.sending.end(), true), 0);

  BestResponseOptions loud;
  loud.beta = 1e-9;
  loud.model = core::Propagation::NonFading;
  const auto l = run_best_response(net, loud);
  EXPECT_TRUE(l.converged);
  EXPECT_EQ(std::count(l.sending.begin(), l.sending.end(), true), 12);
}

// ---------------------------------------------------------------------------
// Sequential best response does not oscillate on blocking pairs.
// ---------------------------------------------------------------------------

TEST(DynamicsDeep, SequentialUpdatesAvoidSimultaneousOscillation) {
  // Two mutually blocking links: simultaneous best response would cycle
  // (both in, both out, ...); the round-robin dynamics must settle on
  // exactly one sender.
  auto net = raysched::testing::two_close_links(1e-6);
  for (bool start : {false, true}) {
    BestResponseOptions opts;
    opts.beta = 2.0;
    opts.start_all_sending = start;
    const auto result = run_best_response(net, opts);
    EXPECT_TRUE(result.converged) << "start " << start;
    EXPECT_EQ(std::count(result.sending.begin(), result.sending.end(), true),
              1)
        << "start " << start;
  }
}

// ---------------------------------------------------------------------------
// Cross-learner comparisons on the same instance and seed.
// ---------------------------------------------------------------------------

TEST(DynamicsDeep, RwmBeatsExp3EarlyOnTheSameInstance) {
  // Full information should converge faster: compare cumulative successes
  // over a short horizon on identical instances.
  double rwm_total = 0.0, exp3_total = 0.0;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    auto net = paper_network(15, 100 + seed);
    GameOptions opts;
    opts.rounds = 80;  // short horizon: the information gap shows here
    opts.beta = 2.5;
    util::RngStream r1(seed), r2(seed);
    const auto rwm = run_capacity_game(
        net, opts, [] { return std::make_unique<RwmLearner>(); }, r1);
    const auto exp3 = run_capacity_game(
        net, opts, [] { return std::make_unique<Exp3Learner>(); }, r2);
    for (double s : rwm.successes_per_round) rwm_total += s;
    for (double s : exp3.successes_per_round) exp3_total += s;
  }
  EXPECT_GT(rwm_total, exp3_total);
}

TEST(DynamicsDeep, FictitiousPlayAgreesWithBestResponseOnStrictInstances) {
  // On instances where best response converges from both extreme starts to
  // the same profile, fictitious play should find a profile with the same
  // number of senders.
  auto net = raysched::testing::two_far_links(1e-6);
  BestResponseOptions br;
  br.beta = 2.0;
  const auto fixed = run_best_response(net, br);
  ASSERT_TRUE(fixed.converged);
  FictitiousPlayOptions fp;
  fp.model = core::Propagation::NonFading;
  fp.beta = 2.0;
  fp.rounds = 150;
  util::RngStream rng(5);
  const auto fp_result = run_fictitious_play(net, fp, rng);
  EXPECT_EQ(std::count(fp_result.final_profile.begin(),
                       fp_result.final_profile.end(), true),
            std::count(fixed.sending.begin(), fixed.sending.end(), true));
}

// ---------------------------------------------------------------------------
// Reward bookkeeping invariants.
// ---------------------------------------------------------------------------

TEST(DynamicsDeep, SuccessesNeverExceedTransmittersAndRegretBounded) {
  auto net = paper_network(18, 6);
  GameOptions opts;
  opts.rounds = 500;
  opts.beta = 2.5;
  opts.model = core::Propagation::Rayleigh;
  util::RngStream rng(6);
  const auto result = run_capacity_game(
      net, opts, [] { return std::make_unique<Exp3Learner>(); }, rng);
  for (std::size_t t = 0; t < opts.rounds; ++t) {
    EXPECT_LE(result.successes_per_round[t],
              result.transmitters_per_round[t]);
  }
  // Loss-regret per round is bounded by the loss range [0, 1].
  for (double r : result.regret_per_link) {
    EXPECT_LE(r, static_cast<double>(opts.rounds));
    EXPECT_GE(r, -static_cast<double>(opts.rounds) * 0.5);
  }
}

TEST(DynamicsDeep, ExpectedSuccessesConsistentWithRealized) {
  // X (expected, closed form per realized set) and the realized successes
  // must agree in the mean over a long Rayleigh run.
  auto net = paper_network(15, 7);
  GameOptions opts;
  opts.rounds = 1500;
  opts.beta = 2.5;
  opts.model = core::Propagation::Rayleigh;
  util::RngStream rng(7);
  const auto result = run_capacity_game(
      net, opts, [] { return std::make_unique<RwmLearner>(); }, rng);
  EXPECT_NEAR(result.average_successes, result.average_expected_successes,
              0.15 * result.average_expected_successes + 0.3);
}

}  // namespace
}  // namespace raysched::learning
