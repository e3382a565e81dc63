// Tests for the learning extensions: EXP3 bandit learning and best-response
// (Nash) dynamics.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "test_helpers.hpp"

namespace raysched::learning {
namespace {

using raysched::testing::paper_network;
using raysched::testing::two_close_links;
using raysched::testing::two_far_links;

TEST(Exp3, StartsNearUniformWithExploration) {
  Exp3Learner l;
  EXPECT_NEAR(l.send_probability().value(), 0.5, 1e-12);
  EXPECT_EQ(l.feedback(), Feedback::Bandit);
}

TEST(Exp3, FullInformationUpdateRejected) {
  Exp3Learner l;
  EXPECT_THROW(l.update(LossPair{0.5, 0.0}), raysched::error);
  RwmLearner rwm;
  EXPECT_THROW(rwm.update_bandit(Action::Send, 0.0), raysched::error);
}

TEST(Exp3, LearnsToSendWhenSendingIsFree) {
  Exp3Learner l;
  util::RngStream rng(1);
  for (int t = 0; t < 3000; ++t) {
    const Action a = l.sample(rng);
    // Send costs 0, stay costs 0.5.
    l.update_bandit(a, a == Action::Send ? 0.0 : 0.5);
  }
  EXPECT_GT(l.send_probability().value(), 0.8);
}

TEST(Exp3, LearnsToStayWhenSendingAlwaysFails) {
  Exp3Learner l;
  util::RngStream rng(2);
  for (int t = 0; t < 3000; ++t) {
    const Action a = l.sample(rng);
    l.update_bandit(a, a == Action::Send ? 1.0 : 0.5);
  }
  EXPECT_LT(l.send_probability().value(), 0.2);
}

TEST(Exp3, GammaDecaysButStaysAboveFloor) {
  Exp3Options opts;
  opts.initial_gamma = 0.3;
  opts.min_gamma = 0.05;
  Exp3Learner l(opts);
  util::RngStream rng(3);
  for (int t = 0; t < 1000; ++t) {
    l.update_bandit(l.sample(rng), 0.5);
  }
  EXPECT_LT(l.gamma(), 0.3);
  EXPECT_GE(l.gamma(), 0.05);
  EXPECT_EQ(l.rounds_seen(), 1000u);
}

TEST(Exp3, FixedGammaOption) {
  Exp3Options opts;
  opts.decay_gamma = false;
  Exp3Learner l(opts);
  util::RngStream rng(4);
  for (int t = 0; t < 100; ++t) l.update_bandit(l.sample(rng), 0.5);
  EXPECT_DOUBLE_EQ(l.gamma(), opts.initial_gamma);
}

TEST(Exp3, SublinearRegretOnStochasticLosses) {
  // Send is clearly better (mean loss 0.2 vs stay 0.5); bandit regret must
  // be small after enough rounds.
  Exp3Learner l;
  RegretTracker tracker;
  util::RngStream rng(5);
  for (int t = 0; t < 20000; ++t) {
    LossPair losses;
    losses.stay = 0.5;
    losses.send = rng.bernoulli(0.2) ? 1.0 : 0.0;
    const Action a = l.sample(rng);
    tracker.record(a, losses);
    l.update_bandit(a, losses.of(a));
  }
  EXPECT_LT(tracker.average_loss_regret(), 0.08);
}

TEST(Exp3, ValidatesInput) {
  Exp3Options bad;
  bad.initial_gamma = 0.0;
  EXPECT_THROW(Exp3Learner{bad}, raysched::error);
  Exp3Learner l;
  EXPECT_THROW(l.update_bandit(Action::Send, 1.5), raysched::error);
}

TEST(Exp3, WorksInsideCapacityGame) {
  auto net = paper_network(12, 31);
  GameOptions opts;
  opts.rounds = 600;
  opts.beta = 2.5;
  util::RngStream rng(31);
  const auto result = run_capacity_game(
      net, opts, [] { return std::make_unique<Exp3Learner>(); }, rng);
  EXPECT_EQ(result.successes_per_round.size(), 600u);
  // Late-run successes should be positive (learners found the feasible core).
  double late = 0.0;
  for (std::size_t t = 450; t < 600; ++t) late += result.successes_per_round[t];
  EXPECT_GT(late / 150.0, 0.5);
}

// ---------------------------------------------------------------------------
// Best-response dynamics.
// ---------------------------------------------------------------------------

TEST(BestResponse, FarLinksConvergeToAllSending) {
  auto net = two_far_links(1e-6);
  BestResponseOptions opts;
  opts.beta = 2.0;
  const auto result = run_best_response(net, opts);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.sending[0]);
  EXPECT_TRUE(result.sending[1]);
  EXPECT_DOUBLE_EQ(result.final_successes, 2.0);
  EXPECT_TRUE(
      is_pure_nash(net, result.sending, core::Propagation::NonFading, 2.0));
}

TEST(BestResponse, CloseLinksSettleOnOne) {
  auto net = two_close_links(1e-6);
  BestResponseOptions opts;
  opts.beta = 2.0;
  const auto result = run_best_response(net, opts);
  EXPECT_TRUE(result.converged);
  const int senders = static_cast<int>(result.sending[0]) +
                      static_cast<int>(result.sending[1]);
  EXPECT_EQ(senders, 1);
  EXPECT_DOUBLE_EQ(result.final_successes, 1.0);
}

TEST(BestResponse, ConvergedProfileIsNashNonFading) {
  for (std::uint64_t seed : {1, 2, 3, 4}) {
    auto net = paper_network(20, seed);
    BestResponseOptions opts;
    opts.beta = 2.5;
    const auto result = run_best_response(net, opts);
    if (result.converged) {
      EXPECT_TRUE(
          is_pure_nash(net, result.sending, core::Propagation::NonFading, 2.5))
          << "seed " << seed;
    }
  }
}

TEST(BestResponse, RayleighUsesExpectedReward) {
  // Single link, large noise: Rayleigh success probability alone can drop
  // below 1/2, making staying the best response even though the link has no
  // interference.
  std::vector<double> gains = {1.0};
  model::Network net(1, gains, units::Power(/*noise=*/1.0));
  // P[success] = exp(-beta * 1 / 1); for beta = 1 that is e^-1 < 1/2.
  BestResponseOptions opts;
  opts.model = core::Propagation::Rayleigh;
  opts.beta = 1.0;
  opts.start_all_sending = true;
  const auto result = run_best_response(net, opts);
  EXPECT_TRUE(result.converged);
  EXPECT_FALSE(result.sending[0]);
  // With beta small, the probability beats 1/2 and the link sends.
  opts.beta = 0.1;  // P = e^-0.1 ~ 0.905 > 1/2
  const auto result2 = run_best_response(net, opts);
  EXPECT_TRUE(result2.sending[0]);
  EXPECT_NEAR(result2.final_successes, std::exp(-0.1), 1e-12);
}

TEST(BestResponse, StartStateCanMatter) {
  // Dynamics from "all sending" and "none sending" may reach different
  // equilibria; both must be Nash when converged.
  auto net = paper_network(15, 9);
  BestResponseOptions from_none;
  from_none.beta = 2.5;
  BestResponseOptions from_all = from_none;
  from_all.start_all_sending = true;
  const auto a = run_best_response(net, from_none);
  const auto b = run_best_response(net, from_all);
  if (a.converged) {
    EXPECT_TRUE(
        is_pure_nash(net, a.sending, core::Propagation::NonFading, 2.5));
  }
  if (b.converged) {
    EXPECT_TRUE(
        is_pure_nash(net, b.sending, core::Propagation::NonFading, 2.5));
  }
}

TEST(BestResponse, ValidatesInput) {
  auto net = paper_network(5, 1);
  BestResponseOptions bad;
  bad.beta = 0.0;
  EXPECT_THROW(run_best_response(net, bad), raysched::error);
  EXPECT_THROW(is_pure_nash(net, {true}, core::Propagation::NonFading, 1.0),
               raysched::error);
}

TEST(BestResponse, MixedLearnersInGame) {
  // The game engine supports heterogeneous learners: half RWM (full info),
  // half EXP3 (bandit).
  auto net = paper_network(10, 17);
  GameOptions opts;
  opts.rounds = 200;
  opts.beta = 2.5;
  util::RngStream rng(17);
  int counter = 0;
  const auto result = run_capacity_game(
      net, opts,
      [&]() -> std::unique_ptr<Learner> {
        if (counter++ % 2 == 0) return std::make_unique<RwmLearner>();
        return std::make_unique<Exp3Learner>();
      },
      rng);
  EXPECT_EQ(result.successes_per_round.size(), 200u);
}

}  // namespace
}  // namespace raysched::learning
