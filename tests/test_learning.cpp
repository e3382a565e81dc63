// Tests for RWM, regret accounting, and the Section-6 capacity game.
#include <gtest/gtest.h>

#include <cmath>

#include "test_helpers.hpp"

namespace raysched::learning {
namespace {

using raysched::testing::paper_network;

TEST(Rwm, StartsUniform) {
  RwmLearner l;
  EXPECT_DOUBLE_EQ(l.send_probability().value(), 0.5);
}

TEST(Rwm, LearnsToSendWhenSendingIsFree) {
  RwmLearner l;
  for (int t = 0; t < 50; ++t) {
    l.update(LossPair{/*stay=*/0.5, /*send=*/0.0});
  }
  EXPECT_GT(l.send_probability().value(), 0.95);
}

TEST(Rwm, LearnsToStayWhenSendingAlwaysFails) {
  RwmLearner l;
  for (int t = 0; t < 50; ++t) {
    l.update(LossPair{/*stay=*/0.5, /*send=*/1.0});
  }
  EXPECT_LT(l.send_probability().value(), 0.05);
}

TEST(Rwm, EtaFollowsDoublingSchedule) {
  RwmLearner l;
  const double eta0 = l.eta();
  EXPECT_NEAR(eta0, std::sqrt(0.5), 1e-12);
  LossPair losses{0.5, 0.5};
  l.update(losses);  // round 1
  EXPECT_NEAR(l.eta(), eta0, 1e-12);
  l.update(losses);  // round 2 crosses power 2
  EXPECT_NEAR(l.eta(), eta0 * std::sqrt(0.5), 1e-12);
  l.update(losses);  // round 3
  EXPECT_NEAR(l.eta(), eta0 * std::sqrt(0.5), 1e-12);
  l.update(losses);  // round 4 crosses power 4
  EXPECT_NEAR(l.eta(), eta0 * 0.5, 1e-12);
}

TEST(Rwm, RejectsOutOfRangeLosses) {
  RwmLearner l;
  EXPECT_THROW(l.update(LossPair{0.5, 1.5}), raysched::error);
  EXPECT_THROW(l.update(LossPair{-0.1, 0.0}), raysched::error);
}

TEST(Rwm, OptionValidation) {
  RwmOptions bad;
  bad.initial_eta = 1.0;
  EXPECT_THROW(RwmLearner{bad}, raysched::error);
  RwmOptions bad2;
  bad2.min_eta = 0.9;  // above initial_eta
  EXPECT_THROW(RwmLearner{bad2}, raysched::error);
}

TEST(Rwm, NoRegretAgainstAlternatingLosses) {
  // Alternating adversary: best fixed action has the same cumulative loss as
  // any fixed action; RWM's average regret must go to ~0.
  RwmLearner l;
  RegretTracker tracker;
  util::RngStream rng(5);
  for (int t = 0; t < 4000; ++t) {
    const LossPair losses =
        (t % 2 == 0) ? LossPair{0.0, 1.0} : LossPair{1.0, 0.0};
    const Action a = l.sample(rng);
    tracker.record(a, losses);
    l.update(losses);
  }
  EXPECT_LT(tracker.average_loss_regret(), 0.05);
}

TEST(Rwm, NoRegretAgainstBiasedRandomLosses) {
  // Send is better on average: regret vs always-send must stay sublinear.
  RwmLearner l;
  RegretTracker tracker;
  util::RngStream rng(6);
  for (int t = 0; t < 4000; ++t) {
    LossPair losses;
    losses.stay = 0.5;
    losses.send = rng.bernoulli(0.3) ? 1.0 : 0.0;  // mean 0.3 < 0.5
    const Action a = l.sample(rng);
    tracker.record(a, losses);
    l.update(losses);
  }
  EXPECT_LT(tracker.average_loss_regret(), 0.05);
}

TEST(RegretTracker, HandComputedRegret) {
  RegretTracker t;
  // Round 1: played Send with loss 1; Stay would have cost 0.5.
  t.record(Action::Send, LossPair{0.5, 1.0});
  // Round 2: played Stay (0.5); Send would have cost 0.
  t.record(Action::Stay, LossPair{0.5, 0.0});
  // Played loss = 1.5. Best fixed: Stay = 1.0, Send = 1.0 -> best 1.0.
  EXPECT_DOUBLE_EQ(t.loss_regret(), 0.5);
  EXPECT_DOUBLE_EQ(t.reward_regret(), 1.0);
  EXPECT_EQ(t.rounds(), 2u);
  EXPECT_DOUBLE_EQ(t.average_loss_regret(), 0.25);
}

TEST(RegretTracker, EmptyThrows) {
  RegretTracker t;
  EXPECT_THROW(t.average_loss_regret(), raysched::error);
}

TEST(CapacityGame, RunsAndRecordsShapes) {
  auto net = paper_network(10, 1);
  GameOptions opts;
  opts.rounds = 50;
  opts.beta = 2.5;
  util::RngStream rng(1);
  const auto result = run_capacity_game(
      net, opts, [] { return std::make_unique<RwmLearner>(); }, rng);
  EXPECT_EQ(result.successes_per_round.size(), 50u);
  EXPECT_EQ(result.transmitters_per_round.size(), 50u);
  EXPECT_EQ(result.regret_per_link.size(), 10u);
  for (std::size_t t = 0; t < 50; ++t) {
    EXPECT_LE(result.successes_per_round[t],
              result.transmitters_per_round[t]);
  }
  EXPECT_GE(result.average_successes, 0.0);
  EXPECT_LE(result.average_transmitters, 10.0);
}

TEST(CapacityGame, SparseNetworkConvergesToEveryoneSending) {
  // Far-apart links: sending always succeeds, so all learners converge to
  // send and nearly every round has ~n successes late in the run.
  auto net = raysched::testing::two_far_links(1e-6);
  GameOptions opts;
  opts.rounds = 300;
  opts.beta = 2.0;
  util::RngStream rng(3);
  const auto result = run_capacity_game(
      net, opts, [] { return std::make_unique<RwmLearner>(); }, rng);
  double late = 0.0;
  for (std::size_t t = 250; t < 300; ++t) late += result.successes_per_round[t];
  late /= 50.0;
  EXPECT_GT(late, 1.8);
}

TEST(CapacityGame, RegretPerRoundShrinks) {
  auto net = paper_network(12, 2);
  util::RngStream rng(2);
  GameOptions short_opts;
  short_opts.rounds = 2000;
  short_opts.beta = 2.5;
  const auto result = run_capacity_game(
      net, short_opts, [] { return std::make_unique<RwmLearner>(); }, rng);
  for (double r : result.regret_per_link) {
    EXPECT_LT(r / 2000.0, 0.1) << "per-round regret too large";
  }
}

TEST(CapacityGame, Lemma5InequalityObserved) {
  // X <= F <= 2X + eps*n with eps ~ max per-round regret. Use the realized
  // averages as estimators.
  for (auto model :
       {core::Propagation::NonFading, core::Propagation::Rayleigh}) {
    auto net = paper_network(15, 4);
    GameOptions opts;
    opts.rounds = 1500;
    opts.beta = 2.5;
    opts.model = model;
    util::RngStream rng(4);
    const auto result = run_capacity_game(
        net, opts, [] { return std::make_unique<RwmLearner>(); }, rng);
    const double X = result.average_expected_successes;
    const double F = result.average_transmitters;
    double eps = 0.0;
    for (double r : result.regret_per_link) {
      eps = std::max(eps, r / static_cast<double>(opts.rounds));
    }
    // Reward-scale regret bound: Lemma 5 uses eps in reward units = 2x loss.
    const double slack = 2.0 * std::max(eps, 0.0) * net.size() + 1.0;
    EXPECT_LE(X, F + 1e-9);
    EXPECT_LE(F, 2.0 * X + slack);
  }
}

TEST(CapacityGame, RayleighRunsAndStaysBounded) {
  auto net = paper_network(10, 5);
  GameOptions opts;
  opts.rounds = 100;
  opts.model = core::Propagation::Rayleigh;
  opts.beta = 2.5;
  util::RngStream rng(5);
  const auto result = run_capacity_game(
      net, opts, [] { return std::make_unique<RwmLearner>(); }, rng);
  for (double s : result.successes_per_round) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 10.0);
  }
}

TEST(CapacityGame, ValidatesInput) {
  auto net = paper_network(5, 6);
  util::RngStream rng(1);
  GameOptions opts;
  opts.rounds = 0;
  EXPECT_THROW(run_capacity_game(
                   net, opts, [] { return std::make_unique<RwmLearner>(); },
                   rng),
               raysched::error);
  GameOptions ok;
  EXPECT_THROW(run_capacity_game(net, ok, nullptr, rng), raysched::error);
  EXPECT_THROW(run_capacity_game(
                   net, ok, [] { return std::unique_ptr<Learner>{}; }, rng),
               raysched::error);
}

}  // namespace
}  // namespace raysched::learning
