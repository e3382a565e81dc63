// Tests for Theorem 1 (closed-form Rayleigh success probability under
// probabilistic access) and the Lemma 1 bounds, including parameterized
// property sweeps over random instances.
#include <gtest/gtest.h>

#include <cmath>

#include "test_helpers.hpp"

namespace raysched::core {
namespace {

using model::LinkId;
using raysched::testing::hand_matrix_network;
using raysched::testing::paper_network;

TEST(Theorem1, ReducesToSlotFormWhenProbabilitiesAreBinary) {
  // At a 0/1 q, links 0 and 1 transmitting, the linear and log forms must
  // give the model's fixed-set value. In the second network beta*S(j,i)
  // overflows (gains 1e200/1e199, beta = 2^450) while Q_i is 3.4e-135; in
  // the third, S(j,i) beta / S(i,i) overflows too and Q_i is 0.
  struct Case {
    model::Network net;
    double beta;
  };
  const Case cases[] = {
      {hand_matrix_network(0.2), 1.5},
      {model::Network(2, {1e200, 1e199, 1e199, 1e200}, units::Power(0.0)),
       std::ldexp(1.0, 450)},
      {model::Network(2, {1e-10, 1e300, 1e300, 1e-10}, units::Power(0.0)),
       1e20},
  };
  const model::LinkSet set = {0, 1};
  for (const Case& c : cases) {
    const units::Threshold beta(c.beta);
    std::vector<double> q(c.net.size(), 0.0);
    for (LinkId j : set) q[j] = 1.0;
    for (LinkId i : set) {
      SCOPED_TRACE(::testing::Message() << "beta " << c.beta << " link " << i);
      const double want =
          model::success_probability_rayleigh(c.net, set, i, beta).value();
      const double linear =
          rayleigh_success_probability(c.net, units::probabilities(q), i, beta)
              .value();
      const double log = rayleigh_success_log_probability(
          c.net, units::probabilities(q), i, beta);
      EXPECT_NEAR(linear, want, want * 1e-12);
      EXPECT_NEAR(std::exp(log), want, want * 1e-12);
    }
  }
}

TEST(Theorem1, ZeroProbabilityMeansZeroSuccess) {
  auto net = hand_matrix_network();
  const std::vector<double> q = {0.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(rayleigh_success_probability(net, units::probabilities(q), 0, units::Threshold(1.0)).value(), 0.0);
}

TEST(Theorem1, MatchesMonteCarloWithFractionalProbabilities) {
  auto net = hand_matrix_network(0.1);
  const double beta = 1.2;
  const std::vector<double> q = {0.8, 0.5, 0.3};
  const double exact = rayleigh_success_probability(net, units::probabilities(q), 0, units::Threshold(beta)).value();

  // Monte Carlo: draw transmit set, then fading, count success of link 0.
  util::RngStream rng(4242);
  const int trials = 60000;
  int hits = 0;
  for (int t = 0; t < trials; ++t) {
    if (!rng.bernoulli(q[0])) continue;
    model::LinkSet active = {0};
    for (LinkId j = 1; j < 3; ++j) {
      if (rng.bernoulli(q[j])) active.push_back(j);
    }
    if (model::sinr_rayleigh(net, active, 0, rng) >= beta) ++hits;
  }
  EXPECT_NEAR(hits / static_cast<double>(trials), exact, 0.01);
}

TEST(Theorem1, ValidatesInput) {
  auto net = hand_matrix_network();
  EXPECT_THROW(rayleigh_success_probability(net, units::probabilities({0.5, 0.5}), 0,
                                            units::Threshold(1.0)),
               raysched::error);
  EXPECT_THROW(rayleigh_success_probability(net, units::probabilities({0.5, 0.5, 1.5}),
                                            0, units::Threshold(1.0)),
               raysched::error);
  EXPECT_THROW(rayleigh_success_probability(net, units::probabilities({0.5, 0.5, 0.5}),
                                            0, units::Threshold::checked(0.0)),
               raysched::error);
  EXPECT_THROW(rayleigh_success_probability(net, units::probabilities({0.5, 0.5, 0.5}),
                                            9, units::Threshold(1.0)),
               raysched::error);
}

TEST(ExpectedSuccesses, SumsOverLinks) {
  auto net = hand_matrix_network(0.1);
  const std::vector<double> q = {1.0, 0.5, 0.25};
  const double beta = 1.0;
  double sum = 0.0;
  for (LinkId i = 0; i < 3; ++i) {
    sum += rayleigh_success_probability(net, units::probabilities(q), i, units::Threshold(beta)).value();
  }
  EXPECT_NEAR(expected_rayleigh_successes(net, units::probabilities(q), units::Threshold(beta)), sum, 1e-12);
}

// ---------------------------------------------------------------------------
// Lemma 1 property sweep: lower <= exact <= upper on random instances,
// across betas and probability profiles.
// ---------------------------------------------------------------------------

struct Lemma1Case {
  std::uint64_t seed;
  double beta;
  double q_scale;

  friend void PrintTo(const Lemma1Case& c, std::ostream* os) {
    *os << "seed" << c.seed << "_beta" << c.beta << "_q" << c.q_scale;
  }
};

class Lemma1Sandwich : public ::testing::TestWithParam<Lemma1Case> {};

TEST_P(Lemma1Sandwich, BoundsHold) {
  const auto param = GetParam();
  auto net = paper_network(20, param.seed);
  util::RngStream rng(param.seed ^ 0xABCDEF);
  std::vector<double> q(net.size());
  for (auto& v : q) v = rng.uniform() * param.q_scale;

  for (LinkId i = 0; i < net.size(); ++i) {
    const double exact =
        rayleigh_success_probability(net, units::probabilities(q), i, units::Threshold(param.beta)).value();
    const double lo = rayleigh_success_lower_bound(net, units::probabilities(q), i, units::Threshold(param.beta)).value();
    const double hi = rayleigh_success_upper_bound(net, units::probabilities(q), i, units::Threshold(param.beta)).value();
    EXPECT_LE(lo, exact * (1.0 + 1e-12) + 1e-15) << "link " << i;
    EXPECT_GE(hi * (1.0 + 1e-12) + 1e-15, exact) << "link " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, Lemma1Sandwich,
    ::testing::Values(Lemma1Case{1, 2.5, 1.0}, Lemma1Case{2, 2.5, 0.3},
                      Lemma1Case{3, 0.5, 1.0}, Lemma1Case{4, 0.5, 0.1},
                      Lemma1Case{5, 8.0, 1.0}, Lemma1Case{6, 1.0, 0.5},
                      Lemma1Case{7, 0.1, 1.0}, Lemma1Case{8, 4.0, 0.7}));

TEST(Lemma1, TightWhenInterferenceVanishes) {
  // With no interferers the exact probability equals both bounds:
  // q * exp(-beta nu / S).
  auto net = hand_matrix_network(0.3);
  const std::vector<double> q = {0.7, 0.0, 0.0};
  const double beta = 2.0;
  const double exact = rayleigh_success_probability(net, units::probabilities(q), 0, units::Threshold(beta)).value();
  EXPECT_NEAR(exact, rayleigh_success_lower_bound(net, units::probabilities(q), 0, units::Threshold(beta)).value(), 1e-12);
  EXPECT_NEAR(exact, rayleigh_success_upper_bound(net, units::probabilities(q), 0, units::Threshold(beta)).value(), 1e-12);
  EXPECT_NEAR(exact, 0.7 * std::exp(-2.0 * 0.3 / 10.0), 1e-12);
}

TEST(InterferenceWeight, HandValue) {
  auto net = hand_matrix_network(0.0);
  // A_0 = min{1, beta*2/10} q_1 + min{1, beta*0.5/10} q_2.
  const std::vector<double> q = {1.0, 0.5, 1.0};
  EXPECT_NEAR(interference_weight(net, units::probabilities(q), 0, units::Threshold(2.0)),
              std::min(1.0, 0.4) * 0.5 + std::min(1.0, 0.1) * 1.0, 1e-12);
  // Capping kicks in at large beta.
  EXPECT_NEAR(interference_weight(net, units::probabilities(q), 0, units::Threshold(100.0)), 0.5 + 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Non-fading probabilistic access: exact enumeration vs Monte Carlo.
// ---------------------------------------------------------------------------

TEST(NonFadingAccess, ExactMatchesMonteCarlo) {
  auto net = paper_network(10, 77);
  util::RngStream qrng(55);
  std::vector<double> q(net.size());
  for (auto& v : q) v = qrng.uniform();
  const double beta = 2.5;
  util::RngStream rng(11);
  for (LinkId i = 0; i < 3; ++i) {
    const double exact =
        nonfading_success_probability_exact(net, units::probabilities(q), i, units::Threshold(beta)).value();
    const double mc =
        nonfading_success_probability_mc(net, units::probabilities(q), i, units::Threshold(beta), 60000, rng).value();
    EXPECT_NEAR(mc, exact, 0.012) << "link " << i;
  }
}

TEST(NonFadingAccess, ExactHandlesDegenerateProbabilities) {
  auto net = hand_matrix_network(0.1);
  // q = (1, 1, 0): deterministic; link 0's SINR with {0,1} is 10/2.1 ~ 4.76.
  const std::vector<double> q = {1.0, 1.0, 0.0};
  EXPECT_DOUBLE_EQ(nonfading_success_probability_exact(net, units::probabilities(q), 0, units::Threshold(4.0)).value(), 1.0);
  EXPECT_DOUBLE_EQ(nonfading_success_probability_exact(net, units::probabilities(q), 0, units::Threshold(5.0)).value(), 0.0);
}

TEST(NonFadingAccess, ExactRejectsTooManyFreeLinks) {
  auto net = paper_network(30, 3);
  std::vector<double> q(net.size(), 0.5);
  EXPECT_THROW(nonfading_success_probability_exact(net, units::probabilities(q), 0, units::Threshold(1.0), 25),
               raysched::error);
}

TEST(NonFadingAccess, FractionalSingleInterferer) {
  // Analytic: success iff the single interferer stays quiet (when its
  // interference breaks the threshold). P = q_0 * (1 - q_1).
  auto net = hand_matrix_network(0.1);
  const std::vector<double> q = {0.9, 0.4, 0.0};
  // beta between alone-SINR (100) and joint-SINR (10/2.1 ~ 4.76).
  const double beta = 10.0;
  EXPECT_NEAR(nonfading_success_probability_exact(net, units::probabilities(q), 0, units::Threshold(beta)).value(), 0.9 * 0.6,
              1e-12);
}

TEST(NonFadingAccess, ExpectedSuccessesMc) {
  // Against the smoothed-curve observation of Figure 1: expected successes
  // under q must lie in [0, n] and be 0 for q = 0.
  auto net = paper_network(15, 8);
  util::RngStream rng(2);
  std::vector<double> zero(net.size(), 0.0);
  EXPECT_DOUBLE_EQ(
      expected_nonfading_successes_mc(net, units::probabilities(zero), units::Threshold(2.5), 100, rng), 0.0);
  std::vector<double> half(net.size(), 0.5);
  const double v = expected_nonfading_successes_mc(net, units::probabilities(half), units::Threshold(2.5), 2000, rng);
  EXPECT_GE(v, 0.0);
  EXPECT_LE(v, 15.0);
}

}  // namespace
}  // namespace raysched::core
