// Edge cases and degenerate instances across the library: single links,
// empty sets, boundary thresholds, extreme magnitudes, and pathological
// geometries. Every behavior here is intentional and documented by the
// assertions.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "test_helpers.hpp"

namespace raysched {
namespace {

using model::Link;
using model::LinkSet;
using model::Network;
using model::Point;

Network single_link_network(double noise) {
  std::vector<Link> links = {{Point{0, 0}, Point{1, 0}}};
  return Network(std::move(links), model::PowerAssignment::uniform(1.0), 2.0,
                 units::Power(noise));
}

// ---------------------------------------------------------------------------
// Single-link networks.
// ---------------------------------------------------------------------------

TEST(EdgeSingleLink, SinrAgainstNoiseOnly) {
  auto net = single_link_network(0.25);
  EXPECT_DOUBLE_EQ(model::sinr_nonfading(net, {0}, 0), 4.0);
  EXPECT_TRUE(model::is_feasible(net, {0}, units::Threshold(4.0)));
  EXPECT_FALSE(model::is_feasible(net, {0}, units::Threshold(4.0 + 1e-12)));
}

TEST(EdgeSingleLink, GreedySelectsOrSkips) {
  auto net = single_link_network(0.25);
  EXPECT_EQ(algorithms::greedy_capacity(net, 3.9).selected.size(), 1u);
  EXPECT_EQ(algorithms::greedy_capacity(net, 4.1).selected.size(), 0u);
}

TEST(EdgeSingleLink, RayleighClosedForm) {
  auto net = single_link_network(0.25);
  EXPECT_NEAR(model::success_probability_rayleigh(net, {0}, 0, units::Threshold(4.0)).value(),
              std::exp(-1.0), 1e-12);
}

TEST(EdgeSingleLink, ExactOptAndBnB) {
  auto net = single_link_network(0.25);
  EXPECT_EQ(algorithms::exact_max_feasible_set(net, 3.0).selected,
            (LinkSet{0}));
  EXPECT_TRUE(algorithms::exact_max_feasible_set(net, 5.0).selected.empty());
}

TEST(EdgeSingleLink, LatencyOneSlotNonFading) {
  auto net = single_link_network(0.25);
  util::RngStream rng(1);
  const auto result = algorithms::repeated_capacity_schedule(
      net, 3.0, core::Propagation::NonFading, rng);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.slots, 1u);
}

TEST(EdgeSingleLink, GameConvergesToSend) {
  auto net = single_link_network(0.1);  // SINR alone = 10 > beta
  learning::GameOptions opts;
  opts.rounds = 100;
  opts.beta = 2.0;
  util::RngStream rng(2);
  const auto result = learning::run_capacity_game(
      net, opts, [] { return std::make_unique<learning::RwmLearner>(); }, rng);
  EXPECT_GT(result.successes_per_round.back(), 0.0);
}

// ---------------------------------------------------------------------------
// Empty sets.
// ---------------------------------------------------------------------------

TEST(EdgeEmptySet, EverythingDegradesGracefully) {
  auto net = raysched::testing::paper_network(5, 1);
  EXPECT_TRUE(model::is_feasible(net, {}, units::Threshold(1.0)));
  EXPECT_EQ(model::count_successes_nonfading(net, {}, units::Threshold(1.0)), 0u);
  EXPECT_DOUBLE_EQ(model::expected_successes_rayleigh(net, {}, units::Threshold(1.0)), 0.0);
  util::RngStream rng(1);
  EXPECT_EQ(model::count_successes_rayleigh(net, {}, units::Threshold(1.0), rng), 0u);
  EXPECT_DOUBLE_EQ(model::total_affectance_on(net, {}, 0, units::Threshold(1.0)), 0.0);
  EXPECT_DOUBLE_EQ(model::interference_spectral_radius(net, {}, units::Threshold(1.0)), 0.0);
}

// ---------------------------------------------------------------------------
// Threshold boundary exactness: SINR == beta counts as success everywhere.
// ---------------------------------------------------------------------------

TEST(EdgeBoundary, ExactThresholdIsInclusiveAcrossApis) {
  auto net = raysched::testing::hand_matrix_network(0.1);
  const LinkSet all = {0, 1, 2};
  const double gamma0 = model::sinr_nonfading(net, all, 0);
  EXPECT_TRUE(model::is_feasible(
      net, {0}, units::Threshold(model::sinr_nonfading(net, {0}, 0))));
  EXPECT_EQ(model::successful_links_nonfading(net, all, units::Threshold(gamma0)).front(), 0u);
  const core::Utility u = core::Utility::binary(units::Threshold(gamma0));
  EXPECT_DOUBLE_EQ(u.value(gamma0), 1.0);
}

TEST(EdgeBoundary, AffectanceExactlyOneIsFeasible) {
  // Construct interference such that total raw affectance == 1 exactly:
  // SINR == beta precisely, feasible by the inclusive convention.
  auto net = raysched::testing::hand_matrix_network(0.0);
  const LinkSet pair = {0, 1};
  const double gamma = model::sinr_nonfading(net, pair, 0);
  EXPECT_NEAR(model::total_affectance_on_raw(net, pair, 0, units::Threshold(gamma)), 1.0, 1e-12);
  EXPECT_TRUE(model::is_feasible(net, pair, units::Threshold(gamma)));
}

// ---------------------------------------------------------------------------
// Extreme magnitudes: tiny gains, huge noise, huge beta.
// ---------------------------------------------------------------------------

TEST(EdgeExtremes, TinyGainsStayFinite) {
  std::vector<double> gains = {1e-300, 0.0, 0.0, 1e-300};
  Network net(2, gains, units::Power(1e-310));
  const double g = model::sinr_nonfading(net, {0, 1}, 0);
  EXPECT_TRUE(std::isfinite(g));
  EXPECT_GT(g, 1.0);  // noise far below signal
  EXPECT_GT(model::success_probability_rayleigh(net, {0, 1}, 0, units::Threshold(1.0)).value(), 0.0);
}

TEST(EdgeExtremes, HugeBetaProbabilityUnderflowsToZeroNotNan) {
  auto net = raysched::testing::hand_matrix_network(1.0);
  const double p =
      model::success_probability_rayleigh(net, {0, 1, 2}, 0, units::Threshold(1e6)).value();
  EXPECT_GE(p, 0.0);
  EXPECT_FALSE(std::isnan(p));
  EXPECT_LT(p, 1e-6);
}

TEST(EdgeExtremes, NoiseDominatedEverythingEmpty) {
  // Noise ~2x the strongest signal: no link reaches beta = 2.5 even alone
  // in the non-fading model, yet the Rayleigh probability stays positive
  // (with vastly larger noise it would underflow to exactly 0 in double
  // precision — mathematically positive, numerically zero).
  auto net = raysched::testing::paper_network(10, 3, 2.2, /*noise=*/5e-3);
  EXPECT_TRUE(algorithms::greedy_capacity(net, 2.5).selected.empty());
  EXPECT_TRUE(
      algorithms::exact_max_feasible_set(net, 2.5, 10).selected.empty());
  // The Rayleigh model still gives positive (if tiny) success probability —
  // the paper's motivating asymmetry.
  EXPECT_GT(model::success_probability_rayleigh(net, {0}, 0, units::Threshold(2.5)).value(), 0.0);
}

// ---------------------------------------------------------------------------
// Identical / symmetric links via the matrix constructor.
// ---------------------------------------------------------------------------

TEST(EdgeSymmetric, FullySymmetricPairSplitsEvenly) {
  // Two links with identical gains: S(i,i) = 4, S(j,i) = 1, no noise.
  std::vector<double> gains = {4.0, 1.0, 1.0, 4.0};
  Network net(2, gains, units::Power(0.0));
  // Together: SINR = 4 for both; feasible at beta <= 4.
  EXPECT_TRUE(model::is_feasible(net, {0, 1}, units::Threshold(4.0)));
  EXPECT_FALSE(model::is_feasible(net, {0, 1}, units::Threshold(4.5)));
  // Rayleigh success probabilities identical by symmetry.
  EXPECT_DOUBLE_EQ(model::success_probability_rayleigh(net, {0, 1}, 0, units::Threshold(2.0)).value(),
                   model::success_probability_rayleigh(net, {0, 1}, 1, units::Threshold(2.0)).value());
  // Coordinate-ascent optimum at beta where both fit selects both.
  const auto opt = algorithms::maximize_capacity_coordinate_ascent(net, 1.0);
  EXPECT_DOUBLE_EQ(opt.q[0], 1.0);
  EXPECT_DOUBLE_EQ(opt.q[1], 1.0);
}

TEST(EdgeSymmetric, AsymmetricGainsAreHandledDirectionally) {
  // Link 0 hurts link 1 but not vice versa.
  std::vector<double> gains = {10.0, 100.0, 0.0, 10.0};
  Network net(2, gains, units::Power(0.0));
  EXPECT_TRUE(std::isinf(model::sinr_nonfading(net, {0, 1}, 0)));  // no inter.
  EXPECT_DOUBLE_EQ(model::sinr_nonfading(net, {0, 1}, 1), 0.1);
  EXPECT_DOUBLE_EQ(model::affectance_raw(net, 1, 0, units::Threshold(1.0)), 0.0);
  EXPECT_GT(model::affectance_raw(net, 0, 1, units::Threshold(1.0)), 1.0);
}

// ---------------------------------------------------------------------------
// Utility edge cases.
// ---------------------------------------------------------------------------

TEST(EdgeUtility, ZeroWeightIsValidAndWorthless) {
  const core::Utility u = core::Utility::weighted(units::Threshold(1.0), 0.0);
  EXPECT_DOUBLE_EQ(u.value(5.0), 0.0);
  auto net = raysched::testing::paper_network(10, 4);
  const auto result = algorithms::weighted_greedy_capacity(
      net, 1.0, std::vector<double>(10, 0.0));
  EXPECT_TRUE(result.selected.empty());
  EXPECT_DOUBLE_EQ(result.value, 0.0);
}

TEST(EdgeUtility, ShannonAtInfinitySinr) {
  // Infinite SINR (no noise, no interference) is representable; Shannon
  // utility is infinite there, binary utility is 1.
  const core::Utility shannon = core::Utility::shannon();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(std::isinf(shannon.value(inf)));
  EXPECT_DOUBLE_EQ(core::Utility::binary(units::Threshold(2.0)).value(inf), 1.0);
}

// ---------------------------------------------------------------------------
// Probability-vector edge cases.
// ---------------------------------------------------------------------------

TEST(EdgeProbabilities, AllZeroAndAllOne) {
  auto net = raysched::testing::paper_network(8, 5);
  std::vector<double> zeros(8, 0.0), ones(8, 1.0);
  EXPECT_DOUBLE_EQ(core::expected_rayleigh_successes(net, units::probabilities(zeros), units::Threshold(2.5)), 0.0);
  LinkSet all;
  for (model::LinkId i = 0; i < 8; ++i) all.push_back(i);
  EXPECT_NEAR(core::expected_rayleigh_successes(net, units::probabilities(ones), units::Threshold(2.5)),
              model::expected_successes_rayleigh(net, all, units::Threshold(2.5)), 1e-12);
  const auto schedule = core::build_simulation_schedule(net, units::probabilities(zeros));
  for (const auto& level : schedule.levels) {
    for (units::Probability p : level.probabilities) {
      EXPECT_DOUBLE_EQ(p.value(), 0.0);
    }
  }
}

TEST(EdgeProbabilities, GradientAtAllOnesPointsInward) {
  // At q = 1 everywhere on a congested instance, some coordinate should
  // have a negative derivative (dropping a link increases capacity).
  auto net = raysched::testing::two_close_links(1e-6);
  const auto grad =
      algorithms::expected_capacity_gradient(net, {1.0, 1.0}, 5.0);
  EXPECT_TRUE(grad[0] < 0.0 || grad[1] < 0.0);
}

// ---------------------------------------------------------------------------
// Rejection paths: every public entry point must throw raysched::error on
// out-of-range q, non-positive beta, and poisoned (NaN/Inf) gain matrices,
// rather than propagate garbage into the closed forms.
// ---------------------------------------------------------------------------

TEST(EdgeRejection, OutOfRangeProbabilityVectors) {
  auto net = raysched::testing::hand_matrix_network();
  const std::vector<double> too_short = {0.5, 0.5};
  const std::vector<double> negative = {0.5, -0.1, 0.5};
  const std::vector<double> above_one = {0.5, 1.1, 0.5};
  const std::vector<double> nan_entry = {
      0.5, std::numeric_limits<double>::quiet_NaN(), 0.5};
  for (const auto& bad : {too_short, negative, above_one, nan_entry}) {
    EXPECT_THROW(core::validate_probabilities(net, units::probabilities(bad)), raysched::error);
    EXPECT_THROW(core::rayleigh_success_probability(net, units::probabilities(bad), 0, units::Threshold(2.0)),
                 raysched::error);
    EXPECT_THROW(core::rayleigh_success_lower_bound(net, units::probabilities(bad), 0, units::Threshold(2.0)),
                 raysched::error);
    EXPECT_THROW(core::rayleigh_success_upper_bound(net, units::probabilities(bad), 0, units::Threshold(2.0)),
                 raysched::error);
    EXPECT_THROW(core::interference_weight(net, units::probabilities(bad), 0, units::Threshold(2.0)), raysched::error);
    EXPECT_THROW(core::build_simulation_schedule(net, units::probabilities(bad)), raysched::error);
    EXPECT_THROW(core::nonfading_success_probability_exact(net, units::probabilities(bad), 0, units::Threshold(2.0)),
                 raysched::error);
  }
}

TEST(EdgeRejection, NonPositiveBetaAcrossEntryPoints) {
  auto net = raysched::testing::hand_matrix_network();
  const std::vector<double> q(3, 0.5);
  util::RngStream rng(7);
  for (double beta : {0.0, -2.5}) {
    EXPECT_THROW(core::rayleigh_success_probability(net, units::probabilities(q), 0, units::Threshold(beta)),
                 raysched::error);
    EXPECT_THROW(core::rayleigh_success_lower_bound(net, units::probabilities(q), 0, units::Threshold(beta)),
                 raysched::error);
    EXPECT_THROW(core::rayleigh_success_upper_bound(net, units::probabilities(q), 0, units::Threshold(beta)),
                 raysched::error);
    EXPECT_THROW(core::interference_weight(net, units::probabilities(q), 0, units::Threshold(beta)), raysched::error);
    EXPECT_THROW(core::nonfading_success_probability_mc(net, units::probabilities(q), 0, units::Threshold(beta), 10, rng),
                 raysched::error);
    EXPECT_THROW(core::aloha_slot_success_probabilities(net, units::Probability(0.5), units::Threshold(beta)),
                 raysched::error);
    EXPECT_THROW(model::affectance_raw(net, 0, 1, units::Threshold(beta)), raysched::error);
    EXPECT_THROW(algorithms::greedy_capacity(net, beta), raysched::error);
  }
}

TEST(EdgeRejection, NanAndInfGainMatricesAreRejected) {
  // NaN gains fail the >= 0 requirement in the matrix constructor (NaN
  // comparisons are false), so they are rejected unconditionally.
  std::vector<double> gains = {10.0, 1.0, 1.0, 10.0};
  auto nan_gains = gains;
  nan_gains[1] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(model::Network(2, nan_gains, units::Power(0.1)), raysched::error);
  auto nan_diag = gains;
  nan_diag[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(model::Network(2, nan_diag, units::Power(0.1)), raysched::error);
#if defined(RAYSCHED_CONTRACTS)
  // Inf gains pass the sign check; the finite-gains contract catches them.
  auto inf_gains = gains;
  inf_gains[2] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(model::Network(2, inf_gains, units::Power(0.1)), raysched::contract_violation);
#endif
}

TEST(EdgeRejection, NanAffectanceInputsCannotReachTheSums) {
  // The only way to a NaN affectance is a poisoned network; with matrix
  // construction rejecting NaN/Inf, affectance stays NaN-free for every
  // feasible-budget input, including the deliberately infinite case.
  auto net = raysched::testing::hand_matrix_network(/*noise=*/0.1);
  for (double beta : {0.5, 2.0, 1000.0}) {
    const double a = model::affectance_raw(net, 0, 1, units::Threshold(beta));
    EXPECT_FALSE(std::isnan(a));
    EXPECT_GE(a, 0.0);  // +inf allowed: link infeasible even alone
  }
}

}  // namespace
}  // namespace raysched
