// Cross-cutting property sweeps (parameterized): the library's central
// invariants checked over a grid of instance families, thresholds, power
// schemes, and noise regimes.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "test_helpers.hpp"

namespace raysched {
namespace {

using model::LinkId;
using model::LinkSet;

// ---------------------------------------------------------------------------
// Instance grid.
// ---------------------------------------------------------------------------

enum class PowerScheme { Uniform, SquareRoot, Linear };

struct InstanceCase {
  std::uint64_t seed;
  std::size_t n;
  double beta;
  double alpha;
  double noise;
  PowerScheme scheme;

  friend void PrintTo(const InstanceCase& c, std::ostream* os) {
    const char* s = c.scheme == PowerScheme::Uniform      ? "uni"
                    : c.scheme == PowerScheme::SquareRoot ? "sqrt"
                                                          : "lin";
    *os << "seed" << c.seed << "_n" << c.n << "_beta" << c.beta << "_alpha"
        << c.alpha << "_nu" << c.noise << "_" << s;
  }
};

model::Network make_instance(const InstanceCase& c) {
  util::RngStream rng(c.seed);
  model::RandomPlaneParams params;
  params.num_links = c.n;
  auto links = model::random_plane_links(params, rng);
  model::PowerAssignment power =
      c.scheme == PowerScheme::Uniform
          ? model::PowerAssignment::uniform(2.0)
          : c.scheme == PowerScheme::SquareRoot
                ? model::PowerAssignment::square_root(2.0)
                : model::PowerAssignment::linear(2.0);
  return model::Network(std::move(links), power, c.alpha, units::Power(c.noise));
}

const InstanceCase kGrid[] = {
    {1, 20, 2.5, 2.2, 4e-7, PowerScheme::Uniform},
    {2, 20, 2.5, 2.2, 4e-7, PowerScheme::SquareRoot},
    {3, 20, 2.5, 2.2, 4e-7, PowerScheme::Linear},
    {4, 35, 0.5, 2.1, 0.0, PowerScheme::Uniform},
    {5, 35, 0.5, 2.1, 0.0, PowerScheme::SquareRoot},
    {6, 15, 8.0, 3.0, 1e-6, PowerScheme::Uniform},
    {7, 15, 8.0, 3.0, 1e-6, PowerScheme::Linear},
    {8, 40, 1.0, 2.5, 1e-4, PowerScheme::Uniform},
    {9, 40, 1.0, 2.5, 1e-4, PowerScheme::SquareRoot},
    {10, 25, 4.0, 2.0, 1e-5, PowerScheme::Linear},
};

// ---------------------------------------------------------------------------
// P-suite 1: every capacity algorithm returns a certified-feasible set, and
// the affectance predicate agrees with direct SINR feasibility on it.
// ---------------------------------------------------------------------------

class CapacityInvariants : public ::testing::TestWithParam<InstanceCase> {};

TEST_P(CapacityInvariants, GreedyFeasibleAndAffectanceConsistent) {
  const auto c = GetParam();
  const auto net = make_instance(c);
  const auto result = algorithms::greedy_capacity(net, c.beta);
  EXPECT_TRUE(model::is_feasible(net, result.selected, units::Threshold(c.beta)));
  for (LinkId i : result.selected) {
    EXPECT_LE(
        model::total_affectance_on_raw(net, result.selected, i, units::Threshold(c.beta)),
        1.0 + 1e-9);
  }
}

TEST_P(CapacityInvariants, PowerControlCertifiedWhenNonEmpty) {
  const auto c = GetParam();
  const auto net = make_instance(c);
  const auto result = algorithms::power_control_capacity(net, c.beta);
  if (result.selected.empty()) return;
  model::Network powered = net;
  powered.set_powers(*result.powers);
  EXPECT_TRUE(model::is_feasible(powered, result.selected, units::Threshold(c.beta)));
  // Spectral certificate agrees.
  EXPECT_TRUE(model::power_controlled_feasible(net, result.selected, units::Threshold(c.beta)));
}

TEST_P(CapacityInvariants, LocalSearchDominatesGreedy) {
  const auto c = GetParam();
  const auto net = make_instance(c);
  algorithms::LocalSearchOptions opts;
  opts.restarts = 2;
  const auto ls = algorithms::local_search_max_feasible_set(net, c.beta, opts);
  const auto greedy = algorithms::greedy_capacity(net, c.beta);
  EXPECT_GE(ls.selected.size(), greedy.selected.size());
  EXPECT_TRUE(model::is_feasible(net, ls.selected, units::Threshold(c.beta)));
}

INSTANTIATE_TEST_SUITE_P(Grid, CapacityInvariants, ::testing::ValuesIn(kGrid));

// ---------------------------------------------------------------------------
// P-suite 2: the Rayleigh laws — Theorem 1 consistency, Lemma 1 sandwich,
// Lemma 2 floor — on every grid instance.
// ---------------------------------------------------------------------------

class RayleighLaws : public ::testing::TestWithParam<InstanceCase> {};

TEST_P(RayleighLaws, Lemma1SandwichEverywhere) {
  const auto c = GetParam();
  const auto net = make_instance(c);
  util::RngStream rng(c.seed ^ 0xBEEF);
  std::vector<double> q(net.size());
  for (auto& v : q) v = rng.uniform();
  for (LinkId i = 0; i < net.size(); ++i) {
    const double exact = core::rayleigh_success_probability(net, units::probabilities(q), i, units::Threshold(c.beta)).value();
    EXPECT_LE(core::rayleigh_success_lower_bound(net, units::probabilities(q), i, units::Threshold(c.beta)).value(),
              exact * (1 + 1e-12) + 1e-300);
    EXPECT_GE(core::rayleigh_success_upper_bound(net, units::probabilities(q), i, units::Threshold(c.beta)).value() *
                      (1 + 1e-12) + 1e-300,
              exact);
  }
}

TEST_P(RayleighLaws, Lemma2FloorOnGreedySolution) {
  const auto c = GetParam();
  const auto net = make_instance(c);
  const auto greedy = algorithms::greedy_capacity(net, c.beta);
  for (LinkId i : greedy.selected) {
    EXPECT_GE(model::success_probability_rayleigh(net, greedy.selected, i,
                                                  units::Threshold(c.beta)).value(),
              1.0 / std::exp(1.0) - 1e-12);
  }
}

TEST_P(RayleighLaws, SlotExpectationEqualsSumOfTheorem1AtBinaryQ) {
  const auto c = GetParam();
  const auto net = make_instance(c);
  const auto greedy = algorithms::greedy_capacity(net, c.beta);
  if (greedy.selected.empty()) return;
  std::vector<double> q(net.size(), 0.0);
  for (LinkId i : greedy.selected) q[i] = 1.0;
  EXPECT_NEAR(
      core::expected_rayleigh_successes(net, units::probabilities(q), units::Threshold(c.beta)),
      model::expected_successes_rayleigh(net, greedy.selected, units::Threshold(c.beta)), 1e-9);
}

TEST_P(RayleighLaws, MonotoneInBeta) {
  const auto c = GetParam();
  const auto net = make_instance(c);
  std::vector<double> q(net.size(), 0.7);
  double prev = std::numeric_limits<double>::infinity();
  for (double beta : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    const double e = core::expected_rayleigh_successes(net, units::probabilities(q), units::Threshold(beta));
    EXPECT_LE(e, prev * (1 + 1e-12));
    prev = e;
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, RayleighLaws, ::testing::ValuesIn(kGrid));

// ---------------------------------------------------------------------------
// P-suite 3: latency invariants across the grid.
// ---------------------------------------------------------------------------

class LatencyInvariants : public ::testing::TestWithParam<InstanceCase> {};

TEST_P(LatencyInvariants, RepeatedCapacityServesEveryoneNonFading) {
  const auto c = GetParam();
  const auto net = make_instance(c);
  // Skip noise regimes where some link cannot reach beta even alone.
  for (LinkId i = 0; i < net.size(); ++i) {
    if (net.noise() > 0.0 && net.signal(i) / c.beta <= net.noise()) {
      GTEST_SKIP() << "noise-dominated instance";
    }
  }
  util::RngStream rng(c.seed);
  const auto result = algorithms::repeated_capacity_schedule(
      net, c.beta, core::Propagation::NonFading, rng);
  ASSERT_TRUE(result.completed);
  std::vector<bool> served(net.size(), false);
  for (std::size_t s = 0; s < result.schedule.size(); ++s) {
    EXPECT_TRUE(model::is_feasible(net, result.schedule[s], units::Threshold(c.beta)));
    for (LinkId i : result.schedule[s]) served[i] = true;
  }
  for (LinkId i = 0; i < net.size(); ++i) EXPECT_TRUE(served[i]);
}

TEST_P(LatencyInvariants, FirstSuccessSlotWithinBounds) {
  const auto c = GetParam();
  const auto net = make_instance(c);
  util::RngStream rng(c.seed ^ 0xFACE);
  const auto result = algorithms::aloha_schedule(
      net, c.beta, core::Propagation::Rayleigh, rng, {}, 300000);
  if (!result.completed) GTEST_SKIP() << "did not complete in cap";
  for (LinkId i = 0; i < net.size(); ++i) {
    EXPECT_LT(result.first_success_slot[i], result.slots);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, LatencyInvariants,
                         ::testing::ValuesIn(kGrid));

// ---------------------------------------------------------------------------
// P-suite 4: Theorem 2 schedule structure scales with n only through
// log*(n), never with geometry.
// ---------------------------------------------------------------------------

class SimulationStructure : public ::testing::TestWithParam<InstanceCase> {};

TEST_P(SimulationStructure, LevelsMatchLogStarAndProbabilitiesScale) {
  const auto c = GetParam();
  const auto net = make_instance(c);
  util::RngStream rng(c.seed ^ 0xABC);
  std::vector<double> q(net.size());
  for (auto& v : q) v = rng.uniform();
  const auto schedule = core::build_simulation_schedule(net, units::probabilities(q));
  EXPECT_EQ(static_cast<int>(schedule.levels.size()),
            util::theorem2_num_levels(net.size()));
  for (const auto& level : schedule.levels) {
    for (std::size_t i = 0; i < q.size(); ++i) {
      EXPECT_LE(level.probabilities[i].value(), q[i] + 1e-15);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, SimulationStructure,
                         ::testing::ValuesIn(kGrid));

}  // namespace
}  // namespace raysched
