// Pipeline smoke-fuzz: many random instances pushed through every major
// component end to end, asserting only the universal invariants. This is
// the "does anything crash, throw, or violate its contract under varied
// inputs" net under all the targeted suites.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>
#include <sstream>

#include "test_helpers.hpp"

namespace raysched {
namespace {

using model::LinkId;
using model::LinkSet;

struct FuzzCase {
  std::uint64_t seed;

  friend void PrintTo(const FuzzCase& c, std::ostream* os) {
    *os << "seed" << c.seed;
  }
};

class PipelineFuzz : public ::testing::TestWithParam<FuzzCase> {
 protected:
  /// Draws a randomized instance: size, geometry parameters, power scheme,
  /// noise regime, and threshold all vary with the seed.
  static model::Network random_instance(util::RngStream& rng, double& beta_out) {
    model::RandomPlaneParams params;
    params.num_links = 5 + rng.uniform_index(30);
    params.plane_size = rng.uniform(200.0, 2000.0);
    params.min_length = rng.uniform(5.0, 30.0);
    params.max_length = params.min_length + rng.uniform(1.0, 40.0);
    auto links = model::random_plane_links(params, rng);
    const double alpha = rng.uniform(1.8, 3.5);
    const double noise = rng.bernoulli(0.3) ? 0.0 : std::pow(10.0, -rng.uniform(4.0, 9.0));
    model::PowerAssignment power =
        rng.bernoulli(0.5) ? model::PowerAssignment::uniform(rng.uniform(0.5, 4.0))
                           : model::PowerAssignment::square_root(1.0);
    beta_out = rng.uniform(0.3, 6.0);
    return model::Network(std::move(links), power, alpha, units::Power(noise));
  }
};

TEST_P(PipelineFuzz, FullStackInvariants) {
  util::RngStream rng(GetParam().seed);
  double beta = 1.0;
  const model::Network net = random_instance(rng, beta);
  const std::size_t n = net.size();

  // 1. Capacity: certified feasibility.
  const auto greedy = algorithms::greedy_capacity(net, beta);
  ASSERT_TRUE(model::is_feasible(net, greedy.selected, units::Threshold(beta)));

  // 2. Transfer: Lemma-2 floor on every selected link.
  for (LinkId i : greedy.selected) {
    ASSERT_GE(model::success_probability_rayleigh(net, greedy.selected, i,
                                                  units::Threshold(beta)).value(),
              1.0 / std::exp(1.0) - 1e-12);
  }

  // 3. Theorem 1 vs Lemma 1 sandwich at random q.
  std::vector<double> q(n);
  for (auto& v : q) v = rng.uniform();
  for (LinkId i = 0; i < n; i += 3) {
    const double exact = core::rayleigh_success_probability(net, units::probabilities(q), i, units::Threshold(beta)).value();
    ASSERT_LE(core::rayleigh_success_lower_bound(net, units::probabilities(q), i, units::Threshold(beta)).value(),
              exact * (1 + 1e-12) + 1e-300);
    ASSERT_GE(core::rayleigh_success_upper_bound(net, units::probabilities(q), i, units::Threshold(beta)).value() *
                  (1 + 1e-12) + 1e-300,
              exact);
  }

  // 4. Simulation schedule structure.
  const auto schedule = core::build_simulation_schedule(net, units::probabilities(q));
  ASSERT_EQ(static_cast<int>(schedule.levels.size()),
            util::theorem2_num_levels(n));

  // 5. One sampled Rayleigh slot stays within bounds.
  LinkSet all;
  for (LinkId i = 0; i < n; ++i) all.push_back(i);
  util::RngStream slot = rng.derive(1);
  ASSERT_LE(model::count_successes_rayleigh(net, all, units::Threshold(beta), slot), n);

  // 6. A short game run respects its bookkeeping.
  learning::GameOptions gopts;
  gopts.rounds = 30;
  gopts.beta = beta;
  gopts.model = rng.bernoulli(0.5) ? core::Propagation::Rayleigh
                                   : core::Propagation::NonFading;
  util::RngStream game_rng = rng.derive(2);
  const auto game = learning::run_capacity_game(
      net, gopts, [] { return std::make_unique<learning::RwmLearner>(); },
      game_rng);
  for (std::size_t t = 0; t < gopts.rounds; ++t) {
    ASSERT_LE(game.successes_per_round[t], game.transmitters_per_round[t]);
    ASSERT_LE(game.transmitters_per_round[t], static_cast<double>(n));
  }

  // 7. Online churn keeps the invariant.
  algorithms::OnlineScheduler online(net, beta);
  util::RngStream churn = rng.derive(3);
  for (int step = 0; step < 60; ++step) {
    const LinkId i = churn.uniform_index(n);
    if (churn.bernoulli(0.5)) online.arrive(i);
    else online.depart(i);
  }
  ASSERT_TRUE(online.invariant_holds());

  // 8. Serialization round trip preserves gains.
  std::stringstream ss;
  model::write_network(ss, net);
  const auto loaded = model::read_network(ss);
  ASSERT_EQ(loaded.size(), n);
  ASSERT_EQ(loaded.mean_gain(0, 0), net.mean_gain(0, 0));

  // 9. Latency completes (non-fading) when every link can beat the noise.
  bool all_can = true;
  for (LinkId i = 0; i < n; ++i) {
    if (net.noise() > 0.0 && net.signal(i) / beta <= net.noise()) {
      all_can = false;
    }
  }
  if (all_can) {
    util::RngStream lrng = rng.derive(4);
    const auto latency = algorithms::repeated_capacity_schedule(
        net, beta, core::Propagation::NonFading, lrng);
    ASSERT_TRUE(latency.completed);
    ASSERT_LE(latency.slots, 4 * n);  // each slot serves >= 1 link
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PipelineFuzz,
    ::testing::Values(FuzzCase{1}, FuzzCase{2}, FuzzCase{3}, FuzzCase{4},
                      FuzzCase{5}, FuzzCase{6}, FuzzCase{7}, FuzzCase{8},
                      FuzzCase{9}, FuzzCase{10}, FuzzCase{11}, FuzzCase{12},
                      FuzzCase{13}, FuzzCase{14}, FuzzCase{15}, FuzzCase{16},
                      FuzzCase{17}, FuzzCase{18}, FuzzCase{19}, FuzzCase{20}));

}  // namespace
}  // namespace raysched
