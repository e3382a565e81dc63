// Second-order behavior of the schedulers: parameter monotonicity,
// drop-and-retry paths, shared-hop crediting, and retry-tail bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "test_helpers.hpp"

namespace raysched::algorithms {
namespace {

using core::Propagation;
using model::LinkId;
using model::LinkSet;
using raysched::testing::paper_network;

// ---------------------------------------------------------------------------
// Greedy tau monotonicity sweep.
// ---------------------------------------------------------------------------

struct TauCase {
  double tau_small;
  double tau_large;
  std::uint64_t seed;

  friend void PrintTo(const TauCase& c, std::ostream* os) {
    *os << "tau" << c.tau_small << "_vs" << c.tau_large << "_seed" << c.seed;
  }
};

class GreedyTauSweep : public ::testing::TestWithParam<TauCase> {};

TEST_P(GreedyTauSweep, LargerBudgetNeverSelectsFewer) {
  const auto c = GetParam();
  auto net = paper_network(50, c.seed);
  GreedyOptions small, large;
  small.tau = c.tau_small;
  large.tau = c.tau_large;
  const auto a = greedy_capacity(net, 2.5, {}, small);
  const auto b = greedy_capacity(net, 2.5, {}, large);
  EXPECT_LE(a.selected.size(), b.selected.size());
  EXPECT_TRUE(model::is_feasible(net, a.selected, units::Threshold(2.5)));
  EXPECT_TRUE(model::is_feasible(net, b.selected, units::Threshold(2.5)));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GreedyTauSweep,
    ::testing::Values(TauCase{0.1, 0.2, 1}, TauCase{0.2, 0.5, 1},
                      TauCase{0.5, 1.0, 1}, TauCase{0.1, 1.0, 2},
                      TauCase{0.25, 0.75, 3}, TauCase{0.5, 1.0, 4}));

// ---------------------------------------------------------------------------
// Power control: drop-and-retry with an over-generous admission budget.
// ---------------------------------------------------------------------------

TEST(PowerControlDeep, OverAdmissionIsRepairedByDrops) {
  // A huge admission budget admits everything, including spectrally
  // infeasible sets; the fixed-point/drop loop must trim back to a
  // certified feasible set.
  auto net = raysched::testing::two_close_links(1e-6);
  PowerControlOptions opts;
  opts.admission_budget = 1e9;
  const auto result = power_control_capacity(net, 5.0, opts);
  // Co-located links at beta 5: rho ~ 5 * 0.8 = 4 > 1 for the pair, so one
  // link must have been dropped.
  EXPECT_EQ(result.selected.size(), 1u);
  ASSERT_TRUE(result.powers.has_value());
  model::Network powered = net;
  powered.set_powers(*result.powers);
  EXPECT_TRUE(model::is_feasible(powered, result.selected, units::Threshold(5.0)));
}

TEST(PowerControlDeep, BudgetMonotoneOnAverage) {
  // Larger admission budgets should not reduce the average selected size
  // (drop-and-retry only removes what is infeasible).
  double tight_total = 0.0, generous_total = 0.0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto net = paper_network(40, 700 + seed);
    PowerControlOptions tight, generous;
    tight.admission_budget = 0.25;
    generous.admission_budget = 1.0;
    tight_total += static_cast<double>(
        power_control_capacity(net, 2.5, tight).selected.size());
    generous_total += static_cast<double>(
        power_control_capacity(net, 2.5, generous).selected.size());
  }
  EXPECT_GE(generous_total, tight_total);
}

// ---------------------------------------------------------------------------
// Repeated-capacity under Rayleigh: retries follow a geometric-like tail.
// ---------------------------------------------------------------------------

TEST(RepeatedCapacityDeep, RayleighRetriesBounded) {
  // Every scheduled slot is non-fading feasible, so each scheduled link
  // succeeds per slot with probability >= 1/e (Lemma 2); the expected
  // number of slots a link needs once it starts being scheduled is <= e.
  // Check the aggregate: Rayleigh slots <= ~3x non-fading slots + slack on
  // average.
  sim::Accumulator ratio;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    auto net = paper_network(25, 40 + seed);
    util::RngStream r1(seed), r2(seed);
    const auto nf = repeated_capacity_schedule(
        net, 2.5, Propagation::NonFading, r1);
    const auto rl = repeated_capacity_schedule(
        net, 2.5, Propagation::Rayleigh, r2);
    ASSERT_TRUE(nf.completed && rl.completed);
    ratio.add(static_cast<double>(rl.slots) /
              static_cast<double>(nf.slots));
  }
  EXPECT_LT(ratio.mean(), 4.0);
  EXPECT_GE(ratio.mean(), 1.0);
}

TEST(RepeatedCapacityDeep, ScheduleShrinksAsLinksFinish) {
  // In the non-fading run, later slots can only draw from fewer remaining
  // links; the last slot must be non-empty and the remaining-set sizes
  // strictly decrease across slots.
  auto net = paper_network(30, 50);
  util::RngStream rng(50);
  const auto result = repeated_capacity_schedule(
      net, 2.5, Propagation::NonFading, rng);
  ASSERT_TRUE(result.completed);
  std::size_t served = 0;
  for (const auto& slot : result.schedule) {
    EXPECT_FALSE(slot.empty());
    served += slot.size();
  }
  EXPECT_EQ(served, net.size());  // non-fading: every scheduled link succeeds
}

// ---------------------------------------------------------------------------
// Multi-hop: shared hops credit every request that waits on them.
// ---------------------------------------------------------------------------

TEST(MultihopDeep, SharedHopCreditsAllWaitingRequests) {
  auto links = model::chain_links(3, 10.0);
  model::Network net(std::move(links), model::PowerAssignment::uniform(1.0),
                     2.0, units::Power(1e-6));
  // Both requests start at the same first hop.
  std::vector<MultihopRequest> requests = {{{0, 1, 2}}, {{0, 2}}};
  util::RngStream rng(51);
  const auto result =
      schedule_multihop(net, requests, 1.5, Propagation::NonFading, rng);
  ASSERT_TRUE(result.completed);
  // Request 1 (2 hops, sharing hop 0) cannot finish after request 0 by more
  // than the extra hop's worth of slots.
  EXPECT_LE(result.completion_slot[1], result.completion_slot[0]);
}

TEST(MultihopDeep, LongerPathsTakeAtLeastTheirHopCount) {
  auto net = paper_network(20, 52);
  std::vector<MultihopRequest> requests = {{{0, 1, 2, 3, 4, 5, 6, 7}}};
  util::RngStream rng(52);
  const auto result =
      schedule_multihop(net, requests, 2.5, Propagation::NonFading, rng);
  ASSERT_TRUE(result.completed);
  EXPECT_GE(result.slots, 8u);  // sequential hops cannot be parallelized
}

// ---------------------------------------------------------------------------
// Flexible rates: class count monotonicity (value non-decreasing).
// ---------------------------------------------------------------------------

TEST(FlexibleDeep, MoreClassesNeverHurtOnAverage) {
  double coarse_total = 0.0, fine_total = 0.0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    auto net = paper_network(35, 60 + seed);
    const core::Utility u = core::Utility::shannon();
    coarse_total +=
        flexible_rate_capacity_per_link(net, u, 0.25, 16.0, 3).value;
    fine_total +=
        flexible_rate_capacity_per_link(net, u, 0.25, 16.0, 12).value;
  }
  EXPECT_GE(fine_total, 0.95 * coarse_total);
}

// ---------------------------------------------------------------------------
// ALOHA: adaptive backoff helps when the fixed probability is badly tuned.
// ---------------------------------------------------------------------------

TEST(AlohaDeep, AdaptiveRecoversFromBadInitialProbability) {
  // Dense cluster: fixed q = 1/2 collides forever-ish; adaptive halving
  // converges much faster.
  util::RngStream gen(53);
  auto links = model::two_cluster_links(6, 3.0, 800.0, 2.0, gen);
  model::Network net(std::move(links), model::PowerAssignment::uniform(1.0),
                     3.0, units::Power(1e-9));
  AlohaOptions fixed;
  fixed.initial_probability = 0.5;
  AlohaOptions adaptive = fixed;
  adaptive.adaptive = true;
  sim::Accumulator fixed_slots, adaptive_slots;
  for (std::uint64_t s = 0; s < 6; ++s) {
    util::RngStream r1(100 + s), r2(100 + s);
    const auto f = aloha_schedule(net, 2.0, Propagation::NonFading, r1, fixed,
                                  500000);
    const auto a = aloha_schedule(net, 2.0, Propagation::NonFading, r2,
                                  adaptive, 500000);
    if (f.completed) fixed_slots.add(static_cast<double>(f.slots));
    if (a.completed) adaptive_slots.add(static_cast<double>(a.slots));
  }
  ASSERT_GT(adaptive_slots.count(), 0u);
  if (fixed_slots.count() > 0) {
    EXPECT_LE(adaptive_slots.mean(), fixed_slots.mean() * 1.2);
  }
}

}  // namespace
}  // namespace raysched::algorithms
