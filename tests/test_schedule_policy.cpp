// Tests for the pluggable schedule-recompute policies and their supporting
// pieces: the WeightedGreedyOracle's bit-identity to a per-pair
// affectance_raw reference greedy, the max-weight policy's schedules (equal
// to the free weighted greedy under churn), the one result buffer each
// policy owns, the AHM probability state machine, and the saturating slot
// arithmetic the agent's deadline math runs on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "test_helpers.hpp"
#include "util/fp.hpp"
#include "util/saturate.hpp"

namespace raysched::serve {
namespace {

using model::LinkId;
using model::LinkSet;
using raysched::testing::hand_matrix_network;
using raysched::testing::paper_network;

std::vector<double> random_weights(std::size_t n, util::RngStream& rng) {
  std::vector<double> w(n);
  for (auto& x : w) {
    // Mix zeros (inactive links) with heavy-tailed positive weights.
    x = rng.uniform() < 0.25 ? 0.0 : rng.uniform() * 100.0;
  }
  return w;
}

// ---- WeightedGreedyOracle -------------------------------------------------

// The weighted greedy as it stood before the oracle read the gain matrix:
// every affectance comes from a model::affectance_raw call per pair, and the
// incoming sum on a candidate is rebuilt prefix by prefix. Kept here as the
// reference, so the bit-identity pins compare two independent
// implementations of the admission loop.
LinkSet reference_weighted_greedy(const model::Network& net, double beta,
                                  const std::vector<double>& weights,
                                  double tau = 1.0) {
  std::vector<LinkId> order(net.size());
  std::iota(order.begin(), order.end(), LinkId{0});
  std::stable_sort(order.begin(), order.end(), [&](LinkId a, LinkId b) {
    if (weights[a] != weights[b]) return weights[a] > weights[b];
    if (net.has_geometry()) {
      return net.link(a).length() < net.link(b).length();
    }
    return a < b;
  });
  const units::Threshold beta_t(beta);
  LinkSet selected;
  std::vector<double> in(net.size(), 0.0);
  for (LinkId i : order) {
    if (util::fp::exact_zero(weights[i])) continue;  // worthless links
    if (net.signal(i) / beta <= net.noise()) continue;
    double on_i = 0.0;
    bool ok = true;
    for (LinkId j : selected) {
      on_i += model::affectance_raw(net, j, i, beta_t);
      if (on_i > tau ||
          in[j] + model::affectance_raw(net, i, j, beta_t) > tau) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    for (LinkId j : selected) {
      in[j] += model::affectance_raw(net, i, j, beta_t);
    }
    in[i] = on_i;
    selected.push_back(i);
  }
  std::sort(selected.begin(), selected.end());
  return selected;
}

double weight_of(const LinkSet& set, const std::vector<double>& weights) {
  double sum = 0.0;
  for (LinkId i : set) sum += weights[i];
  return sum;
}

TEST(WeightedGreedyOracle, MatchesFreeFunctionBitwiseOnGeometry) {
  auto net = paper_network(24, 51);
  const double beta = 2.5;
  algorithms::WeightedGreedyOracle oracle(net, beta);
  ASSERT_EQ(oracle.size(), net.size());
  util::RngStream rng(17);
  LinkSet cached;
  for (int round = 0; round < 25; ++round) {
    std::vector<double> w = random_weights(net.size(), rng);
    // Equal weights make the length tie-break decide the order.
    if (round % 5 == 0) std::fill(w.begin(), w.begin() + 12, 7.0);
    oracle.compute(w, cached);
    const LinkSet reference = reference_weighted_greedy(net, beta, w);
    EXPECT_EQ(cached, reference) << "round " << round;
    const algorithms::WeightedCapacityResult owned = oracle.compute(w);
    EXPECT_EQ(owned.selected, reference);
    EXPECT_EQ(owned.value, weight_of(reference, w));  // same doubles summed
    const algorithms::WeightedCapacityResult direct =
        algorithms::weighted_greedy_capacity(net, beta, w);
    EXPECT_EQ(direct.selected, reference);
    EXPECT_EQ(direct.value, owned.value);
  }
}

TEST(WeightedGreedyOracle, MatchesFreeFunctionOnMatrixNetwork) {
  // Geometry-free network: the tie-break comparator falls back to link id.
  auto net = hand_matrix_network(0.1);
  const double beta = 1.2;
  algorithms::WeightedGreedyOracle oracle(net, beta);
  util::RngStream rng(29);
  LinkSet cached;
  for (int round = 0; round < 10; ++round) {
    std::vector<double> w = random_weights(net.size(), rng);
    if (round == 0) w = {5.0, 5.0, 5.0};  // all-ties: id order decides
    oracle.compute(w, cached);
    EXPECT_EQ(cached, reference_weighted_greedy(net, beta, w))
        << "round " << round;
    EXPECT_EQ(cached,
              algorithms::weighted_greedy_capacity(net, beta, w).selected);
  }
}

TEST(WeightedGreedyOracle, ReadsTheRawAffectance) {
  auto net = paper_network(8, 52);
  const units::Threshold beta(2.5);
  algorithms::WeightedGreedyOracle oracle(net, beta.value());
  for (LinkId j = 0; j < net.size(); ++j) {
    for (LinkId i = 0; i < net.size(); ++i) {
      EXPECT_EQ(oracle.affectance(j, i),
                model::affectance_raw(net, j, i, beta))
          << j << "->" << i;
    }
  }
}

TEST(WeightedGreedyOracle, MatchesReferenceOnEdgeCases) {
  const double beta = 2.0;
  // Link 1 is infeasible even alone with budget exactly 0 (S(1,1)/beta ==
  // nu), and link 3 with a negative budget. Cross gains onto link 1 are 0,
  // the 0/0 a naive gain/budget would turn into NaN.
  const model::Network skewed(
      4,
      {8.0, 0.0, 0.5, 0.25,   // sender 0
       0.5, 2.0, 0.5, 0.5,    // sender 1
       1.0, 0.0, 8.0, 0.5,    // sender 2
       0.5, 0.0, 0.25, 1.0},  // sender 3
      units::Power(1.0));
  // Geometry-free with zero cross gains: every affectance is exactly 0.
  const model::Network isolated(
      3, {3.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 7.0}, units::Power(0.5));

  for (const model::Network* net : {&skewed, &isolated}) {
    algorithms::WeightedGreedyOracle oracle(*net, beta);
    for (LinkId j = 0; j < net->size(); ++j) {
      for (LinkId i = 0; i < net->size(); ++i) {
        const double a = oracle.affectance(j, i);
        EXPECT_FALSE(std::isnan(a)) << j << "->" << i;
        EXPECT_EQ(a, model::affectance_raw(*net, j, i, units::Threshold(beta)))
            << j << "->" << i;
      }
    }
    util::RngStream rng(41);
    LinkSet out;
    for (double tau : {1.0, 0.5, 0.05}) {
      algorithms::GreedyOptions options;
      options.tau = tau;
      for (int round = 0; round < 12; ++round) {
        std::vector<double> w = random_weights(net->size(), rng);
        if (round == 0) w.assign(net->size(), 1.0);  // every link a candidate
        oracle.compute(w, out, options);
        EXPECT_EQ(out, reference_weighted_greedy(*net, beta, w, tau))
            << "tau " << tau << " round " << round;
      }
      // All-zero weights: no candidate, nothing selected, zero value.
      const std::vector<double> zeros(net->size(), 0.0);
      const algorithms::WeightedCapacityResult none =
          oracle.compute(zeros, options);
      EXPECT_TRUE(none.selected.empty());
      EXPECT_EQ(none.value, 0.0);
    }
  }
  // The infeasible-alone links are never admitted; with no cross gains
  // every feasible link is.
  algorithms::WeightedGreedyOracle skewed_oracle(skewed, beta);
  const LinkSet all_skewed =
      skewed_oracle.compute(std::vector<double>(4, 1.0)).selected;
  EXPECT_EQ(std::count(all_skewed.begin(), all_skewed.end(), LinkId{1}), 0);
  EXPECT_EQ(std::count(all_skewed.begin(), all_skewed.end(), LinkId{3}), 0);
  algorithms::WeightedGreedyOracle isolated_oracle(isolated, beta);
  EXPECT_EQ(isolated_oracle.compute(std::vector<double>(3, 1.0)).selected,
            (LinkSet{0, 1, 2}));
}

TEST(WeightedGreedyOracle, ValidatesInput) {
  auto net = hand_matrix_network();
  EXPECT_THROW(algorithms::WeightedGreedyOracle(net, 0.0), raysched::error);
  algorithms::WeightedGreedyOracle oracle(net, 1.0);
  LinkSet out;
  EXPECT_THROW(oracle.compute({1.0, 2.0}, out), raysched::error);  // size
  EXPECT_THROW(
      oracle.compute({1.0, std::numeric_limits<double>::quiet_NaN(), 1.0},
                     out),
      raysched::error);
}

// ---- policy construction --------------------------------------------------

TEST(SchedulePolicy, KindNamesRoundTrip) {
  for (PolicyKind kind : {PolicyKind::MaxWeight, PolicyKind::Ahm}) {
    EXPECT_EQ(policy_kind_from_string(to_string(kind)), kind);
  }
  // The pre-merge name of the priced policy still parses, to the one
  // max-weight kind, and the enumerator rsbench names is the same value.
  EXPECT_EQ(policy_kind_from_string("max-weight-incremental"),
            PolicyKind::MaxWeight);
  static_assert(PolicyKind::MaxWeightIncremental == PolicyKind::MaxWeight);
  EXPECT_THROW(policy_kind_from_string("round-robin"), raysched::error);
}

// ---- max-weight under churn ----------------------------------------------

TEST(SchedulePolicy, MaxWeightMatchesFreeGreedyUnderChurn) {
  auto net = paper_network(20, 53);
  const units::Threshold beta(2.5);
  auto policy = make_schedule_policy(PolicyKind::MaxWeight, net, beta);

  util::RngStream rng(61);
  std::vector<char> active(net.size(), 1);
  for (std::uint64_t slot = 0; slot < 40; ++slot) {
    ScheduleRequest request;
    request.slot = slot;
    // Scripted churn: links leave and rejoin; departed carries the leavers.
    for (LinkId i = 0; i < net.size(); ++i) {
      if (active[i] != 0 && rng.uniform() < 0.15) {
        active[i] = 0;
        request.departed.push_back(i);
      } else if (active[i] == 0 && rng.uniform() < 0.3) {
        active[i] = 1;
      }
    }
    request.weights.assign(net.size(), 0.0);
    for (LinkId i = 0; i < net.size(); ++i) {
      if (active[i] != 0) request.weights[i] = rng.uniform() * 50.0;
    }
    const PolicyResult r = policy->compute(request);
    EXPECT_EQ(r.schedule,
              algorithms::weighted_greedy_capacity(net, beta.value(),
                                                   request.weights)
                  .selected)
        << "slot " << slot;
  }
}

// Each policy refills one result it owns: every compute() returns the same
// object, and its schedule, reserved to n, never reallocates.
TEST(SchedulePolicy, ComputeRefillsTheResultThePolicyOwns) {
  auto net = paper_network(24, 58);
  const units::Threshold beta(2.5);
  for (PolicyKind kind : {PolicyKind::MaxWeight, PolicyKind::Ahm}) {
    auto policy = make_schedule_policy(kind, net, beta);
    util::RngStream rng(74);
    ScheduleRequest request;
    request.slot = 0;
    request.weights.assign(net.size(), 1.0);
    const PolicyResult& first = policy->compute(request);
    const LinkId* storage = first.schedule.data();
    EXPECT_GE(first.schedule.capacity(), net.size()) << to_string(kind);
    for (std::uint64_t slot = 1; slot < 16; ++slot) {
      request.slot = slot;
      request.weights = random_weights(net.size(), rng);
      const PolicyResult& next = policy->compute(request);
      EXPECT_EQ(&next, &first) << to_string(kind) << " slot " << slot;
      EXPECT_EQ(next.schedule.data(), storage)
          << to_string(kind) << " slot " << slot;
    }
  }
}

TEST(SchedulePolicy, IncrementalRestoreRebuildsDeterministically) {
  auto net = paper_network(12, 54);
  const units::Threshold beta(2.0);
  auto a = make_schedule_policy(PolicyKind::MaxWeight, net, beta);

  util::RngStream rng(71);
  ScheduleRequest request;
  request.slot = 0;
  request.weights = random_weights(net.size(), rng);
  const PolicyResult adopted = a->compute(request);
  EXPECT_TRUE(a->persisted_state().empty());  // rebuilt, not serialized

  // A fresh policy restored from (empty state, adopted schedule) must
  // produce the same schedule for every subsequent request.
  auto b = make_schedule_policy(PolicyKind::MaxWeight, net, beta);
  b->restore_state({}, adopted.schedule);
  for (std::uint64_t slot = 1; slot < 10; ++slot) {
    ScheduleRequest next;
    next.slot = slot;
    next.weights = random_weights(net.size(), rng);
    const PolicyResult ra = a->compute(next);
    const PolicyResult rb = b->compute(next);
    EXPECT_EQ(ra.schedule, rb.schedule) << "slot " << slot;
  }
  // A non-empty persisted state is a contract violation for this policy.
  EXPECT_THROW(b->restore_state({0.5}, adopted.schedule), raysched::error);
}

// ---- AHM ------------------------------------------------------------------

TEST(AhmScheduler, FeedbackMovesProbabilitiesMultiplicatively) {
  algorithms::AhmConfig config;
  algorithms::AhmScheduler ahm(3, config);
  ASSERT_EQ(ahm.size(), 3u);
  EXPECT_EQ(ahm.probabilities(), (std::vector<double>{0.25, 0.25, 0.25}));

  ahm.feedback({0, 1}, {1, 0});  // 0 succeeded, 1 failed, 2 untouched
  EXPECT_EQ(ahm.probabilities()[0], 0.5);
  EXPECT_EQ(ahm.probabilities()[1], 0.125);
  EXPECT_EQ(ahm.probabilities()[2], 0.25);

  // Clamps: repeated success pins at p_max, repeated failure at p_min.
  for (int k = 0; k < 10; ++k) ahm.feedback({0, 1}, {1, 0});
  EXPECT_EQ(ahm.probabilities()[0], config.p_max.value());
  EXPECT_EQ(ahm.probabilities()[1], config.p_min.value());
}

TEST(AhmScheduler, SampleIsDeterministicAndRespectsBacklog) {
  algorithms::AhmConfig config;
  config.p_init = units::Probability(1.0);  // every backlogged link joins
  algorithms::AhmScheduler ahm(4, config);
  util::RngStream rng(5);
  LinkSet out;
  ahm.sample(rng, {1, 0, 1, 0}, out);
  EXPECT_EQ(out, (LinkSet{0, 2}));  // idle links never sampled

  // Same stream position + same backlog -> bit-identical sample.
  algorithms::AhmConfig half;
  algorithms::AhmScheduler a(64, half), b(64, half);
  util::RngStream ra(9), rb(9);
  LinkSet sa, sb;
  const std::vector<char> backlog(64, 1);
  a.sample(ra, backlog, sa);
  b.sample(rb, backlog, sb);
  EXPECT_EQ(sa, sb);
  EXPECT_FALSE(sa.empty());  // p=0.25 over 64 links: empty is (3/4)^64
}

TEST(AhmScheduler, RestoreRoundTripsAndValidates) {
  algorithms::AhmConfig config;
  algorithms::AhmScheduler ahm(3, config);
  ahm.feedback({0, 1, 2}, {1, 0, 1});
  const std::vector<double> saved = ahm.probabilities();

  algorithms::AhmScheduler fresh(3, config);
  fresh.restore(saved);
  EXPECT_EQ(fresh.probabilities(), saved);
  EXPECT_THROW(fresh.restore({0.5, 0.5}), raysched::error);  // size
  EXPECT_THROW(fresh.restore({0.5, 0.5, 2.0}), raysched::error);  // range
}

TEST(AhmScheduler, ValidatesConfig) {
  algorithms::AhmConfig bad;
  bad.p_min = units::Probability(0.0);  // p_min must stay positive
  EXPECT_THROW(algorithms::AhmScheduler(2, bad), raysched::error);
  algorithms::AhmConfig inverted;
  inverted.p_init = units::Probability(0.001);  // below p_min
  EXPECT_THROW(algorithms::AhmScheduler(2, inverted), raysched::error);
  algorithms::AhmConfig shrink;
  shrink.up = 0.5;  // success must not lower the probability
  EXPECT_THROW(algorithms::AhmScheduler(2, shrink), raysched::error);
}

TEST(SchedulePolicy, AhmPolicyIsSlotDeterministicAndRestorable) {
  auto net = paper_network(16, 55);
  const units::Threshold beta(2.5);
  PolicyOptions options;
  options.seed = 123;

  auto a = make_schedule_policy(PolicyKind::Ahm, net, beta, options);
  auto b = make_schedule_policy(PolicyKind::Ahm, net, beta, options);
  ScheduleRequest request;
  request.slot = 7;
  request.weights.assign(net.size(), 1.0);
  const PolicyResult ra = a->compute(request);
  const PolicyResult rb = b->compute(request);
  EXPECT_EQ(ra.schedule, rb.schedule);  // same seed + slot -> same sample

  // Feedback mutates persisted state; a restored clone replays identically.
  ScheduleRequest with_feedback;
  with_feedback.slot = 8;
  with_feedback.weights.assign(net.size(), 1.0);
  with_feedback.feedback_schedule = ra.schedule;
  with_feedback.feedback_success.assign(ra.schedule.size(), 1);
  (void)a->compute(with_feedback);
  const std::span<const double> view = a->persisted_state();
  const std::vector<double> state(view.begin(), view.end());
  ASSERT_EQ(state.size(), net.size());

  auto c = make_schedule_policy(PolicyKind::Ahm, net, beta, options);
  c->restore_state(state, {});
  ScheduleRequest probe;
  probe.slot = 9;
  probe.weights.assign(net.size(), 1.0);
  EXPECT_EQ(a->compute(probe).schedule, c->compute(probe).schedule);
}

// ---- saturating slot arithmetic -------------------------------------------

TEST(Saturate, AddAndMulClampAtMax) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(util::sat_add(2, 3), 5u);
  EXPECT_EQ(util::sat_add(kMax, 0), kMax);
  EXPECT_EQ(util::sat_add(kMax, 1), kMax);
  EXPECT_EQ(util::sat_add(kMax / 2 + 1, kMax / 2 + 1), kMax);
  EXPECT_EQ(util::sat_mul(6, 7), 42u);
  EXPECT_EQ(util::sat_mul(kMax, 0), 0u);
  EXPECT_EQ(util::sat_mul(kMax, 1), kMax);
  EXPECT_EQ(util::sat_mul(kMax / 2 + 1, 2), kMax);
  EXPECT_EQ(util::sat_mul(1ULL << 32, 1ULL << 32), kMax);
}

TEST(Saturate, AgentDueSlotSaturatesInsteadOfWrapping) {
  auto net = paper_network(4, 56);
  ScheduleAgent agent(net, units::Threshold(2.5), 1);
  // A delay pile-up can push latency to the top of the range; the due slot
  // must pin at "never", not wrap into the past.
  ScheduleRequest request;
  request.slot = 10;
  request.weights.assign(net.size(), 1.0);
  agent.submit(request, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(agent.due_slot(), std::numeric_limits<std::uint64_t>::max());
  (void)agent.reap();
}

}  // namespace
}  // namespace raysched::serve
