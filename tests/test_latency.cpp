// Tests for latency minimization (repeated capacity + ALOHA) and multi-hop.
#include <gtest/gtest.h>

#include <algorithm>

#include "test_helpers.hpp"

namespace raysched::algorithms {
namespace {

using core::Propagation;
using model::LinkId;
using model::LinkSet;
using raysched::testing::paper_network;

TEST(RepeatedCapacity, NonFadingCompletesAndCoversEveryLink) {
  auto net = paper_network(30, 1);
  util::RngStream rng(1);
  const auto result = repeated_capacity_schedule(net, 2.5,
                                                 Propagation::NonFading, rng);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.schedule.size(), result.slots);
  // Every link appears in some slot and first_success_slot is consistent.
  std::vector<bool> seen(net.size(), false);
  for (const auto& slot : result.schedule) {
    for (LinkId i : slot) seen[i] = true;
  }
  for (LinkId i = 0; i < net.size(); ++i) {
    EXPECT_TRUE(seen[i]) << "link " << i;
    EXPECT_LT(result.first_success_slot[i], result.slots);
  }
}

TEST(RepeatedCapacity, NonFadingSlotsAreFeasible) {
  auto net = paper_network(25, 2);
  util::RngStream rng(2);
  const auto result = repeated_capacity_schedule(net, 2.5,
                                                 Propagation::NonFading, rng);
  for (const auto& slot : result.schedule) {
    EXPECT_TRUE(model::is_feasible(net, slot, units::Threshold(2.5)));
  }
}

TEST(RepeatedCapacity, NonFadingLatencyIsDeterministic) {
  auto net = paper_network(20, 3);
  util::RngStream r1(5), r2(99);
  const auto a = repeated_capacity_schedule(net, 2.5, Propagation::NonFading, r1);
  const auto b = repeated_capacity_schedule(net, 2.5, Propagation::NonFading, r2);
  EXPECT_EQ(a.slots, b.slots);  // rng unused in the non-fading variant
}

TEST(RepeatedCapacity, RayleighCompletesWithRetries) {
  auto net = paper_network(20, 4);
  util::RngStream rng(4);
  const auto result = repeated_capacity_schedule(net, 2.5,
                                                 Propagation::Rayleigh, rng);
  EXPECT_TRUE(result.completed);
  // Rayleigh needs at least as many slots as the non-fading run (failures
  // re-enter the pool) — statistically certain at these sizes.
  util::RngStream rng2(4);
  const auto nf = repeated_capacity_schedule(net, 2.5,
                                             Propagation::NonFading, rng2);
  EXPECT_GE(result.slots, nf.slots);
}

TEST(RepeatedCapacity, CustomAlgorithmIsUsed) {
  auto net = paper_network(10, 5);
  util::RngStream rng(5);
  // One link per slot: latency equals n.
  const auto result = repeated_capacity_schedule(
      net, 2.5, Propagation::NonFading, rng, 100000,
      [](const model::Network&, double, const LinkSet& remaining) {
        return LinkSet{remaining.front()};
      });
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.slots, net.size());
}

TEST(RepeatedCapacity, MaxSlotsRespected) {
  auto net = paper_network(20, 6);
  util::RngStream rng(6);
  const auto result =
      repeated_capacity_schedule(net, 2.5, Propagation::Rayleigh, rng, 2);
  EXPECT_LE(result.slots, 2u);
  if (!result.completed) {
    EXPECT_EQ(result.slots, 2u);
  }
}

TEST(Aloha, CompletesInBothModels) {
  auto net = paper_network(15, 7);
  for (auto prop : {Propagation::NonFading, Propagation::Rayleigh}) {
    util::RngStream rng(7);
    const auto result = aloha_schedule(net, 2.5, prop, rng);
    EXPECT_TRUE(result.completed);
    EXPECT_GT(result.slots, 0u);
  }
}

TEST(Aloha, RayleighStepUsesFourRepeats) {
  // With max_slots = 4 and Rayleigh, exactly one randomized step runs and is
  // repeated up to 4 times: schedule length <= 4 and all entries equal.
  auto net = paper_network(10, 8);
  util::RngStream rng(8);
  const auto result =
      aloha_schedule(net, 2.5, Propagation::Rayleigh, rng, {}, 4);
  ASSERT_LE(result.schedule.size(), 4u);
  for (std::size_t k = 1; k < result.schedule.size(); ++k) {
    EXPECT_EQ(result.schedule[k], result.schedule[0]);
  }
}

TEST(Aloha, AdaptiveCompletesToo) {
  auto net = paper_network(15, 9);
  AlohaOptions opts;
  opts.adaptive = true;
  util::RngStream rng(9);
  const auto result =
      aloha_schedule(net, 2.5, Propagation::NonFading, rng, opts);
  EXPECT_TRUE(result.completed);
}

TEST(Aloha, ValidatesOptions) {
  auto net = paper_network(5, 10);
  util::RngStream rng(1);
  AlohaOptions bad;
  bad.initial_probability = 0.9;  // > 1/2 breaks the Section-4 hypothesis
  EXPECT_THROW(aloha_schedule(net, 2.5, Propagation::NonFading, rng, bad),
               raysched::error);
  AlohaOptions bad2;
  bad2.min_probability = 0.5;
  bad2.initial_probability = 0.25;
  EXPECT_THROW(aloha_schedule(net, 2.5, Propagation::NonFading, rng, bad2),
               raysched::error);
}

TEST(Aloha, DenseInstanceStillCompletes) {
  // Heavy interference: two co-located clusters.
  util::RngStream gen(11);
  auto links = model::two_cluster_links(5, 5.0, 500.0, 2.0, gen);
  model::Network net(std::move(links), model::PowerAssignment::uniform(1.0),
                     3.0, units::Power(1e-9));
  util::RngStream rng(11);
  const auto result = aloha_schedule(net, 1.5, Propagation::Rayleigh, rng, {},
                                     500000);
  EXPECT_TRUE(result.completed);
}

TEST(Multihop, ChainCompletesInOrder) {
  auto links = model::chain_links(5, 10.0);
  model::Network net(std::move(links), model::PowerAssignment::uniform(1.0),
                     2.0, units::Power(1e-6));
  std::vector<MultihopRequest> requests = {{{0, 1, 2, 3, 4}}};
  util::RngStream rng(12);
  const auto result =
      schedule_multihop(net, requests, 2.0, Propagation::NonFading, rng);
  EXPECT_TRUE(result.completed);
  // 5 hops, each needs at least one slot.
  EXPECT_GE(result.slots, 5u);
}

TEST(Multihop, ParallelRequestsShareSlots) {
  auto net = paper_network(20, 13);
  std::vector<MultihopRequest> requests;
  for (LinkId i = 0; i < 20; i += 2) {
    requests.push_back({{i, i + 1}});
  }
  util::RngStream rng(13);
  const auto result =
      schedule_multihop(net, requests, 2.5, Propagation::NonFading, rng);
  EXPECT_TRUE(result.completed);
  for (std::size_t q = 0; q < requests.size(); ++q) {
    EXPECT_LT(result.completion_slot[q], result.slots);
  }
}

TEST(Multihop, RayleighCompletes) {
  auto links = model::chain_links(4, 10.0);
  model::Network net(std::move(links), model::PowerAssignment::uniform(1.0),
                     2.0, units::Power(1e-6));
  std::vector<MultihopRequest> requests = {{{0, 1, 2, 3}}, {{2, 3}}};
  util::RngStream rng(14);
  const auto result =
      schedule_multihop(net, requests, 1.5, Propagation::Rayleigh, rng);
  EXPECT_TRUE(result.completed);
}

TEST(Multihop, ValidatesRequests) {
  auto net = paper_network(5, 15);
  util::RngStream rng(1);
  EXPECT_THROW(
      schedule_multihop(net, {}, 2.0, Propagation::NonFading, rng),
      raysched::error);
  EXPECT_THROW(schedule_multihop(net, {{{}}}, 2.0, Propagation::NonFading, rng),
               raysched::error);
  EXPECT_THROW(
      schedule_multihop(net, {{{99}}}, 2.0, Propagation::NonFading, rng),
      raysched::error);
}

}  // namespace
}  // namespace raysched::algorithms
