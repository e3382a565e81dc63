// Tests for max-weight queue scheduling: serve::Service at the fastest
// recompute cadence it allows (submit every slot, adopt the next) and the
// backlog-trend estimator read from its digests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "test_helpers.hpp"

namespace raysched::serve {
namespace {

using raysched::testing::paper_network;
using raysched::testing::two_close_links;
using raysched::testing::two_far_links;

struct QueueRun {
  ServeReport report;
  BacklogTrend trend;
  std::vector<std::uint64_t> final_queue;
  double served_per_slot = 0.0;
  double arrivals_per_slot = 0.0;
};

ServeConfig base_config(double lambda, std::uint64_t seed,
                        core::Propagation prop = core::Propagation::NonFading) {
  ServeConfig config;
  config.master_seed = seed;
  config.beta = units::Threshold(2.5);
  config.propagation = prop;
  config.traffic.model = TrafficModel::Poisson;
  config.traffic.mean_rate = lambda;
  config.recompute_period = 1;
  config.recompute_latency = 1;
  return config;
}

QueueRun run_queues(model::Network net, const ServeConfig& config,
                    std::uint64_t slots = 1500) {
  Service service(std::move(net), config);
  QueueRun out;
  out.report = service.run(slots);
  out.trend = backlog_trend(out.report.digests);
  out.final_queue = service.snapshot().queues;
  const auto n = static_cast<double>(slots);
  out.served_per_slot = static_cast<double>(out.report.served) / n;
  out.arrivals_per_slot = static_cast<double>(out.report.arrivals) / n;
  return out;
}

// Digests whose backlog column is `backlog`, everything else zero.
std::vector<SlotDigest> digests_of(const std::vector<std::uint64_t>& backlog) {
  std::vector<SlotDigest> digests(backlog.size());
  for (std::size_t i = 0; i < backlog.size(); ++i) {
    digests[i].slot = i;
    digests[i].backlog = backlog[i];
  }
  return digests;
}

TEST(Queueing, NoArrivalsNoActivity) {
  const QueueRun run = run_queues(paper_network(10, 1), base_config(0.0, 1));
  EXPECT_EQ(run.report.arrivals, 0u);
  EXPECT_EQ(run.report.served, 0u);
  EXPECT_DOUBLE_EQ(run.trend.mean, 0.0);
  EXPECT_TRUE(run.trend.stable);
  for (std::uint64_t q : run.final_queue) EXPECT_EQ(q, 0u);
}

TEST(Queueing, ConservationArrivalsEqualServedPlusBacklogPlusDrops) {
  const QueueRun run = run_queues(paper_network(15, 2), base_config(0.3, 2));
  const ServeReport& r = run.report;
  EXPECT_TRUE(r.conservation_ok);
  std::uint64_t backlog = 0;
  for (std::uint64_t q : run.final_queue) backlog += q;
  EXPECT_EQ(backlog, r.backlog);
  EXPECT_EQ(r.arrivals, r.served + backlog + r.drops.total());
  // The digests add up to the same totals, slot by slot.
  std::uint64_t arrivals = 0, served = 0, dropped = 0;
  for (const SlotDigest& d : r.digests) {
    arrivals += d.arrivals;
    served += d.served;
    dropped += d.dropped;
  }
  EXPECT_EQ(arrivals, r.arrivals);
  EXPECT_EQ(served, r.served);
  EXPECT_EQ(dropped, r.drops.total());
}

TEST(Queueing, LightLoadIsStableAndServesEverything) {
  const QueueRun run = run_queues(paper_network(20, 3), base_config(0.05, 3));
  EXPECT_TRUE(run.trend.stable);
  // Throughput ~ offered load.
  EXPECT_NEAR(run.served_per_slot, run.arrivals_per_slot, 0.1);
  EXPECT_EQ(run.report.drops.total(), 0u);
}

TEST(Queueing, OverloadIsDetectedAsUnstable) {
  // Two co-located links can serve at most ~1 packet/slot combined;
  // lambda = 0.9 each is far beyond capacity.
  ServeConfig config = base_config(0.9, 4);
  config.beta = units::Threshold(2.0);
  const QueueRun run = run_queues(two_close_links(1e-6), config);
  EXPECT_FALSE(run.trend.stable);
  // Combined service bounded by 1/slot.
  EXPECT_LE(run.served_per_slot, 1.05);
}

TEST(Queueing, RayleighThroughputBelowNonFadingUnderLoad) {
  const model::Network net = paper_network(20, 5);
  const QueueRun nf = run_queues(
      model::Network(net), base_config(0.6, 5, core::Propagation::NonFading));
  const QueueRun rl = run_queues(
      model::Network(net), base_config(0.6, 5, core::Propagation::Rayleigh));
  // Both runs see the same arrivals: the traffic stream depends on the
  // seed and the slot alone.
  EXPECT_EQ(nf.report.arrivals, rl.report.arrivals);
  // At saturating load, Rayleigh serves less per slot (Lemma-2 tax).
  EXPECT_LT(rl.served_per_slot, nf.served_per_slot);
  // But not less than ~1/e of it (every scheduled link clears beta with
  // probability >= 1/e; slack for scheduling interactions).
  EXPECT_GT(rl.served_per_slot, nf.served_per_slot / std::exp(1.0) * 0.8);
}

TEST(Queueing, IndependentLinksSustainHighLoad) {
  ServeConfig config = base_config(0.8, 6);
  config.beta = units::Threshold(2.0);
  const QueueRun run = run_queues(two_far_links(1e-6), config);
  EXPECT_TRUE(run.trend.stable);
  EXPECT_NEAR(run.served_per_slot, run.arrivals_per_slot, 0.1);
}

TEST(Queueing, QueueCapCountsDrops) {
  ServeConfig config = base_config(1.0, 7);
  config.beta = units::Threshold(2.0);
  config.queue_cap = 5;
  const QueueRun run = run_queues(two_close_links(1e-6), config, 500);
  EXPECT_GT(run.report.drops.capacity, 0u);
  EXPECT_TRUE(run.report.conservation_ok);
  for (std::uint64_t q : run.final_queue) EXPECT_LE(q, 5u);
}

TEST(Queueing, BacklogWindowsExposeTheTrend) {
  // Ten slots: the quarter-windows are 2 slots long, the second holds
  // slots 2-3 and the last holds slots 6-9, the two left over included.
  // Each window mean divides by the slots it holds.
  const BacklogTrend trend =
      backlog_trend(digests_of({0, 0, 2, 4, 0, 0, 10, 10, 10, 10}));
  EXPECT_DOUBLE_EQ(trend.mean, 4.6);
  EXPECT_DOUBLE_EQ(trend.mean_q2, 3.0);
  EXPECT_DOUBLE_EQ(trend.mean_q4, 10.0);
  // Two quarters of 2 slots between the windows: (10 - 3) / 4.
  EXPECT_DOUBLE_EQ(trend.slope, 1.75);
  EXPECT_FALSE(trend.stable);
  // A flat backlog is stable, whatever its level.
  EXPECT_TRUE(backlog_trend(digests_of({7, 7, 7, 7, 7, 7, 7, 7})).stable);

  // Through the service: light load keeps the slope near zero; overload
  // shows growth in the last-quarter mean and the slope.
  ServeConfig light = base_config(0.05, 11);
  light.beta = units::Threshold(2.0);
  const QueueRun stable = run_queues(two_close_links(1e-6), light);
  EXPECT_TRUE(stable.trend.stable);
  EXPECT_LT(stable.trend.slope, 0.01);

  ServeConfig heavy = base_config(0.9, 11);
  heavy.beta = units::Threshold(2.0);
  const QueueRun unstable = run_queues(two_close_links(1e-6), heavy);
  EXPECT_FALSE(unstable.trend.stable);
  EXPECT_GT(unstable.trend.mean_q4, unstable.trend.mean_q2);
  EXPECT_GT(unstable.trend.slope, 0.1);
}

TEST(Queueing, ShortRunsHaveNoQuarterWindows) {
  // Under 4 slots there are no quarter-windows: both window means fall
  // back to the overall mean and the slope is 0, not half the mean.
  const BacklogTrend trend = backlog_trend(digests_of({2, 5, 11}));
  EXPECT_DOUBLE_EQ(trend.mean, 6.0);
  EXPECT_DOUBLE_EQ(trend.mean_q2, 6.0);
  EXPECT_DOUBLE_EQ(trend.mean_q4, 6.0);
  EXPECT_DOUBLE_EQ(trend.slope, 0.0);
  EXPECT_TRUE(trend.stable);

  const QueueRun run = run_queues(paper_network(5, 9), base_config(0.5, 9), 3);
  ASSERT_EQ(run.report.digests.size(), 3u);
  EXPECT_DOUBLE_EQ(run.trend.mean_q2, run.trend.mean);
  EXPECT_DOUBLE_EQ(run.trend.mean_q4, run.trend.mean);
  EXPECT_DOUBLE_EQ(run.trend.slope, 0.0);
}

TEST(Queueing, Validation) {
  const model::Network net = paper_network(5, 8);
  // No trend over no slots.
  EXPECT_THROW(backlog_trend(std::vector<SlotDigest>{}), raysched::error);
  // Arrival rates and cadence are checked where the service is built.
  ServeConfig bad_rate = base_config(-0.5, 1);
  EXPECT_THROW(Service(model::Network(net), bad_rate), raysched::error);
  bad_rate.traffic.mean_rate = std::nan("");
  EXPECT_THROW(Service(model::Network(net), bad_rate), raysched::error);
  ServeConfig bad_period = base_config(0.5, 1);
  bad_period.recompute_period = 0;
  EXPECT_THROW(Service(model::Network(net), bad_period), raysched::error);
  ServeConfig bad_cap = base_config(0.5, 1);
  bad_cap.queue_cap = 0;
  EXPECT_THROW(Service(model::Network(net), bad_cap), raysched::error);
  // The service sizes its per-link state from the network, so no caller
  // passes a per-link vector on the way in; a restored snapshot is the one
  // place one arrives, and a size other than n is rejected there.
  Service source(model::Network(net), base_config(0.5, 1));
  source.run(10);
  ServeSnapshot snap = source.snapshot();
  snap.queues.pop_back();
  Service target(model::Network(net), base_config(0.5, 1));
  try {
    target.restore(snap);
    FAIL() << "a short queue vector must not restore";
  } catch (const coded_error& e) {
    EXPECT_EQ(e.code(), ErrorCode::SnapshotFormat);
  }
}

}  // namespace
}  // namespace raysched::serve
