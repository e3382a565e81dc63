// Unit tests for the serve layer's building blocks: traffic generators,
// the health state machine, fault scripts, the schedule agent, and the
// snapshot codec. The end-to-end fault scenarios live in
// test_serve_faults.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "test_helpers.hpp"

namespace raysched::serve {
namespace {

using raysched::testing::paper_network;

// ---- traffic --------------------------------------------------------------

TEST(ServeTraffic, MaskFiltersWithoutReshuffling) {
  TrafficConfig config;
  config.model = TrafficModel::Poisson;
  config.mean_rate = 0.5;
  constexpr std::size_t n = 8;
  TrafficGenerator all_on(config, n), masked(config, n);
  const std::vector<char> every(n, 1);
  const std::vector<char> mask = {1, 0, 1, 0, 1, 1, 0, 1};

  // On the same n and stream, masking links leaves every other link's
  // counts bit-identical and gives the masked links nothing: a link's
  // churn never shifts another link's traffic.
  std::uint64_t masked_packets = 0;
  std::vector<ArrivalEvent> a, b;
  const util::RngStream master(42);
  for (std::uint64_t slot = 0; slot < 200; ++slot) {
    util::RngStream rng_a = master.derive(slot);
    util::RngStream rng_b = master.derive(slot);
    all_on.arrivals(rng_a, every, a);
    masked.arrivals(rng_b, mask, b);
    EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64()) << "slot " << slot;
    const std::vector<std::uint32_t> full = testing::dense_arrivals(a, n);
    const std::vector<std::uint32_t> kept = testing::dense_arrivals(b, n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(kept[i], mask[i] != 0 ? full[i] : 0u)
          << "slot " << slot << " link " << i;
      if (mask[i] == 0) masked_packets += full[i];
    }
    // One event per link that receives packets, none empty.
    EXPECT_EQ(b.size(), static_cast<std::size_t>(std::count_if(
                            kept.begin(), kept.end(),
                            [](std::uint32_t c) { return c > 0; })));
    for (const ArrivalEvent& event : b) EXPECT_GT(event.count, 0u);
  }
  EXPECT_GT(masked_packets, 0u);  // the mask did filter something
}

// One Knuth draw of mean above about 745 would underflow its limit e^-mean
// and cap the count; the slot total is drawn in chunks of mean 64.
TEST(ServeTraffic, PoissonMeanHoldsAtLargeRates) {
  TrafficConfig config;
  config.model = TrafficModel::Poisson;
  config.mean_rate = 1000.0;
  constexpr std::size_t n = 4;
  constexpr std::size_t slots = 2000;
  TrafficGenerator gen(config, n);
  const std::vector<char> active(n, 1);
  std::vector<double> sum(n, 0.0);
  std::vector<ArrivalEvent> events;
  util::RngStream rng(5);
  for (std::size_t t = 0; t < slots; ++t) {
    gen.arrivals(rng, active, events);
    const std::vector<std::uint32_t> counts =
        testing::dense_arrivals(events, n);
    for (std::size_t i = 0; i < n; ++i) sum[i] += counts[i];
  }
  const double sigma = std::sqrt(config.mean_rate / slots);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(sum[i] / slots, config.mean_rate, 4.0 * sigma)
        << "link " << i;
  }
}

TEST(ServeTraffic, BurstyStateRoundTripsAndModulates) {
  TrafficConfig config;
  config.model = TrafficModel::Bursty;
  config.burst_on = units::Probability(1.0);   // switches on immediately
  config.burst_off = units::Probability(0.0);  // never switches off
  config.on_rate = units::Probability(1.0);    // always delivers while on
  TrafficGenerator gen(config, 3);
  EXPECT_EQ(gen.burst_state().size(), 3u);

  util::RngStream rng(1);
  std::vector<ArrivalEvent> out;
  std::vector<char> active(3, 1);
  gen.arrivals(rng, active, out);  // slot 0: all links switch on, no packet
  EXPECT_EQ(testing::dense_arrivals(out, 3),
            (std::vector<std::uint32_t>{0, 0, 0}));
  gen.arrivals(rng, active, out);  // slot 1: all links on, all deliver
  EXPECT_EQ(testing::dense_arrivals(out, 3),
            (std::vector<std::uint32_t>{1, 1, 1}));

  // A fresh generator restored with the captured "all on" state must
  // deliver immediately — set_burst_state feeds the draw path, skipping
  // the switch-on slot.
  TrafficGenerator fresh(config, 3);
  fresh.set_burst_state(gen.burst_state());
  util::RngStream rng2(7);
  fresh.arrivals(rng2, active, out);
  EXPECT_EQ(testing::dense_arrivals(out, 3),
            (std::vector<std::uint32_t>{1, 1, 1}));
  // Non-bursty models keep no state and reject a sized vector.
  TrafficConfig poisson;
  TrafficGenerator plain(poisson, 3);
  EXPECT_THROW(plain.set_burst_state(std::vector<char>(3, 1)),
               raysched::error);
}

TEST(ServeTraffic, HeavyTailedBatchesAreCapped) {
  TrafficConfig config;
  config.model = TrafficModel::HeavyTailed;
  config.batch_prob = units::Probability(1.0);
  config.tail_alpha = 0.5;  // infinite-mean regime: cap must bite
  config.max_batch = 16;
  TrafficGenerator gen(config, 8);
  util::RngStream rng(3);
  std::vector<ArrivalEvent> out;
  std::vector<char> active(8, 1);
  for (int slot = 0; slot < 50; ++slot) {
    gen.arrivals(rng, active, out);
    ASSERT_EQ(out.size(), 8u);  // batch_prob 1: every link, in link order
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].link, i);
      EXPECT_GE(out[i].count, 1u);
      EXPECT_LE(out[i].count, 16u);
    }
  }
}

TEST(ServeTraffic, ModelNamesRoundTrip) {
  for (TrafficModel m : {TrafficModel::Poisson, TrafficModel::Bursty,
                         TrafficModel::HeavyTailed}) {
    EXPECT_EQ(traffic_model_from_string(to_string(m)), m);
  }
  EXPECT_THROW(traffic_model_from_string("fractal"), raysched::error);
}

// ---- health ---------------------------------------------------------------

TEST(ServeHealth, FreshMonitorIsHealthy) {
  HealthMonitor monitor{HealthConfig{}};
  monitor.end_slot(0, 0, false);
  EXPECT_EQ(monitor.state(), HealthState::Healthy);
  EXPECT_TRUE(monitor.transitions().empty());
}

TEST(ServeHealth, TimeoutDegradesAndRecoveryHeals) {
  HealthConfig config;
  config.recover_after_slots = 4;
  HealthMonitor monitor(config);
  monitor.on_recompute_timeout(10);
  monitor.end_slot(10, 0, true);
  EXPECT_EQ(monitor.state(), HealthState::Degraded);
  // Stale slots do not advance the countdown.
  monitor.end_slot(11, 0, true);
  EXPECT_EQ(monitor.state(), HealthState::Degraded);
  for (std::uint64_t s = 12; s < 16; ++s) monitor.end_slot(s, 0, false);
  EXPECT_EQ(monitor.state(), HealthState::Healthy);
  ASSERT_EQ(monitor.transitions().size(), 2u);
  EXPECT_EQ(monitor.transitions()[1].to, HealthState::Healthy);
}

TEST(ServeHealth, OverloadUsesHysteresis) {
  HealthConfig config;
  config.overload_enter_backlog = 100;
  config.overload_exit_backlog = 50;
  HealthMonitor monitor(config);
  monitor.end_slot(0, 99, false);
  EXPECT_EQ(monitor.state(), HealthState::Healthy);
  monitor.end_slot(1, 100, false);
  EXPECT_EQ(monitor.state(), HealthState::Overloaded);
  // Between exit and enter: still latched.
  monitor.end_slot(2, 75, false);
  EXPECT_EQ(monitor.state(), HealthState::Overloaded);
  monitor.end_slot(3, 50, false);
  EXPECT_NE(monitor.state(), HealthState::Overloaded);
}

TEST(ServeHealth, PoisonStreakQuarantinesUntilCleanRecompute) {
  HealthConfig config;
  config.quarantine_after = 2;
  HealthMonitor monitor(config);
  monitor.on_recompute_error(0, ErrorCode::PoisonedInput);
  monitor.end_slot(0, 0, true);
  EXPECT_EQ(monitor.state(), HealthState::Degraded);
  monitor.on_recompute_error(1, ErrorCode::PoisonedInput);
  monitor.end_slot(1, 0, true);
  EXPECT_EQ(monitor.state(), HealthState::Quarantined);
  // A non-poison failure does not lift quarantine...
  monitor.on_recompute_error(2, ErrorCode::Internal);
  monitor.end_slot(2, 0, true);
  EXPECT_EQ(monitor.state(), HealthState::Quarantined);
  // ...only a clean adoption does.
  monitor.on_recompute_ok(3);
  monitor.end_slot(3, 0, false);
  EXPECT_NE(monitor.state(), HealthState::Quarantined);
}

TEST(ServeHealth, PersistedRoundTrip) {
  HealthConfig config;
  HealthMonitor monitor(config);
  monitor.on_recompute_error(0, ErrorCode::PoisonedInput);
  monitor.end_slot(0, 5000, true);
  const HealthMonitor::Persisted saved = monitor.persisted();

  HealthMonitor restored(config);
  restored.restore(saved);
  EXPECT_EQ(restored.state(), monitor.state());
  // Same follow-up events must produce the same next state.
  monitor.end_slot(1, 5000, true);
  restored.end_slot(1, 5000, true);
  EXPECT_EQ(restored.state(), monitor.state());
}

TEST(ServeHealth, ValidationRejectsInvertedHysteresis) {
  HealthConfig config;
  config.overload_enter_backlog = 10;
  config.overload_exit_backlog = 10;
  EXPECT_THROW(HealthMonitor{config}, raysched::error);
}

// ---- fault script ---------------------------------------------------------

TEST(ServeFaultScript, ParsesTheCanonicalSchedule) {
  const FaultScript script = FaultScript::parse(
      "120:delay:10,300:poison-on,380:poison-off,500:churn-burst:0.2,"
      "900:crash");
  ASSERT_EQ(script.events().size(), 5u);
  EXPECT_EQ(script.events()[0].kind, FaultKind::RecomputeDelay);
  EXPECT_DOUBLE_EQ(script.events()[0].arg, 10.0);
  EXPECT_EQ(script.events()[4].kind, FaultKind::Crash);

  std::vector<FaultEvent> fired;
  script.events_in_slot(300, fired);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].kind, FaultKind::PoisonOn);
}

TEST(ServeFaultScript, PeriodicScriptsRefireButCrashDoesNot) {
  const FaultScript script =
      FaultScript::parse("10:delay:5,40:crash", /*period=*/100);
  std::vector<FaultEvent> fired;
  script.events_in_slot(210, fired);  // 210 % 100 == 10
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].kind, FaultKind::RecomputeDelay);
  fired.clear();
  script.events_in_slot(140, fired);  // crash re-fire suppressed
  EXPECT_TRUE(fired.empty());
  fired.clear();
  script.events_in_slot(40, fired);  // literal slot still fires
  ASSERT_EQ(fired.size(), 1u);
}

TEST(ServeFaultScript, PoisonWindowReconstruction) {
  const FaultScript script =
      FaultScript::parse("300:poison-on,380:poison-off");
  EXPECT_FALSE(script.poison_active_before(300));
  EXPECT_TRUE(script.poison_active_before(301));
  EXPECT_TRUE(script.poison_active_before(380));
  EXPECT_FALSE(script.poison_active_before(381));
}

TEST(ServeFaultScript, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultScript::parse("10:frobnicate"), raysched::error);
  EXPECT_THROW(FaultScript::parse("10:delay"), raysched::error);
  EXPECT_THROW(FaultScript::parse("10:delay:0"), raysched::error);
  EXPECT_THROW(FaultScript::parse("10:churn-burst:1.5"), raysched::error);
  EXPECT_THROW(FaultScript::parse("x:crash"), raysched::error);
  // Periodic scripts refuse events beyond the period.
  EXPECT_THROW(FaultScript::parse("150:poison-on", 100), raysched::error);
}

// ---- schedule agent -------------------------------------------------------

// submit() borrows its request until reap(), so a temporary must not bind.
template <typename Request>
concept SubmitAccepts =
    requires(ScheduleAgent& agent, Request&& request) {
      agent.submit(std::forward<Request>(request), std::uint64_t{1});
    };
static_assert(SubmitAccepts<ScheduleRequest&>);
static_assert(SubmitAccepts<const ScheduleRequest&>);
static_assert(!SubmitAccepts<ScheduleRequest>);
static_assert(!SubmitAccepts<ScheduleRequest&&>);

/// A request carrying only `weights`, submitted at `slot`.
ScheduleRequest weights_request(std::uint64_t slot,
                                std::vector<double> weights) {
  ScheduleRequest request;
  request.slot = slot;
  request.weights = std::move(weights);
  return request;
}

TEST(ServeAgent, ComputesAMaxWeightSchedule) {
  auto net = paper_network(12, 21);
  ScheduleAgent agent(net, units::Threshold(2.5), 1);
  std::vector<double> weights(net.size(), 1.0);
  weights[3] = 100.0;
  const ScheduleRequest request = weights_request(0, weights);
  agent.submit(request, 1);
  const RecomputeOutcome outcome = agent.reap();
  ASSERT_TRUE(outcome.ok);
  EXPECT_FALSE(outcome.schedule.empty());
  // The dominant-weight link must be part of any max-weight greedy pick.
  EXPECT_NE(std::find(outcome.schedule.begin(), outcome.schedule.end(), 3u),
            outcome.schedule.end());
  // The outcome is a view of the policy's own result, not a copy: the
  // next recompute refills the same storage.
  const ScheduleRequest again = weights_request(1, weights);
  agent.submit(again, 1);
  const RecomputeOutcome next = agent.reap();
  ASSERT_TRUE(next.ok);
  EXPECT_EQ(next.schedule.data(), outcome.schedule.data());
}

TEST(ServeAgent, PoisonedWeightsBecomeStructuredFailures) {
  auto net = paper_network(6, 22);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    ScheduleAgent agent(net, units::Threshold(2.5), threads);
    const ScheduleRequest poisoned = weights_request(
        0, std::vector<double>(net.size(),
                               std::numeric_limits<double>::quiet_NaN()));
    agent.submit(poisoned, 1);
    const RecomputeOutcome outcome = agent.reap();
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.code, ErrorCode::PoisonedInput);
    // The agent survives a failure: the next submit succeeds.
    const ScheduleRequest clean =
        weights_request(1, std::vector<double>(net.size(), 1.0));
    agent.submit(clean, 1);
    EXPECT_TRUE(agent.reap().ok);
  }
}

TEST(ServeAgent, InlineAndThreadedAgreeBitIdentically) {
  auto net = paper_network(16, 23);
  std::vector<double> weights(net.size(), 0.0);
  for (std::size_t i = 0; i < net.size(); ++i) {
    weights[i] = static_cast<double>((i * 7) % 5);
  }
  ScheduleAgent inline_agent(net, units::Threshold(2.5), 1);
  ScheduleAgent pool_agent(net, units::Threshold(2.5), 4);
  // Both agents borrow the one request at once.
  const ScheduleRequest request = weights_request(0, weights);
  inline_agent.submit(request, 1);
  pool_agent.submit(request, 1);
  const RecomputeOutcome inline_outcome = inline_agent.reap();
  const RecomputeOutcome pool_outcome = pool_agent.reap();
  EXPECT_EQ(model::LinkSet(inline_outcome.schedule.begin(),
                           inline_outcome.schedule.end()),
            model::LinkSet(pool_outcome.schedule.begin(),
                           pool_outcome.schedule.end()));
}

TEST(ServeAgent, ProtocolViolationsThrow) {
  auto net = paper_network(4, 24);
  ScheduleAgent agent(net, units::Threshold(2.5), 1);
  EXPECT_THROW((void)agent.reap(), raysched::error);  // nothing in flight
  const ScheduleRequest short_weights =
      weights_request(0, std::vector<double>(2, 1.0));
  EXPECT_THROW(agent.submit(short_weights, 1),
               raysched::error);  // wrong size
  const ScheduleRequest request =
      weights_request(0, std::vector<double>(4, 1.0));
  EXPECT_THROW(agent.submit(request, 0),
               raysched::error);  // zero latency
}

// ---- snapshot codec -------------------------------------------------------

ServeSnapshot sample_snapshot() {
  ServeSnapshot snap;
  snap.master_seed = 99;
  snap.num_links = 3;
  snap.beta = 2.5;
  snap.propagation = "nonfading";
  snap.traffic_model = "bursty";
  snap.policy = "ahm";
  snap.next_slot = 1234;
  snap.health.state = HealthState::Degraded;
  snap.health.poison_streak = 1;
  snap.health.clean_slots = 7;
  snap.arrivals = 1000;
  snap.admitted = 990;
  snap.served = 900;
  snap.drops.capacity = 4;
  snap.drops.shed = 3;
  snap.drops.churn = 2;
  snap.drops.quarantine = 1;
  snap.drops.stale_pruned = 9;
  snap.recompute_timeouts = 5;
  snap.recompute_failures = 6;
  snap.recompute_adoptions = 70;
  snap.schedule_epoch = 70;
  snap.schedule_stale = true;
  snap.schedule = {0, 2};
  snap.queues = {50, 30, 10};
  snap.active = {1, 0, 1};
  snap.burst_state = {0, 1, 0};
  snap.departed_flags = {0, 1, 0};
  snap.feedback_attempt = {1, 0, 1};
  snap.feedback_success = {1, 0, 0};
  snap.policy_state = {0.25, 0.5, 0.015625};
  snap.recompute.in_flight = true;
  snap.recompute.submit_slot = 1230;
  snap.recompute.latency_slots = 12;
  snap.inflight_timed_out = true;
  snap.inflight_poisoned = true;
  snap.recompute.weights = {50.0, 0.0, 10.0};
  snap.recompute.departed = {1};
  snap.recompute.feedback_schedule = {0, 2};
  snap.recompute.feedback_success = {1, 0};
  snap.backoff_slots = 8;
  snap.cooldown_until = 1240;
  snap.pending_extra_latency = 3;
  snap.poison_active = true;
  return snap;
}

TEST(ServeSnapshot, RoundTripsEveryField) {
  const ServeSnapshot snap = sample_snapshot();
  std::stringstream ss;
  write_snapshot(ss, snap);
  const ServeSnapshot back = read_snapshot(ss);
  EXPECT_EQ(back.master_seed, snap.master_seed);
  EXPECT_EQ(back.num_links, snap.num_links);
  EXPECT_DOUBLE_EQ(back.beta, snap.beta);
  EXPECT_EQ(back.propagation, snap.propagation);
  EXPECT_EQ(back.traffic_model, snap.traffic_model);
  EXPECT_EQ(back.policy, snap.policy);
  EXPECT_EQ(back.next_slot, snap.next_slot);
  EXPECT_EQ(back.health.state, snap.health.state);
  EXPECT_EQ(back.health.poison_streak, snap.health.poison_streak);
  EXPECT_EQ(back.health.clean_slots, snap.health.clean_slots);
  EXPECT_EQ(back.arrivals, snap.arrivals);
  EXPECT_EQ(back.served, snap.served);
  EXPECT_EQ(back.drops.capacity, snap.drops.capacity);
  EXPECT_EQ(back.drops.shed, snap.drops.shed);
  EXPECT_EQ(back.drops.churn, snap.drops.churn);
  EXPECT_EQ(back.drops.quarantine, snap.drops.quarantine);
  EXPECT_EQ(back.drops.stale_pruned, snap.drops.stale_pruned);
  EXPECT_EQ(back.schedule_epoch, snap.schedule_epoch);
  EXPECT_EQ(back.schedule_stale, snap.schedule_stale);
  EXPECT_EQ(back.schedule, snap.schedule);
  EXPECT_EQ(back.queues, snap.queues);
  EXPECT_EQ(back.active, snap.active);
  EXPECT_EQ(back.burst_state, snap.burst_state);
  EXPECT_EQ(back.departed_flags, snap.departed_flags);
  EXPECT_EQ(back.feedback_attempt, snap.feedback_attempt);
  EXPECT_EQ(back.feedback_success, snap.feedback_success);
  EXPECT_EQ(back.policy_state, snap.policy_state);
  EXPECT_TRUE(back.recompute.in_flight);
  EXPECT_EQ(back.recompute.submit_slot, snap.recompute.submit_slot);
  EXPECT_EQ(back.recompute.latency_slots, snap.recompute.latency_slots);
  EXPECT_EQ(back.inflight_timed_out, snap.inflight_timed_out);
  EXPECT_EQ(back.inflight_poisoned, snap.inflight_poisoned);
  EXPECT_EQ(back.recompute.weights, snap.recompute.weights);
  EXPECT_EQ(back.recompute.departed, snap.recompute.departed);
  EXPECT_EQ(back.recompute.feedback_schedule,
            snap.recompute.feedback_schedule);
  EXPECT_EQ(back.recompute.feedback_success,
            snap.recompute.feedback_success);
  EXPECT_EQ(back.backoff_slots, snap.backoff_slots);
  EXPECT_EQ(back.cooldown_until, snap.cooldown_until);
  EXPECT_EQ(back.pending_extra_latency, snap.pending_extra_latency);
  EXPECT_EQ(back.poison_active, snap.poison_active);
}

TEST(ServeSnapshot, RejectsCorruptedInput) {
  const ServeSnapshot snap = sample_snapshot();
  std::stringstream good;
  write_snapshot(good, snap);
  const std::string text = good.str();

  // Truncation at any structural boundary is a SnapshotFormat error.
  {
    std::istringstream truncated(text.substr(0, text.size() / 2));
    try {
      (void)read_snapshot(truncated);
      FAIL() << "truncated snapshot parsed";
    } catch (const coded_error& e) {
      EXPECT_EQ(e.code(), ErrorCode::SnapshotFormat);
    }
  }
  // A schedule id >= n must be rejected.
  {
    std::string bad = text;
    const auto pos = bad.find("schedule 2 : 0 2");
    ASSERT_NE(pos, std::string::npos);
    bad.replace(pos, 16, "schedule 2 : 0 9");
    std::istringstream is(bad);
    EXPECT_THROW((void)read_snapshot(is), coded_error);
  }
  // Version bumps are refused rather than misparsed. The header is the
  // first line, so its " 2\n" is the first occurrence in the text.
  {
    std::string bad = text;
    bad.replace(bad.find(" 2\n"), 3, " 9\n");
    std::istringstream is(bad);
    EXPECT_THROW((void)read_snapshot(is), coded_error);
  }
  // An in-flight departed id >= n must be rejected.
  {
    std::string bad = text;
    const auto pos = bad.find("inflight-departed 1 : 1");
    ASSERT_NE(pos, std::string::npos);
    bad.replace(pos, 23, "inflight-departed 1 : 7");
    std::istringstream is(bad);
    EXPECT_THROW((void)read_snapshot(is), coded_error);
  }
  // A signed value in an unsigned field is malformed, not 2^64 - 1.
  {
    std::string bad = text;
    const auto pos = bad.find("queues 3 : 50 ");
    ASSERT_NE(pos, std::string::npos);
    bad.replace(pos, 14, "queues 3 : -1 ");
    std::istringstream is(bad);
    try {
      (void)read_snapshot(is);
      FAIL() << "negative queue length parsed";
    } catch (const coded_error& e) {
      EXPECT_EQ(e.code(), ErrorCode::SnapshotFormat);
    }
  }
}

TEST(ServeSnapshot, NonFiniteWeightsAreUnserializable) {
  ServeSnapshot snap = sample_snapshot();
  snap.recompute.weights[1] = std::numeric_limits<double>::quiet_NaN();
  std::stringstream ss;
  try {
    write_snapshot(ss, snap);
    FAIL() << "NaN weight serialized";
  } catch (const coded_error& e) {
    EXPECT_EQ(e.code(), ErrorCode::SnapshotFormat);
  }
}

TEST(ServeSnapshot, AtomicSaveLeavesNoTmpFile) {
  const std::string path =
      ::testing::TempDir() + "raysched_serve_snap_test.txt";
  save_snapshot_atomic(path, sample_snapshot());
  const ServeSnapshot back = load_snapshot(path);
  EXPECT_EQ(back.next_slot, 1234u);
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

// ---- error taxonomy -------------------------------------------------------

TEST(ServeErrors, CodedErrorCarriesCodeAndPrefix) {
  const coded_error e(ErrorCode::PoisonedInput, "bad gains");
  EXPECT_EQ(e.code(), ErrorCode::PoisonedInput);
  EXPECT_EQ(std::string(e.what()), "[poisoned-input] bad gains");
  EXPECT_THROW(require_code(false, ErrorCode::SnapshotIo, "x"), coded_error);
  // coded_error is still a raysched::error: existing catch sites keep
  // working.
  EXPECT_THROW(require_code(false, ErrorCode::SnapshotIo, "x"),
               raysched::error);
}

TEST(ServeErrors, CodeNamesRoundTripThroughHealthAndPropagation) {
  for (HealthState s : {HealthState::Healthy, HealthState::Degraded,
                        HealthState::Overloaded, HealthState::Quarantined}) {
    EXPECT_EQ(health_state_from_string(to_string(s)), s);
  }
  for (core::Propagation p :
       {core::Propagation::NonFading, core::Propagation::Rayleigh}) {
    EXPECT_EQ(propagation_from_string(to_string(p)), p);
  }
}

}  // namespace
}  // namespace raysched::serve
