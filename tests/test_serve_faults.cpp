// End-to-end fault scenarios for the serving loop: bit-identical replay
// across thread counts, kill/restore from crash-safe snapshots, graceful
// degradation under scripted faults, and exact drop accounting. These pin
// the determinism contract documented in serve/service.hpp.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "test_helpers.hpp"

namespace raysched::serve {
namespace {

using raysched::testing::paper_network;

// The network every scenario serves: deterministic, so two Service
// instances built from the same call are identical.
model::Network serve_network() { return paper_network(16, 77); }

ServeConfig base_config() {
  ServeConfig config;
  config.master_seed = 31;
  config.beta = units::Threshold(2.5);
  config.traffic.model = TrafficModel::Poisson;
  config.traffic.mean_rate = 0.3;
  config.queue_cap = 256;
  config.recompute_period = 8;
  config.recompute_latency = 2;
  config.recompute_deadline = 6;
  config.health.recover_after_slots = 16;
  config.health.quarantine_after = 2;
  return config;
}

// The canonical scripted fault schedule (sans crash): a recompute pushed
// past its deadline, a poisoned-gain window long enough to quarantine, and
// a churn burst dropping a fifth of the links.
const char* kFaultSpec =
    "40:delay:10,120:poison-on,170:poison-off,260:churn-burst:0.2";

void expect_same_digests(const std::vector<SlotDigest>& a,
                         const std::vector<SlotDigest>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].slot, b[i].slot) << "digest " << i;
    EXPECT_EQ(a[i].arrivals, b[i].arrivals) << "slot " << a[i].slot;
    EXPECT_EQ(a[i].served, b[i].served) << "slot " << a[i].slot;
    EXPECT_EQ(a[i].dropped, b[i].dropped) << "slot " << a[i].slot;
    EXPECT_EQ(a[i].backlog, b[i].backlog) << "slot " << a[i].slot;
    EXPECT_EQ(a[i].schedule_epoch, b[i].schedule_epoch)
        << "slot " << a[i].slot;
    EXPECT_EQ(a[i].health, b[i].health) << "slot " << a[i].slot;
    if (::testing::Test::HasFailure()) return;  // first divergence is enough
  }
}

TEST(ServeFaults, TrajectoryIsIndependentOfThreadCount) {
  ServeConfig config = base_config();
  config.faults = FaultScript::parse(kFaultSpec);
  std::vector<SlotDigest> reference;
  std::uint64_t reference_hash = 0;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}}) {
    config.agent_threads = threads;
    Service service(serve_network(), config);
    const ServeReport report = service.run(400);
    EXPECT_TRUE(report.conservation_ok) << "threads=" << threads;
    if (threads == 1) {
      reference = report.digests;
      reference_hash = report.trajectory_hash;
      continue;
    }
    EXPECT_EQ(report.trajectory_hash, reference_hash)
        << "threads=" << threads;
    expect_same_digests(report.digests, reference);
  }
}

TEST(ServeFaults, RepeatedRunsAreBitIdentical) {
  ServeConfig config = base_config();
  config.faults = FaultScript::parse(kFaultSpec);
  Service a(serve_network(), config);
  Service b(serve_network(), config);
  const ServeReport ra = a.run(300);
  const ServeReport rb = b.run(300);
  EXPECT_EQ(ra.trajectory_hash, rb.trajectory_hash);
  EXPECT_EQ(ra.arrivals, rb.arrivals);
  EXPECT_EQ(ra.served, rb.served);
  EXPECT_EQ(ra.drops.total(), rb.drops.total());
}

TEST(ServeFaults, ScriptedCrashStopsBeforeTheSlot) {
  ServeConfig config = base_config();
  config.faults = FaultScript::parse("150:crash");
  Service service(serve_network(), config);
  const ServeReport report = service.run(400);
  EXPECT_TRUE(report.crashed);
  EXPECT_EQ(report.crash_slot, 150u);
  EXPECT_EQ(report.next_slot, 150u);     // the crash slot never executed
  EXPECT_EQ(report.slots_run, 150u);     // slots 0..149 ran
  EXPECT_TRUE(report.conservation_ok);
}

TEST(ServeFaults, KillAndRestoreReplaysBitIdentically) {
  // Run A: the full horizon with the crash-free fault script. Run B: the
  // same script plus a crash, with periodic snapshots. A fresh service then
  // restores B's last snapshot and — per the restart convention — continues
  // under the crash-free script. Its trajectory must be byte-identical to
  // A's over the overlap window, despite the crash landing mid-recompute
  // cadence and after churn/poison faults.
  const std::string path =
      ::testing::TempDir() + "raysched_serve_kill_restore.snap";
  ServeConfig clean = base_config();
  clean.faults = FaultScript::parse(kFaultSpec);

  Service a(serve_network(), clean);
  const ServeReport full = a.run(420);
  ASSERT_FALSE(full.crashed);

  ServeConfig crashing = clean;
  crashing.faults =
      FaultScript::parse(std::string(kFaultSpec) + ",301:crash");
  crashing.snapshot_path = path;
  crashing.snapshot_period = 149;
  Service b(serve_network(), crashing);
  const ServeReport until_crash = b.run(420);
  ASSERT_TRUE(until_crash.crashed);
  ASSERT_EQ(until_crash.crash_slot, 301u);

  // The last periodic snapshot was written at the end of slot 297
  // (next_slot 298) — while the recompute submitted at slot 296 was still
  // in flight, so the restore also resubmits a mid-flight request. The
  // crash at 301 leaves slots 298..419 to replay.
  const ServeSnapshot snap = load_snapshot(path);
  ASSERT_EQ(snap.next_slot, 298u);
  ASSERT_TRUE(snap.recompute.in_flight);
  Service c(serve_network(), clean);
  c.restore(snap);
  ASSERT_EQ(c.next_slot(), 298u);
  const ServeReport replay = c.run(420 - 298);

  ASSERT_EQ(full.digests.size(), 420u);
  const std::vector<SlotDigest> tail(full.digests.begin() + 298,
                                     full.digests.end());
  expect_same_digests(replay.digests, tail);
  EXPECT_EQ(replay.arrivals, full.arrivals);
  EXPECT_EQ(replay.served, full.served);
  EXPECT_EQ(replay.backlog, full.backlog);
  EXPECT_EQ(replay.drops.capacity, full.drops.capacity);
  EXPECT_EQ(replay.drops.shed, full.drops.shed);
  EXPECT_EQ(replay.drops.churn, full.drops.churn);
  EXPECT_EQ(replay.drops.quarantine, full.drops.quarantine);
  EXPECT_EQ(replay.schedule_epoch, full.schedule_epoch);
  EXPECT_EQ(replay.health, full.health);
  EXPECT_TRUE(replay.conservation_ok);
  std::remove(path.c_str());
}

TEST(ServeFaults, MidFlightRecomputeSurvivesSnapshot) {
  // After 9 slots the recompute submitted at slot 8 (period 8, latency 2)
  // is still in flight; snapshotting there must capture and resubmit it so
  // the restored service adopts at the same slot. Bursty traffic makes the
  // modulator state part of the roundtrip too.
  ServeConfig config = base_config();
  config.traffic.model = TrafficModel::Bursty;
  Service a(serve_network(), config);
  (void)a.run(9);
  const ServeSnapshot snap = a.snapshot();
  ASSERT_TRUE(snap.recompute.in_flight);
  ASSERT_EQ(snap.recompute.submit_slot, 8u);
  ASSERT_FALSE(snap.burst_state.empty());

  Service b(serve_network(), config);
  b.restore(snap);
  const ServeReport ra = a.run(120);
  const ServeReport rb = b.run(120);
  expect_same_digests(rb.digests, ra.digests);
  EXPECT_EQ(rb.served, ra.served);
  EXPECT_TRUE(rb.conservation_ok);
}

TEST(ServeFaults, RestoreRefusesFingerprintMismatch) {
  ServeConfig config = base_config();
  Service a(serve_network(), config);
  (void)a.run(20);
  const ServeSnapshot snap = a.snapshot();

  ServeConfig other = config;
  other.master_seed = 32;
  Service wrong_seed(serve_network(), other);
  try {
    wrong_seed.restore(snap);
    FAIL() << "seed mismatch accepted";
  } catch (const coded_error& e) {
    EXPECT_EQ(e.code(), ErrorCode::SnapshotFormat);
  }

  ServeConfig other_beta = config;
  other_beta.beta = units::Threshold(3.0);
  Service wrong_beta(serve_network(), other_beta);
  EXPECT_THROW(wrong_beta.restore(snap), coded_error);

  // A service that already ran cannot restore at all.
  Service used(serve_network(), config);
  (void)used.run(5);
  EXPECT_THROW(used.restore(snap), raysched::error);
}

TEST(ServeFaults, TimeoutServesStaleAndRetriesWithBackoff) {
  ServeConfig config = base_config();
  // Push the slot-40 recompute 10 slots past its 6-slot deadline.
  config.faults = FaultScript::parse("40:delay:10");
  Service service(serve_network(), config);
  const ServeReport report = service.run(200);
  EXPECT_EQ(report.recompute_timeouts, 1u);
  EXPECT_TRUE(report.conservation_ok);
  // The loop never stopped serving: packets drained in the stale window
  // (slots 46..51, between the timeout and the overdue reap).
  std::uint64_t stale_served = 0;
  bool saw_degraded = false;
  for (const SlotDigest& d : report.digests) {
    if (d.slot >= 46 && d.slot < 52) stale_served += d.served;
    saw_degraded = saw_degraded || d.health == HealthState::Degraded;
  }
  EXPECT_GT(stale_served, 0u);
  EXPECT_TRUE(saw_degraded);
  // It recovered: fresh adoptions resumed after the backoff.
  EXPECT_GT(report.recompute_adoptions, 10u);
  EXPECT_EQ(report.health, HealthState::Healthy);
}

TEST(ServeFaults, PoisonWindowQuarantinesThenRecovers) {
  ServeConfig config = base_config();
  config.faults = FaultScript::parse("40:poison-on,120:poison-off");
  Service service(serve_network(), config);
  const ServeReport report = service.run(400);
  EXPECT_TRUE(report.conservation_ok);
  EXPECT_GE(report.recompute_failures, config.health.quarantine_after);
  // The poisoned window produced quarantine drops (arrivals refused while
  // the gains could not be trusted)...
  EXPECT_GT(report.drops.quarantine, 0u);
  bool saw_quarantine = false;
  for (const HealthTransition& t : report.transitions) {
    saw_quarantine = saw_quarantine || t.to == HealthState::Quarantined;
  }
  EXPECT_TRUE(saw_quarantine);
  // ...and the first clean recompute after poison-off lifted it for good.
  EXPECT_EQ(report.health, HealthState::Healthy);
  EXPECT_NE(report.digests.back().health, HealthState::Quarantined);
}

TEST(ServeFaults, ChurnBurstDropsAreAccounted) {
  ServeConfig config = base_config();
  // Load heavy enough that queues are certainly backlogged when half the
  // links leave — their queued packets become churn drops.
  config.traffic.mean_rate = 0.8;
  config.faults = FaultScript::parse("100:churn-burst:0.5");
  Service service(serve_network(), config);
  const ServeReport report = service.run(200);
  EXPECT_GT(report.drops.churn, 0u);
  EXPECT_TRUE(report.conservation_ok);
  // Exact integer conservation, spelled out.
  EXPECT_EQ(report.arrivals,
            report.served + report.backlog + report.drops.total());
}

TEST(ServeFaults, OverloadShedsWithAccountedDrops) {
  // Two co-located links can serve ~1 packet/slot combined; offering ~2 per
  // slot drives the backlog over the overload threshold, where admission
  // halves and the excess is shed — counted, never silent.
  ServeConfig config;
  config.master_seed = 9;
  config.beta = units::Threshold(2.0);
  config.traffic.model = TrafficModel::Poisson;
  config.traffic.mean_rate = 1.0;
  config.queue_cap = 50;
  config.health.overload_enter_backlog = 60;
  config.health.overload_exit_backlog = 20;
  Service service(raysched::testing::two_close_links(1e-6), config);
  const ServeReport report = service.run(500);
  EXPECT_TRUE(report.conservation_ok);
  EXPECT_GT(report.drops.shed, 0u);
  bool saw_overload = false;
  for (const HealthTransition& t : report.transitions) {
    saw_overload = saw_overload || t.to == HealthState::Overloaded;
  }
  EXPECT_TRUE(saw_overload);
  // While overloaded the admission threshold halves: no queue may exceed
  // the full cap, and totals still balance exactly.
  EXPECT_EQ(report.arrivals,
            report.served + report.backlog + report.drops.total());
}

TEST(ServeFaults, RayleighServiceIsDeterministicToo) {
  ServeConfig config = base_config();
  config.propagation = core::Propagation::Rayleigh;
  config.faults = FaultScript::parse(kFaultSpec);
  config.agent_threads = 1;
  Service a(serve_network(), config);
  config.agent_threads = 2;
  Service b(serve_network(), config);
  const ServeReport ra = a.run(300);
  const ServeReport rb = b.run(300);
  EXPECT_EQ(ra.trajectory_hash, rb.trajectory_hash);
  EXPECT_TRUE(ra.conservation_ok);
  EXPECT_GT(ra.served, 0u);
}

TEST(ServeFaults, MaxWeightFaultGauntletMatchesGolden) {
  // The max-weight trajectory through the full fault gauntlet (delay,
  // poison, churn burst), pinned to the hash and served count captured
  // when the priced and the unpriced max-weight were still two policies.
  ServeConfig config = base_config();
  config.faults = FaultScript::parse(kFaultSpec);
  config.policy = PolicyKind::MaxWeight;
  Service service(serve_network(), config);
  const ServeReport report = service.run(400);
  EXPECT_EQ(report.trajectory_hash, 0xdcb15a5dc3e995bcu)
      << std::hex << report.trajectory_hash;
  EXPECT_EQ(report.served, 1464u);
  EXPECT_TRUE(report.conservation_ok);
}

/// Copies the snapshot at `from` to `to` with its policy line replaced.
void rewrite_snapshot_policy(const std::string& from, const std::string& to,
                             const std::string& policy) {
  std::ifstream in(from);
  std::ofstream out(to);
  std::string line;
  while (std::getline(in, line)) {
    out << (line.rfind("policy ", 0) == 0 ? "policy " + policy : line)
        << "\n";
  }
}

TEST(ServeFaults, IncrementalKillRestoreReplaysBitIdentically) {
  // The kill/restore scenario again for max-weight, at every agent thread
  // count, restoring from a snapshot whose policy line carries the legacy
  // name "max-weight-incremental" (what a v2 snapshot written before the
  // two max-weight policies merged says). The restore compares parsed
  // kinds, so the trajectory must stay byte-identical.
  const std::string path =
      ::testing::TempDir() + "raysched_serve_inc_kill_restore.snap";
  const std::string legacy_path = path + ".legacy";
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ServeConfig clean = base_config();
    clean.faults = FaultScript::parse(kFaultSpec);
    clean.policy = PolicyKind::MaxWeight;
    clean.agent_threads = threads;

    Service a(serve_network(), clean);
    const ServeReport full = a.run(420);
    ASSERT_FALSE(full.crashed);

    ServeConfig crashing = clean;
    crashing.faults =
        FaultScript::parse(std::string(kFaultSpec) + ",301:crash");
    crashing.snapshot_path = path;
    crashing.snapshot_period = 149;
    Service b(serve_network(), crashing);
    const ServeReport until_crash = b.run(420);
    ASSERT_TRUE(until_crash.crashed);

    ASSERT_EQ(load_snapshot(path).policy, "max-weight");
    rewrite_snapshot_policy(path, legacy_path, "max-weight-incremental");
    const ServeSnapshot snap = load_snapshot(legacy_path);
    ASSERT_EQ(snap.next_slot, 298u);
    ASSERT_TRUE(snap.recompute.in_flight);
    EXPECT_EQ(snap.policy, "max-weight-incremental");
    // Max-weight persists no state: each request is priced from scratch.
    EXPECT_TRUE(snap.policy_state.empty());
    Service c(serve_network(), clean);
    c.restore(snap);
    const ServeReport replay = c.run(420 - 298);

    ASSERT_EQ(full.digests.size(), 420u);
    const std::vector<SlotDigest> tail(full.digests.begin() + 298,
                                       full.digests.end());
    expect_same_digests(replay.digests, tail);
    EXPECT_EQ(replay.served, full.served);
    EXPECT_EQ(replay.drops.stale_pruned, full.drops.stale_pruned);
    EXPECT_TRUE(replay.conservation_ok);
  }
  std::remove(path.c_str());
  std::remove(legacy_path.c_str());
}

TEST(ServeFaults, RestoreRefusesUnknownPolicyName) {
  // A policy name that does not parse is a snapshot-format error, coded
  // like every other fingerprint refusal.
  ServeConfig config = base_config();
  Service a(serve_network(), config);
  (void)a.run(20);
  ServeSnapshot snap = a.snapshot();
  snap.policy = "round-robin";
  Service b(serve_network(), config);
  try {
    b.restore(snap);
    FAIL() << "unknown policy accepted";
  } catch (const coded_error& e) {
    EXPECT_EQ(e.code(), ErrorCode::SnapshotFormat);
  }
}

TEST(ServeFaults, AhmKillRestoreReplaysBitIdentically) {
  // AHM's transmission probabilities are the whole policy state; the
  // snapshot persists the pre-submit capture and the restore replays the
  // resubmitted feedback onto it, so the sampled trajectory must match.
  const std::string path =
      ::testing::TempDir() + "raysched_serve_ahm_kill_restore.snap";
  ServeConfig clean = base_config();
  clean.faults = FaultScript::parse(kFaultSpec);
  clean.policy = PolicyKind::Ahm;

  Service a(serve_network(), clean);
  const ServeReport full = a.run(420);
  ASSERT_FALSE(full.crashed);
  EXPECT_GT(full.served, 0u);

  ServeConfig crashing = clean;
  crashing.faults =
      FaultScript::parse(std::string(kFaultSpec) + ",301:crash");
  crashing.snapshot_path = path;
  crashing.snapshot_period = 149;
  Service b(serve_network(), crashing);
  const ServeReport until_crash = b.run(420);
  ASSERT_TRUE(until_crash.crashed);

  const ServeSnapshot snap = load_snapshot(path);
  ASSERT_EQ(snap.next_slot, 298u);
  EXPECT_EQ(snap.policy, "ahm");
  ASSERT_EQ(snap.policy_state.size(), serve_network().size());
  Service c(serve_network(), clean);
  c.restore(snap);
  const ServeReport replay = c.run(420 - 298);

  const std::vector<SlotDigest> tail(full.digests.begin() + 298,
                                     full.digests.end());
  expect_same_digests(replay.digests, tail);
  EXPECT_EQ(replay.served, full.served);
  EXPECT_TRUE(replay.conservation_ok);
  std::remove(path.c_str());
}

TEST(ServeFaults, ChurnDuringInflightRecomputePrunesStaleLinks) {
  // Satellite-1 regression: a delay fault stretches the slot-40 recompute
  // to latency 5 (due slot 45, inside the 6-slot deadline), and a churn
  // burst at slot 42 removes half the links mid-flight. The adopted
  // schedule was weighted against queues that no longer exist; adoption
  // must prune the departed links and account each in the drop taxonomy.
  ServeConfig config = base_config();
  config.traffic.mean_rate = 0.8;  // backlog everywhere → wide schedule
  config.faults = FaultScript::parse("40:delay:3,42:churn-burst:0.5");
  std::uint64_t reference_hash = 0;
  std::uint64_t reference_pruned = 0;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    config.agent_threads = threads;
    Service service(serve_network(), config);
    const ServeReport report = service.run(200);
    EXPECT_TRUE(report.conservation_ok) << "threads=" << threads;
    EXPECT_GT(report.drops.stale_pruned, 0u);
    // Pruned entries count links, not packets: conservation stays exact
    // without them.
    EXPECT_EQ(report.arrivals,
              report.served + report.backlog + report.drops.total());
    if (threads == 1) {
      reference_hash = report.trajectory_hash;
      reference_pruned = report.drops.stale_pruned;
      continue;
    }
    EXPECT_EQ(report.trajectory_hash, reference_hash);
    EXPECT_EQ(report.drops.stale_pruned, reference_pruned);
  }
}

TEST(ServeFaults, DelayPileUpSaturatesInsteadOfWrapping) {
  // Satellite-2 regression: two scripted 1e19-slot delays sum past 2^64.
  // Wrapping arithmetic would alias the pile-up to a *small* latency and
  // quietly adopt the result; saturation pins it at the "never" horizon,
  // where the deadline machinery takes over.
  ServeConfig config = base_config();
  config.faults = FaultScript::parse("9:delay:1e19,10:delay:1e19");
  Service service(serve_network(), config);
  (void)service.run(15);  // both delay events applied, next submit at 16
  const std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  ServeSnapshot snap = service.snapshot();
  EXPECT_EQ(snap.pending_extra_latency, kMax);

  // Slot 16 submits with saturated latency; the deadline trips at 22 and
  // the loop keeps serving the stale schedule indefinitely.
  const ServeReport report = service.run(185);
  EXPECT_EQ(report.recompute_timeouts, 1u);
  EXPECT_TRUE(report.conservation_ok);
  std::uint64_t late_served = 0;
  for (const SlotDigest& d : report.digests) {
    if (d.slot >= 100) late_served += d.served;
  }
  EXPECT_GT(late_served, 0u);

  // The saturated in-flight request survives a snapshot roundtrip: codec
  // and restore handle the UINT64_MAX latency, and the restored service
  // replays the stale-serving trajectory byte-for-byte.
  snap = service.snapshot();
  ASSERT_TRUE(snap.recompute.in_flight);
  EXPECT_EQ(snap.recompute.latency_slots, kMax);
  const std::string path =
      ::testing::TempDir() + "raysched_serve_saturated.snap";
  save_snapshot_atomic(path, snap);
  const ServeSnapshot loaded = load_snapshot(path);
  EXPECT_EQ(loaded.recompute.latency_slots, kMax);
  Service restored(serve_network(), config);
  restored.restore(loaded);
  const ServeReport ra = service.run(50);
  const ServeReport rb = restored.run(50);
  expect_same_digests(rb.digests, ra.digests);
  EXPECT_EQ(rb.served, ra.served);
  std::remove(path.c_str());
}

TEST(ServeFaults, RunResumesAcrossCalls) {
  // Two run() segments must equal one long run: next_slot is the complete
  // loop position.
  ServeConfig config = base_config();
  config.faults = FaultScript::parse(kFaultSpec);
  Service split(serve_network(), config);
  (void)split.run(150);
  const ServeReport second = split.run(150);
  Service whole(serve_network(), config);
  const ServeReport full = whole.run(300);
  EXPECT_EQ(second.trajectory_hash, full.trajectory_hash);
  EXPECT_EQ(second.served, full.served);
  EXPECT_EQ(second.next_slot, full.next_slot);
}

}  // namespace
}  // namespace raysched::serve
