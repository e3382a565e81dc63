// raysched: the fault-tolerant heavy-traffic serving loop.
//
// Service pumps stochastic per-link traffic (serve/traffic.hpp) through a
// schedule policy slot by slot while links join and leave, and is
// engineered to keep serving through faults instead of stopping:
//
//   * Schedule recomputes run asynchronously on a ScheduleAgent with a slot
//     deadline. On overrun or failure (poisoned gains, contract violation)
//     the loop keeps serving from the last good schedule — marked stale —
//     and retries with exponential backoff in slots.
//   * Recomputes are delegated to a pluggable SchedulePolicy
//     (serve/schedule_policy.hpp): max-weight or the AHM stability
//     algorithm. Links that depart while a recompute is in flight are
//     pruned from the result at adoption (stale-weight fix), counted per
//     link in DropStats::stale_pruned.
//   * Queues are bounded with explicit admission control. Every lost packet
//     is counted in a DropStats bucket (capacity / shed / churn /
//     quarantine); the conservation invariant
//       arrivals == served + backlog + drops.total()
//     holds exactly, in integers, at every slot boundary — a violation is
//     an "unexplained drop" and a hard contract failure.
//   * Overload sheds load: while the HealthMonitor reports Overloaded, the
//     admission threshold halves and the recompute only weights the
//     heaviest overload_schedule_frac of active queues, shrinking the
//     scheduled set.
//   * Periodic crash-safe snapshots (serve/snapshot.hpp). A service killed
//     and restored from its last snapshot replays the remaining slots
//     bit-identically — every stream is re-derived per slot from the master
//     seed, so the snapshot's slot index is the complete RNG position.
//
// Determinism contract: with a fixed ServeConfig and fault script, the
// sequence of SlotDigests is a pure function of the master seed —
// independent of thread count, wall-clock recompute times, and
// kill/restore points. tests/test_serve_faults.cpp pins this.
//
// Concurrency contract: Service itself is single-threaded — every member is
// confined to the serving-loop thread and needs no lock. Two things cross
// to the agent's worker: the result handoff, which is mutex-guarded inside
// the agent and checked by the Clang thread-safety analysis
// (THREAD_SAFETY_ANALYSIS build), and the request the agent borrows, which
// both threads only read while a recompute is in flight.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "algorithms/ahm.hpp"
#include "core/latency_transform.hpp"
#include "model/network.hpp"
#include "serve/fault_script.hpp"
#include "serve/health.hpp"
#include "serve/schedule_agent.hpp"
#include "serve/snapshot.hpp"
#include "serve/traffic.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace raysched::serve {

/// Stable lowercase name for the snapshot fingerprint.
[[nodiscard]] const char* to_string(core::Propagation propagation);
/// Parses the names produced by to_string. Throws raysched::error.
[[nodiscard]] core::Propagation propagation_from_string(
    const std::string& name);

struct ServeConfig {
  std::uint64_t master_seed = 1;
  units::Threshold beta = units::Threshold(2.5);
  core::Propagation propagation = core::Propagation::NonFading;
  TrafficConfig traffic;

  /// Per-link queue bound; arrivals beyond it are capacity drops.
  std::uint64_t queue_cap = 4096;

  /// Recompute cadence: submit every `period` slots (and immediately once
  /// the schedule is stale and backoff allows); nominal service time
  /// `latency` slots; declared timed out `deadline` slots after submit.
  std::uint64_t recompute_period = 8;
  std::uint64_t recompute_latency = 2;
  std::uint64_t recompute_deadline = 6;
  /// Exponential backoff (slots) after a timeout or failure.
  std::uint64_t backoff_initial = 4;
  std::uint64_t backoff_max = 64;
  /// Threads for the ScheduleAgent pool; 1 = inline synchronous recompute.
  std::size_t agent_threads = 1;

  /// Schedule policy executing the recomputes (serve/schedule_policy.hpp).
  PolicyKind policy = PolicyKind::MaxWeight;
  /// AHM parameters; consulted only when policy == PolicyKind::Ahm.
  algorithms::AhmConfig ahm;

  /// Per-slot membership churn: an active link leaves with churn_leave, an
  /// inactive link rejoins with churn_join. A leaving link's backlog is
  /// dropped and counted (churn drops).
  units::Probability churn_leave = units::Probability(0.0);
  units::Probability churn_join = units::Probability(0.0);

  HealthConfig health;
  /// Fraction of active links (heaviest queues first) the recompute may
  /// weight while Overloaded, in (0, 1].
  double overload_schedule_frac = 0.25;

  /// Crash-safe snapshots every `snapshot_period` slots to `snapshot_path`
  /// (both must be set; 0 / empty disables).
  std::string snapshot_path;
  std::uint64_t snapshot_period = 0;

  FaultScript faults;
};

/// One slot's closing record; the unit of bit-identity comparison.
struct SlotDigest {
  std::uint64_t slot = 0;
  std::uint64_t arrivals = 0;  ///< offered this slot (before admission)
  std::uint64_t served = 0;
  std::uint64_t dropped = 0;  ///< all buckets, this slot
  std::uint64_t backlog = 0;  ///< total queue after serving
  std::uint64_t schedule_epoch = 0;
  HealthState health = HealthState::Healthy;
};

/// The backlog trend of a run, the stability signal of
/// Ásgeirsson–Halldórsson–Mitra read off the queues. It holds the mean
/// total backlog over all digests, over the second quarter-window and over
/// the last one, each divided by the slots it holds; the last window also
/// holds the slots left over when the length is not divisible by 4. The
/// slope is the change between the two window means in packets per slot,
/// taken over the two quarters between the windows' starts. Runs under 4
/// slots have no quarter-windows: both window means are the overall mean
/// and the slope is 0.
struct BacklogTrend {
  double mean = 0.0;
  double mean_q2 = 0.0;
  double mean_q4 = 0.0;
  double slope = 0.0;
  /// The drift is under one packet per 20 slots across the whole network:
  /// queues oscillate instead of growing.
  bool stable = false;
};

/// Reads the trend from a run's digests, after run() returns. Throws
/// raysched::error on an empty span.
[[nodiscard]] BacklogTrend backlog_trend(std::span<const SlotDigest> digests);

/// Cumulative report for one run() segment. The inherited counters are the
/// lifetime totals where the service stopped, including state restored from
/// a snapshot.
struct ServeReport : ServeCounters {
  std::uint64_t slots_run = 0;  ///< slots executed by this run() call
  std::uint64_t backlog = 0;
  HealthState health = HealthState::Healthy;
  std::vector<SlotDigest> digests;  ///< this run() call only
  /// FNV-1a over every digest since construction/restore; equal hashes over
  /// the same slot window mean bit-identical trajectories.
  std::uint64_t trajectory_hash = 0;
  bool crashed = false;  ///< a scripted crash fault stopped the run
  std::uint64_t crash_slot = 0;
  bool conservation_ok = false;
};

/// The serving loop. Not copyable (the agent references the owned network).
class Service {
 public:
  /// Takes the network by value; validates the configuration. Throws
  /// raysched::error on out-of-domain parameters.
  Service(model::Network net, const ServeConfig& config);  // raysched-check: allow(RS-M2): sink parameter, moved into net_
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Executes up to `slots` further slots; stops early only at a scripted
  /// crash fault. Returns the cumulative report for this segment. May be
  /// called repeatedly.
  ServeReport run(std::uint64_t slots);

  /// Captures the complete behavior-bearing state between slots.
  [[nodiscard]] ServeSnapshot snapshot() const;

  /// Rebuilds state from a snapshot (fingerprint-checked) on a freshly
  /// constructed service; an in-flight recompute is resubmitted so its
  /// adoption slot is preserved. Throws coded_error{SnapshotFormat} on a
  /// fingerprint mismatch or on counters that break the conservation
  /// invariant, and raysched::error if slots were already run.
  void restore(const ServeSnapshot& snap);

  [[nodiscard]] std::uint64_t next_slot() const { return state_.next_slot; }
  [[nodiscard]] const HealthMonitor& health() const { return monitor_; }
  [[nodiscard]] const ServeConfig& config() const { return config_; }
  [[nodiscard]] const model::Network& network() const { return net_; }
  [[nodiscard]] std::uint64_t trajectory_hash() const { return hash_; }
  /// Exact integer conservation check: arrivals == served + backlog +
  /// drops. False means an unexplained drop.
  [[nodiscard]] bool conservation_holds() const;
  /// The same check against a backlog the caller has just counted.
  [[nodiscard]] bool conservation_holds(std::uint64_t backlog) const;

 private:
  void apply_churn(std::uint64_t slot, const std::vector<double>& burst_fracs);
  std::uint64_t apply_arrivals(std::uint64_t slot);
  void manage_recompute(std::uint64_t slot);
  void submit_recompute(std::uint64_t slot);
  /// Hands request_ (or, inside the poison window, its NaN-filled stand-in)
  /// to the agent.
  void submit_request(std::uint64_t latency);
  std::uint64_t serve_slot(std::uint64_t slot);
  /// False only on the feasibility-certified max-weight non-fading path,
  /// which serves without evaluating the set and never builds block_.
  [[nodiscard]] bool decides_on_block() const;
  /// Refills block_ from the schedule; called wherever it is assigned.
  void rebuild_block();
  [[nodiscard]] std::uint64_t total_backlog() const;
  void bump_backoff(std::uint64_t slot);
  void digest_slot(const SlotDigest& digest);

  model::Network net_;  // must outlive agent_
  ServeConfig config_;
  util::RngStream master_;
  TrafficGenerator traffic_;
  // The recompute request, refilled in place at each submit: the agent's
  // input while in flight, the source of a snapshot's `recompute` and the
  // target of a restore. It always holds the clean weights. Inside the
  // poison window the agent is handed poison_scratch_ instead, the same
  // slot with NaN weights. Both are borrowed by agent_ and must outlive it.
  ScheduleRequest request_;
  ScheduleRequest poison_scratch_;
  ScheduleAgent agent_;
  HealthMonitor monitor_;

  // Everything else a snapshot persists; state_.schedule is reserved to n,
  // so adoption copies into it without allocating.
  ServeState state_;
  // The schedule's gain block: the restriction of net_ to state_.schedule,
  // so entry (a, b) is net_.mean_gain(schedule[a], schedule[b]). Slots
  // decide on these |schedule|^2 gains instead of reading n-wide columns
  // of net_. Its storage is reused across adoptions.
  model::Network block_;
  /// Policy state captured immediately *before* the in-flight submit, so a
  /// snapshot + restore can replay the resubmitted request onto it.
  std::vector<double> inflight_policy_state_;
  // submit_recompute scratch for the overload shed partition, reused across
  // submits (zero-alloc after warm-up).
  std::vector<model::LinkId> heavy_scratch_;

  bool conservation_violated_ = false;  // latched for reporting, not state

  std::uint64_t hash_ = 14695981039346656037ULL;  // FNV-1a offset basis

  // Reusable scratch buffers (DESIGN.md "scratch-buffer convention"): each
  // reaches a fixed capacity during warm-up, after which the steady-state
  // slot loop allocates zero bytes (pinned by tests/test_hot_path_allocs).
  // The `scratch` suffix is load-bearing — raysched_check exempts these
  // names from its hot-region allocation rules (RS-M1, RS-M3).
  std::vector<FaultEvent> slot_events_;             // fault events, per slot
  std::vector<ArrivalEvent> arrivals_scratch_;      // arrival events
  model::LinkSet live_scratch_;                     // live schedule positions
  std::vector<double> sinr_scratch_;                // non-fading SINRs
  std::vector<char> success_scratch_;               // per-live decisions
  std::vector<model::LinkId> churn_scratch_;        // churn candidates
};

}  // namespace raysched::serve
