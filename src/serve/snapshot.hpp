// raysched: crash-safe snapshot/restore for the serving loop.
//
// The service periodically writes its full behavior-bearing state to disk
// with the atomic-rename idiom (write path.tmp, rename it over path; see
// util::write_file_atomic), so a process kill at any point leaves either
// the previous snapshot or the new one — never a torn file. Nothing is
// fsynced: a power loss can still lose or tear the file. Restoring from a snapshot and continuing produces a
// bit-identical trajectory to the uninterrupted run, which tests/soak
// enforce. Two design choices make that exactness cheap:
//
//   * RNG position == slot index. Every stream the service consumes is
//     derived per slot from the master seed (master.derive(tag)
//     .derive(slot)), so "RNG stream positions" persist as a single
//     integer: the next slot to run.
//
//   * Doubles round-trip as max_digits10 text (exact for finite values).
//     The one non-finite hazard — NaN-poisoned recompute weights in flight
//     at snapshot time — is stored as the *clean* pre-poison weights plus a
//     poisoned flag; restore re-applies the corruption before resubmitting.
//
// The header also carries a fingerprint (seed, n, beta, traffic model);
// restore refuses a snapshot whose fingerprint does not match the service
// configuration instead of silently diverging.
//
// Concurrency contract: snapshots are taken and restored only from the
// serving-loop thread, at slot boundaries where no recompute result handoff
// is in progress — the structs below are loop-confined and lock-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "serve/health.hpp"

namespace raysched::serve {

/// Mid-flight recompute request, captured so restore can resubmit it.
struct RecomputeSnapshot {
  bool in_flight = false;
  std::uint64_t submit_slot = 0;
  std::uint64_t latency_slots = 0;
  /// The loop already declared this request timed out at its deadline; the
  /// eventual result must be discarded, not adopted.
  bool timed_out = false;
  /// Weights were NaN-corrupted at submit (poison fault window).
  bool poisoned = false;
  /// Clean (pre-poison) weight inputs; always finite, so they serialize.
  std::vector<double> weights;
  /// The request's churn payload: links that had departed since the submit
  /// before this one (ScheduleRequest::departed), resubmitted verbatim.
  std::vector<std::size_t> departed;
  /// The request's AHM feedback payload (ScheduleRequest::feedback_*):
  /// parallel id/flag vectors, resubmitted verbatim.
  std::vector<std::size_t> feedback_schedule;
  std::vector<char> feedback_success;
};

/// Complete behavior-bearing service state between two slots.
struct ServeSnapshot {
  // Fingerprint: restore refuses mismatches.
  std::uint64_t master_seed = 0;
  std::size_t num_links = 0;
  double beta = 0.0;
  std::string propagation;
  std::string traffic_model;
  /// Schedule policy name (serve/schedule_policy.hpp); part of the
  /// fingerprint because policy state is not portable across policies.
  std::string policy;

  /// The next slot the restored service will execute.
  std::uint64_t next_slot = 0;

  HealthMonitor::Persisted health;

  // Exact integer counters; the conservation invariant
  //   arrivals == served + backlog + drops
  // is checked across snapshot boundaries.
  std::uint64_t arrivals_total = 0;
  std::uint64_t admitted_total = 0;
  std::uint64_t served_total = 0;
  std::uint64_t dropped_capacity = 0;
  std::uint64_t dropped_shed = 0;
  std::uint64_t dropped_churn = 0;
  std::uint64_t dropped_quarantine = 0;
  /// Schedule entries pruned at adoption because their link departed while
  /// the recompute was in flight. Counts links, not packets — excluded from
  /// the packet-conservation total (see DropStats::stale_pruned).
  std::uint64_t stale_pruned = 0;
  std::uint64_t recompute_timeouts = 0;
  std::uint64_t recompute_failures = 0;
  std::uint64_t recompute_adoptions = 0;

  /// Monotone count of adopted schedules, and whether the active one is
  /// stale (serving past a timeout/failure).
  std::uint64_t schedule_epoch = 0;
  bool schedule_stale = false;
  std::vector<std::size_t> schedule;  ///< active schedule's link ids

  std::vector<std::uint64_t> queues;  ///< per-link backlog, size n
  std::vector<char> active;           ///< per-link membership, size n
  std::vector<char> burst_state;      ///< traffic modulator (may be empty)

  /// Links that went inactive since the last submit (size n flags): the
  /// source of the next request's departed list, and — while a recompute is
  /// in flight — the adoption-time stale-schedule pruning set.
  std::vector<char> departed_flags;
  /// AHM feedback accumulators since the last submit (size n flags):
  /// attempted = scheduled with demand; succeeded = served >= 1 packet.
  std::vector<char> feedback_attempt;
  std::vector<char> feedback_success;
  /// History-dependent policy state (SchedulePolicy::persisted_state): the
  /// AHM probability vector; empty for max-weight. When a
  /// recompute is in flight this is the *pre-submit* state, so restore can
  /// replay the resubmitted request onto it.
  std::vector<double> policy_state;

  RecomputeSnapshot recompute;

  /// Exponential-backoff state: current delay and the first slot at which
  /// the loop may submit again.
  std::uint64_t backoff_slots = 0;
  std::uint64_t cooldown_until = 0;

  /// Armed fault-injector state that crosses slots: a pending delay:<extra>
  /// that applies to the next submit, and whether the poison window is open.
  std::uint64_t pending_extra_latency = 0;
  bool poison_active = false;
};

/// Writes the text format. Throws coded_error{SnapshotIo} on stream failure
/// and coded_error{SnapshotFormat} on unserializable state (e.g. non-finite
/// weights).
void write_snapshot(std::ostream& os, const ServeSnapshot& snap);

/// Parses write_snapshot's format with util::TokenReader. Throws
/// coded_error{SnapshotFormat} on any malformed, truncated, or inconsistent
/// input, including a signed value in an unsigned field.
[[nodiscard]] ServeSnapshot read_snapshot(std::istream& is);

/// Atomic-rename save: after a process kill the file at `path` is either
/// the old snapshot or the complete new one, never torn. Throws
/// coded_error{SnapshotIo} on failure.
void save_snapshot_atomic(const std::string& path, const ServeSnapshot& snap);

/// Loads and parses `path`. Throws coded_error{SnapshotIo} if unreadable,
/// coded_error{SnapshotFormat} if malformed.
[[nodiscard]] ServeSnapshot load_snapshot(const std::string& path);

}  // namespace raysched::serve
