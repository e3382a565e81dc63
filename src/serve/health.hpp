// raysched: watchdog + health state machine for the serving loop.
//
// The service is never "up or down" — it degrades through a ladder of
// states, each with a defined serving policy (see docs/ROBUSTNESS.md):
//
//   Healthy     fresh schedule, load within bounds — full service.
//   Degraded    the schedule is stale (a recompute timed out or failed) or
//               a fault is recent; the loop keeps serving from the last
//               good schedule while retrying with exponential backoff.
//   Overloaded  total backlog crossed the admission threshold; arrivals to
//               deep queues are shed (counted, never silent) and the
//               scheduled set is shrunk to the heaviest queues.
//   Quarantined recompute input validation keeps failing (poisoned gains):
//               the network data cannot be trusted, so serving stops, new
//               arrivals are dropped (counted), and only probe recomputes
//               run until one validates clean.
//
// The monitor is a deterministic function of the event sequence it is fed:
// same events, same states, same transition log — which keeps the service's
// replay bit-identical. Severity order: Quarantined > Overloaded >
// Degraded > Healthy; quarantine latches until a recompute validates clean,
// overload latches until backlog falls below the exit threshold
// (hysteresis), and Degraded heals after recover_after_slots clean slots.
//
// Concurrency contract: loop-thread confined (owned and driven only by the
// Service's serving loop) — no locks, nothing shared with worker threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace raysched::serve {

enum class HealthState : std::uint8_t {
  Healthy = 0,
  Degraded = 1,
  Overloaded = 2,
  Quarantined = 3,
};

/// Stable lowercase name (reports, snapshots, CLI output).
[[nodiscard]] const char* to_string(HealthState state);

/// Parses the names produced by to_string. Throws raysched::error on an
/// unknown name.
[[nodiscard]] HealthState health_state_from_string(const std::string& name);

/// One recorded state change, with the slot it happened in and why.
struct HealthTransition {
  std::uint64_t slot = 0;
  HealthState from = HealthState::Healthy;
  HealthState to = HealthState::Healthy;
  std::string reason;
};

struct HealthConfig {
  /// Overload hysteresis on total backlog (packets across all queues).
  std::uint64_t overload_enter_backlog = 4096;
  std::uint64_t overload_exit_backlog = 1024;
  /// Consecutive poisoned-input recompute failures before quarantine.
  std::size_t quarantine_after = 3;
  /// Clean slots (no fault, fresh schedule) required to return to Healthy.
  std::uint64_t recover_after_slots = 32;
};

/// Deterministic health ladder. Feed it recompute outcomes as they happen
/// and end_slot() once per slot with the slot's closing totals; read state()
/// for the serving policy of the *next* slot.
class HealthMonitor {
 public:
  /// Throws raysched::error unless exit < enter and quarantine_after >= 1.
  explicit HealthMonitor(const HealthConfig& config);

  [[nodiscard]] HealthState state() const { return state_; }
  [[nodiscard]] const HealthConfig& config() const { return config_; }

  /// A recompute adopted a fresh, validated schedule: clears the poison
  /// streak, lifts quarantine, and starts the recovery countdown.
  void on_recompute_ok(std::uint64_t slot);

  /// A recompute overran its slot deadline (schedule now stale).
  void on_recompute_timeout(std::uint64_t slot);

  /// A recompute failed with a structured code. PoisonedInput feeds the
  /// quarantine streak; every code marks the slot faulty.
  void on_recompute_error(std::uint64_t slot, ErrorCode code);

  /// Closes a slot: applies overload hysteresis to the backlog, advances
  /// the recovery countdown, and records a transition if the effective
  /// state changed.
  void end_slot(std::uint64_t slot, std::uint64_t total_backlog,
                bool schedule_stale);

  /// Every state change since construction or the last restore().
  [[nodiscard]] const std::vector<HealthTransition>& transitions() const {
    return transitions_;
  }

  /// Behavior-bearing internals for snapshot/restore (the transition log is
  /// report-only and intentionally not part of it).
  struct Persisted {
    HealthState state = HealthState::Healthy;
    std::size_t poison_streak = 0;
    std::uint64_t clean_slots = 0;
    bool quarantine_latch = false;
    bool overload_latch = false;
  };
  [[nodiscard]] Persisted persisted() const;
  void restore(const Persisted& state);

 private:
  void note_fault();
  void apply(std::uint64_t slot, HealthState next, const char* reason);

  HealthConfig config_;
  HealthState state_ = HealthState::Healthy;
  std::size_t poison_streak_ = 0;
  std::uint64_t clean_slots_ = 0;
  bool quarantine_latch_ = false;
  bool overload_latch_ = false;
  std::vector<HealthTransition> transitions_;
};

}  // namespace raysched::serve
