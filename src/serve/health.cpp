#include "serve/health.hpp"

namespace raysched::serve {

const char* to_string(HealthState state) {
  switch (state) {
    case HealthState::Healthy:     return "healthy";
    case HealthState::Degraded:    return "degraded";
    case HealthState::Overloaded:  return "overloaded";
    case HealthState::Quarantined: return "quarantined";
  }
  return "unknown";
}

HealthState health_state_from_string(const std::string& name) {
  if (name == "healthy") return HealthState::Healthy;
  if (name == "degraded") return HealthState::Degraded;
  if (name == "overloaded") return HealthState::Overloaded;
  if (name == "quarantined") return HealthState::Quarantined;
  throw error("health_state_from_string: unknown state '" + name + "'");
}

HealthMonitor::HealthMonitor(const HealthConfig& config) : config_(config) {
  require(config.overload_exit_backlog < config.overload_enter_backlog,
          "HealthMonitor: overload exit threshold must be below enter "
          "threshold (hysteresis)");
  require(config.quarantine_after >= 1,
          "HealthMonitor: quarantine_after must be >= 1");
  // A fresh service starts Healthy: the recovery countdown begins satisfied.
  persisted_.clean_slots = config_.recover_after_slots;
}

void HealthMonitor::note_fault() { persisted_.clean_slots = 0; }

void HealthMonitor::on_recompute_ok(std::uint64_t /*slot*/) {
  // A clean adoption clears the poison streak and lifts quarantine; the
  // Degraded->Healthy countdown keeps whatever progress it has.
  persisted_.poison_streak = 0;
  persisted_.quarantine_latch = false;
}

void HealthMonitor::on_recompute_timeout(std::uint64_t /*slot*/) {
  note_fault();
}

void HealthMonitor::on_recompute_error(std::uint64_t /*slot*/,
                                       ErrorCode code) {
  note_fault();
  Persisted& s = persisted_;
  if (code == ErrorCode::PoisonedInput) {
    ++s.poison_streak;
    if (s.poison_streak >= config_.quarantine_after) s.quarantine_latch = true;
  } else {
    s.poison_streak = 0;
  }
}

void HealthMonitor::apply(std::uint64_t slot, HealthState next,
                          const char* reason) {
  if (next == persisted_.state) return;
  transitions_.push_back(
      HealthTransition{slot, persisted_.state, next, reason});
  persisted_.state = next;
}

void HealthMonitor::end_slot(std::uint64_t slot, std::uint64_t total_backlog,
                             bool schedule_stale) {
  Persisted& s = persisted_;
  if (s.overload_latch) {
    if (total_backlog <= config_.overload_exit_backlog) {
      s.overload_latch = false;
    }
  } else if (total_backlog >= config_.overload_enter_backlog) {
    s.overload_latch = true;
  }

  if (!schedule_stale) ++s.clean_slots;

  if (s.quarantine_latch) {
    apply(slot, HealthState::Quarantined, "poisoned-input streak");
  } else if (s.overload_latch) {
    apply(slot, HealthState::Overloaded, "backlog over threshold");
  } else if (schedule_stale || s.clean_slots < config_.recover_after_slots) {
    apply(slot, HealthState::Degraded,
          schedule_stale ? "schedule stale" : "recovering");
  } else {
    apply(slot, HealthState::Healthy, "recovered");
  }
}

void HealthMonitor::restore(const Persisted& state) {
  persisted_ = state;
  transitions_.clear();
}

}  // namespace raysched::serve
