// raysched: deterministic service-level fault scripting.
//
// Where tests/fault_injection.hpp sabotages Monte-Carlo *cells*, this
// injector sabotages the *serving loop* on a slot schedule, so robustness
// scenarios replay bit-identically: a recompute that overruns its deadline,
// a churn burst that drops 20% of the links, a poisoned-gain window, a
// simulated crash point. Every event is keyed by absolute slot; a periodic
// script (period > 0) re-fires its events at slot % period, which is what
// the CI soak job uses for open-ended runs.
//
// Event kinds:
//   delay:<extra>      the next recompute submitted at or after this slot
//                      takes <extra> additional slots (push it past the
//                      service deadline to script a timeout).
//   poison-on/off      while on, the gain-derived weight inputs the
//                      recompute reads are corrupted to NaN; the serve
//                      layer's validation boundary must catch them.
//   churn-burst:<frac> deactivates ceil(frac * active) links at once,
//                      chosen deterministically from the churn stream.
//   crash              the service stops mid-run at this slot WITHOUT a
//                      final snapshot — simulating a kill. Restore from the
//                      last periodic snapshot must replay bit-identically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace raysched::serve {

enum class FaultKind : std::uint8_t {
  RecomputeDelay = 0,
  PoisonOn = 1,
  PoisonOff = 2,
  ChurnBurst = 3,
  Crash = 4,
};

[[nodiscard]] const char* to_string(FaultKind kind);

struct FaultEvent {
  std::uint64_t slot = 0;
  FaultKind kind = FaultKind::RecomputeDelay;
  /// RecomputeDelay: extra latency slots. ChurnBurst: fraction of active
  /// links to deactivate in (0, 1]. Unused otherwise.
  double arg = 0.0;
};

/// An immutable, slot-sorted fault schedule.
class FaultScript {
 public:
  FaultScript() = default;

  /// Validates and sorts the events (stable on equal slots, so the spec
  /// order breaks ties). Takes them by value on purpose: the script sorts
  /// in place and moves them into events_. Throws
  /// raysched::coded_error{Precondition} on out-of-domain args or a
  /// duplicate (slot, kind) pair.
  explicit FaultScript(std::vector<FaultEvent> events,  // raysched-check: allow(RS-M2): sink parameter, sorted in place and moved into events_
                       std::uint64_t period = 0);

  /// Parses "slot:kind[:arg]" items separated by commas, e.g.
  ///   "120:delay:10,300:poison-on,380:poison-off,500:churn-burst:0.2,900:crash"
  /// Throws raysched::coded_error{Precondition} on malformed input.
  [[nodiscard]] static FaultScript parse(const std::string& spec,
                                         std::uint64_t period = 0);

  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::uint64_t period() const { return period_; }

  /// Appends the events that fire in `slot` (respecting the period) to
  /// `out`, in script order. Crash events never re-fire periodically: a
  /// periodic script's crash fires only in the first period.
  void events_in_slot(std::uint64_t slot, std::vector<FaultEvent>& out) const;

  /// True iff the poison window is open *entering* `slot`: the latest
  /// poison-on/off event strictly before `slot` was poison-on. Used by
  /// restore() to rebuild injector state without serializing it.
  [[nodiscard]] bool poison_active_before(std::uint64_t slot) const;

 private:
  std::vector<FaultEvent> events_;  // sorted by slot, stable
  std::uint64_t period_ = 0;        // 0 = one-shot absolute slots
};

}  // namespace raysched::serve
