#include "serve/fault_script.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "util/error.hpp"
#include "util/record_io.hpp"

namespace raysched::serve {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::RecomputeDelay: return "delay";
    case FaultKind::PoisonOn:       return "poison-on";
    case FaultKind::PoisonOff:      return "poison-off";
    case FaultKind::ChurnBurst:     return "churn-burst";
    case FaultKind::Crash:          return "crash";
  }
  return "unknown";
}

FaultScript::FaultScript(std::vector<FaultEvent> events, std::uint64_t period)
    : events_(std::move(events)), period_(period) {
  for (const FaultEvent& event : events_) {
    switch (event.kind) {
      case FaultKind::RecomputeDelay:
        require_code(std::isfinite(event.arg) && event.arg >= 1.0,
                     ErrorCode::Precondition,
                     "FaultScript: delay needs an extra-slot count >= 1");
        break;
      case FaultKind::ChurnBurst:
        require_code(std::isfinite(event.arg) && event.arg > 0.0 &&
                         event.arg <= 1.0,
                     ErrorCode::Precondition,
                     "FaultScript: churn-burst fraction must be in (0, 1]");
        break;
      case FaultKind::PoisonOn:
      case FaultKind::PoisonOff:
      case FaultKind::Crash:
        break;
    }
    if (period_ > 0) {
      require_code(event.slot < period_, ErrorCode::Precondition,
                   "FaultScript: periodic event slots must be < period");
    }
  }
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.slot < b.slot;
                   });
  // Two events of the same kind in the same slot are a spec bug, not a
  // sequencing choice: the duplicate either double-applies (delay, churn)
  // or is dead (poison toggles, crash). Distinct kinds sharing a slot stay
  // legal and fire in spec order.
  for (std::size_t i = 1; i < events_.size(); ++i) {
    for (std::size_t j = i; j-- > 0 && events_[j].slot == events_[i].slot;) {
      require_code(events_[j].kind != events_[i].kind, ErrorCode::Precondition,
                   std::string("FaultScript: duplicate '") +
                       to_string(events_[i].kind) + "' event in slot " +
                       std::to_string(events_[i].slot));
    }
  }
}

FaultScript FaultScript::parse(const std::string& spec, std::uint64_t period) {
  std::vector<FaultEvent> events;
  if (spec.empty()) return FaultScript(std::move(events), period);
  // getline() would silently swallow a trailing comma while an empty item
  // *inside* the list errors below — reject both the same way.
  require_code(spec.back() != ',', ErrorCode::Precondition,
               "FaultScript::parse: trailing comma in '" + spec + "'");
  std::istringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    std::istringstream parts(item);
    std::string field;
    require_code(static_cast<bool>(std::getline(parts, field, ':')) &&
                     !field.empty(),
                 ErrorCode::Precondition,
                 "FaultScript::parse: expected slot:kind[:arg], got '" + item +
                     "'");
    FaultEvent event;
    const std::optional<std::uint64_t> slot = util::parse_u64(field);
    require_code(slot.has_value(), ErrorCode::Precondition,
                 "FaultScript::parse: bad slot in '" + item + "'");
    event.slot = *slot;
    require_code(static_cast<bool>(std::getline(parts, field, ':')),
                 ErrorCode::Precondition,
                 "FaultScript::parse: missing kind in '" + item + "'");
    std::string arg_text;
    const bool has_arg = static_cast<bool>(std::getline(parts, arg_text));
    const std::optional<double> arg = util::parse_finite(arg_text);
    require_code(!has_arg || arg.has_value(), ErrorCode::Precondition,
                 "FaultScript::parse: bad argument in '" + item + "'");
    if (field == "delay") {
      require_code(has_arg, ErrorCode::Precondition,
                   "FaultScript::parse: delay needs an argument");
      event.kind = FaultKind::RecomputeDelay;
      event.arg = *arg;
    } else if (field == "poison-on") {
      event.kind = FaultKind::PoisonOn;
    } else if (field == "poison-off") {
      event.kind = FaultKind::PoisonOff;
    } else if (field == "churn-burst") {
      require_code(has_arg, ErrorCode::Precondition,
                   "FaultScript::parse: churn-burst needs an argument");
      event.kind = FaultKind::ChurnBurst;
      event.arg = *arg;
    } else if (field == "crash") {
      event.kind = FaultKind::Crash;
    } else {
      throw coded_error(ErrorCode::Precondition,
                        "FaultScript::parse: unknown fault kind '" + field +
                            "'");
    }
    events.push_back(event);
  }
  return FaultScript(std::move(events), period);
}

void FaultScript::events_in_slot(std::uint64_t slot,
                                 std::vector<FaultEvent>& out) const {
  const std::uint64_t key = period_ > 0 ? slot % period_ : slot;
  for (const FaultEvent& event : events_) {
    if (event.slot != key) continue;
    // Crash only fires on its literal slot, even in periodic scripts.
    if (event.kind == FaultKind::Crash && period_ > 0 && slot != event.slot) {
      continue;
    }
    out.push_back(event);
  }
}

bool FaultScript::poison_active_before(std::uint64_t slot) const {
  // Replay the poison-on/off toggles that fired strictly before `slot`.
  // Event lists are short (hand-written scripts), so the periodic case just
  // walks whole fired cycles.
  bool active = false;
  if (period_ == 0) {
    for (const FaultEvent& event : events_) {
      if (event.slot >= slot) break;
      if (event.kind == FaultKind::PoisonOn) active = true;
      if (event.kind == FaultKind::PoisonOff) active = false;
    }
    return active;
  }
  const std::uint64_t cycles = slot / period_;
  const std::uint64_t offset = slot % period_;
  if (cycles > 0) {
    // State at the end of a full cycle: the last toggle in the period wins.
    for (const FaultEvent& event : events_) {
      if (event.kind == FaultKind::PoisonOn) active = true;
      if (event.kind == FaultKind::PoisonOff) active = false;
    }
  }
  for (const FaultEvent& event : events_) {
    if (event.slot >= offset) break;
    if (event.kind == FaultKind::PoisonOn) active = true;
    if (event.kind == FaultKind::PoisonOff) active = false;
  }
  return active;
}

}  // namespace raysched::serve
