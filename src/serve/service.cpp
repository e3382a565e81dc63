#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <utility>

#include "core/latency_transform.hpp"
#include "model/rayleigh.hpp"
#include "model/sinr.hpp"
#include "util/fp.hpp"
#include "util/rng.hpp"
#include "util/saturate.hpp"

namespace raysched::serve {

namespace {

// Stream tags: every per-slot stream is master.derive(tag).derive(slot), so
// the slot index is the complete RNG position.
constexpr std::uint64_t kTrafficTag = 0x7261FF1C;  // "traffic"
constexpr std::uint64_t kChurnTag = 0xC4012;       // "churn"
constexpr std::uint64_t kFadingTag = 0xFAD1;       // "fading"

}  // namespace

const char* to_string(core::Propagation propagation) {
  switch (propagation) {
    case core::Propagation::NonFading: return "nonfading";
    case core::Propagation::Rayleigh:  return "rayleigh";
  }
  return "unknown";
}

core::Propagation propagation_from_string(const std::string& name) {
  if (name == "nonfading") return core::Propagation::NonFading;
  if (name == "rayleigh") return core::Propagation::Rayleigh;
  throw error("propagation_from_string: unknown propagation '" + name + "'");
}

Service::Service(model::Network net, const ServeConfig& config)
    : net_(std::move(net)),
      config_(config),
      master_(config.master_seed),
      traffic_(config.traffic, net_.size()),
      agent_(net_, config.beta, config.agent_threads, config.policy,
             PolicyOptions{config.ahm, config.master_seed}),
      monitor_(config.health),
      // A one-link stand-in; rebuild_block() below refills it.
      block_(1, std::vector<double>{1.0}, net_.noise_power()) {
  require(config_.queue_cap >= 1, "Service: queue_cap must be >= 1");
  require(config_.recompute_period >= 1,
          "Service: recompute_period must be >= 1");
  require(config_.recompute_latency >= 1,
          "Service: recompute_latency must be >= 1");
  require(config_.recompute_deadline >= 1,
          "Service: recompute_deadline must be >= 1");
  require(config_.backoff_initial >= 1,
          "Service: backoff_initial must be >= 1");
  require(config_.backoff_max >= config_.backoff_initial,
          "Service: backoff_max must be >= backoff_initial");
  require(std::isfinite(config_.overload_schedule_frac) &&
              config_.overload_schedule_frac > 0.0 &&
              config_.overload_schedule_frac <= 1.0,
          "Service: overload_schedule_frac must be in (0, 1]");
  require(config_.snapshot_period == 0 || !config_.snapshot_path.empty(),
          "Service: snapshot_period needs a snapshot_path");
  state_.queues.assign(net_.size(), 0);
  state_.active.assign(net_.size(), 1);  // every link starts joined
  state_.schedule.reserve(net_.size());
  state_.departed_flags.assign(net_.size(), 0);
  state_.feedback_attempt.assign(net_.size(), 0);
  state_.feedback_success.assign(net_.size(), 0);
  // Each list below holds at most one entry per link, so none of them
  // grows inside the slot loop.
  arrivals_scratch_.reserve(net_.size());
  churn_scratch_.reserve(net_.size());
  live_scratch_.reserve(net_.size());
  sinr_scratch_.reserve(net_.size());
  success_scratch_.reserve(net_.size());
  request_.departed.reserve(net_.size());
  request_.feedback_schedule.reserve(net_.size());
  request_.feedback_success.reserve(net_.size());
  rebuild_block();
}

std::uint64_t Service::total_backlog() const {
  std::uint64_t sum = 0;
  for (std::uint64_t q : state_.queues) sum += q;
  return sum;
}

bool Service::conservation_holds() const {
  return conservation_holds(total_backlog());
}

bool Service::conservation_holds(std::uint64_t backlog) const {
  return state_.arrivals == state_.served + backlog + state_.drops.total();
}

void Service::bump_backoff(std::uint64_t slot) {
  // Saturating slot algebra: plain `backoff * 2` wraps to 0 after enough
  // consecutive timeout windows and a wrapped `slot + backoff` lands in the
  // past, so the retry loop would spin every slot instead of backing off.
  std::uint64_t& backoff = state_.backoff_slots;
  backoff = backoff == 0
                ? config_.backoff_initial
                : std::min(util::sat_mul(backoff, 2), config_.backoff_max);
  state_.cooldown_until = util::sat_add(slot, backoff);
}

// raysched:hot
void Service::apply_churn(std::uint64_t slot,
                          const std::vector<double>& burst_fracs) {
  const double leave = config_.churn_leave.value();
  const double join = config_.churn_join.value();
  if (burst_fracs.empty() && util::fp::exact_zero(leave) &&
      util::fp::exact_zero(join)) {
    return;
  }
  util::RngStream rng = master_.derive(kChurnTag, slot);

  for (double frac : burst_fracs) {
    std::vector<model::LinkId>& ids = churn_scratch_;
    ids.clear();
    for (model::LinkId i = 0; i < net_.size(); ++i) {
      if (state_.active[i] != 0) ids.push_back(i);
    }
    if (ids.empty()) continue;
    const std::size_t victims = std::min(
        ids.size(),
        static_cast<std::size_t>(
            std::ceil(frac * static_cast<double>(ids.size()))));
    // Partial Fisher-Yates on the active list: the first `victims` entries
    // become a uniform sample without replacement.
    for (std::size_t j = 0; j < victims; ++j) {
      const std::size_t pick =
          j + static_cast<std::size_t>(rng.uniform_index(ids.size() - j));
      std::swap(ids[j], ids[pick]);
      const model::LinkId gone = ids[j];
      state_.active[gone] = 0;
      state_.departed_flags[gone] = 1;
      state_.drops.churn += state_.queues[gone];
      state_.queues[gone] = 0;
    }
  }

  if (util::fp::exact_zero(leave) && util::fp::exact_zero(join)) return;
  // Both lists are drawn against the mask as it stands here, before
  // either is applied.
  std::vector<model::LinkId>& ids = churn_scratch_;
  const std::size_t leavers =
      churn_events(rng, leave, join, state_.active, ids);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const model::LinkId i = ids[k];
    if (k < leavers) {
      state_.active[i] = 0;
      state_.departed_flags[i] = 1;
      state_.drops.churn += state_.queues[i];
      state_.queues[i] = 0;
    } else {
      state_.active[i] = 1;  // rejoins with an empty queue
    }
  }
}

// raysched:hot
std::uint64_t Service::apply_arrivals(std::uint64_t slot) {
  util::RngStream rng = master_.derive(kTrafficTag, slot);
  traffic_.arrivals(rng, state_.active, arrivals_scratch_);

  const HealthState state = monitor_.state();
  const std::uint64_t threshold =
      state == HealthState::Overloaded
          ? std::max<std::uint64_t>(1, config_.queue_cap / 2)
          : config_.queue_cap;
  std::uint64_t offered = 0;
  for (const ArrivalEvent& event : arrivals_scratch_) {
    const std::uint64_t count = event.count;
    const std::size_t i = event.link;
    offered += count;
    if (state == HealthState::Quarantined) {
      // Quarantine refuses all new work: the network data cannot be
      // trusted, so nothing is promised that might never be served.
      state_.drops.quarantine += count;
      continue;
    }
    const std::uint64_t room =
        state_.queues[i] < threshold ? threshold - state_.queues[i] : 0;
    const std::uint64_t admitted = std::min(count, room);
    state_.queues[i] += admitted;
    state_.admitted += admitted;
    const std::uint64_t refused = count - admitted;
    if (state == HealthState::Overloaded) {
      state_.drops.shed += refused;
    } else {
      state_.drops.capacity += refused;
    }
  }
  state_.arrivals += offered;
  return offered;
}

void Service::submit_recompute(std::uint64_t slot) {
  const std::size_t n = net_.size();
  // Refilled in place: the vectors keep their capacity across submits.
  request_.slot = slot;
  std::vector<double>& weights = request_.weights;
  weights.assign(n, 0.0);
  std::size_t active_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (state_.active[i] != 0) {
      ++active_count;
      weights[i] = static_cast<double>(state_.queues[i]);
    }
  }
  if (monitor_.state() == HealthState::Overloaded && active_count > 0) {
    // Shed load by shrinking the scheduled set: only the heaviest fraction
    // of active queues keeps a nonzero weight (ties broken by link id so
    // the cut is deterministic).
    const std::size_t keep = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(config_.overload_schedule_frac *
                         static_cast<double>(active_count))));
    heavy_scratch_.clear();
    for (model::LinkId i = 0; i < n; ++i) {
      if (state_.active[i] != 0 && state_.queues[i] > 0) {
        heavy_scratch_.push_back(i);
      }
    }
    if (heavy_scratch_.size() > keep) {
      // Only membership in the top-`keep` matters, not its internal order,
      // and the comparator is a strict total order — so an O(active)
      // nth_element partition keeps exactly the set a full sort would.
      std::nth_element(heavy_scratch_.begin(), heavy_scratch_.begin() + keep,
                       heavy_scratch_.end(),
                       [this](model::LinkId a, model::LinkId b) {
                         if (state_.queues[a] != state_.queues[b]) {
                           return state_.queues[a] > state_.queues[b];
                         }
                         return a < b;
                       });
      for (std::size_t r = keep; r < heavy_scratch_.size(); ++r) {
        weights[heavy_scratch_[r]] = 0.0;
      }
    }
  }

  // Churn payload: links gone inactive since the previous submit. The
  // flags reset here to start tracking the new window — while this request
  // is in flight they double as the adoption-time pruning set.
  request_.departed.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (state_.departed_flags[i] != 0) request_.departed.push_back(i);
  }
  std::fill(state_.departed_flags.begin(), state_.departed_flags.end(), 0);
  // AHM feedback payload: (id, succeeded) for every link that attempted
  // service since the previous submit.
  request_.feedback_schedule.clear();
  request_.feedback_success.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (state_.feedback_attempt[i] != 0) {
      request_.feedback_schedule.push_back(i);
      request_.feedback_success.push_back(state_.feedback_success[i]);
    }
  }
  std::fill(state_.feedback_attempt.begin(), state_.feedback_attempt.end(), 0);
  std::fill(state_.feedback_success.begin(), state_.feedback_success.end(), 0);

  state_.inflight_poisoned = state_.poison_active;
  state_.inflight_timed_out = false;
  // Captured *before* submit: the exact policy state a kill/restore must
  // replay the resubmitted request onto. Legal here — nothing in flight.
  const std::span<const double> state = agent_.policy().persisted_state();
  inflight_policy_state_.assign(state.begin(), state.end());
  const std::uint64_t latency =
      util::sat_add(config_.recompute_latency, state_.pending_extra_latency);
  state_.pending_extra_latency = 0;
  submit_request(latency);
}

void Service::submit_request(std::uint64_t latency) {
  if (!state_.inflight_poisoned) {
    agent_.submit(request_, latency);
    return;
  }
  // The scripted poisoned-gain fault: the recompute's weight inputs are
  // corrupted wholesale; the agent's validation boundary must catch it.
  // It rejects the request before any policy reads the payload lists, so
  // the stand-in carries only the slot and the weights.
  poison_scratch_.slot = request_.slot;
  poison_scratch_.weights.assign(request_.weights.size(),
                                 std::numeric_limits<double>::quiet_NaN());
  agent_.submit(poison_scratch_, latency);
}

void Service::manage_recompute(std::uint64_t slot) {
  if (agent_.in_flight()) {
    if (slot >= agent_.due_slot()) {
      const RecomputeOutcome outcome = agent_.reap();
      if (state_.inflight_timed_out) {
        // The deadline already passed and was accounted; the overdue result
        // is discarded no matter what it says.
      } else if (outcome.ok) {
        // Stale-weights churn fix: links that departed while the recompute
        // was in flight were weighted by a queue that no longer exists.
        // Prune them from the adopted schedule instead of serving ghosts
        // (or re-serving a rejoined link its stale weight earned): copy
        // only the survivors out of the policy's result.
        state_.schedule.clear();
        for (const model::LinkId id : outcome.schedule) {
          if (state_.departed_flags[id] != 0) {
            ++state_.drops.stale_pruned;
          } else {
            state_.schedule.push_back(id);
          }
        }
        rebuild_block();
        ++state_.schedule_epoch;
        state_.schedule_stale = false;
        monitor_.on_recompute_ok(slot);
        ++state_.recompute_adoptions;
        state_.backoff_slots = 0;
        state_.cooldown_until = slot;
      } else {
        state_.schedule_stale = true;
        monitor_.on_recompute_error(slot, outcome.code);
        ++state_.recompute_failures;
        bump_backoff(slot);
      }
      state_.inflight_timed_out = false;
      state_.inflight_poisoned = false;
      inflight_policy_state_.clear();
    } else if (!state_.inflight_timed_out &&
               slot >= util::sat_add(agent_.submit_slot(),
                                     config_.recompute_deadline)) {
      // Deadline overrun: keep serving from the last good schedule, marked
      // stale, and back off before the next attempt.
      state_.inflight_timed_out = true;
      state_.schedule_stale = true;
      monitor_.on_recompute_timeout(slot);
      ++state_.recompute_timeouts;
      bump_backoff(slot);
    }
  }
  if (!agent_.in_flight() && slot >= state_.cooldown_until &&
      (state_.schedule_stale || slot % config_.recompute_period == 0)) {
    submit_recompute(slot);
  }
}

bool Service::decides_on_block() const {
  // Max-weight non-fading sets are feasibility-certified and need no
  // evaluation; every other combination decides its live subset.
  return config_.propagation != core::Propagation::NonFading ||
         agent_.policy().kind() == PolicyKind::Ahm;
}

void Service::rebuild_block() {
  if (decides_on_block()) block_.assign_restriction(net_, state_.schedule);
}

// raysched:hot
std::uint64_t Service::serve_slot(std::uint64_t slot) {
  if (monitor_.state() == HealthState::Quarantined ||
      state_.schedule.empty()) {
    return 0;
  }
  std::uint64_t served = 0;
  if (!decides_on_block()) {
    // Max-weight scheduled sets are feasibility-certified: every live
    // service succeeds. Links that left after adoption are skipped.
    for (model::LinkId i : state_.schedule) {
      if (state_.active[i] != 0 && state_.queues[i] > 0) {
        state_.feedback_attempt[i] = 1;
        state_.feedback_success[i] = 1;
        --state_.queues[i];
        ++served;
      }
    }
  } else {
    // Decide the live subset on the schedule's gain block: `live` holds
    // positions in the schedule, and block_ entry (a, b) is the mean gain
    // from schedule[a] to schedule[b], so the kernels read the same gains in
    // the same order as on the full network. AHM non-fading serves the
    // links whose deterministic SINR clears beta — the success/failure
    // signal its probabilities feed on; Rayleigh draws one realization.
    model::LinkSet& live = live_scratch_;
    live.clear();
    for (std::size_t a = 0; a < state_.schedule.size(); ++a) {
      const model::LinkId i = state_.schedule[a];
      if (state_.active[i] != 0 && state_.queues[i] > 0) live.push_back(a);
    }
    if (!live.empty()) {
      std::vector<char>& ok = success_scratch_;
      if (config_.propagation == core::Propagation::NonFading) {
        model::sinr_nonfading_all(block_, live, sinr_scratch_);
        ok.resize(live.size());
        for (std::size_t a = 0; a < live.size(); ++a) {
          ok[a] = sinr_scratch_[a] >= config_.beta.value() ? 1 : 0;
        }
      } else {
        util::RngStream rng = master_.derive(kFadingTag, slot);
        model::rayleigh_successes(block_, live, config_.beta, rng, ok);
      }
      for (std::size_t a = 0; a < live.size(); ++a) {
        const model::LinkId i = state_.schedule[live[a]];
        state_.feedback_attempt[i] = 1;
        if (ok[a] != 0) {
          state_.feedback_success[i] = 1;
          --state_.queues[i];
          ++served;
        }
      }
    }
  }
  state_.served += served;
  return served;
}

void Service::digest_slot(const SlotDigest& digest) {
  const auto mix = [this](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (v >> (8 * byte)) & 0xFF;
      hash_ *= 1099511628211ULL;  // FNV-1a prime
    }
  };
  mix(digest.slot);
  mix(digest.arrivals);
  mix(digest.served);
  mix(digest.dropped);
  mix(digest.backlog);
  mix(digest.schedule_epoch);
  mix(static_cast<std::uint64_t>(digest.health));
}

ServeReport Service::run(std::uint64_t slots) {
  ServeReport report;
  // One up-front reservation per run() segment; the per-slot push_back
  // below then never reallocates, keeping the slot loop allocation-free.
  report.digests.reserve(slots);
  std::vector<double> burst_scratch;
  // The O(n) recount, once per slot; it feeds the health monitor, the
  // conservation check and, after the last slot, the report.
  std::uint64_t backlog = 0;

  // raysched:hot(slot-loop)
  for (std::uint64_t step = 0; step < slots; ++step) {
    const std::uint64_t slot = state_.next_slot;
    const std::uint64_t drops_at_start = state_.drops.total();

    slot_events_.clear();
    burst_scratch.clear();
    config_.faults.events_in_slot(slot, slot_events_);
    bool crash = false;
    for (const FaultEvent& event : slot_events_) {
      switch (event.kind) {
        case FaultKind::RecomputeDelay:
          // Saturating: a scripted pile-up of delay faults must push the
          // next submit's latency toward "never", not wrap it into "now".
          state_.pending_extra_latency =
              util::sat_add(state_.pending_extra_latency,
                            static_cast<std::uint64_t>(event.arg));
          break;
        case FaultKind::PoisonOn:
          state_.poison_active = true;
          break;
        case FaultKind::PoisonOff:
          state_.poison_active = false;
          break;
        case FaultKind::ChurnBurst:
          burst_scratch.push_back(event.arg);
          break;
        case FaultKind::Crash:
          crash = true;
          break;
      }
    }
    if (crash) {
      // A scripted kill: stop before executing the slot and WITHOUT a
      // snapshot — restore must come from the last periodic one.
      report.crashed = true;
      report.crash_slot = slot;
      break;
    }

    apply_churn(slot, burst_scratch);
    const std::uint64_t offered = apply_arrivals(slot);
    manage_recompute(slot);
    const std::uint64_t served = serve_slot(slot);

    backlog = total_backlog();
    monitor_.end_slot(slot, backlog, state_.schedule_stale);
    if (!conservation_holds(backlog)) conservation_violated_ = true;

    SlotDigest digest;
    digest.slot = slot;
    digest.arrivals = offered;
    digest.served = served;
    digest.dropped = state_.drops.total() - drops_at_start;
    digest.backlog = backlog;
    digest.schedule_epoch = state_.schedule_epoch;
    digest.health = monitor_.state();
    digest_slot(digest);
    report.digests.push_back(digest);
    ++report.slots_run;
    state_.next_slot = slot + 1;

    if (config_.snapshot_period > 0 &&
        state_.next_slot % config_.snapshot_period == 0) {
      save_snapshot_atomic(config_.snapshot_path, snapshot());
    }
  }

  static_cast<ServeCounters&>(report) = state_;
  // No slot ran (run(0), or a crash at the first): count the queues now.
  if (report.slots_run == 0) backlog = total_backlog();
  report.backlog = backlog;
  report.health = monitor_.state();
  report.trajectory_hash = hash_;
  report.conservation_ok =
      !conservation_violated_ && conservation_holds(backlog);
  return report;
}

ServeSnapshot Service::snapshot() const {
  ServeSnapshot snap;
  snap.master_seed = config_.master_seed;
  snap.num_links = net_.size();
  snap.beta = config_.beta.value();
  snap.propagation = to_string(config_.propagation);
  snap.traffic_model = to_string(config_.traffic.model);
  snap.policy = to_string(agent_.policy().kind());
  static_cast<ServeState&>(snap) = state_;
  snap.health = monitor_.persisted();
  snap.burst_state = traffic_.burst_state();
  if (agent_.in_flight()) {
    // request_ is safe to read mid-flight: the worker task only reads it
    // too. Its weights are the clean ones even inside the poison window.
    snap.recompute = {true,
                      request_.slot,
                      agent_.latency_slots(),
                      request_.weights,
                      request_.departed,
                      request_.feedback_schedule,
                      request_.feedback_success};
    // Pre-submit capture: restore replays the resubmission onto it.
    snap.policy_state = inflight_policy_state_;
  } else {
    const std::span<const double> state = agent_.policy().persisted_state();
    snap.policy_state.assign(state.begin(), state.end());
  }
  return snap;
}

void Service::restore(const ServeSnapshot& snap) {
  require(state_.next_slot == 0 && state_.arrivals == 0 &&
              !agent_.in_flight(),
          "Service::restore: only a freshly constructed service can restore");
  require_code(snap.master_seed == config_.master_seed,
               ErrorCode::SnapshotFormat,
               "Service::restore: master seed mismatch");
  require_code(snap.num_links == net_.size(), ErrorCode::SnapshotFormat,
               "Service::restore: link count mismatch");
  require_code(snap.beta == config_.beta.value(), ErrorCode::SnapshotFormat,
               "Service::restore: beta mismatch");
  require_code(snap.propagation == to_string(config_.propagation),
               ErrorCode::SnapshotFormat,
               "Service::restore: propagation mismatch");
  require_code(snap.traffic_model == to_string(config_.traffic.model),
               ErrorCode::SnapshotFormat,
               "Service::restore: traffic model mismatch");
  // Compare parsed kinds, not names: a v2 snapshot may carry a legacy
  // alias ("max-weight-incremental") of the running policy's kind.
  PolicyKind snap_policy{};
  try {
    snap_policy = policy_kind_from_string(snap.policy);
  } catch (const error& e) {
    throw coded_error(ErrorCode::SnapshotFormat, e.what());
  }
  require_code(snap_policy == agent_.policy().kind(),
               ErrorCode::SnapshotFormat,
               "Service::restore: schedule policy mismatch");
  require_code(snap.queues.size() == net_.size() &&
                   snap.active.size() == net_.size() &&
                   snap.departed_flags.size() == net_.size() &&
                   snap.feedback_attempt.size() == net_.size() &&
                   snap.feedback_success.size() == net_.size(),
               ErrorCode::SnapshotFormat,
               "Service::restore: per-link vector size mismatch");
  require_code(snap.burst_state.size() == traffic_.burst_state().size(),
               ErrorCode::SnapshotFormat,
               "Service::restore: burst state size mismatch");
  require_code(std::all_of(snap.schedule.begin(), snap.schedule.end(),
                           [this](model::LinkId id) {
                             return id < net_.size();
                           }),
               ErrorCode::SnapshotFormat,
               "Service::restore: schedule id out of range");
  // A corrupt counter or queue digit fails here instead of surfacing as a
  // conservation violation blamed on the service. Saturating sums keep
  // hostile counters from wrapping into a match.
  std::uint64_t accounted = snap.served;
  for (std::uint64_t v : snap.queues) accounted = util::sat_add(accounted, v);
  for (std::uint64_t v : {snap.drops.capacity, snap.drops.shed,
                          snap.drops.churn, snap.drops.quarantine}) {
    accounted = util::sat_add(accounted, v);
  }
  require_code(accounted < std::numeric_limits<std::uint64_t>::max() &&
                   snap.arrivals == accounted,
               ErrorCode::SnapshotFormat,
               "Service::restore: counters violate arrivals == served + "
               "backlog + drops");
  // Rehydrate the policy first: it validates the state before taking it,
  // so a refusal still leaves the whole service untouched. The persisted
  // state is the pre-submit capture, so replaying the request below
  // reproduces the exact post-submit policy state of the killed service.
  try {
    agent_.policy().restore_state(snap.policy_state, snap.schedule);
  } catch (const error& e) {
    throw coded_error(ErrorCode::SnapshotFormat, e.what());
  }

  state_ = snap;
  rebuild_block();
  monitor_.restore(snap.health);
  traffic_.set_burst_state(snap.burst_state);

  const RecomputeSnapshot& rc = snap.recompute;
  if (rc.in_flight) {
    // Resubmit the interrupted recompute with its original submit slot and
    // latency, so the adoption slot — and thus the trajectory — is
    // preserved. A poisoned request is re-corrupted before submission.
    inflight_policy_state_ = snap.policy_state;
    request_.slot = rc.submit_slot;
    request_.weights = rc.weights;
    request_.departed = rc.departed;
    request_.feedback_schedule = rc.feedback_schedule;
    request_.feedback_success = rc.feedback_success;
    submit_request(rc.latency_slots);
  }
}

}  // namespace raysched::serve
