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
  queue_.assign(net_.size(), 0);
  active_.assign(net_.size(), 1);  // every link starts joined
  schedule_.reserve(net_.size());
  departed_flags_.assign(net_.size(), 0);
  feedback_attempt_.assign(net_.size(), 0);
  feedback_success_.assign(net_.size(), 0);
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
  for (std::uint64_t q : queue_) sum += q;
  return sum;
}

bool Service::conservation_holds() const {
  return conservation_holds(total_backlog());
}

bool Service::conservation_holds(std::uint64_t backlog) const {
  return arrivals_total_ == served_total_ + backlog + drops_.total();
}

void Service::bump_backoff(std::uint64_t slot) {
  // Saturating slot algebra: plain `backoff * 2` wraps to 0 after enough
  // consecutive timeout windows and a wrapped `slot + backoff` lands in the
  // past, so the retry loop would spin every slot instead of backing off.
  backoff_slots_ =
      backoff_slots_ == 0
          ? config_.backoff_initial
          : std::min(util::sat_mul(backoff_slots_, 2), config_.backoff_max);
  cooldown_until_ = util::sat_add(slot, backoff_slots_);
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
      if (active_[i] != 0) ids.push_back(i);
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
      active_[gone] = 0;
      departed_flags_[gone] = 1;
      drops_.churn += queue_[gone];
      queue_[gone] = 0;
    }
  }

  if (util::fp::exact_zero(leave) && util::fp::exact_zero(join)) return;
  // Both lists are drawn against the mask as it stands here, before
  // either is applied.
  std::vector<model::LinkId>& ids = churn_scratch_;
  const std::size_t leavers = churn_events(rng, leave, join, active_, ids);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const model::LinkId i = ids[k];
    if (k < leavers) {
      active_[i] = 0;
      departed_flags_[i] = 1;
      drops_.churn += queue_[i];
      queue_[i] = 0;
    } else {
      active_[i] = 1;  // rejoins with an empty queue
    }
  }
}

// raysched:hot
std::uint64_t Service::apply_arrivals(std::uint64_t slot) {
  util::RngStream rng = master_.derive(kTrafficTag, slot);
  traffic_.arrivals(rng, active_, arrivals_scratch_);

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
      drops_.quarantine += count;
      continue;
    }
    const std::uint64_t room =
        queue_[i] < threshold ? threshold - queue_[i] : 0;
    const std::uint64_t admitted = std::min(count, room);
    queue_[i] += admitted;
    admitted_total_ += admitted;
    const std::uint64_t refused = count - admitted;
    if (state == HealthState::Overloaded) {
      drops_.shed += refused;
    } else {
      drops_.capacity += refused;
    }
  }
  arrivals_total_ += offered;
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
    if (active_[i] != 0) {
      ++active_count;
      weights[i] = static_cast<double>(queue_[i]);
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
      if (active_[i] != 0 && queue_[i] > 0) heavy_scratch_.push_back(i);
    }
    if (heavy_scratch_.size() > keep) {
      // Only membership in the top-`keep` matters, not its internal order,
      // and the comparator is a strict total order — so an O(active)
      // nth_element partition keeps exactly the set a full sort would.
      std::nth_element(heavy_scratch_.begin(), heavy_scratch_.begin() + keep,
                       heavy_scratch_.end(),
                       [this](model::LinkId a, model::LinkId b) {
                         if (queue_[a] != queue_[b]) {
                           return queue_[a] > queue_[b];
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
    if (departed_flags_[i] != 0) request_.departed.push_back(i);
  }
  std::fill(departed_flags_.begin(), departed_flags_.end(), 0);
  // AHM feedback payload: (id, succeeded) for every link that attempted
  // service since the previous submit.
  request_.feedback_schedule.clear();
  request_.feedback_success.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (feedback_attempt_[i] != 0) {
      request_.feedback_schedule.push_back(i);
      request_.feedback_success.push_back(feedback_success_[i]);
    }
  }
  std::fill(feedback_attempt_.begin(), feedback_attempt_.end(), 0);
  std::fill(feedback_success_.begin(), feedback_success_.end(), 0);

  inflight_poisoned_ = poison_active_;
  inflight_timed_out_ = false;
  // Captured *before* submit: the exact policy state a kill/restore must
  // replay the resubmitted request onto. Legal here — nothing in flight.
  const std::span<const double> state = agent_.policy().persisted_state();
  inflight_policy_state_.assign(state.begin(), state.end());
  const std::uint64_t latency =
      util::sat_add(config_.recompute_latency, pending_extra_latency_);
  pending_extra_latency_ = 0;
  submit_request(latency);
}

void Service::submit_request(std::uint64_t latency) {
  if (!inflight_poisoned_) {
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
      if (inflight_timed_out_) {
        // The deadline already passed and was accounted; the overdue result
        // is discarded no matter what it says.
      } else if (outcome.ok) {
        // Stale-weights churn fix: links that departed while the recompute
        // was in flight were weighted by a queue that no longer exists.
        // Prune them from the adopted schedule instead of serving ghosts
        // (or re-serving a rejoined link its stale weight earned): copy
        // only the survivors out of the policy's result.
        schedule_.clear();
        for (const model::LinkId id : outcome.schedule) {
          if (departed_flags_[id] != 0) {
            ++drops_.stale_pruned;
          } else {
            schedule_.push_back(id);
          }
        }
        rebuild_block();
        ++schedule_epoch_;
        schedule_stale_ = false;
        monitor_.on_recompute_ok(slot);
        ++recompute_adoptions_;
        backoff_slots_ = 0;
        cooldown_until_ = slot;
      } else {
        schedule_stale_ = true;
        monitor_.on_recompute_error(slot, outcome.code);
        ++recompute_failures_;
        bump_backoff(slot);
      }
      inflight_timed_out_ = false;
      inflight_poisoned_ = false;
      inflight_policy_state_.clear();
    } else if (!inflight_timed_out_ &&
               slot >= util::sat_add(agent_.submit_slot(),
                                     config_.recompute_deadline)) {
      // Deadline overrun: keep serving from the last good schedule, marked
      // stale, and back off before the next attempt.
      inflight_timed_out_ = true;
      schedule_stale_ = true;
      monitor_.on_recompute_timeout(slot);
      ++recompute_timeouts_;
      bump_backoff(slot);
    }
  }
  if (!agent_.in_flight() && slot >= cooldown_until_ &&
      (schedule_stale_ || slot % config_.recompute_period == 0)) {
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
  if (decides_on_block()) block_.assign_restriction(net_, schedule_);
}

// raysched:hot
std::uint64_t Service::serve_slot(std::uint64_t slot) {
  if (monitor_.state() == HealthState::Quarantined || schedule_.empty()) {
    return 0;
  }
  std::uint64_t served = 0;
  if (!decides_on_block()) {
    // Max-weight scheduled sets are feasibility-certified: every live
    // service succeeds. Links that left after adoption are skipped.
    for (model::LinkId i : schedule_) {
      if (active_[i] != 0 && queue_[i] > 0) {
        feedback_attempt_[i] = 1;
        feedback_success_[i] = 1;
        --queue_[i];
        ++served;
      }
    }
  } else {
    // Decide the live subset on the schedule's gain block: `live` holds
    // positions in schedule_, and block_ entry (a, b) is the mean gain from
    // schedule_[a] to schedule_[b], so the kernels read the same gains in
    // the same order as on the full network. AHM non-fading serves the
    // links whose deterministic SINR clears beta — the success/failure
    // signal its probabilities feed on; Rayleigh draws one realization.
    model::LinkSet& live = live_scratch_;
    live.clear();
    for (std::size_t a = 0; a < schedule_.size(); ++a) {
      const model::LinkId i = schedule_[a];
      if (active_[i] != 0 && queue_[i] > 0) live.push_back(a);
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
        const model::LinkId i = schedule_[live[a]];
        feedback_attempt_[i] = 1;
        if (ok[a] != 0) {
          feedback_success_[i] = 1;
          --queue_[i];
          ++served;
        }
      }
    }
  }
  served_total_ += served;
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
    const std::uint64_t slot = next_slot_;
    const std::uint64_t drops_at_start = drops_.total();

    slot_events_.clear();
    burst_scratch.clear();
    config_.faults.events_in_slot(slot, slot_events_);
    bool crash = false;
    for (const FaultEvent& event : slot_events_) {
      switch (event.kind) {
        case FaultKind::RecomputeDelay:
          // Saturating: a scripted pile-up of delay faults must push the
          // next submit's latency toward "never", not wrap it into "now".
          pending_extra_latency_ = util::sat_add(
              pending_extra_latency_, static_cast<std::uint64_t>(event.arg));
          break;
        case FaultKind::PoisonOn:
          poison_active_ = true;
          break;
        case FaultKind::PoisonOff:
          poison_active_ = false;
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
    monitor_.end_slot(slot, backlog, schedule_stale_);
    if (!conservation_holds(backlog)) conservation_violated_ = true;

    SlotDigest digest;
    digest.slot = slot;
    digest.arrivals = offered;
    digest.served = served;
    digest.dropped = drops_.total() - drops_at_start;
    digest.backlog = backlog;
    digest.schedule_epoch = schedule_epoch_;
    digest.health = monitor_.state();
    digest_slot(digest);
    report.digests.push_back(digest);
    ++report.slots_run;
    next_slot_ = slot + 1;

    if (config_.snapshot_period > 0 &&
        next_slot_ % config_.snapshot_period == 0) {
      save_snapshot_atomic(config_.snapshot_path, snapshot());
    }
  }

  report.next_slot = next_slot_;
  report.arrivals = arrivals_total_;
  report.admitted = admitted_total_;
  report.served = served_total_;
  // No slot ran (run(0), or a crash at the first): count the queues now.
  if (report.slots_run == 0) backlog = total_backlog();
  report.backlog = backlog;
  report.drops = drops_;
  report.recompute_timeouts = recompute_timeouts_;
  report.recompute_failures = recompute_failures_;
  report.recompute_adoptions = recompute_adoptions_;
  report.schedule_epoch = schedule_epoch_;
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
  snap.next_slot = next_slot_;
  snap.health = monitor_.persisted();
  snap.arrivals_total = arrivals_total_;
  snap.admitted_total = admitted_total_;
  snap.served_total = served_total_;
  snap.dropped_capacity = drops_.capacity;
  snap.dropped_shed = drops_.shed;
  snap.dropped_churn = drops_.churn;
  snap.dropped_quarantine = drops_.quarantine;
  snap.stale_pruned = drops_.stale_pruned;
  snap.recompute_timeouts = recompute_timeouts_;
  snap.recompute_failures = recompute_failures_;
  snap.recompute_adoptions = recompute_adoptions_;
  snap.schedule_epoch = schedule_epoch_;
  snap.schedule_stale = schedule_stale_;
  snap.schedule = schedule_;
  snap.queues = queue_;
  snap.active = active_;
  snap.burst_state = traffic_.burst_state();
  snap.departed_flags = departed_flags_;
  snap.feedback_attempt = feedback_attempt_;
  snap.feedback_success = feedback_success_;
  if (agent_.in_flight()) {
    // request_ is safe to read mid-flight: the worker task only reads it
    // too. Its weights are the clean ones even inside the poison window.
    snap.recompute.in_flight = true;
    snap.recompute.submit_slot = request_.slot;
    snap.recompute.latency_slots = agent_.latency_slots();
    snap.recompute.timed_out = inflight_timed_out_;
    snap.recompute.poisoned = inflight_poisoned_;
    snap.recompute.weights = request_.weights;
    snap.recompute.departed = request_.departed;
    snap.recompute.feedback_schedule = request_.feedback_schedule;
    snap.recompute.feedback_success = request_.feedback_success;
    // Pre-submit capture: restore replays the resubmission onto it.
    snap.policy_state = inflight_policy_state_;
  } else {
    const std::span<const double> state = agent_.policy().persisted_state();
    snap.policy_state.assign(state.begin(), state.end());
  }
  snap.backoff_slots = backoff_slots_;
  snap.cooldown_until = cooldown_until_;
  snap.pending_extra_latency = pending_extra_latency_;
  snap.poison_active = poison_active_;
  return snap;
}

void Service::restore(const ServeSnapshot& snap) {
  require(next_slot_ == 0 && arrivals_total_ == 0 && !agent_.in_flight(),
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
  require_code(std::all_of(snap.schedule.begin(), snap.schedule.end(),
                           [this](model::LinkId id) {
                             return id < net_.size();
                           }),
               ErrorCode::SnapshotFormat,
               "Service::restore: schedule id out of range");
  // A corrupt counter or queue digit fails here instead of surfacing as a
  // conservation violation blamed on the service. Saturating sums keep
  // hostile counters from wrapping into a match.
  std::uint64_t accounted = snap.served_total;
  for (std::uint64_t v : snap.queues) accounted = util::sat_add(accounted, v);
  for (std::uint64_t v : {snap.dropped_capacity, snap.dropped_shed,
                          snap.dropped_churn, snap.dropped_quarantine}) {
    accounted = util::sat_add(accounted, v);
  }
  require_code(accounted < std::numeric_limits<std::uint64_t>::max() &&
                   snap.arrivals_total == accounted,
               ErrorCode::SnapshotFormat,
               "Service::restore: counters violate arrivals == served + "
               "backlog + drops");

  next_slot_ = snap.next_slot;
  monitor_.restore(snap.health);
  arrivals_total_ = snap.arrivals_total;
  admitted_total_ = snap.admitted_total;
  served_total_ = snap.served_total;
  drops_.capacity = snap.dropped_capacity;
  drops_.shed = snap.dropped_shed;
  drops_.churn = snap.dropped_churn;
  drops_.quarantine = snap.dropped_quarantine;
  drops_.stale_pruned = snap.stale_pruned;
  recompute_timeouts_ = snap.recompute_timeouts;
  recompute_failures_ = snap.recompute_failures;
  recompute_adoptions_ = snap.recompute_adoptions;
  schedule_epoch_ = snap.schedule_epoch;
  schedule_stale_ = snap.schedule_stale;
  schedule_ = snap.schedule;
  rebuild_block();
  queue_ = snap.queues;
  active_ = snap.active;
  traffic_.set_burst_state(snap.burst_state);
  departed_flags_ = snap.departed_flags;
  feedback_attempt_ = snap.feedback_attempt;
  feedback_success_ = snap.feedback_success;
  backoff_slots_ = snap.backoff_slots;
  cooldown_until_ = snap.cooldown_until;
  pending_extra_latency_ = snap.pending_extra_latency;
  poison_active_ = snap.poison_active;

  // Rehydrate the policy before any resubmission: the persisted state is
  // the pre-submit capture, so replaying the request below reproduces the
  // exact post-submit policy state of the killed service.
  try {
    agent_.policy().restore_state(snap.policy_state, snap.schedule);
  } catch (const error& e) {
    throw coded_error(ErrorCode::SnapshotFormat, e.what());
  }

  if (snap.recompute.in_flight) {
    // Resubmit the interrupted recompute with its original submit slot and
    // latency, so the adoption slot — and thus the trajectory — is
    // preserved. A poisoned request is re-corrupted before submission.
    inflight_policy_state_ = snap.policy_state;
    inflight_timed_out_ = snap.recompute.timed_out;
    inflight_poisoned_ = snap.recompute.poisoned;
    request_.slot = snap.recompute.submit_slot;
    request_.weights = snap.recompute.weights;
    request_.departed = snap.recompute.departed;
    request_.feedback_schedule = snap.recompute.feedback_schedule;
    request_.feedback_success = snap.recompute.feedback_success;
    submit_request(snap.recompute.latency_slots);
  }
}

}  // namespace raysched::serve
