#include "serve/snapshot.hpp"

#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>

#include "util/error.hpp"
#include "util/record_io.hpp"

namespace raysched::serve {

namespace {

// Version 2 added the policy fingerprint line, the stale_pruned drop
// counter, the departed/attempt/success flag vectors, the in-flight
// request's departed + feedback payloads, and the policy-state vector.
constexpr std::uint64_t kVersion = 2;

// Bound every size field against corrupted/hostile input: no deployment
// serves more links than this, and schedules/weights are <= n.
constexpr std::size_t kMaxLinks = 100'000'000;

int bit(char flag) { return flag ? 1 : 0; }

/// Writes " v" per value, then a newline.
template <class... Ts>
void end_line(std::ostream& os, Ts... values) {
  ((os.put(' '), util::write_number(os, values)), ...);
  os.put('\n');
}

/// Writes "<key> v1 ... vk" and a newline.
template <class... Ts>
void write_line(std::ostream& os, const char* key, Ts... values) {
  os << key;
  end_line(os, values...);
}

}  // namespace

void write_snapshot(std::ostream& os, const ServeSnapshot& snap) {
  const std::size_t n = snap.num_links;
  require_code(snap.queues.size() == n && snap.active.size() == n,
               ErrorCode::SnapshotFormat,
               "write_snapshot: per-link vectors must have size n");
  require_code(snap.burst_state.empty() || snap.burst_state.size() == n,
               ErrorCode::SnapshotFormat,
               "write_snapshot: burst state must be empty or size n");
  require_code(snap.departed_flags.size() == n &&
                   snap.feedback_attempt.size() == n &&
                   snap.feedback_success.size() == n,
               ErrorCode::SnapshotFormat,
               "write_snapshot: flag vectors must have size n");
  require_code(std::isfinite(snap.beta), ErrorCode::SnapshotFormat,
               "write_snapshot: beta must be finite");
  require_code(!snap.policy.empty(), ErrorCode::SnapshotFormat,
               "write_snapshot: policy name must be set");
  const auto id_below_n = [n](std::size_t id) {
    require_code(id < n, ErrorCode::SnapshotFormat,
                 "write_snapshot: link id out of range");
    return id;
  };
  // The poisoned variant stores *clean* weights + a flag; a non-finite
  // value here is a service bug, not a serializable state.
  const auto finite = [](double v) {
    require_code(std::isfinite(v), ErrorCode::SnapshotFormat,
                 "write_snapshot: weights and policy state must be finite");
    return v;
  };

  write_line(os, "raysched-serve-snapshot", kVersion);
  write_line(os, "seed", snap.master_seed);
  write_line(os, "links", n);
  write_line(os, "beta", snap.beta);
  os << "propagation " << snap.propagation << "\n";
  os << "traffic " << snap.traffic_model << "\n";
  os << "policy " << snap.policy << "\n";
  write_line(os, "slot", snap.next_slot);
  os << "health " << to_string(snap.health.state);
  end_line(os, snap.health.poison_streak, snap.health.clean_slots,
           bit(snap.health.quarantine_latch), bit(snap.health.overload_latch));
  write_line(os, "counters", snap.arrivals_total, snap.admitted_total,
             snap.served_total);
  write_line(os, "drops", snap.dropped_capacity, snap.dropped_shed,
             snap.dropped_churn, snap.dropped_quarantine, snap.stale_pruned);
  write_line(os, "recompute-stats", snap.recompute_timeouts,
             snap.recompute_failures, snap.recompute_adoptions);
  os << "epoch ";
  util::write_number(os, snap.schedule_epoch);
  os << " stale";
  end_line(os, bit(snap.schedule_stale));
  util::write_list(os, "schedule", snap.schedule, id_below_n);
  util::write_list(os, "queues", snap.queues);
  util::write_list(os, "active", snap.active, bit);
  util::write_list(os, "departed", snap.departed_flags, bit);
  util::write_list(os, "attempt", snap.feedback_attempt, bit);
  util::write_list(os, "success", snap.feedback_success, bit);
  util::write_list(os, "burst", snap.burst_state, bit);
  const RecomputeSnapshot& rc = snap.recompute;
  if (rc.in_flight) {
    require_code(rc.weights.size() == n &&
                     rc.feedback_success.size() == rc.feedback_schedule.size(),
                 ErrorCode::SnapshotFormat,
                 "write_snapshot: in-flight weights must have size n and "
                 "feedback flags must align");
    write_line(os, "inflight", 1, rc.submit_slot, rc.latency_slots,
               bit(rc.timed_out), bit(rc.poisoned));
    util::write_list(os, "weights", rc.weights, finite);
    util::write_list(os, "inflight-departed", rc.departed, id_below_n);
    // Feedback as (id, success) pairs, aligned by construction.
    os << "inflight-feedback ";
    util::write_number(os, rc.feedback_schedule.size());
    os << " :";
    for (std::size_t k = 0; k < rc.feedback_schedule.size(); ++k) {
      os.put(' ');
      util::write_number(os, id_below_n(rc.feedback_schedule[k]));
      os.put(' ');
      util::write_number(os, bit(rc.feedback_success[k]));
    }
    os.put('\n');
  } else {
    os << "inflight 0\n";
  }
  write_line(os, "backoff", snap.backoff_slots, snap.cooldown_until);
  write_line(os, "faultstate", snap.pending_extra_latency,
             bit(snap.poison_active));
  util::write_list(os, "policy-state", snap.policy_state, finite);
  os << "end\n";
  require_code(static_cast<bool>(os), ErrorCode::SnapshotIo,
               "write_snapshot: stream write failed");
}

ServeSnapshot read_snapshot(std::istream& is) {
  util::TokenReader r(is, ErrorCode::SnapshotFormat, "read_snapshot");
  r.expect("raysched-serve-snapshot");
  r.check(r.u64("version") == kVersion, "unsupported version");
  ServeSnapshot snap;
  r.expect("seed");
  snap.master_seed = r.u64("seed");
  r.expect("links");
  snap.num_links = r.count("link count", kMaxLinks);
  r.check(snap.num_links >= 1, "link count must be >= 1");
  const std::size_t n = snap.num_links;
  const auto id = [&r, n] { return r.index("link id", n); };
  const auto flag = [&r] { return static_cast<char>(r.flag("flag")); };
  r.expect("beta");
  snap.beta = r.finite("beta");
  r.expect("propagation");
  snap.propagation = r.word("propagation");
  r.expect("traffic");
  snap.traffic_model = r.word("traffic model");
  r.expect("policy");
  snap.policy = r.word("policy name");
  r.expect("slot");
  snap.next_slot = r.u64("slot");
  r.expect("health");
  const std::string health = r.word("health state");
  snap.health.state =
      r.convert([&] { return health_state_from_string(health); });
  snap.health.poison_streak = r.u64("poison streak");
  snap.health.clean_slots = r.u64("clean slots");
  snap.health.quarantine_latch = r.flag("quarantine latch");
  snap.health.overload_latch = r.flag("overload latch");
  r.expect("counters");
  snap.arrivals_total = r.u64("arrivals");
  snap.admitted_total = r.u64("admitted");
  snap.served_total = r.u64("served");
  r.expect("drops");
  snap.dropped_capacity = r.u64("capacity drops");
  snap.dropped_shed = r.u64("shed drops");
  snap.dropped_churn = r.u64("churn drops");
  snap.dropped_quarantine = r.u64("quarantine drops");
  snap.stale_pruned = r.u64("stale-pruned count");
  r.expect("recompute-stats");
  snap.recompute_timeouts = r.u64("recompute timeouts");
  snap.recompute_failures = r.u64("recompute failures");
  snap.recompute_adoptions = r.u64("recompute adoptions");
  r.expect("epoch");
  snap.schedule_epoch = r.u64("epoch");
  r.expect("stale");
  snap.schedule_stale = r.flag("stale flag");
  snap.schedule = r.list<std::size_t>("schedule", 0, n, id);
  snap.queues = r.list<std::uint64_t>("queues", n, n,
                                      [&r] { return r.u64("queue length"); });
  snap.active = r.list<char>("active", n, n, flag);
  snap.departed_flags = r.list<char>("departed", n, n, flag);
  snap.feedback_attempt = r.list<char>("attempt", n, n, flag);
  snap.feedback_success = r.list<char>("success", n, n, flag);
  snap.burst_state = r.list<char>("burst", 0, n, flag);
  r.check(snap.burst_state.empty() || snap.burst_state.size() == n,
          "burst count must be 0 or n");
  r.expect("inflight");
  RecomputeSnapshot& rc = snap.recompute;
  rc.in_flight = r.flag("inflight flag");
  if (rc.in_flight) {
    rc.submit_slot = r.u64("inflight submit slot");
    rc.latency_slots = r.u64("inflight latency");
    r.check(rc.latency_slots >= 1, "inflight latency must be >= 1");
    rc.timed_out = r.flag("inflight timeout flag");
    rc.poisoned = r.flag("inflight poison flag");
    rc.weights = r.list<double>("weights", n, n, [&r] {
      const double w = r.finite("weight");
      r.check(w >= 0.0, "weights must be non-negative");
      return w;
    });
    rc.departed = r.list<std::size_t>("inflight-departed", 0, n, id);
    const std::size_t k = r.list_header("inflight-feedback", 0, n);
    rc.feedback_schedule.reserve(k);
    rc.feedback_success.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      rc.feedback_schedule.push_back(id());
      rc.feedback_success.push_back(flag());
    }
  }
  r.expect("backoff");
  snap.backoff_slots = r.u64("backoff slots");
  snap.cooldown_until = r.u64("cooldown slot");
  r.expect("faultstate");
  snap.pending_extra_latency = r.u64("pending extra latency");
  snap.poison_active = r.flag("poison active flag");
  snap.policy_state = r.list<double>("policy-state", 0, kMaxLinks, [&r] {
    return r.finite("policy state value");
  });
  r.expect("end");
  return snap;
}

void save_snapshot_atomic(const std::string& path, const ServeSnapshot& snap) {
  util::write_file_atomic(path, ErrorCode::SnapshotIo, [&](std::ostream& os) {
    write_snapshot(os, snap);
  });
}

ServeSnapshot load_snapshot(const std::string& path) {
  std::ifstream f(path);
  require_code(f.good(), ErrorCode::SnapshotIo,
               "load_snapshot: cannot open " + path);
  return read_snapshot(f);
}

}  // namespace raysched::serve
