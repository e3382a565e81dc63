// rsbench: the two serving-loop workloads.
//
// Both drive serve::Service over the paper geometry at n = 4096 as a closed
// loop: each slot is one Service::run(1) call, timed individually, and the
// next slot starts when it returns. After an untimed warm-up the loop runs a
// fixed deterministic window of slots (served_per_slot, fail_ratio and the
// trajectory hash come from it) and keeps going until --seconds have passed.
//
// Slots are classified from outside the service, from the config cadence
// and the ServeReport digests: a slot whose schedule epoch moved reaped a
// recompute; a slot on the recompute cadence submitted one (with the inline
// agent the policy runs inside it); a slot on the snapshot cadence wrote a
// snapshot; every other slot is quiet. The traced run adds probes between
// slots — never inside a timed slot — that call each layer's public
// functions on the live service state.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/weighted.hpp"
#include "bench.hpp"
#include "core/success_probability_batch.hpp"
#include "model/rayleigh.hpp"
#include "model/sinr.hpp"
#include "serve/schedule_policy.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"

namespace rsbench {
namespace {

using namespace raysched;

constexpr std::size_t kLinks = 4096;
constexpr std::uint64_t kQueueCap = 64;
constexpr std::uint64_t kWarmupSlots = 1024;
// Determinism horizon: every extra service built during set-up replays this
// many slots and must reach the main service's trajectory hash.
constexpr std::uint64_t kCheckSlots = 512;
// The deterministic measurement window that follows the warm-up.
constexpr std::uint64_t kWindowSlots = 4096;
// Slots per window of slot_p50_us (the mean of the window medians).
constexpr std::size_t kP50Window = 512;
constexpr int kSetups = 5;
// Traced run: live-set probe cadence, in slots.
constexpr std::uint64_t kLiveProbeEvery = 4;
// Host calibration cadence, in slots (bench.hpp, host speed normalization).
constexpr std::uint64_t kCalibrateEvery = 256;

constexpr std::uint64_t kNetworkTag = 0x4E37;
constexpr std::uint64_t kServiceTag = 0x5E47;
constexpr std::uint64_t kProbeTag = 0x960B;

struct ServeSpec {
  core::Propagation propagation = core::Propagation::NonFading;
  serve::PolicyKind policy = serve::PolicyKind::MaxWeightIncremental;
  std::size_t agent_threads = 1;
  double churn_leave = 0.0;
  double churn_join = 0.0;
  std::uint64_t snapshot_period = 0;
};

enum class SlotClass : char { Quiet, Submit, Reap, Snapshot };

serve::ServeConfig make_config(const ServeSpec& spec, const Options& options) {
  serve::ServeConfig config;
  config.master_seed =
      util::RngStream(options.seed).derive(kServiceTag).next_u64();
  config.beta = units::Threshold(kBeta);
  config.propagation = spec.propagation;
  config.traffic.model = serve::TrafficModel::Poisson;
  config.traffic.mean_rate = 0.1;
  config.queue_cap = kQueueCap;
  config.recompute_period = 8;
  config.agent_threads = spec.agent_threads;
  config.policy = spec.policy;
  config.churn_leave = units::Probability(spec.churn_leave);
  config.churn_join = units::Probability(spec.churn_join);
  if (spec.snapshot_period > 0) {
    config.snapshot_path = options.scratch + "/serve.snap";
    config.snapshot_period = spec.snapshot_period;
  }
  return config;
}

model::Network workload_network(const Options& options) {
  util::RngStream rng = util::RngStream(options.seed).derive(kNetworkTag);
  return paper_network(kLinks, rng);
}

struct Built {
  std::unique_ptr<serve::Service> service;
  double network_s = 0.0;
  double total_s = 0.0;
};

Built build_service(const serve::ServeConfig& config, const Options& options) {
  Built built;
  const auto t0 = Clock::now();
  model::Network net = workload_network(options);
  built.network_s = seconds_since(t0);
  built.service = std::make_unique<serve::Service>(std::move(net), config);
  built.total_s = seconds_since(t0);
  return built;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// The live set the next slot serves: adopted schedule entries whose link
/// is active and backlogged.
model::LinkSet live_set(const serve::ServeSnapshot& snap) {
  model::LinkSet live;
  for (model::LinkId i : snap.schedule) {
    if (snap.active[i] != 0 && snap.queues[i] > 0) live.push_back(i);
  }
  return live;
}

/// The median of each consecutive full window of kP50Window slots, averaged
/// over the windows: a stretch of host contention then moves the result in
/// proportion to its length instead of flipping a pooled median.
double windowed_median(const std::vector<double>& slot_us) {
  std::vector<double> medians;
  for (std::size_t begin = 0; begin + kP50Window <= slot_us.size();
       begin += kP50Window) {
    const auto first = slot_us.begin() + static_cast<std::ptrdiff_t>(begin);
    medians.push_back(median(std::vector<double>(
        first, first + static_cast<std::ptrdiff_t>(kP50Window))));
  }
  return mean(medians);
}

serve::ScheduleRequest request_from(const serve::ServeSnapshot& snap) {
  serve::ScheduleRequest request;
  request.slot = snap.recompute.submit_slot;
  request.weights = snap.recompute.weights;
  request.departed = snap.recompute.departed;
  request.feedback_schedule = snap.recompute.feedback_schedule;
  request.feedback_success = snap.recompute.feedback_success;
  return request;
}

/// Per-layer samples gathered by the traced run's probes.
struct Probes {
  std::unique_ptr<serve::SchedulePolicy> shadow;
  bool shadow_synced = false;
  std::uint64_t shadow_slot = 0;
  bool shadow_pending = false;
  model::LinkSet shadow_schedule;
  std::vector<double> policy_us;
  std::vector<double> price_us;
  std::vector<double> schedule_size;
  std::vector<double> sinr_us;
  std::vector<double> live_size;
  std::vector<double> snapshot_us;
  std::size_t live_total = 0;
  std::size_t live_success = 0;
  std::size_t adoptions_checked = 0;
  std::vector<double> sinr_scratch;
};

Result run_serve(const ServeSpec& spec, const Options& options) {
  Result result;
  const serve::ServeConfig config = make_config(spec, options);
  const bool certified = spec.policy != serve::PolicyKind::Ahm;
  const double n = static_cast<double>(kLinks);

  // Traced: the recompute machinery's constructors, timed alone before any
  // service exists so their matrices never stack on the service's.
  double oracle_build_s = 0.0;
  double kernel_build_s = 0.0;
  if (options.trace && certified) {
    const model::Network net = workload_network(options);
    auto t0 = Clock::now();
    { const algorithms::WeightedGreedyOracle oracle(net, kBeta); }
    oracle_build_s = seconds_since(t0);
    t0 = Clock::now();
    { const core::SuccessProbabilityKernel kernel(net, config.beta); }
    kernel_build_s = seconds_since(t0);
  }

  // Replays for the determinism check, each on its own service that is
  // dropped before the next is built: with a threaded agent, first the same
  // trajectory with the agent inline (thread-count independence), then every
  // set-up but the last.
  std::vector<std::uint64_t> replay_hashes;
  if (spec.agent_threads != 1) {
    serve::ServeConfig inline_config = config;
    inline_config.agent_threads = 1;
    Built built = build_service(inline_config, options);
    const serve::ServeReport replay = built.service->run(kCheckSlots);
    result.check(replay.conservation_ok, "conservation broke in a replay");
    replay_hashes.push_back(replay.trajectory_hash);
  }

  // Set-up, kSetups times.
  std::vector<double> setup_s;
  std::vector<double> network_s;
  std::unique_ptr<serve::Service> service;
  for (int k = 0; k < kSetups; ++k) {
    Built built = build_service(config, options);
    setup_s.push_back(built.total_s);
    network_s.push_back(built.network_s);
    if (k + 1 == kSetups) {
      service = std::move(built.service);
      break;
    }
    const serve::ServeReport replay = built.service->run(kCheckSlots);
    result.check(replay.conservation_ok, "conservation broke in a replay");
    replay_hashes.push_back(replay.trajectory_hash);
  }

  const serve::ServeReport at_check = service->run(kCheckSlots);
  for (std::uint64_t h : replay_hashes) {
    result.check(h == at_check.trajectory_hash,
                 "trajectory hash differs between runs of one seed (" +
                     hex(h) + " vs " + hex(at_check.trajectory_hash) + ")");
  }
  const serve::ServeReport start = service->run(kWarmupSlots - kCheckSlots);
  const model::Network& net = service->network();

  Probes probes;
  if (options.trace) {
    probes.shadow = serve::make_schedule_policy(
        config.policy, net, config.beta,
        serve::PolicyOptions{config.ahm, config.master_seed});
  }

  std::vector<double> slot_us;
  std::vector<double> calibration;
  std::vector<double> slot_allocs;
  std::vector<SlotClass> slot_class;
  double probe_s = 0.0;
  std::uint64_t prev_epoch = start.schedule_epoch;
  std::uint64_t reaps = 0;
  std::uint64_t submits = 0;
  std::uint64_t misclassified = 0;
  serve::ServeReport end;
  bool conservation_ok = true;

  const auto loop_t0 = Clock::now();
  for (std::uint64_t k = 0;; ++k) {
    if (k >= kWindowSlots && seconds_since(loop_t0) >= options.seconds) break;
    const std::uint64_t allocs0 = alloc_count();
    const auto t0 = Clock::now();
    serve::ServeReport report = service->run(1);
    const double us = micros_since(t0);
    const std::uint64_t allocs = alloc_count() - allocs0;

    const serve::SlotDigest& digest = report.digests.front();
    const std::uint64_t slot = digest.slot;
    SlotClass cls = SlotClass::Quiet;
    if (digest.schedule_epoch != prev_epoch) {
      cls = SlotClass::Reap;
      ++reaps;
      if ((slot - config.recompute_latency) % config.recompute_period != 0) {
        ++misclassified;
      }
    } else if (slot % config.recompute_period == 0) {
      cls = SlotClass::Submit;
      ++submits;
    } else if (config.snapshot_period > 0 &&
               (slot + 1) % config.snapshot_period == 0) {
      cls = SlotClass::Snapshot;
    }
    prev_epoch = digest.schedule_epoch;
    slot_us.push_back(us);
    slot_allocs.push_back(static_cast<double>(allocs));
    slot_class.push_back(cls);
    conservation_ok = conservation_ok && report.conservation_ok;
    if (k + 1 == kWindowSlots) end = std::move(report);
    if (k % kCalibrateEvery == 0) calibration.push_back(calibration_us(1));
    if (!options.trace) continue;

    // ---- traced probes, between slots ----
    const auto probe_t0 = Clock::now();
    if (cls == SlotClass::Submit) {
      const serve::ServeSnapshot snap = service->snapshot();
      if (snap.recompute.in_flight && snap.recompute.submit_slot == slot) {
        if (!probes.shadow_synced) {
          probes.shadow->restore_state(snap.policy_state, snap.schedule);
          probes.shadow_synced = true;
        }
        const serve::ScheduleRequest request = request_from(snap);
        const auto c0 = Clock::now();
        serve::PolicyResult shadow = probes.shadow->compute(request);
        probes.policy_us.push_back(micros_since(c0));
        probes.shadow_schedule = std::move(shadow.schedule);
        probes.shadow_slot = slot;
        probes.shadow_pending = true;
      }
    } else if (cls == SlotClass::Reap) {
      const serve::ServeSnapshot snap = service->snapshot();
      const model::LinkSet& adopted = snap.schedule;
      probes.schedule_size.push_back(static_cast<double>(adopted.size()));
      const auto p0 = Clock::now();
      const double priced =
          core::batch_expected_successes_active(net, adopted, config.beta);
      probes.price_us.push_back(micros_since(p0));
      result.check(priced >= 0.0, "negative Theorem-1 price");
      if (certified) {
        result.check(model::is_feasible(net, adopted, config.beta),
                     "adopted max-weight schedule at slot " +
                         std::to_string(slot) + " is not SINR-feasible");
      }
      if (probes.shadow_pending &&
          probes.shadow_slot + config.recompute_latency == slot) {
        // Adoption prunes links that left in flight, so the adopted set is
        // the shadow's minus departures (equal without churn).
        const bool match =
            spec.churn_leave > 0.0
                ? std::includes(probes.shadow_schedule.begin(),
                                probes.shadow_schedule.end(), adopted.begin(),
                                adopted.end())
                : probes.shadow_schedule == adopted;
        result.check(match, "adopted schedule at slot " +
                                std::to_string(slot) +
                                " differs from the shadow policy's");
        ++probes.adoptions_checked;
        probes.shadow_pending = false;
      }
    }
    if (k % kLiveProbeEvery == 1) {
      const serve::ServeSnapshot snap = service->snapshot();
      const model::LinkSet live = live_set(snap);
      probes.live_size.push_back(static_cast<double>(live.size()));
      if (!live.empty()) {
        if (spec.propagation == core::Propagation::Rayleigh) {
          util::RngStream rng =
              util::RngStream(config.master_seed).derive(kProbeTag, slot);
          const auto s0 = Clock::now();
          model::sinr_rayleigh_all(net, live, rng, probes.sinr_scratch);
          probes.sinr_us.push_back(micros_since(s0));
        } else {
          model::sinr_nonfading_all(net, live, probes.sinr_scratch);
        }
        probes.live_total += live.size();
        for (double sinr : probes.sinr_scratch) {
          if (sinr >= config.beta.value()) ++probes.live_success;
        }
      }
    }
    if (config.snapshot_period > 0 && slot % config.snapshot_period == 1) {
      const auto s0 = Clock::now();
      serve::save_snapshot_atomic(options.scratch + "/probe.snap",
                                  service->snapshot());
      probes.snapshot_us.push_back(micros_since(s0));
    }
    probe_s += seconds_since(probe_t0);
  }
  const double loop_s = seconds_since(loop_t0);

  // Every timing of the run at reference host speed (bench.hpp).
  const double host_us = median(calibration);
  const double scale = reference_scale(host_us);
  for (std::vector<double>* series :
       {&setup_s, &network_s, &slot_us, &probes.policy_us, &probes.price_us,
        &probes.sinr_us, &probes.snapshot_us}) {
    for (double& t : *series) t *= scale;
  }
  oracle_build_s *= scale;
  kernel_build_s *= scale;
  result.notes.push_back("host calibration " + std::to_string(host_us) +
                         " us; timings scaled by " + std::to_string(scale));

  // ---- checks ----
  result.check(conservation_ok && service->conservation_holds(),
               "conservation (arrivals == served + backlog + drops) broke");
  result.check(misclassified == 0,
               "a recompute was reaped off the submit cadence");
  result.check(end.recompute_timeouts == start.recompute_timeouts &&
                   end.recompute_failures == start.recompute_failures,
               "a recompute timed out or failed, so the slot classes are off");
  result.check(reaps + 1 >= submits, "submitted recomputes were not reaped");
  if (options.trace) {
    result.check(probes.adoptions_checked > 0,
                 "no adopted schedule was checked against the shadow policy");
  }

  // ---- deterministic window ----
  const std::uint64_t served = end.served - start.served;
  const std::uint64_t offered = end.arrivals - start.arrivals;
  const std::uint64_t dropped = end.drops.total() - start.drops.total();
  result.notes.push_back("trajectory_hash " + hex(end.trajectory_hash) +
                         " at slot " + std::to_string(end.next_slot));
  result.notes.push_back(
      "served " + std::to_string(served) + " offered " +
      std::to_string(offered) + " dropped " + std::to_string(dropped) +
      " in slots [" + std::to_string(start.next_slot) + ", " +
      std::to_string(end.next_slot) + ")");
  result.attempted = slot_us.size();

  // ---- slot classes ----
  // The entries of a per-slot series that belong to one slot class.
  auto of_class = [&](const std::vector<double>& series, SlotClass cls) {
    std::vector<double> out;
    for (std::size_t k = 0; k < series.size(); ++k) {
      if (slot_class[k] == cls) out.push_back(series[k]);
    }
    return out;
  };
  const double slots_per_s =
      static_cast<double>(slot_us.size()) / (sum(slot_us) * 1e-6);
  const double p50 = windowed_median(slot_us);
  const double p99 = percentile(slot_us, 0.99);

  if (!options.trace) {
    result.e2e("setup_s", median(setup_s), setup_s.size());
    result.e2e("slots_per_s", slots_per_s, slot_us.size());
    result.e2e("slot_p50_us", p50, slot_us.size());
    result.e2e("slot_p99_us", p99, slot_us.size());
    result.e2e("served_per_slot",
               static_cast<double>(served) / static_cast<double>(kWindowSlots));
    result.e2e("fail_ratio",
               static_cast<double>(dropped) / static_cast<double>(offered));
    result.e2e("peak_rss_mib", peak_rss_mib());
    return result;
  }

  const std::vector<double> quiet = of_class(slot_us, SlotClass::Quiet);
  const std::vector<double> submit = of_class(slot_us, SlotClass::Submit);
  const std::vector<double> reap = of_class(slot_us, SlotClass::Reap);
  result.layer("trace.slots_per_s", slots_per_s, slot_us.size());
  result.layer("trace.slot_p50_us", p50, slot_us.size());
  result.layer("trace.slot_p99_us", p99, slot_us.size());
  result.layer("trace.overhead_pct", 100.0 * probe_s / loop_s);
  result.layer("host.calibration_us", host_us, calibration.size());
  result.layer("serve.quiet_slot_p50_us", percentile(quiet, 0.50),
               quiet.size());
  result.layer("serve.quiet_slot_p99_us", percentile(quiet, 0.99),
               quiet.size());
  result.layer("serve.recompute_slot_p50_us", percentile(submit, 0.50),
               submit.size());
  result.layer("serve.recompute_slot_p99_us", percentile(submit, 0.99),
               submit.size());
  result.layer("serve.reap_slot_p50_us", percentile(reap, 0.50),
               reap.size());
  result.layer("serve.policy_compute_p50_us",
               percentile(probes.policy_us, 0.50),
               probes.policy_us.size());
  result.layer("serve.policy_compute_p99_us",
               percentile(probes.policy_us, 0.99),
               probes.policy_us.size());
  result.layer("serve.snapshot_write_us", median(probes.snapshot_us),
               probes.snapshot_us.size());
  result.layer("serve.allocs_per_quiet_slot",
               mean(of_class(slot_allocs, SlotClass::Quiet)));
  result.layer("serve.allocs_per_recompute_slot",
               mean(of_class(slot_allocs, SlotClass::Submit)));
  result.layer("serve.success_ratio",
               probes.live_total == 0
                   ? 0.0
                   : static_cast<double>(probes.live_success) /
                         static_cast<double>(probes.live_total));
  result.layer("serve.recompute_adoptions",
               static_cast<double>(end.recompute_adoptions -
                                   start.recompute_adoptions));
  result.layer("serve.recompute_timeouts",
               static_cast<double>(end.recompute_timeouts -
                                   start.recompute_timeouts));
  result.layer("serve.stale_pruned",
               static_cast<double>(end.drops.stale_pruned -
                                   start.drops.stale_pruned));
  result.layer("serve.drops_churn",
               static_cast<double>(end.drops.churn - start.drops.churn));
  result.layer("algorithms.oracle_build_s", oracle_build_s);
  result.layer("algorithms.schedule_size", mean(probes.schedule_size),
               probes.schedule_size.size());
  result.layer("algorithms.oracle_mib",
               certified ? mib_of_doubles(2 * n * n) : 0.0);
  result.layer("model.network_build_s", median(network_s),
               network_s.size());
  result.layer("model.sinr_rayleigh_p50_us", percentile(probes.sinr_us, 0.50),
               probes.sinr_us.size());
  result.layer("model.live_set_size", mean(probes.live_size),
               probes.live_size.size());
  result.layer("model.gain_mib", mib_of_doubles(n * n));
  result.layer("core.kernel_build_s", kernel_build_s);
  result.layer("core.price_schedule_us", percentile(probes.price_us, 0.50),
               probes.price_us.size());
  result.layer("core.kernel_mib", certified ? mib_of_doubles(n * n) : 0.0);
  return result;
}

}  // namespace

Result run_serve_maxweight(const Options& options) {
  ServeSpec spec;
  spec.propagation = core::Propagation::NonFading;
  spec.policy = serve::PolicyKind::MaxWeightIncremental;
  spec.agent_threads = 1;
  return run_serve(spec, options);
}

Result run_serve_rayleigh_ahm(const Options& options) {
  ServeSpec spec;
  spec.propagation = core::Propagation::Rayleigh;
  spec.policy = serve::PolicyKind::Ahm;
  spec.agent_threads = 2;
  spec.churn_leave = 0.001;
  spec.churn_join = 0.01;
  spec.snapshot_period = 256;
  return run_serve(spec, options);
}

}  // namespace rsbench
