// raysched_serve: the fault-tolerant heavy-traffic serving loop as a
// long-running binary.
//
// Pumps stochastic traffic through the max-weight scheduler on a
// random-plane instance while links churn, under an optional scripted fault
// schedule (see serve/fault_script.hpp), taking periodic crash-safe
// snapshots. Restarting with --restore resumes from the last snapshot and
// replays bit-identically.
//
// Exit codes:
//   0  run completed
//   2  stopped at a scripted crash fault (restart with --restore)
//   5  conservation violated: an unexplained drop (a bug, never expected)
//   1  configuration or runtime error
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "raysched.hpp"

namespace {

using namespace raysched;

int run_serve(int argc, char** argv) {
  util::Flags flags;
  flags.add_int("links", 64, "number of links in the instance");
  flags.add_int("slots", 2000, "slots to run in this segment");
  flags.add_int("seed", 1, "master seed (instance + all streams)");
  flags.add_double("beta", 2.5, "SINR threshold");
  flags.add_string("propagation", "nonfading", "nonfading|rayleigh");
  flags.add_string("traffic", "poisson", "poisson|bursty|heavy-tailed");
  flags.add_double("rate", 0.05, "Poisson mean packets/link/slot");
  flags.add_double("batch-prob", 0.05, "heavy-tailed per-slot batch prob");
  flags.add_double("tail-alpha", 1.5, "heavy-tailed Pareto exponent");
  flags.add_int("queue-cap", 4096, "per-link queue bound");
  flags.add_double("churn-leave", 0.0, "per-slot leave probability");
  flags.add_double("churn-join", 0.0, "per-slot rejoin probability");
  flags.add_int("recompute-period", 8, "slots between schedule recomputes");
  flags.add_int("recompute-latency", 2, "nominal recompute service slots");
  flags.add_int("recompute-deadline", 6, "slots before a recompute times out");
  flags.add_int("threads", 1, "schedule-agent pool threads (1 = inline)");
  flags.add_string("policy", "max-weight", "max-weight|ahm");
  flags.add_int("overload-enter", 4096, "backlog entering Overloaded");
  flags.add_int("overload-exit", 1024, "backlog leaving Overloaded");
  flags.add_string("faults", "", "fault script, e.g. '120:delay:10,900:crash'");
  flags.add_int("fault-period", 0, "re-fire the fault script every N slots");
  flags.add_string("snapshot", "", "snapshot path (enables persistence)");
  flags.add_int("snapshot-period", 0, "slots between snapshots");
  flags.add_bool("restore", false, "restore from --snapshot before running");
  flags.add_string("digest-out", "", "write per-slot digest CSV here");
  flags.add_bool("quiet", false, "suppress the per-transition log");
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.usage("raysched_serve");
    return 0;
  }

  serve::ServeConfig config;
  config.master_seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  config.beta = units::Threshold(flags.get_double("beta"));
  config.propagation =
      serve::propagation_from_string(flags.get_string("propagation"));
  config.traffic.model =
      serve::traffic_model_from_string(flags.get_string("traffic"));
  config.traffic.mean_rate = flags.get_double("rate");
  config.traffic.batch_prob =
      units::Probability(flags.get_double("batch-prob"));
  config.traffic.tail_alpha = flags.get_double("tail-alpha");
  config.queue_cap = static_cast<std::uint64_t>(flags.get_int("queue-cap"));
  config.churn_leave = units::Probability(flags.get_double("churn-leave"));
  config.churn_join = units::Probability(flags.get_double("churn-join"));
  config.recompute_period =
      static_cast<std::uint64_t>(flags.get_int("recompute-period"));
  config.recompute_latency =
      static_cast<std::uint64_t>(flags.get_int("recompute-latency"));
  config.recompute_deadline =
      static_cast<std::uint64_t>(flags.get_int("recompute-deadline"));
  config.agent_threads = static_cast<std::size_t>(flags.get_int("threads"));
  config.policy = serve::policy_kind_from_string(flags.get_string("policy"));
  config.health.overload_enter_backlog =
      static_cast<std::uint64_t>(flags.get_int("overload-enter"));
  config.health.overload_exit_backlog =
      static_cast<std::uint64_t>(flags.get_int("overload-exit"));
  config.faults = serve::FaultScript::parse(
      flags.get_string("faults"),
      static_cast<std::uint64_t>(flags.get_int("fault-period")));
  config.snapshot_path = flags.get_string("snapshot");
  config.snapshot_period =
      static_cast<std::uint64_t>(flags.get_int("snapshot-period"));

  // The instance is a pure function of the master seed, so a restored run
  // rebuilds the identical network before loading its state.
  util::RngStream net_rng = util::RngStream(config.master_seed).derive(0x4E7);
  model::RandomPlaneParams params;
  params.num_links = static_cast<std::size_t>(flags.get_int("links"));
  auto links = model::random_plane_links(params, net_rng);
  model::Network net(std::move(links), model::PowerAssignment::uniform(2.0),
                     2.2, units::Power(4e-7));

  serve::Service service(std::move(net), config);
  if (flags.get_bool("restore")) {
    require(!config.snapshot_path.empty(),
            "raysched_serve: --restore needs --snapshot");
    service.restore(serve::load_snapshot(config.snapshot_path));
    std::cout << "restored from " << config.snapshot_path << " at slot "
              << service.next_slot() << "\n";
  }

  const serve::ServeReport report =
      service.run(static_cast<std::uint64_t>(flags.get_int("slots")));

  if (!flags.get_string("digest-out").empty()) {
    std::ofstream out(flags.get_string("digest-out"), std::ios::trunc);
    require(out.good(), "raysched_serve: cannot open digest-out");
    out << "slot,arrivals,served,dropped,backlog,epoch,health\n";
    for (const serve::SlotDigest& d : report.digests) {
      out << d.slot << "," << d.arrivals << "," << d.served << ","
          << d.dropped << "," << d.backlog << "," << d.schedule_epoch << ","
          << serve::to_string(d.health) << "\n";
    }
  }

  if (!flags.get_bool("quiet")) {
    for (const serve::HealthTransition& t : service.health().transitions()) {
      std::cout << "slot " << t.slot << ": " << serve::to_string(t.from)
                << " -> " << serve::to_string(t.to) << " (" << t.reason
                << ")\n";
    }
  }
  std::cout << "slots " << report.slots_run << " next " << report.next_slot
            << " health " << serve::to_string(report.health) << "\n";
  std::cout << "arrivals " << report.arrivals << " admitted "
            << report.admitted << " served " << report.served << " backlog "
            << report.backlog << "\n";
  std::cout << "drops capacity " << report.drops.capacity << " shed "
            << report.drops.shed << " churn " << report.drops.churn
            << " quarantine " << report.drops.quarantine << "\n";
  std::cout << "recompute adoptions " << report.recompute_adoptions
            << " timeouts " << report.recompute_timeouts << " failures "
            << report.recompute_failures << " epoch "
            << report.schedule_epoch << "\n";
  // Theorem-1 expected successes of the schedule the service holds now,
  // priced once here rather than at every adoption.
  const double expected_rate = model::expected_successes_rayleigh(
      service.network(), service.snapshot().schedule, config.beta);
  std::cout << "policy " << flags.get_string("policy")
            << " stale-pruned " << report.drops.stale_pruned
            << " expected-rate " << expected_rate << "\n";
  std::cout << "trajectory-hash " << report.trajectory_hash << "\n";

  if (!report.conservation_ok) {
    std::cerr << "raysched_serve: CONSERVATION VIOLATED — unexplained drop\n";
    return 5;
  }
  if (report.crashed) {
    std::cout << "crashed at slot " << report.crash_slot
              << " (scripted); restart with --restore\n";
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_serve(argc, argv);
  } catch (const raysched::error& e) {
    std::cerr << "raysched_serve: " << e.what() << "\n";
    return 1;
  }
}
