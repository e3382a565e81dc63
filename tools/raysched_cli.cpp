// raysched_cli: command-line driver for the library.
//
// Subcommands:
//   generate  — draw a random instance and write it to a file
//   inspect   — print summary statistics of a stored instance
//   schedule  — run a capacity algorithm + Lemma-2 transfer on an instance
//   latency   — run a latency scheduler on an instance
//   simulate  — estimate expected successes under uniform transmission
//               probability (both models)
//   sweep     — fault-isolated Monte-Carlo sweep over random networks with
//               checkpoint/resume and a failure report
//
// Examples:
//   raysched_cli generate --links=100 --seed=7 --out=inst.net
//   raysched_cli schedule --in=inst.net --beta=2.5 --algorithm=greedy
//   raysched_cli latency --in=inst.net --beta=2.5 --scheduler=aloha
//       --model=rayleigh
//   raysched_cli simulate --in=inst.net --beta=2.5 --q=0.5
//   raysched_cli sweep --networks=20 --trials=50 --fault-policy=retry
//       --checkpoint=sweep.ckpt
//
// Exit codes: 0 success; 1 error or bad usage; 3 sweep completed but some
// cells failed and were skipped; 4 sweep interrupted (deadline).
#include <iostream>
#include <string>

#include "fault_injection.hpp"
#include "raysched.hpp"

using namespace raysched;

namespace {

int cmd_generate(int argc, char** argv) {
  util::Flags flags;
  flags.add_int("links", 100, "number of links");
  flags.add_double("plane", 1000.0, "plane side length");
  flags.add_double("min-length", 20.0, "minimal link length");
  flags.add_double("max-length", 40.0, "maximal link length");
  flags.add_double("alpha", 2.2, "path-loss exponent");
  flags.add_double("noise", 4e-7, "ambient noise");
  flags.add_double("power", 2.0, "power base");
  flags.add_string("power-scheme", "uniform", "uniform|sqrt|linear");
  flags.add_int("seed", 1, "instance seed");
  flags.add_string("out", "instance.net", "output path");
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.usage("raysched_cli generate");
    return 0;
  }
  util::RngStream rng(static_cast<std::uint64_t>(flags.get_int("seed")));
  model::RandomPlaneParams params;
  params.num_links = static_cast<std::size_t>(flags.get_int("links"));
  params.plane_size = flags.get_double("plane");
  params.min_length = flags.get_double("min-length");
  params.max_length = flags.get_double("max-length");
  auto links = model::random_plane_links(params, rng);
  const std::string scheme = flags.get_string("power-scheme");
  const double base = flags.get_double("power");
  model::PowerAssignment power =
      scheme == "sqrt" ? model::PowerAssignment::square_root(base)
      : scheme == "linear" ? model::PowerAssignment::linear(base)
                           : model::PowerAssignment::uniform(base);
  require(scheme == "uniform" || scheme == "sqrt" || scheme == "linear",
          "generate: unknown --power-scheme " + scheme);
  const model::Network net(std::move(links), power, flags.get_double("alpha"),
                           units::Power(flags.get_double("noise")));
  model::save_network(flags.get_string("out"), net);
  std::cout << "wrote " << net.size() << "-link instance to "
            << flags.get_string("out") << "\n";
  return 0;
}

int cmd_inspect(int argc, char** argv) {
  util::Flags flags;
  flags.add_string("in", "instance.net", "instance path");
  flags.add_double("beta", 2.5, "threshold for derived statistics");
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.usage("raysched_cli inspect");
    return 0;
  }
  const auto net = model::load_network(flags.get_string("in"));
  const double beta = flags.get_double("beta");
  util::Table table({"property", "value"});
  table.add_row({std::string("links"), static_cast<long long>(net.size())});
  table.add_row({std::string("noise"), net.noise()});
  table.add_row({std::string("geometric"),
                 std::string(net.has_geometry() ? "yes" : "no")});
  if (net.has_geometry()) {
    table.add_row({std::string("alpha"), net.alpha()});
    table.add_row({std::string("length ratio Delta"), net.length_ratio()});
  }
  sim::Accumulator alone;
  for (model::LinkId i = 0; i < net.size(); ++i) {
    alone.add(net.noise() > 0.0
                  ? net.signal(i) / net.noise()
                  : std::numeric_limits<double>::infinity());
  }
  if (net.noise() > 0.0) {
    table.add_row({std::string("min alone-SNR"), alone.min()});
    table.add_row({std::string("median-ish alone-SNR (mean)"), alone.mean()});
  }
  const auto greedy = algorithms::greedy_capacity(net, beta);
  table.add_row({std::string("greedy capacity at beta"),
                 static_cast<long long>(greedy.selected.size())});
  table.print_text(std::cout);
  return 0;
}

int cmd_schedule(int argc, char** argv) {
  util::Flags flags;
  flags.add_string("in", "instance.net", "instance path");
  flags.add_double("beta", 2.5, "SINR threshold");
  flags.add_string("algorithm", "greedy",
                   "greedy|power-control|local-search|flexible");
  flags.add_int("seed", 1, "rng seed (MC evaluation only)");
  flags.add_bool("print-set", false, "print the selected link ids");
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.usage("raysched_cli schedule");
    return 0;
  }
  const auto net = model::load_network(flags.get_string("in"));
  const std::string algo = flags.get_string("algorithm");
  algorithms::ReductionOptions opts;
  if (algo == "greedy") opts.algorithm = algorithms::NonFadingAlgorithm::Greedy;
  else if (algo == "power-control")
    opts.algorithm = algorithms::NonFadingAlgorithm::PowerControl;
  else if (algo == "local-search")
    opts.algorithm = algorithms::NonFadingAlgorithm::LocalSearch;
  else if (algo == "flexible")
    opts.algorithm = algorithms::NonFadingAlgorithm::FlexibleRate;
  else
    throw error("schedule: unknown --algorithm " + algo);
  util::RngStream rng(static_cast<std::uint64_t>(flags.get_int("seed")));
  const auto decision = algorithms::schedule_capacity_rayleigh(
      net, core::Utility::binary(units::Threshold(flags.get_double("beta"))), opts, rng);
  util::Table table({"quantity", "value"});
  table.add_row({std::string("algorithm"), decision.algorithm});
  table.add_row({std::string("selected links"),
                 static_cast<long long>(decision.transmit_set.size())});
  table.add_row({std::string("non-fading value"), decision.nonfading_value});
  table.add_row({std::string("E[rayleigh value]"),
                 decision.expected_rayleigh_value});
  table.add_row({std::string("Lemma-2 ratio (>= 0.3679)"),
                 decision.lemma2_ratio});
  table.print_text(std::cout);
  if (flags.get_bool("print-set")) {
    std::cout << "set:";
    for (model::LinkId i : decision.transmit_set) std::cout << " " << i;
    std::cout << "\n";
  }
  return 0;
}

int cmd_latency(int argc, char** argv) {
  util::Flags flags;
  flags.add_string("in", "instance.net", "instance path");
  flags.add_double("beta", 2.5, "SINR threshold");
  flags.add_string("scheduler", "aloha", "aloha|repeated");
  flags.add_string("model", "rayleigh", "rayleigh|nonfading");
  flags.add_int("seed", 1, "rng seed");
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.usage("raysched_cli latency");
    return 0;
  }
  const auto net = model::load_network(flags.get_string("in"));
  const auto prop = flags.get_string("model") == "nonfading"
                        ? core::Propagation::NonFading
                        : core::Propagation::Rayleigh;
  require(flags.get_string("model") == "nonfading" ||
              flags.get_string("model") == "rayleigh",
          "latency: unknown --model " + flags.get_string("model"));
  util::RngStream rng(static_cast<std::uint64_t>(flags.get_int("seed")));
  algorithms::LatencyResult result;
  if (flags.get_string("scheduler") == "aloha") {
    result = algorithms::aloha_schedule(net, flags.get_double("beta"), prop,
                                        rng);
  } else if (flags.get_string("scheduler") == "repeated") {
    result = algorithms::repeated_capacity_schedule(
        net, flags.get_double("beta"), prop, rng);
  } else {
    throw error("latency: unknown --scheduler " +
                flags.get_string("scheduler"));
  }
  std::cout << "latency: " << result.slots << " slots, completed="
            << (result.completed ? "yes" : "no") << "\n";
  return 0;
}

int cmd_simulate(int argc, char** argv) {
  util::Flags flags;
  flags.add_string("in", "instance.net", "instance path");
  flags.add_double("beta", 2.5, "SINR threshold");
  flags.add_double("q", 0.5, "uniform transmission probability");
  flags.add_int("trials", 2000, "non-fading Monte-Carlo trials");
  flags.add_int("seed", 1, "rng seed");
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.usage("raysched_cli simulate");
    return 0;
  }
  const auto net = model::load_network(flags.get_string("in"));
  std::vector<double> q(net.size(), flags.get_double("q"));
  util::RngStream rng(static_cast<std::uint64_t>(flags.get_int("seed")));
  const double rayleigh =
      core::expected_rayleigh_successes(net, units::probabilities(q), units::Threshold(flags.get_double("beta")));
  const double nonfading = core::expected_nonfading_successes_mc(
      net, units::probabilities(q), units::Threshold(flags.get_double("beta")),
      static_cast<std::size_t>(flags.get_int("trials")), rng);
  std::cout << "expected successes at q=" << flags.get_double("q")
            << ": non-fading(MC)=" << nonfading
            << " rayleigh(exact)=" << rayleigh << "\n";
  return 0;
}

// Exit codes of the sweep subcommand (0 and 1 follow the global convention).
constexpr int kExitSweepHadFailures = 3;
constexpr int kExitSweepInterrupted = 4;

int cmd_sweep(int argc, char** argv) {
  util::Flags flags;
  flags.add_int("networks", 10, "number of random networks");
  flags.add_int("trials", 25, "trials per network");
  flags.add_int("links", 50, "links per network");
  flags.add_int("seed", 1, "master seed");
  flags.add_double("beta", 2.5, "SINR threshold");
  flags.add_double("q", 0.5, "uniform transmission probability");
  flags.add_int("threads", 1, "worker threads (networks in parallel)");
  flags.add_string("fault-policy", "abort", "abort|skip|retry");
  flags.add_int("max-retries", 2, "extra attempts per cell (retry policy)");
  flags.add_double("cell-time-limit", 0.0,
                   "seconds per cell before a timeout failure (0 = off)");
  flags.add_string("checkpoint", "", "checkpoint file path (empty = off)");
  flags.add_int("checkpoint-every", 8, "networks between checkpoint writes");
  flags.add_string("resume", "", "resume from this checkpoint file");
  flags.add_double("deadline", 0.0, "wall-clock budget in seconds (0 = off)");
  flags.add_string("inject-throw", "",
                   "fault injection: net:trial[,net:trial...]; trial 'f' = "
                   "instance factory");
  flags.add_string("inject-nan", "",
                   "fault injection: poison metric 0 with NaN at "
                   "net:trial[,...]");
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.usage("raysched_cli sweep");
    return 0;
  }

  sim::ExperimentConfig config;
  config.num_networks = static_cast<std::size_t>(flags.get_int("networks"));
  config.trials_per_network =
      static_cast<std::size_t>(flags.get_int("trials"));
  config.master_seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  config.num_threads = static_cast<std::size_t>(flags.get_int("threads"));
  const std::string policy = flags.get_string("fault-policy");
  if (policy == "abort") {
    config.fault_policy = sim::FaultPolicy::Abort;
  } else if (policy == "skip") {
    config.fault_policy = sim::FaultPolicy::Skip;
  } else if (policy == "retry") {
    config.fault_policy = sim::FaultPolicy::RetryThenSkip;
  } else {
    throw error("sweep: unknown --fault-policy " + policy);
  }
  config.max_retries = static_cast<std::size_t>(flags.get_int("max-retries"));
  config.cell_time_limit = flags.get_double("cell-time-limit");
  config.checkpoint_path = flags.get_string("checkpoint");
  config.checkpoint_every =
      static_cast<std::size_t>(flags.get_int("checkpoint-every"));
  config.resume_from = flags.get_string("resume");
  config.deadline = flags.get_double("deadline");

  const auto num_links = static_cast<std::size_t>(flags.get_int("links"));
  const double beta = flags.get_double("beta");
  const double q = flags.get_double("q");
  require(q >= 0.0 && q <= 1.0, "sweep: --q must be in [0,1]");

  const sim::InstanceFactory factory = [num_links](util::RngStream& rng) {
    model::RandomPlaneParams params;
    params.num_links = num_links;
    auto links = model::random_plane_links(params, rng);
    return model::Network(std::move(links),
                          model::PowerAssignment::uniform(2.0), 2.2, units::Power(4e-7));
  };
  sim::TrialFunction trial = [beta, q](const model::Network& net,
                                       util::RngStream& rng) {
    model::LinkSet active;
    for (model::LinkId i = 0; i < net.size(); ++i) {
      if (rng.bernoulli(q)) active.push_back(i);
    }
    const auto wins = static_cast<double>(
        model::count_successes_rayleigh(net, active, units::Threshold(beta), rng));
    return std::vector<double>{
        wins, net.size() > 0 ? wins / static_cast<double>(net.size()) : 0.0};
  };

  // Optional deterministic sabotage, for demonstrating the fault policies.
  // Sites naming a trial wrap the trial function; 'f' sites wrap the factory.
  std::vector<raysched::testing::FaultSite> sites = raysched::testing::
      parse_fault_sites(flags.get_string("inject-throw"),
                        raysched::testing::FaultAction::Throw);
  const auto nan_sites = raysched::testing::parse_fault_sites(
      flags.get_string("inject-nan"), raysched::testing::FaultAction::ReturnNan);
  sites.insert(sites.end(), nan_sites.begin(), nan_sites.end());
  std::vector<raysched::testing::FaultSite> trial_sites, factory_sites;
  for (const auto& site : sites) {
    (site.trial_idx == sim::kNoTrial ? factory_sites : trial_sites)
        .push_back(site);
  }
  sim::InstanceFactory wrapped_factory = factory;
  if (!trial_sites.empty()) {
    trial = raysched::testing::inject_faults(std::move(trial), trial_sites);
  }
  if (!factory_sites.empty()) {
    wrapped_factory =
        raysched::testing::inject_factory_faults(factory, factory_sites);
  }

  const auto result = sim::run_experiment(
      config, {"successes", "success_rate"}, wrapped_factory, trial);

  util::Table stats({"metric", "cells", "mean", "ci95", "min", "max"});
  for (std::size_t k = 0; k < result.num_metrics(); ++k) {
    const sim::Accumulator& acc = result.per_trial[k];
    if (acc.count() == 0) {
      stats.add_row({result.metric_names[k], static_cast<long long>(0),
                     std::string("-"), std::string("-"), std::string("-"),
                     std::string("-")});
      continue;
    }
    stats.add_row({result.metric_names[k],
                   static_cast<long long>(acc.count()), acc.mean(),
                   acc.ci95_halfwidth(), acc.min(), acc.max()});
  }
  stats.print_text(std::cout);

  std::cout << "networks: " << result.networks_completed << "/"
            << config.num_networks << " completed";
  if (result.networks_resumed > 0) {
    std::cout << " (" << result.networks_resumed << " resumed)";
  }
  std::cout << "; cells: " << result.cells_completed << " ok, "
            << result.cells_skipped << " skipped; retries: "
            << result.retries_used << "\n";

  if (!result.failures.empty()) {
    std::cout << "\nfailure report (" << result.failures.size()
              << " contained fault"
              << (result.failures.size() == 1 ? "" : "s") << "):\n";
    sim::failure_report(result.failures).print_text(std::cout);
  }
  if (result.interrupted) {
    std::cout << "sweep interrupted before completion";
    if (!config.checkpoint_path.empty()) {
      std::cout << " — resume with --resume=" << config.checkpoint_path;
    }
    std::cout << "\n";
    return kExitSweepInterrupted;
  }
  return result.failures.empty() ? 0 : kExitSweepHadFailures;
}

void print_usage() {
  std::cout
      << "usage: raysched_cli <command> [flags]\n"
         "commands: generate, inspect, schedule, latency, simulate, sweep\n"
         "run 'raysched_cli <command> --help' for per-command flags\n"
         "exit codes: 0 ok; 1 error; 3 sweep had contained failures; "
         "4 sweep interrupted\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 1;
  }
  const std::string command = argv[1];
  try {
    if (command == "generate") return cmd_generate(argc - 1, argv + 1);
    if (command == "inspect") return cmd_inspect(argc - 1, argv + 1);
    if (command == "schedule") return cmd_schedule(argc - 1, argv + 1);
    if (command == "latency") return cmd_latency(argc - 1, argv + 1);
    if (command == "simulate") return cmd_simulate(argc - 1, argv + 1);
    if (command == "sweep") return cmd_sweep(argc - 1, argv + 1);
    if (command == "--help" || command == "-h") {
      print_usage();
      return 0;
    }
    std::cerr << "unknown command '" << command << "'\n";
    print_usage();
    return 1;
  } catch (const error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
