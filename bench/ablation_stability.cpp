// Ablations A16 and A17: the max-weight and AHM stability frontiers
// through the serving loop.
//
// Ásgeirsson–Halldórsson–Mitra ("Wireless Network Stability in the SINR
// Model") keep queues stable with no weight feedback at all: each link
// transmits with an adaptive probability nudged up on success and down on
// failure. This harness drives both policies through serve::Service — the
// same loop, queues, and admission control — sweeping a uniform per-link
// arrival rate under the non-fading and Rayleigh propagation models, and
// reports where each policy's backlog stops growing. Max-weight buys its
// wider frontier with a centralized recompute; AHM's frontier sits lower
// but needs only per-link success feedback.
//
// A16 is the max-weight row at the fastest cadence the service allows (a
// recompute submitted every slot and adopted the next): Lemma 2 as a
// sustained-throughput statement. Every scheduled link clears beta with
// probability at least 1/e under Rayleigh fading, so that frontier should
// shift left by about the Lemma-2 service-success factor.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "raysched.hpp"
#include "util/record_io.hpp"

using namespace raysched;

namespace {

// The recompute cadences each (lambda, model) cell runs: both policies at
// the service's default cadence, then max-weight every slot (A16).
struct Cadence {
  serve::PolicyKind policy;
  std::uint64_t period;
  std::uint64_t latency;
};
const serve::ServeConfig kDefaults;
const Cadence kCadences[] = {
    {serve::PolicyKind::MaxWeight, kDefaults.recompute_period,
     kDefaults.recompute_latency},
    {serve::PolicyKind::Ahm, kDefaults.recompute_period,
     kDefaults.recompute_latency},
    {serve::PolicyKind::MaxWeight, 1, 1},
};

struct RunSummary {
  double served_per_slot = 0.0;
  double drops_per_slot = 0.0;
  serve::BacklogTrend trend;
};

RunSummary run_once(const model::Network& net, const Cadence& cadence,
                    core::Propagation prop, double rate, double beta,
                    std::uint64_t seed, std::uint64_t slots) {
  serve::ServeConfig config;
  config.master_seed = seed;
  config.beta = units::Threshold(beta);
  config.propagation = prop;
  config.policy = cadence.policy;
  config.recompute_period = cadence.period;
  config.recompute_latency = cadence.latency;
  config.traffic.model = serve::TrafficModel::Poisson;
  config.traffic.mean_rate = rate;
  serve::Service service(model::Network(net), config);
  const serve::ServeReport report = service.run(slots);
  require(report.conservation_ok, "ablation_stability: conservation broke");

  RunSummary out;
  out.served_per_slot =
      static_cast<double>(report.served) / static_cast<double>(slots);
  out.drops_per_slot =
      static_cast<double>(report.drops.total()) / static_cast<double>(slots);
  out.trend = serve::backlog_trend(report.digests);
  return out;
}

// Every comma-separated entry must be a whole positive decimal number.
std::vector<double> parse_rates(std::string_view csv) {
  std::vector<double> rates;
  for (std::size_t start = 0;;) {
    const std::size_t end = std::min(csv.find(',', start), csv.size());
    const std::string_view token = csv.substr(start, end - start);
    const std::optional<double> rate = util::parse_finite(token);
    require(rate.has_value() && *rate > 0.0,
            "ablation_stability: --rates entry '" + std::string(token) +
                "' is not a positive number");
    rates.push_back(*rate);
    if (end == csv.size()) return rates;
    start = end + 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.add_int("networks", 3, "number of random networks");
  flags.add_int("links", 24, "links per network");
  flags.add_int("slots", 2000, "served slots per run");
  flags.add_double("beta", 2.5, "SINR threshold");
  flags.add_int("seed", 23, "master seed");
  flags.add_string("rates", "0.05,0.1,0.2,0.3,0.45,0.6",
                   "comma-separated per-link arrival rates");
  std::vector<double> rates;
  try {
    flags.parse(argc, argv);
    if (!flags.help_requested()) {
      rates = parse_rates(flags.get_string("rates"));
      require(flags.get_int("slots") >= 1,
              "ablation_stability: --slots must be >= 1");
    }
  } catch (const error& e) {
    std::cerr << e.what() << "\n" << flags.usage(argv[0]);
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.usage(argv[0]);
    return 0;
  }

  const auto networks = static_cast<std::size_t>(flags.get_int("networks"));
  const auto slots = static_cast<std::uint64_t>(flags.get_int("slots"));
  const double beta = flags.get_double("beta");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const util::RngStream master(seed);
  model::RandomPlaneParams params;
  params.num_links = static_cast<std::size_t>(flags.get_int("links"));

  std::cout << "# Ablations A16/A17: max-weight and AHM stability frontiers "
               "(beta=" << beta << ", " << slots << " slots, "
            << params.num_links << " links)\n";
  util::Table table({"lambda", "model", "policy", "period", "served/slot",
                     "avg_backlog", "drops/slot", "slope", "stable_runs"});

  for (const double rate : rates) {
    for (auto prop :
         {core::Propagation::NonFading, core::Propagation::Rayleigh}) {
      for (const Cadence& cadence : kCadences) {
        sim::Accumulator served, backlog, drops, slope;
        long long stable = 0;
        for (std::size_t net_idx = 0; net_idx < networks; ++net_idx) {
          util::RngStream net_rng = master.derive(net_idx, 0xA17);
          auto links = model::random_plane_links(params, net_rng);
          const model::Network net(std::move(links),
                                   model::PowerAssignment::uniform(2.0), 2.2,
                                   units::Power(4e-7));
          // One seed per network: its non-fading and Rayleigh runs see the
          // same Poisson arrivals, so their rows differ by fading alone.
          const RunSummary r = run_once(net, cadence, prop, rate, beta,
                                        seed + 1000 * net_idx, slots);
          served.add(r.served_per_slot);
          backlog.add(r.trend.mean);
          drops.add(r.drops_per_slot);
          slope.add(r.trend.slope);
          stable += r.trend.stable ? 1 : 0;
        }
        table.add_row(
            {rate,
             std::string(prop == core::Propagation::Rayleigh ? "rayleigh"
                                                             : "non-fading"),
             std::string(serve::to_string(cadence.policy)),
             static_cast<long long>(cadence.period), served.mean(),
             backlog.mean(), drops.mean(), slope.mean(), stable});
      }
    }
  }
  table.print_text(std::cout);
  std::cout << "\nexpected: at small lambda every row serves the offered "
               "load (lambda * n) and stays stable. Max-weight holds the "
               "wider frontier — it schedules a feasibility-certified "
               "max-weight set each period — while AHM, with only per-link "
               "success feedback, destabilizes at a lower lambda; under "
               "Rayleigh both frontiers shift left by roughly the Lemma-2 "
               "service-success factor. Max-weight recomputed every slot "
               "(period 1, A16) keeps the smallest backlogs; past a "
               "frontier the backlog enters the service's overload state, "
               "which sheds load and narrows the schedule, so served/slot "
               "there falls.\n";
  return 0;
}
