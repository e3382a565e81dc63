// Example: end-to-end multi-hop routing and scheduling (Section 4's
// multi-hop transformation on top of the relay-routing substrate).
//
// Relays are placed on a grid; end-to-end requests are routed along
// minimum-hop paths on the unit-disk connectivity graph; the induced link
// network is scheduled hop by hop in both propagation models.
//
//   $ ./multihop_routing --rows=4 --cols=4 --packets=6
#include <iostream>

#include "raysched.hpp"

using namespace raysched;

int main(int argc, char** argv) {
  util::Flags flags;
  flags.add_int("rows", 4, "relay grid rows");
  flags.add_int("cols", 4, "relay grid columns");
  flags.add_int("packets", 6, "number of end-to-end requests");
  flags.add_double("spacing", 60.0, "relay grid spacing");
  flags.add_double("range", 65.0, "communication range (> spacing connects)");
  flags.add_double("beta", 1.5, "SINR threshold");
  flags.add_int("seed", 13, "seed for request endpoints");
  try {
    flags.parse(argc, argv);
  } catch (const error& e) {
    std::cerr << e.what() << "\n" << flags.usage(argv[0]);
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.usage(argv[0]);
    return 0;
  }

  // Relay positions on a rows x cols grid.
  const auto rows = static_cast<std::size_t>(flags.get_int("rows"));
  const auto cols = static_cast<std::size_t>(flags.get_int("cols"));
  const double spacing = flags.get_double("spacing");
  std::vector<model::Point> relays;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      relays.push_back(model::Point{static_cast<double>(c) * spacing,
                                    static_cast<double>(r) * spacing});
    }
  }

  // Random distinct end-to-end requests.
  util::RngStream rng(static_cast<std::uint64_t>(flags.get_int("seed")));
  std::vector<algorithms::RouteRequest> requests;
  const auto packets = static_cast<std::size_t>(flags.get_int("packets"));
  while (requests.size() < packets) {
    const std::size_t a = rng.uniform_index(relays.size());
    const std::size_t b = rng.uniform_index(relays.size());
    if (a != b) requests.push_back({a, b});
  }

  const auto routed = algorithms::route_requests(
      relays, flags.get_double("range"), requests,
      model::PowerAssignment::uniform(2.0), /*alpha=*/2.5, /*noise=*/1e-6);

  std::cout << "routed " << packets << " requests over " << relays.size()
            << " relays -> " << routed.network.size()
            << " distinct directed links\n";
  for (std::size_t q = 0; q < requests.size(); ++q) {
    std::cout << "  request " << q << ": relay " << requests[q].source
              << " -> " << requests[q].destination << " in "
              << routed.requests[q].hops.size() << " hops\n";
  }

  const double beta = flags.get_double("beta");
  util::Table table({"model", "slots", "completed"});
  for (auto prop : {core::Propagation::NonFading,
                    core::Propagation::Rayleigh}) {
    util::RngStream sched_rng = rng.derive(static_cast<std::uint64_t>(prop));
    const auto result = algorithms::schedule_multihop(
        routed.network, routed.requests, beta, prop, sched_rng);
    table.add_row({std::string(prop == core::Propagation::Rayleigh
                                   ? "rayleigh (4x steps)"
                                   : "non-fading"),
                   static_cast<long long>(result.slots),
                   std::string(result.completed ? "yes" : "no")});
  }
  std::cout << "\n";
  table.print_text(std::cout);
  std::cout << "\nper Section 4, the Rayleigh schedule is a concatenation of "
               "transformed single-hop schedules: only a constant factor "
               "longer.\n";
  return 0;
}
