// Example: latency minimization — serve every link at least once.
//
// Runs the repeated-capacity scheduler and the ALOHA protocol in both
// propagation models (Rayleigh uses the Section-4 4x repetition), plus a
// multi-hop demo over a chain.
//
//   $ ./latency_scheduling --links=40 --beta=2.5
#include <iostream>

#include "raysched.hpp"

using namespace raysched;

int main(int argc, char** argv) {
  util::Flags flags;
  flags.add_int("links", 40, "number of links");
  flags.add_double("beta", 2.5, "SINR threshold");
  flags.add_int("seed", 11, "instance seed");
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

  util::RngStream rng(static_cast<std::uint64_t>(flags.get_int("seed")));
  model::RandomPlaneParams params;
  params.num_links = static_cast<std::size_t>(flags.get_int("links"));
  auto links = model::random_plane_links(params, rng);
  const model::Network net(std::move(links),
                           model::PowerAssignment::uniform(2.0), 2.2, units::Power(4e-7));
  const double beta = flags.get_double("beta");

  util::Table table({"scheduler", "model", "slots", "completed"});
  for (auto prop : {core::Propagation::NonFading,
                    core::Propagation::Rayleigh}) {
    const std::string model_name =
        prop == core::Propagation::Rayleigh ? "rayleigh" : "non-fading";
    {
      util::RngStream r = rng.derive(1, static_cast<std::uint64_t>(prop));
      const auto result =
          algorithms::repeated_capacity_schedule(net, beta, prop, r);
      table.add_row({std::string("repeated-capacity"), model_name,
                     static_cast<long long>(result.slots),
                     std::string(result.completed ? "yes" : "no")});
    }
    {
      util::RngStream r = rng.derive(2, static_cast<std::uint64_t>(prop));
      const auto result = algorithms::aloha_schedule(net, beta, prop, r);
      table.add_row({std::string("aloha (fixed q=1/4)"), model_name,
                     static_cast<long long>(result.slots),
                     std::string(result.completed ? "yes" : "no")});
    }
    {
      util::RngStream r = rng.derive(3, static_cast<std::uint64_t>(prop));
      algorithms::AlohaOptions opts;
      opts.adaptive = true;
      const auto result = algorithms::aloha_schedule(net, beta, prop, r, opts);
      table.add_row({std::string("aloha (adaptive)"), model_name,
                     static_cast<long long>(result.slots),
                     std::string(result.completed ? "yes" : "no")});
    }
  }
  std::cout << "single-hop latency on " << flags.get_int("links")
            << " links, beta=" << beta << "\n\n";
  table.print_text(std::cout);

  // Multi-hop: route 4 packets over a shared 6-hop chain.
  auto chain = model::chain_links(6, 30.0);
  const model::Network chain_net(std::move(chain),
                                 model::PowerAssignment::uniform(2.0), 2.2,
                                 units::Power(1e-7));
  std::vector<algorithms::MultihopRequest> requests = {
      {{0, 1, 2, 3, 4, 5}}, {{2, 3, 4, 5}}, {{0, 1, 2}}, {{4, 5}}};
  util::RngStream r = rng.derive(4);
  const auto mh = algorithms::schedule_multihop(
      chain_net, requests, 2.0, core::Propagation::Rayleigh, r);
  std::cout << "\nmulti-hop (6-hop chain, 4 requests, Rayleigh): "
            << mh.slots << " slots, completed=" << (mh.completed ? "yes" : "no")
            << "\n";
  for (std::size_t q = 0; q < requests.size(); ++q) {
    std::cout << "  request " << q << " (" << requests[q].hops.size()
              << " hops) done at slot " << mh.completion_slot[q] << "\n";
  }
  return 0;
}
