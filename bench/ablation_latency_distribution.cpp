// Ablation A12: the *distribution* of latency, not just its mean.
//
// The paper's latency objective is the expected number of slots until every
// link succeeded once. Means hide tail behavior, and the Rayleigh model's
// per-slot randomness changes the tail shape: non-fading ALOHA latency is
// driven purely by the transmit-set lottery, while Rayleigh adds fading
// retries on top. We report quantiles (p10/p50/p90/p99) of ALOHA completion
// time across many runs, per model, plus the per-link first-success-slot
// distribution of a single run family.
#include <iostream>

#include "raysched.hpp"

using namespace raysched;

int main(int argc, char** argv) {
  util::Flags flags;
  flags.add_int("networks", 6, "number of random networks");
  flags.add_int("links", 30, "links per network");
  flags.add_int("runs", 20, "ALOHA runs per (network, model)");
  flags.add_double("beta", 2.5, "SINR threshold");
  flags.add_int("seed", 13, "master seed");
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

  const auto networks = static_cast<std::size_t>(flags.get_int("networks"));
  const auto runs = static_cast<std::size_t>(flags.get_int("runs"));
  const double beta = flags.get_double("beta");
  const util::RngStream master(static_cast<std::uint64_t>(flags.get_int("seed")));
  model::RandomPlaneParams params;
  params.num_links = static_cast<std::size_t>(flags.get_int("links"));

  std::cout << "# Ablation A12: ALOHA completion-time distribution, "
            << networks << " networks x " << runs << " runs\n";
  util::Table table({"model", "p10", "p50", "p90", "p99", "mean"});

  sim::SampleSet first_success_nf, first_success_rl;
  for (auto prop : {core::Propagation::NonFading,
                    core::Propagation::Rayleigh}) {
    sim::SampleSet completion;
    for (std::size_t net_idx = 0; net_idx < networks; ++net_idx) {
      util::RngStream net_rng = master.derive(net_idx, 0xA);
      auto links = model::random_plane_links(params, net_rng);
      const model::Network net(std::move(links),
                               model::PowerAssignment::uniform(2.0), 2.2,
                               units::Power(4e-7));
      for (std::size_t run = 0; run < runs; ++run) {
        util::RngStream rng = master.derive(net_idx, 0xB)
                                 .derive(static_cast<std::uint64_t>(prop), run);
        const auto result =
            algorithms::aloha_schedule(net, beta, prop, rng, {}, 300000);
        if (!result.completed) continue;
        completion.add(static_cast<double>(result.slots));
        auto& fs = prop == core::Propagation::Rayleigh
                       ? first_success_rl
                       : first_success_nf;
        for (std::size_t slot : result.first_success_slot) {
          fs.add(static_cast<double>(slot));
        }
      }
    }
    table.add_row({std::string(prop == core::Propagation::Rayleigh
                                   ? "rayleigh(4x)"
                                   : "non-fading"),
                   completion.quantile(0.10), completion.median(),
                   completion.quantile(0.90), completion.quantile(0.99),
                   completion.mean()});
  }
  table.print_text(std::cout);

  std::cout << "\n# per-link first-success slot (pooled over links/runs)\n";
  util::Table per_link({"model", "p50", "p90", "max"});
  per_link.add_row({std::string("non-fading"), first_success_nf.median(),
                    first_success_nf.quantile(0.90), first_success_nf.max()});
  per_link.add_row({std::string("rayleigh(4x)"), first_success_rl.median(),
                    first_success_rl.quantile(0.90), first_success_rl.max()});
  per_link.print_text(std::cout);
  std::cout << "\nexpected: Rayleigh quantiles shifted up by roughly the 4x "
               "repetition factor, with a relatively heavier p99 (fading "
               "retries stack on the transmit lottery).\n";
  return 0;
}
