// Ablation A4: the Section-4 latency transformation.
//
// (a) Analytic: boosted success probability 1-(1-p/e)^4 vs p across
//     p in [0, 1/2] — the domination claim.
// (b) Empirical: ALOHA latency in non-fading vs Rayleigh (with the 4x
//     repetition) on Figure-1-style instances — the constant-factor claim.
#include <algorithm>
#include <iostream>

#include "raysched.hpp"

using namespace raysched;

int main(int argc, char** argv) {
  util::Flags flags;
  flags.add_int("networks", 10, "number of random networks");
  flags.add_int("links", 50, "links per network");
  flags.add_double("beta", 2.5, "SINR threshold");
  flags.add_int("seed", 6, "master seed");
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

  std::cout << "# Ablation A4a: boosted success probability "
               "1-(1-p/e)^4 vs p (must dominate for p <= 1/2)\n";
  util::Table analytic({"p", "boosted", "boost/p"});
  for (int k = 1; k <= 10; ++k) {
    const double p = 0.05 * k;
    const double b = core::boosted_success_probability(units::Probability(p)).value();
    analytic.add_row({p, b, b / p});
  }
  analytic.print_text(std::cout);

  const auto networks = static_cast<std::size_t>(flags.get_int("networks"));
  const double beta = flags.get_double("beta");
  const util::RngStream master(static_cast<std::uint64_t>(flags.get_int("seed")));
  model::RandomPlaneParams params;
  params.num_links = static_cast<std::size_t>(flags.get_int("links"));

  std::cout << "\n# Ablation A4b: ALOHA latency, non-fading vs Rayleigh "
               "(4x repetition)\n";
  sim::Accumulator nf_slots, rl_slots, ratio;
  sim::Accumulator rc_nf_slots, rc_rl_slots;
  for (std::size_t net_idx = 0; net_idx < networks; ++net_idx) {
    util::RngStream net_rng = master.derive(net_idx, 0xA);
    auto links = model::random_plane_links(params, net_rng);
    const model::Network net(std::move(links),
                             model::PowerAssignment::uniform(2.0), 2.2, units::Power(4e-7));

    util::RngStream r1 = master.derive(net_idx, 0xB);
    util::RngStream r2 = master.derive(net_idx, 0xC);
    const auto nf = algorithms::aloha_schedule(
        net, beta, core::Propagation::NonFading, r1);
    const auto rl = algorithms::aloha_schedule(
        net, beta, core::Propagation::Rayleigh, r2);
    if (nf.completed && rl.completed) {
      nf_slots.add(static_cast<double>(nf.slots));
      rl_slots.add(static_cast<double>(rl.slots));
      ratio.add(static_cast<double>(rl.slots) /
                static_cast<double>(nf.slots));
    }

    util::RngStream r3 = master.derive(net_idx, 0xD);
    util::RngStream r4 = master.derive(net_idx, 0xE);
    const auto rc_nf = algorithms::repeated_capacity_schedule(
        net, beta, core::Propagation::NonFading, r3);
    const auto rc_rl = algorithms::repeated_capacity_schedule(
        net, beta, core::Propagation::Rayleigh, r4);
    if (rc_nf.completed) rc_nf_slots.add(static_cast<double>(rc_nf.slots));
    if (rc_rl.completed) rc_rl_slots.add(static_cast<double>(rc_rl.slots));
  }

  util::Table table({"scheduler", "model", "mean_slots", "stddev"});
  table.add_row({std::string("aloha"), std::string("non-fading"),
                 nf_slots.mean(), nf_slots.stddev()});
  table.add_row({std::string("aloha"), std::string("rayleigh(4x)"),
                 rl_slots.mean(), rl_slots.stddev()});
  table.add_row({std::string("repeated-capacity"), std::string("non-fading"),
                 rc_nf_slots.mean(), rc_nf_slots.stddev()});
  table.add_row({std::string("repeated-capacity"), std::string("rayleigh"),
                 rc_rl_slots.mean(), rc_rl_slots.stddev()});
  table.print_text(std::cout);

  // Ground truth at small n: the exact Markov-chain expectation of the
  // ALOHA process (core/latency_exact) next to simulated means.
  std::cout << "\n# exact vs simulated ALOHA latency (n=6 subsample)\n";
  util::Table exact_table({"model", "exact_E[slots]", "simulated_mean"});
  for (auto prop : {core::Propagation::NonFading,
                    core::Propagation::Rayleigh}) {
    sim::Accumulator sim_acc, exact_acc;
    for (std::size_t net_idx = 0; net_idx < std::min<std::size_t>(networks, 4);
         ++net_idx) {
      util::RngStream net_rng = master.derive(net_idx, 0xF);
      model::RandomPlaneParams small = params;
      small.num_links = 6;
      auto links = model::random_plane_links(small, net_rng);
      const model::Network net(std::move(links),
                               model::PowerAssignment::uniform(2.0), 2.2,
                               units::Power(4e-7));
      exact_acc.add(core::exact_aloha_expected_slots(net, units::Probability(0.25), units::Threshold(beta), prop));
      for (std::size_t run = 0; run < 30; ++run) {
        util::RngStream rng = master.derive(net_idx, 0x10).derive(
            static_cast<std::uint64_t>(prop), run);
        const auto r = algorithms::aloha_schedule(net, beta, prop, rng);
        if (r.completed) sim_acc.add(static_cast<double>(r.slots));
      }
    }
    exact_table.add_row({std::string(prop == core::Propagation::Rayleigh
                                         ? "rayleigh(4x)"
                                         : "non-fading"),
                         exact_acc.mean(), sim_acc.mean()});
  }
  exact_table.print_text(std::cout);
  std::cout << "\nmean rayleigh/non-fading ALOHA latency ratio: "
            << ratio.mean()
            << " (theory: bounded by a constant; 4x repetition makes ~4-8 "
               "typical)\n";
  return 0;
}
