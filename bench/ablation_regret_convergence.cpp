// Ablation A6: no-regret convergence diagnostics (Section 6).
//
// Tracks, per block of rounds: average successes X-hat, average
// transmitters F-hat, the Lemma 5 inequality X <= F <= 2X + eps*n, and the
// maximum per-link average regret — in both propagation models.
#include <algorithm>
#include <iostream>
#include <memory>

#include "raysched.hpp"

using namespace raysched;

int main(int argc, char** argv) {
  util::Flags flags;
  flags.add_int("networks", 4, "number of random networks");
  flags.add_int("links", 60, "links per network");
  flags.add_int("rounds", 1024, "learning rounds");
  flags.add_double("beta", 2.5, "SINR threshold");
  flags.add_int("seed", 8, "master seed");
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
  const auto rounds = static_cast<std::size_t>(flags.get_int("rounds"));
  const double beta = flags.get_double("beta");
  const util::RngStream master(static_cast<std::uint64_t>(flags.get_int("seed")));
  model::RandomPlaneParams params;
  params.num_links = static_cast<std::size_t>(flags.get_int("links"));

  std::cout << "# Ablation A6: regret-learning convergence, n="
            << flags.get_int("links") << ", T=" << rounds << "\n";
  util::Table table({"model", "X_hat", "F_hat", "F<=2X+2eps*n", "max_avg_regret",
                     "opt_lb"});

  for (auto model_kind :
       {core::Propagation::NonFading, core::Propagation::Rayleigh}) {
    sim::Accumulator x_acc, f_acc, regret_acc, opt_acc;
    bool lemma5_ok = true;
    for (std::size_t net_idx = 0; net_idx < networks; ++net_idx) {
      util::RngStream net_rng = master.derive(net_idx, 0xA);
      auto links = model::random_plane_links(params, net_rng);
      const model::Network net(std::move(links),
                               model::PowerAssignment::uniform(2.0), 2.2,
                               units::Power(4e-7));

      algorithms::LocalSearchOptions ls;
      ls.restarts = 2;
      ls.seed = net_idx;
      opt_acc.add(static_cast<double>(
          algorithms::local_search_max_feasible_set(net, beta, ls)
              .selected.size()));

      learning::GameOptions opts;
      opts.rounds = rounds;
      opts.beta = beta;
      opts.model = model_kind;
      util::RngStream game_rng = master.derive(net_idx, 0xB);
      const auto result = learning::run_capacity_game(
          net, opts, [] { return std::make_unique<learning::RwmLearner>(); },
          game_rng);

      const double X = result.average_expected_successes;
      const double F = result.average_transmitters;
      double eps = 0.0;
      for (double r : result.regret_per_link) {
        eps = std::max(eps, r / static_cast<double>(rounds));
      }
      x_acc.add(X);
      f_acc.add(F);
      regret_acc.add(eps);
      // Lemma 5 with reward-scale eps = 2 * loss-scale eps.
      if (F > 2.0 * X + 2.0 * std::max(eps, 0.0) * net.size() + 0.5) {
        lemma5_ok = false;
      }
    }
    table.add_row(
        {std::string(model_kind == core::Propagation::Rayleigh
                         ? "rayleigh"
                         : "non-fading"),
         x_acc.mean(), f_acc.mean(), std::string(lemma5_ok ? "yes" : "NO"),
         regret_acc.mean(), opt_acc.mean()});
  }
  table.print_text(std::cout);
  std::cout << "\nexpected: X_hat a constant fraction of opt_lb; inequality "
               "holds; regret shrinks with T.\n";
  return 0;
}
