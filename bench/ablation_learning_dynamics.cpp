// Ablation A8: learning dynamics compared — full-information RWM vs bandit
// EXP3 vs best-response (Nash) dynamics, in both propagation models.
//
// RWM consumes counterfactual feedback (would my send have succeeded?);
// EXP3 sees only its own outcome — the realistic distributed setting;
// regret matching (Hart-Mas-Colell) is a full-information family with a
// different update geometry; best response is the game-theoretic limit
// point. Section 6's theory covers any no-regret sequence, so every
// learner should approach a constant fraction of OPT, with EXP3 converging
// more slowly.
#include <iostream>
#include <memory>

#include "raysched.hpp"

using namespace raysched;

int main(int argc, char** argv) {
  util::Flags flags;
  flags.add_int("networks", 4, "number of random networks");
  flags.add_int("links", 50, "links per network");
  flags.add_int("rounds", 1500, "learning rounds");
  flags.add_double("beta", 2.5, "SINR threshold");
  flags.add_int("seed", 10, "master seed");
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

  std::cout << "# Ablation A8: RWM (full info) vs EXP3 (bandit) vs "
               "best-response dynamics; T=" << rounds << "\n";
  util::Table table({"model", "dynamics", "late_successes", "max_avg_regret",
                     "opt_lb"});

  for (auto model_kind :
       {core::Propagation::NonFading, core::Propagation::Rayleigh}) {
    const std::string model_name =
        model_kind == core::Propagation::Rayleigh ? "rayleigh" : "non-fading";
    sim::Accumulator rwm_late, exp3_late, rm_late, br_final, rwm_regret,
        exp3_regret, rm_regret, opt_acc;
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

      auto late_mean = [&](const learning::GameResult& r) {
        const std::size_t tail = rounds / 4;
        double s = 0.0;
        for (std::size_t t = rounds - tail; t < rounds; ++t) {
          s += r.successes_per_round[t];
        }
        return s / static_cast<double>(tail);
      };
      auto max_regret = [&](const learning::GameResult& r) {
        double m = 0.0;
        for (double v : r.regret_per_link) {
          m = std::max(m, v / static_cast<double>(rounds));
        }
        return m;
      };

      util::RngStream r1 = master.derive(net_idx, 0xB);
      const auto rwm = learning::run_capacity_game(
          net, opts, [] { return std::make_unique<learning::RwmLearner>(); },
          r1);
      rwm_late.add(late_mean(rwm));
      rwm_regret.add(max_regret(rwm));

      util::RngStream r2 = master.derive(net_idx, 0xC);
      const auto exp3 = learning::run_capacity_game(
          net, opts, [] { return std::make_unique<learning::Exp3Learner>(); },
          r2);
      exp3_late.add(late_mean(exp3));
      exp3_regret.add(max_regret(exp3));

      util::RngStream r4 = master.derive(net_idx, 0xD);
      const auto rm = learning::run_capacity_game(
          net, opts,
          [] { return std::make_unique<learning::RegretMatchingLearner>(); },
          r4);
      rm_late.add(late_mean(rm));
      rm_regret.add(max_regret(rm));

      learning::BestResponseOptions br;
      br.model = model_kind;
      br.beta = beta;
      br_final.add(learning::run_best_response(net, br).final_successes);
    }
    table.add_row({model_name, std::string("RWM (full info)"),
                   rwm_late.mean(), rwm_regret.mean(), opt_acc.mean()});
    table.add_row({model_name, std::string("EXP3 (bandit)"),
                   exp3_late.mean(), exp3_regret.mean(), opt_acc.mean()});
    table.add_row({model_name, std::string("regret matching"),
                   rm_late.mean(), rm_regret.mean(), opt_acc.mean()});
    table.add_row({model_name, std::string("best response"), br_final.mean(),
                   0.0, opt_acc.mean()});
  }
  table.print_text(std::cout);
  std::cout << "\nexpected: RWM ~ best response ~ a constant fraction of "
               "opt_lb; EXP3 below but catching up (bandit feedback); "
               "Rayleigh rows below non-fading rows (Figure-2 effect).\n";
  return 0;
}
