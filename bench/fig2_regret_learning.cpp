// Figure 2 (Section 7): successful transmissions per round of the no-regret
// (Randomized Weighted Majority) dynamics, under the Rayleigh-fading and
// non-fading models, against the non-fading optimum.
//
// Paper setup: networks of 200 links, link lengths in (0, 100], beta = 0.5,
// alpha = 2.1, nu = 0, uniform power p = 2; RWM with losses
// {send&fail: 1, stay: 0.5, else 0} and eta = sqrt(0.5) halving at powers of
// two. The paper plots one run; we average a few networks and print the
// per-round series plus the OPT reference.
#include <iostream>
#include <memory>

#include "raysched.hpp"

using namespace raysched;

int main(int argc, char** argv) {
  util::Flags flags;
  flags.add_int("networks", 5, "number of random networks to average");
  flags.add_int("links", 200, "links per network");
  flags.add_int("rounds", 120, "learning rounds");
  flags.add_double("beta", 0.5, "SINR threshold");
  flags.add_double("alpha", 2.1, "path-loss exponent");
  flags.add_double("noise", 0.0, "ambient noise nu");
  flags.add_double("power", 2.0, "uniform power");
  flags.add_double("min-length", 1.0, "minimal link length (paper: (0,100])");
  flags.add_double("max-length", 100.0, "maximal link length");
  flags.add_int("seed", 2, "master seed");
  flags.add_string("csv", "", "optional CSV output path");
  flags.add_string("learner", "rwm",
                   "rwm (paper's Section-7 setup) | exp3 (bandit) | "
                   "regret-matching");
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
  params.min_length = flags.get_double("min-length");
  params.max_length = flags.get_double("max-length");

  sim::SeriesAccumulator nonfading_series(rounds), rayleigh_series(rounds);
  sim::Accumulator opt_acc;

  for (std::size_t net_idx = 0; net_idx < networks; ++net_idx) {
    util::RngStream net_rng = master.derive(net_idx, 0xA);
    auto links = model::random_plane_links(params, net_rng);
    const model::Network net(
        std::move(links),
        model::PowerAssignment::uniform(flags.get_double("power")),
        flags.get_double("alpha"),
        units::Power(flags.get_double("noise")));

    algorithms::LocalSearchOptions ls;
    ls.restarts = 2;
    ls.seed = net_idx + 7;
    ls.use_swap_moves = false;  // n=200 is too dense for swap moves
    const auto opt =
        algorithms::local_search_max_feasible_set(net, beta, ls);
    opt_acc.add(static_cast<double>(opt.selected.size()));

    for (auto model_kind :
         {core::Propagation::NonFading, core::Propagation::Rayleigh}) {
      learning::GameOptions opts;
      opts.rounds = rounds;
      opts.beta = beta;
      opts.model = model_kind;
      util::RngStream game_rng = master.derive(net_idx, 0xB)
                                    .derive(static_cast<std::uint64_t>(
                                        model_kind == core::Propagation::
                                                          Rayleigh));
      const std::string& learner = flags.get_string("learner");
      require(learner == "rwm" || learner == "exp3" ||
                  learner == "regret-matching",
              "fig2: unknown --learner " + learner);
      const auto result = learning::run_capacity_game(
          net, opts,
          [&]() -> std::unique_ptr<learning::Learner> {
            if (learner == "exp3") {
              return std::make_unique<learning::Exp3Learner>();
            }
            if (learner == "regret-matching") {
              return std::make_unique<learning::RegretMatchingLearner>();
            }
            return std::make_unique<learning::RwmLearner>();
          },
          game_rng);
      auto& series = model_kind == core::Propagation::Rayleigh
                         ? rayleigh_series
                         : nonfading_series;
      series.add_row(result.successes_per_round);
    }
  }

  std::cout << "# Figure 2: successful transmissions per round under "
               "no-regret learning\n"
            << "# " << networks << " networks x " << flags.get_int("links")
            << " links, beta=" << beta << " alpha=" << flags.get_double("alpha")
            << " nu=" << flags.get_double("noise")
            << "; non-fading OPT (LS lower bound) mean = " << opt_acc.mean()
            << "\n";
  util::Table table({"round", "nonfading", "rayleigh", "opt_ref"});
  for (std::size_t t = 0; t < rounds; ++t) {
    table.add_row({static_cast<long long>(t), nonfading_series.at(t).mean(),
                   rayleigh_series.at(t).mean(), opt_acc.mean()});
  }
  table.print_text(std::cout);
  if (!flags.get_string("csv").empty()) table.write_csv(flags.get_string("csv"));

  // Headline: late-run averages (convergence level) per model.
  double late_nf = 0.0, late_rl = 0.0;
  const std::size_t tail = rounds / 4;
  for (std::size_t t = rounds - tail; t < rounds; ++t) {
    late_nf += nonfading_series.at(t).mean();
    late_rl += rayleigh_series.at(t).mean();
  }
  std::cout << "\nlate-run mean successes: non-fading=" << late_nf / tail
            << " rayleigh=" << late_rl / tail
            << " (paper: Rayleigh slightly below non-fading, both near OPT)\n";
  return 0;
}
