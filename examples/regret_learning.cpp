// Example: distributed capacity maximization via no-regret learning
// (Section 6/7): every link runs Randomized Weighted Majority; successes
// converge toward a constant fraction of the non-fading optimum in both
// models.
//
//   $ ./regret_learning --links=50 --rounds=200
#include <iostream>
#include <memory>

#include "raysched.hpp"

using namespace raysched;

int main(int argc, char** argv) {
  util::Flags flags;
  flags.add_int("links", 50, "number of links");
  flags.add_int("rounds", 200, "learning rounds");
  flags.add_double("beta", 0.5, "SINR threshold (paper Figure 2 uses 0.5)");
  flags.add_int("seed", 3, "instance seed");
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
  params.min_length = 1.0;
  params.max_length = 100.0;
  auto links = model::random_plane_links(params, rng);
  const model::Network net(std::move(links),
                           model::PowerAssignment::uniform(2.0), 2.1, units::Power(0.0));
  const double beta = flags.get_double("beta");

  algorithms::LocalSearchOptions ls;
  ls.restarts = 2;
  ls.use_swap_moves = net.size() <= 100;
  const auto opt = algorithms::local_search_max_feasible_set(net, beta, ls);
  std::cout << "non-fading OPT (local-search lower bound): "
            << opt.selected.size() << " links\n\n";

  const auto rounds = static_cast<std::size_t>(flags.get_int("rounds"));
  for (auto model_kind :
       {core::Propagation::NonFading, core::Propagation::Rayleigh}) {
    learning::GameOptions opts;
    opts.rounds = rounds;
    opts.beta = beta;
    opts.model = model_kind;
    util::RngStream game_rng =
        rng.derive(static_cast<std::uint64_t>(model_kind));
    const auto result = learning::run_capacity_game(
        net, opts, [] { return std::make_unique<learning::RwmLearner>(); },
        game_rng);

    std::cout << (model_kind == core::Propagation::Rayleigh ? "RAYLEIGH"
                                                              : "NON-FADING")
              << " model\n";
    // Print the per-round trace in blocks of 10 (mean per block).
    util::Table table({"rounds", "mean_successes", "mean_transmitters"});
    const std::size_t block = std::max<std::size_t>(1, rounds / 10);
    for (std::size_t start = 0; start < rounds; start += block) {
      const std::size_t end = std::min(rounds, start + block);
      double s = 0.0, f = 0.0;
      for (std::size_t t = start; t < end; ++t) {
        s += result.successes_per_round[t];
        f += result.transmitters_per_round[t];
      }
      const double d = static_cast<double>(end - start);
      table.add_row({std::string(std::to_string(start) + ".." +
                                 std::to_string(end - 1)),
                     s / d, f / d});
    }
    table.print_text(std::cout);
    double max_regret = 0.0;
    for (double r : result.regret_per_link) {
      max_regret = std::max(max_regret, r / static_cast<double>(rounds));
    }
    std::cout << "average successes/round: " << result.average_successes
              << " | max per-round regret: " << max_regret << "\n\n";
  }
  std::cout << "expected: both models converge near the non-fading OPT, the "
               "Rayleigh curve staying slightly below and noisier "
               "(Figure 2).\n";
  return 0;
}
