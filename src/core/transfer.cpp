#include "core/transfer.hpp"

#include <cmath>

#include "model/rayleigh.hpp"
#include "model/sinr.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"

namespace raysched::core {

using model::LinkId;
using model::LinkSet;
using model::Network;

double expected_rayleigh_utility_exact(const Network& net,
                                       const LinkSet& solution,
                                       const Utility& u) {
  require(u.is_threshold(),
          "expected_rayleigh_utility_exact: closed form requires a threshold "
          "utility; use the Monte-Carlo variant");
  const double total =
      u.weight() * model::expected_successes_rayleigh(net, solution, u.beta());
  RAYSCHED_ENSURE(
      std::isfinite(total) && total >= 0.0 &&
          total <= u.weight() * static_cast<double>(solution.size()) + 1e-9,
      "expected utility must lie in [0, weight * |solution|]");
  return total;
}

double expected_rayleigh_utility_mc(const Network& net, const LinkSet& solution,
                                    const Utility& u, std::size_t trials,
                                    util::RngStream& rng) {
  require(trials > 0, "expected_rayleigh_utility_mc: trials must be positive");
  if (solution.empty()) return 0.0;
  double total = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    const std::vector<double> sinrs =
        model::sinr_rayleigh_all(net, solution, rng);
    total += total_utility(u, sinrs);
  }
  return total / static_cast<double>(trials);
}

TransferResult transfer_capacity_solution(const Network& net,
                                          const LinkSet& solution,
                                          const Utility& u, std::size_t trials,
                                          util::RngStream& rng) {
  TransferResult result;
  const std::vector<double> nf = model::sinr_nonfading_all(net, solution);
  result.nonfading_value = total_utility(u, nf);
  if (u.is_threshold()) {
    result.rayleigh_value = expected_rayleigh_utility_exact(net, solution, u);
  } else {
    result.rayleigh_value =
        expected_rayleigh_utility_mc(net, solution, u, trials, rng);
  }
  return result;
}

units::Probability per_link_transfer_probability(const Network& net,
                                                 const LinkSet& solution,
                                                 LinkId i) {
  require(i < net.size(), "per_link_transfer_probability: id out of range");
  const double gamma_nf = model::sinr_nonfading(net, solution, i);
  require(std::isfinite(gamma_nf),
          "per_link_transfer_probability: non-fading SINR is infinite "
          "(no noise and no interference); Lemma 2 is vacuous here");
  const units::Probability p = model::success_probability_rayleigh(
      net, solution, i, units::Threshold(gamma_nf));
  RAYSCHED_ENSURE(p.value() >= 0.0 && p.value() <= 1.0,
                  "transfer probability must be a probability");
  return p;
}

}  // namespace raysched::core
