#include "core/simulation_transform.hpp"

#include <algorithm>
#include <cmath>

#include "core/success_probability.hpp"
#include "model/sinr.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"
#include "util/logstar.hpp"

namespace raysched::core {

using model::LinkId;
using model::LinkSet;
using model::Network;

SimulationSchedule build_simulation_schedule(
    const Network& net, const units::ProbabilityVector& q) {
  validate_probabilities(net, q);
  SimulationSchedule schedule;
  const double n = static_cast<double>(net.size());
  double b = 0.25;
  while (b < n) {
    SimulationLevel level;
    level.b_k = b;
    level.probabilities.reserve(q.size());
    for (std::size_t i = 0; i < q.size(); ++i) {
      // q_i / (4 b_k); b_0 = 1/4 makes the first level exactly q_i, later
      // levels shrink. Clamp defensively (q_i / (4*0.25) == q_i <= 1).
      level.probabilities.push_back(
          units::Probability(std::min(1.0, q[i].value() / (4.0 * b))));
    }
    schedule.levels.push_back(std::move(level));
    b = std::exp(b / 2.0);
    require(schedule.levels.size() < 64,
            "build_simulation_schedule: b_k sequence failed to diverge");
  }
  // Theorem 2 rests on the b_k tower growing strictly (b_{k+1} = e^{b_k/2}
  // past the fixed point) and every per-level probability staying in [0,1].
  for (std::size_t k = 0; k < schedule.levels.size(); ++k) {
    RAYSCHED_ENSURE(k == 0 ||
                        schedule.levels[k].b_k > schedule.levels[k - 1].b_k,
                    "b_k tower must be strictly increasing");
    // The whole scan sits inside the contract, so a Release build with
    // contracts compiled out leaves no loop variable set but unused.
    RAYSCHED_ENSURE(
        std::all_of(schedule.levels[k].probabilities.begin(),
                    schedule.levels[k].probabilities.end(),
                    [](units::Probability pr) {
                      return pr.value() >= 0.0 && pr.value() <= 1.0;
                    }),
        "simulation level probabilities must lie in [0,1]");
  }
  return schedule;
}

namespace {

/// Draws one transmit set according to `probs`.
LinkSet draw_active(const units::ProbabilityVector& probs,
                    util::RngStream& rng) {
  LinkSet active;
  for (LinkId j = 0; j < probs.size(); ++j) {
    const double pj = probs[j].value();
    if (pj > 0.0 && rng.bernoulli(pj)) active.push_back(j);
  }
  return active;
}

/// Draws the interferer set (all links except `skip`) according to `probs`.
LinkSet draw_active_except(const units::ProbabilityVector& probs, LinkId skip,
                           util::RngStream& rng) {
  LinkSet active;
  for (LinkId j = 0; j < probs.size(); ++j) {
    if (j == skip) continue;
    const double pj = probs[j].value();
    if (pj > 0.0 && rng.bernoulli(pj)) active.push_back(j);
  }
  return active;
}

}  // namespace

units::Probability simulation_success_probability_mc(
    const Network& net, const SimulationSchedule& schedule, LinkId i,
    units::Threshold beta, std::size_t trials, util::RngStream& rng) {
  require(i < net.size(), "simulation_success_probability_mc: id range");
  require(beta.value() > 0.0,
          "simulation_success_probability_mc: beta > 0 required");
  require(trials > 0, "simulation_success_probability_mc: trials > 0 required");
  const double b = beta.value();
  std::size_t hits = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    bool success = false;
    for (const SimulationLevel& level : schedule.levels) {
      for (int r = 0; r < level.repeats && !success; ++r) {
        if (!rng.bernoulli(level.probabilities[i].value())) continue;
        LinkSet active = draw_active_except(level.probabilities, i, rng);
        active.push_back(i);
        if (model::sinr_nonfading(net, active, i) >= b) success = true;
      }
      if (success) break;
    }
    if (success) ++hits;
  }
  return units::Probability(static_cast<double>(hits) /
                            static_cast<double>(trials));
}

double simulation_expected_best_utility_mc(const Network& net,
                                           const SimulationSchedule& schedule,
                                           const Utility& u, std::size_t trials,
                                           util::RngStream& rng) {
  require(trials > 0, "simulation_expected_best_utility_mc: trials > 0");
  const std::size_t n = net.size();
  double total = 0.0;
  std::vector<double> best(n);
  for (std::size_t t = 0; t < trials; ++t) {
    std::fill(best.begin(), best.end(), 0.0);
    for (const SimulationLevel& level : schedule.levels) {
      for (int r = 0; r < level.repeats; ++r) {
        const LinkSet active = draw_active(level.probabilities, rng);
        for (LinkId i : active) {
          const double g = model::sinr_nonfading(net, active, i);
          if (g > best[i]) best[i] = g;
        }
      }
    }
    for (LinkId i = 0; i < n; ++i) total += u.value(best[i]);
  }
  return total / static_cast<double>(trials);
}

std::vector<double> simulation_per_slot_utility_mc(
    const Network& net, const SimulationSchedule& schedule, const Utility& u,
    std::size_t trials, util::RngStream& rng) {
  require(trials > 0, "simulation_per_slot_utility_mc: trials > 0 required");
  std::vector<double> per_slot;
  for (const SimulationLevel& level : schedule.levels) {
    for (int r = 0; r < level.repeats; ++r) {
      double total = 0.0;
      for (std::size_t t = 0; t < trials; ++t) {
        const LinkSet active = draw_active(level.probabilities, rng);
        const std::vector<double> sinrs = model::sinr_nonfading_all(net, active);
        total += total_utility(u, sinrs);
      }
      per_slot.push_back(total / static_cast<double>(trials));
    }
  }
  return per_slot;
}

}  // namespace raysched::core
