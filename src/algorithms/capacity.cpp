#include "algorithms/capacity.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "algorithms/weighted.hpp"
#include "core/utility.hpp"
#include "model/affectance.hpp"
#include "model/sinr.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"
#include "util/fp.hpp"

namespace raysched::algorithms {

using model::LinkId;
using model::LinkSet;
using model::Network;

namespace {

LinkSet all_links(const Network& net) {
  LinkSet ids(net.size());
  std::iota(ids.begin(), ids.end(), LinkId{0});
  return ids;
}

std::string tau_string(double tau) {
  std::ostringstream ss;
  ss << tau;
  return ss.str();
}

}  // namespace

CapacityResult greedy_capacity(const Network& net, double beta,
                               const LinkSet& candidates,
                               const GreedyOptions& options) {
  require(beta > 0.0, "greedy_capacity: beta must be positive");
  require(options.tau > 0.0 && options.tau <= 1.0,
          "greedy_capacity: tau must be in (0, 1]");
  LinkSet order = candidates.empty() ? all_links(net) : candidates;
  model::normalize_link_set(net, order);
  // Indicator weights make every candidate a weight tie, so the weighted
  // greedy admits in the order this greedy is defined by: increasing length
  // (when sort_by_length and the network has geometry), then id.
  std::vector<double> weights(net.size(), 0.0);
  for (LinkId i : order) weights[i] = 1.0;

  CapacityResult result;
  result.algorithm = "greedy(tau=" + tau_string(options.tau) + ")";
  WeightedGreedyOracle(net, beta).compute(weights, result.selected, options);
  // tau <= 1 certifies feasibility; verify the invariant in debug builds.
  assert(model::is_feasible(net, result.selected, units::Threshold(beta)));
  result.value = static_cast<double>(result.selected.size());
  return result;
}

namespace {

/// Unit-power gain g(j,i) = S̄(j,i) / p_j: the channel coefficient a
/// power-control algorithm scales.
double unit_gain(const Network& net, LinkId j, LinkId i) {
  RAYSCHED_EXPECT(net.power(j) > 0.0,
                  "unit_gain: transmit power must be positive");
  return net.mean_gain(j, i) / net.power(j);
}

/// Tries to find powers making `set` feasible at threshold beta_eff via the
/// Foschini-Miljanic fixed point p_i = beta_eff * (sum_j p_j g(j,i) + nu) /
/// g(i,i). Returns powers on success, nullopt if the iteration diverges.
std::optional<std::vector<double>> solve_powers(const Network& net,
                                                const LinkSet& set,
                                                double beta_eff,
                                                int max_iterations) {
  const std::size_t m = set.size();
  std::vector<double> p(m);
  for (std::size_t a = 0; a < m; ++a) {
    const double gaa = unit_gain(net, set[a], set[a]);
    RAYSCHED_EXPECT(gaa > 0.0, "solve_powers: own gain must be positive");
    p[a] = beta_eff * net.noise() / gaa;
    if (p[a] <= 0.0) p[a] = 1.0;  // zero-noise start
  }
  double prev_norm = std::numeric_limits<double>::infinity();
  for (int it = 0; it < max_iterations; ++it) {
    std::vector<double> next(m);
    double norm = 0.0;
    for (std::size_t a = 0; a < m; ++a) {
      const LinkId i = set[a];
      double interference = net.noise();
      for (std::size_t b = 0; b < m; ++b) {
        if (b != a) interference += p[b] * unit_gain(net, set[b], i);
      }
      next[a] = beta_eff * interference / unit_gain(net, i, i);
      if (next[a] <= 0.0) next[a] = std::numeric_limits<double>::min();
      norm = std::max(norm, next[a]);
    }
    // Divergence check: if the iterate norm grows without bound the spectral
    // radius is >= 1 and no feasible powers exist.
    if (!std::isfinite(norm) || norm > 1e30) return std::nullopt;
    double delta = 0.0;
    for (std::size_t a = 0; a < m; ++a) {
      delta = std::max(delta, std::abs(next[a] - p[a]) / std::max(1e-300, next[a]));
    }
    p = std::move(next);
    if (delta < 1e-12) return p;
    // With nu == 0 the fixed point of the homogeneous system is 0 or
    // diverges; detect convergence of the *direction* via norm ratio.
    if (util::fp::exact_zero(net.noise()) && it > 10 && norm < prev_norm) {
      // Contracting: feasible. Normalize to max power 1.
      double mx = *std::max_element(p.begin(), p.end());
      RAYSCHED_EXPECT(mx > 0.0, "solve_powers: power iterate must be > 0");
      for (double& v : p) v = v / mx;
      // One more verification round below settles feasibility.
      return p;
    }
    prev_norm = norm;
  }
  return std::nullopt;
}

/// Verifies feasibility of `set` at `beta` with the given member powers.
bool verify_with_powers(const Network& net, const LinkSet& set,
                        const std::vector<double>& p, double beta) {
  for (std::size_t a = 0; a < set.size(); ++a) {
    const LinkId i = set[a];
    double interference = net.noise();
    for (std::size_t b = 0; b < set.size(); ++b) {
      if (b != a) interference += p[b] * unit_gain(net, set[b], i);
    }
    const double signal = p[a] * unit_gain(net, i, i);
    if (util::fp::exact_zero(interference)) continue;  // infinite SINR
    if (signal / interference < beta) return false;
  }
  return true;
}

}  // namespace

CapacityResult power_control_capacity(const Network& net, double beta,
                                      const PowerControlOptions& options) {
  require(beta > 0.0, "power_control_capacity: beta must be positive");
  require(net.has_geometry(),
          "power_control_capacity: requires a geometric network");
  require(options.admission_budget > 0.0,
          "power_control_capacity: admission_budget must be positive");
  require(options.slack >= 0.0, "power_control_capacity: slack must be >= 0");

  LinkSet order = all_links(net);
  std::stable_sort(order.begin(), order.end(), [&](LinkId a, LinkId b) {
    return net.link(a).length() < net.link(b).length();
  });

  // Kesselheim-style shortest-first admission: link v is admitted if the
  // accumulated bidirectional relative interference between v and the
  // already-admitted (shorter) links is below the budget. The relative
  // interference of w on v is (len_w / d(s_w, r_v))^alpha, symmetrized.
  const double alpha = net.alpha();
  LinkSet admitted;
  for (LinkId v : order) {
    double load = 0.0;
    const double len_v = net.link(v).length();
    bool ok = true;
    for (LinkId w : admitted) {
      const double len_w = net.link(w).length();
      const double d_wv = model::distance(net.link(w).sender, net.link(v).receiver);
      const double d_vw = model::distance(net.link(v).sender, net.link(w).receiver);
      RAYSCHED_EXPECT(len_v > 0.0 && len_w > 0.0 && d_wv > 0.0 && d_vw > 0.0,
                      "admission control needs positive link lengths and "
                      "distinct sender/receiver positions");
      load += std::min(1.0, std::pow(len_w / d_wv, alpha)) +
              std::min(1.0, std::pow(len_v / d_vw, alpha));
      if (load > options.admission_budget) {
        ok = false;
        break;
      }
    }
    if (ok) admitted.push_back(v);
  }

  // Power computation with drop-and-retry: solve the fixed point; if it
  // diverges, drop the admitted link suffering the largest relative
  // interference and retry.
  const double beta_eff = beta * (1.0 + options.slack);
  std::vector<double> member_powers;
  while (!admitted.empty()) {
    auto p = solve_powers(net, admitted, beta_eff, options.max_iterations);
    if (p && verify_with_powers(net, admitted, *p, beta)) {
      member_powers = std::move(*p);
      break;
    }
    // Drop the link with the largest total incoming unit-gain interference.
    std::size_t worst = 0;
    double worst_load = -1.0;
    for (std::size_t a = 0; a < admitted.size(); ++a) {
      double load = 0.0;
      for (std::size_t b = 0; b < admitted.size(); ++b) {
        if (b != a) {
          load += unit_gain(net, admitted[b], admitted[a]) /
                  unit_gain(net, admitted[a], admitted[a]);
        }
      }
      if (load > worst_load) {
        worst_load = load;
        worst = a;
      }
    }
    admitted.erase(admitted.begin() + static_cast<std::ptrdiff_t>(worst));
  }

  CapacityResult result;
  result.algorithm = "power-control";
  result.selected = admitted;
  std::sort(result.selected.begin(), result.selected.end());
  if (!admitted.empty()) {
    // Assemble the full power vector: selected links get their computed
    // power, unselected links keep their current power (they do not
    // transmit, so the value is immaterial but must be positive).
    std::vector<double> powers(net.size());
    for (LinkId i = 0; i < net.size(); ++i) powers[i] = net.power(i);
    // member_powers is indexed by position in `admitted` (pre-sort order).
    for (std::size_t a = 0; a < admitted.size(); ++a) {
      powers[admitted[a]] = std::max(member_powers[a],
                                     std::numeric_limits<double>::min());
    }
    result.powers = std::move(powers);
  }
  result.value = static_cast<double>(result.selected.size());
  return result;
}

namespace {

/// One cascade of the per-link fill: classes from index `start` downward
/// (descending beta), admission under the per-link affectance budget.
RateAssignmentResult rate_cascade(const Network& net, const core::Utility& u,
                                  const std::vector<double>& class_betas,
                                  std::size_t start, const LinkSet& order,
                                  double tau, bool single_class) {
  RateAssignmentResult result;
  result.betas.assign(net.size(), 0.0);
  // Typed mirror of result.betas for the per-link affectance calls; entries
  // of unselected links default to Threshold() == 1 and are never read
  // (result.betas keeps the 0.0 "no class" sentinel of the public API).
  std::vector<units::Threshold> typed_betas(net.size());
  std::vector<double> in(net.size(), 0.0);
  std::vector<bool> selected(net.size(), false);
  const std::size_t end = single_class ? start + 1 : class_betas.size();
  for (std::size_t c = start; c < end; ++c) {
    const double beta_c = class_betas[c];
    RAYSCHED_EXPECT(beta_c > 0.0, "rate classes must have positive beta");
    for (LinkId i : order) {
      if (selected[i]) continue;
      if (net.signal(i) / beta_c <= net.noise()) continue;
      // Tentatively assign class beta_c to i and test both directions.
      result.betas[i] = beta_c;
      typed_betas[i] = units::Threshold(beta_c);
      double on_i = 0.0;
      bool ok = true;
      for (LinkId j : result.selected) {
        on_i += model::affectance_raw_per_link(net, j, i, typed_betas);
        if (on_i > tau ||
            in[j] + model::affectance_raw_per_link(net, i, j, typed_betas) >
                tau) {
          ok = false;
          break;
        }
      }
      if (!ok) {
        result.betas[i] = 0.0;
        typed_betas[i] = units::Threshold();
        continue;
      }
      for (LinkId j : result.selected) {
        in[j] += model::affectance_raw_per_link(net, i, j, typed_betas);
      }
      in[i] = on_i;
      selected[i] = true;
      result.selected.push_back(i);
    }
  }
  std::sort(result.selected.begin(), result.selected.end());
  assert(model::is_feasible_per_link(net, result.selected, typed_betas));
  const std::vector<double> sinrs =
      model::sinr_nonfading_all(net, result.selected);
  result.value = core::total_utility(u, sinrs);
  return result;
}

}  // namespace

RateAssignmentResult flexible_rate_capacity_per_link(const Network& net,
                                                     const core::Utility& u,
                                                     double beta_min,
                                                     double beta_max,
                                                     int classes, double tau) {
  require(beta_min > 0.0 && beta_min <= beta_max,
          "flexible_rate_capacity_per_link: need 0 < beta_min <= beta_max");
  require(classes >= 1, "flexible_rate_capacity_per_link: classes >= 1");
  require(tau > 0.0 && tau <= 1.0,
          "flexible_rate_capacity_per_link: tau must be in (0, 1]");

  // Geometric rate classes, descending beta.
  std::vector<double> class_betas(classes);
  const double ratio = beta_max / beta_min;
  RAYSCHED_EXPECT(ratio >= 1.0, "beta ratio must be >= 1");
  for (int c = 0; c < classes; ++c) {
    const double t =
        classes == 1 ? 1.0
                     : 1.0 - static_cast<double>(c) /
                                 static_cast<double>(classes - 1);
    class_betas[c] = beta_min * std::pow(ratio, t);
  }

  LinkSet order = all_links(net);
  if (net.has_geometry()) {
    std::stable_sort(order.begin(), order.end(), [&](LinkId a, LinkId b) {
      return net.link(a).length() < net.link(b).length();
    });
  }

  // A cascade starting at a high class can burn the interference budget on
  // a few high-rate links; sweep the starting class and also evaluate each
  // pure single-class run (which reproduces the global-threshold sweep), so
  // the result dominates flexible_rate_capacity by construction.
  RateAssignmentResult best;
  best.algorithm = "flexible-rate-per-link";
  best.betas.assign(net.size(), 0.0);
  best.value = -1.0;
  for (std::size_t start = 0; start < class_betas.size(); ++start) {
    for (bool single_class : {false, true}) {
      RateAssignmentResult candidate = rate_cascade(
          net, u, class_betas, start, order, tau, single_class);
      if (candidate.value > best.value) {
        best.selected = std::move(candidate.selected);
        best.betas = std::move(candidate.betas);
        best.value = candidate.value;
      }
      if (single_class && start + 1 == class_betas.size()) break;
    }
  }
  best.algorithm = "flexible-rate-per-link";
  if (best.value < 0.0) best.value = 0.0;
  return best;
}

CapacityResult flexible_rate_capacity(const Network& net,
                                      const core::Utility& u, double beta_min,
                                      double beta_max, int grid_points) {
  require(beta_min > 0.0 && beta_min <= beta_max,
          "flexible_rate_capacity: need 0 < beta_min <= beta_max");
  require(grid_points >= 1, "flexible_rate_capacity: grid_points >= 1");

  CapacityResult best;
  best.algorithm = "flexible-rate";
  const double ratio = beta_max / beta_min;
  RAYSCHED_EXPECT(ratio >= 1.0, "beta ratio must be >= 1");
  for (int k = 0; k < grid_points; ++k) {
    const double t = grid_points == 1
                         ? 0.0
                         : static_cast<double>(k) /
                               static_cast<double>(grid_points - 1);
    const double beta = beta_min * std::pow(ratio, t);
    CapacityResult candidate = greedy_capacity(net, beta);
    const std::vector<double> sinrs =
        model::sinr_nonfading_all(net, candidate.selected);
    const double value = core::total_utility(u, sinrs);
    if (value > best.value) {
      best.selected = candidate.selected;
      best.value = value;
    }
  }
  return best;
}

}  // namespace raysched::algorithms
