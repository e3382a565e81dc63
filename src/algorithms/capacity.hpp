// raysched: capacity-maximization algorithms for the non-fading model.
//
// These are the algorithms the paper plugs into its reduction:
//   * greedy_capacity        — affectance-bounded greedy for a fixed power
//                              assignment (uniform powers recovers the
//                              Goussevskaia et al. [8] regime; square-root
//                              powers the Halldorsson-Mitra [7] regime).
//   * power_control_capacity — length-sorted admission plus fixed-point
//                              power computation in the style of
//                              Kesselheim [6].
//   * flexible_rate_capacity — threshold sweep for general (non-binary)
//                              utilities in the style of Kesselheim [22].
//
// All algorithms return sets that are *certified feasible*: every returned
// link meets SINR >= beta (or its per-link rate threshold) in the non-fading
// model when exactly the returned set transmits — the hypothesis Lemma 2
// needs to transfer the solution to Rayleigh fading.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/utility.hpp"
#include "model/link.hpp"
#include "model/network.hpp"

namespace raysched::algorithms {

/// Result of a capacity-maximization run.
struct CapacityResult {
  model::LinkSet selected;  ///< feasible transmitting set (sorted)
  /// Per-link powers if the algorithm chose powers itself (size n);
  /// std::nullopt when the network's existing powers were used unchanged.
  std::optional<std::vector<double>> powers;
  std::string algorithm;  ///< name for tables/logs
  /// Non-fading value of the solution: number of selected links for binary
  /// utilities, total utility otherwise.
  double value = 0.0;
};

/// Options for the affectance-bounded greedy.
struct GreedyOptions {
  /// Admission budget tau: a link is admitted if, after admission, the total
  /// *uncapped* affectance on every selected link stays <= tau. tau == 1 is
  /// exactly SINR feasibility; smaller tau leaves headroom (used by
  /// ablations). Values > 1 would break the feasibility certificate and are
  /// rejected.
  double tau = 1.0;
  /// If true, process links in order of increasing length (the standard
  /// shortest-first rule; networks without geometry ignore it), ties by id;
  /// if false, in id order. The weighted greedy applies the same order to
  /// break weight ties.
  bool sort_by_length = true;
};

/// Affectance-bounded greedy on the network's current power assignment.
/// Considers only links in `candidates` (all links if empty; ids are
/// validated, duplicates ignored). It is WeightedGreedyOracle::compute with
/// weight 1 on every candidate and 0 elsewhere. O(n^2).
[[nodiscard]] CapacityResult greedy_capacity(const model::Network& net,
                                             double beta,
                                             const model::LinkSet& candidates = {},
                                             const GreedyOptions& options = {});

/// Options for power-control capacity maximization.
struct PowerControlOptions {
  /// Admission constant of the length-sorted rule: a link is admitted if the
  /// accumulated bidirectional relative interference from already-admitted
  /// links is below this.
  double admission_budget = 0.5;
  /// Target SINR slack: powers are computed for beta * (1 + slack) so the
  /// fixed point leaves margin. Must be >= 0.
  double slack = 0.05;
  /// Fixed-point iteration cap.
  int max_iterations = 200;
};

/// Capacity maximization with power control in the style of Kesselheim [6]:
/// shortest-first admission with a relative-interference budget, then a
/// Foschini-Miljanic-style fixed point computes feasible powers; links are
/// dropped (largest interference first) until the fixed point converges.
/// Requires a geometric network (powers are chosen per link).
[[nodiscard]] CapacityResult power_control_capacity(
    const model::Network& net, double beta,
    const PowerControlOptions& options = {});

/// Capacity maximization for general valid utilities in the style of [22]:
/// sweeps a geometric grid of SINR thresholds, runs the greedy for each, and
/// returns the set maximizing total utility (evaluated at the exact
/// non-fading SINRs of the candidate set).
[[nodiscard]] CapacityResult flexible_rate_capacity(const model::Network& net,
                                                    const core::Utility& u,
                                                    double beta_min,
                                                    double beta_max,
                                                    int grid_points = 16);

/// Result of per-link rate assignment: each selected link carries its own
/// SINR target (rate class).
struct RateAssignmentResult {
  model::LinkSet selected;     ///< sorted selected links
  std::vector<double> betas;   ///< size n; assigned threshold for selected
                               ///< links, 0 for unselected
  double value = 0.0;          ///< total utility at the exact SINRs
  std::string algorithm;
};

/// Per-link flexible data rates, closer to Kesselheim [22] than the global
/// sweep: thresholds form a geometric grid of `classes` rate classes
/// between beta_min and beta_max; classes are processed from the highest
/// rate down, and every not-yet-selected link tries to join at the current
/// class under a per-link-threshold affectance budget. The returned
/// assignment is certified: every selected link meets its own beta in the
/// non-fading model, so for a non-decreasing utility the realized value is
/// at least sum_i u(beta_i). Lemma 2 transfers the assignment to Rayleigh
/// fading class-wise.
[[nodiscard]] RateAssignmentResult flexible_rate_capacity_per_link(
    const model::Network& net, const core::Utility& u, double beta_min,
    double beta_max, int classes = 8, double tau = 1.0);

}  // namespace raysched::algorithms
