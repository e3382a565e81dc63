// raysched: link-weighted capacity maximization.
//
// The paper's second canonical utility (Section 2) weights each successful
// link by w_i >= 0; the objective is the total weight of the feasible
// transmitting set. This module provides a weight-aware greedy (certified
// feasible), a weighted branch-and-bound oracle for small n, and weighted
// local search. Solutions transfer to Rayleigh fading through Lemma 2 with
// the weighted threshold utility exactly like the unweighted case.
#pragma once

#include <vector>

#include "algorithms/capacity.hpp"
#include "model/network.hpp"

namespace raysched::algorithms {

/// Result of weighted capacity maximization; `value` is the total weight.
struct WeightedCapacityResult {
  model::LinkSet selected;
  double value = 0.0;
  std::string algorithm;
};

/// Weight-aware greedy: candidates ordered by decreasing weight (ties as
/// GreedyOptions::sort_by_length orders them), admitted under the same
/// uncapped-affectance budget as greedy_capacity, so the output is
/// SINR-feasible at beta. One-shot form of WeightedGreedyOracle::compute.
[[nodiscard]] WeightedCapacityResult weighted_greedy_capacity(
    const model::Network& net, double beta, const std::vector<double>& weights,
    const GreedyOptions& options = {});

/// The weighted greedy bound to one (network, beta) pair, for callers that
/// recompute with new weights. Affectance is never cached: the oracle keeps
/// each link's budget S(i,i)/beta - nu (the expression inside
/// model::affectance_raw) and reads affectance j -> i as
/// net.gain_row(j)[i] / budget_i when it needs it, so every comparison sees
/// the doubles affectance_raw would return (pinned by
/// test_schedule_policy against a per-pair affectance_raw reference loop).
///
/// The oracle borrows the network: it must not outlive it, and the
/// network's powers must not change while the oracle is in use. Memory is
/// O(n) (budgets, skip flags, lengths, compute() scratch) on top of the
/// network's own gain matrix. compute()'s out-buffer form allocates nothing
/// after warm-up, which is what lets the serving loop's max-weight policies
/// call it every recompute.
class WeightedGreedyOracle {
 public:
  /// O(n) time and memory. Throws raysched::error unless beta > 0.
  WeightedGreedyOracle(const model::Network& net, double beta);
  /// A temporary network would die before the oracle reads it.
  WeightedGreedyOracle(model::Network&& net, double beta) = delete;

  [[nodiscard]] std::size_t size() const { return net_.size(); }

  /// The affectance compute() reads: bit-identical to
  /// model::affectance_raw(net, sender, receiver, beta).
  [[nodiscard]] double affectance(model::LinkId sender,
                                  model::LinkId receiver) const;

  /// Candidates in decreasing weight order (ties by increasing length when
  /// options.sort_by_length and the network has geometry, then by id) are
  /// admitted while the uncapped-affectance budget tau holds for every
  /// selected link; `selected` is overwritten with the chosen set in
  /// ascending id order.
  void compute(const std::vector<double>& weights, model::LinkSet& selected,
               const GreedyOptions& options = {});
  [[nodiscard]] WeightedCapacityResult compute(
      const std::vector<double>& weights, const GreedyOptions& options = {});

 private:
  const model::Network& net_;
  std::vector<double> budget_;  // S(i,i)/beta - nu; +inf where skip_
  std::vector<char> skip_;      // 1 when link i is infeasible even alone
  std::vector<double> length_;  // link lengths (geometry networks only)
  // compute() scratch, reused across calls (zero-alloc after warm-up).
  std::vector<model::LinkId> order_scratch_;
  std::vector<double> in_scratch_;
  std::vector<double> on_scratch_;
};

/// Exact maximum-weight feasible set by branch and bound (remaining-weight
/// pruning). Throws if net.size() > max_n.
[[nodiscard]] WeightedCapacityResult exact_max_weight_feasible_set(
    const model::Network& net, double beta, const std::vector<double>& weights,
    std::size_t max_n = 22);

namespace detail {

/// The branch and bound behind both exact searches (this one and
/// exact_max_feasible_set, which passes unit weights): the feasible subset
/// of maximum total weight, links tried in `order`, weights indexed by link
/// id. A branch is pruned when its weight plus the weight left in `order`
/// cannot beat the incumbent, the incumbent is replaced only by a strictly
/// heavier set, and a link of weight 0 is never taken. `value` is the
/// winner's weight as the search accumulated it; `selected` is sorted and
/// `algorithm` left empty. Unchecked: callers validate beta and weights.
[[nodiscard]] WeightedCapacityResult branch_and_bound(
    const model::Network& net, double beta,
    const std::vector<model::LinkId>& order,
    const std::vector<double>& weights);

}  // namespace detail

/// Weighted local search: greedy seed, then add moves and 1-out swap moves
/// accepted when they increase total weight while staying feasible.
[[nodiscard]] WeightedCapacityResult weighted_local_search(
    const model::Network& net, double beta, const std::vector<double>& weights,
    int max_passes = 16);

}  // namespace raysched::algorithms
