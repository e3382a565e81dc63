#include "algorithms/weighted.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "model/sinr.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"
#include "util/fp.hpp"

namespace raysched::algorithms {

using model::LinkId;
using model::LinkSet;
using model::Network;

namespace {

void validate_weights(const Network& net, const std::vector<double>& weights) {
  require(weights.size() == net.size(),
          "weighted capacity: weights size must equal network size");
  for (double w : weights) {
    require(w >= 0.0, "weighted capacity: weights must be >= 0");
  }
}

double total_weight(const LinkSet& set, const std::vector<double>& weights) {
  double sum = 0.0;
  for (LinkId i : set) sum += weights[i];
  return sum;
}

}  // namespace

WeightedCapacityResult weighted_greedy_capacity(
    const Network& net, double beta, const std::vector<double>& weights,
    const GreedyOptions& options) {
  return WeightedGreedyOracle(net, beta).compute(weights, options);
}

WeightedGreedyOracle::WeightedGreedyOracle(const Network& net, double beta)
    : net_(net) {
  require(beta > 0.0, "WeightedGreedyOracle: beta must be positive");
  const std::size_t n = net.size();
  budget_.resize(n);
  skip_.resize(n);
  if (net.has_geometry()) length_.resize(n);
  for (LinkId i = 0; i < n; ++i) {
    // The exact expression inside model::affectance_raw, so every ratio
    // gain / budget below is that function's value bit for bit.
    const double budget = net.signal(i) / beta - net.noise();
    // A link infeasible even alone is never admitted; its +inf budget makes
    // the (never read) affectance onto it an exact 0 instead of inf or NaN.
    skip_[i] = budget <= 0.0 ? 1 : 0;
    budget_[i] =
        skip_[i] != 0 ? std::numeric_limits<double>::infinity() : budget;
    RAYSCHED_ENSURE(budget_[i] > 0.0, "oracle budgets must be positive");
    if (net.has_geometry()) length_[i] = net.link(i).length();
  }
}

double WeightedGreedyOracle::affectance(LinkId sender, LinkId receiver) const {
  require(sender < size() && receiver < size(),
          "WeightedGreedyOracle::affectance: id out of range");
  if (sender == receiver) return 0.0;
  if (skip_[receiver] != 0) return std::numeric_limits<double>::infinity();
  RAYSCHED_EXPECT(budget_[receiver] > 0.0, "oracle budgets must be positive");
  return net_.mean_gain(sender, receiver) / budget_[receiver];
}

// raysched:hot
void WeightedGreedyOracle::compute(const std::vector<double>& weights,
                                   LinkSet& selected,
                                   const GreedyOptions& options) {
  require(options.tau > 0.0 && options.tau <= 1.0,
          "WeightedGreedyOracle: tau must be in (0, 1]");
  const std::size_t n = size();
  require(weights.size() == n,
          "WeightedGreedyOracle: weights size must equal network size");
  for (double w : weights) {
    require(w >= 0.0, "WeightedGreedyOracle: weights must be >= 0");
  }

  // Zero-weight links are worthless and never admitted, so only the
  // nonzero-weight candidates are ordered: by decreasing weight, ties by
  // increasing length (sort_by_length, geometry only), then by id. The id
  // key makes the order total, so std::sort yields exactly the permutation
  // a stable sort of the ascending-id list would, without stable_sort's
  // temporary buffer (one allocation per call). O(m log m) for m
  // backlogged links.
  order_scratch_.clear();
  for (LinkId i = 0; i < n; ++i) {
    if (!util::fp::exact_zero(weights[i])) order_scratch_.push_back(i);
  }
  const bool by_length = options.sort_by_length && !length_.empty();
  std::sort(order_scratch_.begin(), order_scratch_.end(),
            [&](LinkId a, LinkId b) {
              if (weights[a] != weights[b]) return weights[a] > weights[b];
              if (by_length && length_[a] != length_[b]) {
                return length_[a] < length_[b];
              }
              return a < b;
            });

  // Affectance of sender j onto receiver k is gain_row(j)[k] / budget_[k]
  // (model::affectance_raw). in_scratch_[k] is the affectance onto selected
  // link k from the rest of the selection; on_scratch_[k] the affectance
  // onto candidate k from every selected sender, summed in selection order.
  // Checking on's full sum instead of each prefix is decision-identical
  // because the terms are non-negative (prefix sums are monotone).
  RAYSCHED_EXPECT(std::all_of(budget_.begin(), budget_.end(),
                              [](double b) { return b > 0.0; }),
                  "oracle budgets must be positive");
  selected.clear();
  in_scratch_.assign(n, 0.0);
  on_scratch_.assign(n, 0.0);
  for (LinkId i : order_scratch_) {
    if (skip_[i] != 0) continue;
    if (on_scratch_[i] > options.tau) continue;
    const double* row = net_.gain_row(i).data();
    bool ok = true;
    for (LinkId s : selected) {
      if (in_scratch_[s] + row[s] / budget_[s] > options.tau) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    for (LinkId s : selected) in_scratch_[s] += row[s] / budget_[s];
    in_scratch_[i] = on_scratch_[i];
    selected.push_back(i);
    // The self-term lands on on_scratch_[i], which is never read again.
    for (LinkId k = 0; k < n; ++k) on_scratch_[k] += row[k] / budget_[k];
  }
  std::sort(selected.begin(), selected.end());
}

WeightedCapacityResult WeightedGreedyOracle::compute(
    const std::vector<double>& weights, const GreedyOptions& options) {
  WeightedCapacityResult result;
  result.algorithm = "weighted-greedy";
  compute(weights, result.selected, options);
  result.value = total_weight(result.selected, weights);
  return result;
}

namespace {

/// Incremental feasibility bookkeeping for branch and bound: tracks the
/// interference each chosen link receives and validates the SINR constraint
/// after every tentative addition, plus the chosen set's weight and the best
/// set found so far.
struct BranchState {
  const Network& net;
  double beta;
  const std::vector<double>& weights;
  std::vector<double> interference;  // incoming interference + noise
  LinkSet chosen;
  double chosen_weight = 0.0;
  LinkSet best;
  double best_weight = 0.0;

  BranchState(const Network& n, double b, const std::vector<double>& w)
      : net(n), beta(b), weights(w), interference(n.size(), n.noise()) {}

  /// Can `i` be added while keeping every chosen link (and i) feasible?
  [[nodiscard]] bool can_add(LinkId i) const {
    if (net.signal(i) < beta * interference[i]) return false;
    for (LinkId j : chosen) {
      if (net.signal(j) < beta * (interference[j] + net.mean_gain(i, j))) {
        return false;
      }
    }
    return true;
  }

  void add(LinkId i) {
    for (LinkId j = 0; j < net.size(); ++j) {
      if (j != i) interference[j] += net.mean_gain(i, j);
    }
    chosen.push_back(i);
    chosen_weight += weights[i];
  }

  void remove_last() {
    const LinkId i = chosen.back();
    chosen.pop_back();
    chosen_weight -= weights[i];
    for (LinkId j = 0; j < net.size(); ++j) {
      if (j != i) interference[j] -= net.mean_gain(i, j);
    }
  }
};

void branch(const std::vector<LinkId>& order,
            const std::vector<double>& suffix_weight, std::size_t index,
            BranchState& state) {
  if (state.chosen_weight > state.best_weight) {
    state.best = state.chosen;
    state.best_weight = state.chosen_weight;
  }
  if (index >= order.size()) return;
  // Prune: even taking every remaining link cannot beat the incumbent.
  if (state.chosen_weight + suffix_weight[index] <= state.best_weight) return;
  const LinkId i = order[index];
  if (state.weights[i] > 0.0 && state.can_add(i)) {
    state.add(i);
    branch(order, suffix_weight, index + 1, state);
    state.remove_last();
  }
  branch(order, suffix_weight, index + 1, state);
}

}  // namespace

WeightedCapacityResult detail::branch_and_bound(
    const Network& net, double beta, const std::vector<LinkId>& order,
    const std::vector<double>& weights) {
  std::vector<double> suffix_weight(order.size() + 1, 0.0);
  for (std::size_t k = order.size(); k > 0; --k) {
    suffix_weight[k - 1] = suffix_weight[k] + weights[order[k - 1]];
  }
  BranchState state(net, beta, weights);
  branch(order, suffix_weight, 0, state);
  std::sort(state.best.begin(), state.best.end());
  WeightedCapacityResult result;
  result.selected = std::move(state.best);
  result.value = state.best_weight;
  return result;
}

WeightedCapacityResult exact_max_weight_feasible_set(
    const Network& net, double beta, const std::vector<double>& weights,
    std::size_t max_n) {
  require(beta > 0.0, "exact_max_weight_feasible_set: beta must be positive");
  require(net.size() <= max_n,
          "exact_max_weight_feasible_set: instance too large; use "
          "weighted_local_search");
  validate_weights(net, weights);

  std::vector<LinkId> order(net.size());
  std::iota(order.begin(), order.end(), LinkId{0});
  std::stable_sort(order.begin(), order.end(), [&](LinkId a, LinkId b) {
    return weights[a] > weights[b];
  });
  WeightedCapacityResult result =
      detail::branch_and_bound(net, beta, order, weights);
  result.algorithm = "weighted-exact-bnb";
  return result;
}

WeightedCapacityResult weighted_local_search(const Network& net, double beta,
                                             const std::vector<double>& weights,
                                             int max_passes) {
  require(beta > 0.0, "weighted_local_search: beta must be positive");
  require(max_passes >= 1, "weighted_local_search: max_passes must be >= 1");
  validate_weights(net, weights);

  LinkSet current = weighted_greedy_capacity(net, beta, weights).selected;
  bool improved = true;
  for (int pass = 0; pass < max_passes && improved; ++pass) {
    improved = false;
    // Add moves: any feasible extension increases weight (weights >= 0).
    for (LinkId i = 0; i < net.size(); ++i) {
      if (util::fp::exact_zero(weights[i]) ||
          std::find(current.begin(), current.end(), i) != current.end()) {
        continue;
      }
      current.push_back(i);
      if (model::is_feasible(net, current, units::Threshold(beta))) {
        improved = true;
      } else {
        current.pop_back();
      }
    }
    // 1-out swap moves: remove one link, refill greedily by weight; accept
    // if the total weight strictly increases.
    const double current_weight = total_weight(current, weights);
    for (std::size_t out = 0; out < current.size(); ++out) {
      LinkSet trial = current;
      trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(out));
      for (LinkId i = 0; i < net.size(); ++i) {
        if (util::fp::exact_zero(weights[i]) ||
            std::find(trial.begin(), trial.end(), i) != trial.end()) {
          continue;
        }
        trial.push_back(i);
        if (!model::is_feasible(net, trial, units::Threshold(beta))) trial.pop_back();
      }
      if (total_weight(trial, weights) > current_weight + 1e-12) {
        current = std::move(trial);
        improved = true;
        break;
      }
    }
  }
  std::sort(current.begin(), current.end());
  WeightedCapacityResult result;
  result.algorithm = "weighted-local-search";
  result.value = total_weight(current, weights);
  result.selected = std::move(current);
  return result;
}

}  // namespace raysched::algorithms
