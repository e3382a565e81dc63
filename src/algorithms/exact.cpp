#include "algorithms/exact.hpp"

#include <algorithm>
#include <numeric>

#include "algorithms/weighted.hpp"
#include "model/sinr.hpp"
#include "util/error.hpp"

namespace raysched::algorithms {

using model::LinkId;
using model::LinkSet;
using model::Network;

CapacityResult exact_max_feasible_set(const Network& net, double beta,
                                      std::size_t max_n) {
  require(beta > 0.0, "exact_max_feasible_set: beta must be positive");
  require(net.size() <= max_n,
          "exact_max_feasible_set: instance too large for exhaustive search; "
          "use local_search_max_feasible_set");
  std::vector<LinkId> order(net.size());
  std::iota(order.begin(), order.end(), LinkId{0});
  // Heuristic order: most noise-tolerant (largest signal/noise margin) first
  // tends to find large incumbents early, strengthening the prune.
  std::stable_sort(order.begin(), order.end(), [&](LinkId a, LinkId b) {
    return net.signal(a) > net.signal(b);
  });
  // Unit weights make the weight bounds the count bounds exactly (small
  // integers are exact doubles).
  CapacityResult result;
  result.algorithm = "exact-bnb";
  result.selected =
      detail::branch_and_bound(net, beta, order,
                               std::vector<double>(net.size(), 1.0))
          .selected;
  result.value = static_cast<double>(result.selected.size());
  return result;
}

CapacityResult local_search_max_feasible_set(const Network& net, double beta,
                                             const LocalSearchOptions& options) {
  require(beta > 0.0, "local_search_max_feasible_set: beta must be positive");
  require(options.restarts >= 1 && options.max_passes >= 1,
          "local_search_max_feasible_set: restarts/passes must be >= 1");

  util::RngStream rng(options.seed);
  LinkSet best;

  for (int restart = 0; restart < options.restarts; ++restart) {
    // Seed: greedy on the first restart, random candidate order afterwards.
    LinkSet current;
    std::vector<LinkId> order(net.size());
    std::iota(order.begin(), order.end(), LinkId{0});
    if (restart == 0) {
      current = greedy_capacity(net, beta).selected;
    } else {
      // Fisher-Yates shuffle of the candidate order.
      for (std::size_t k = order.size(); k > 1; --k) {
        std::swap(order[k - 1], order[rng.uniform_index(k)]);
      }
    }

    bool improved = true;
    for (int pass = 0; pass < options.max_passes && improved; ++pass) {
      improved = false;
      // Add moves.
      for (LinkId i : order) {
        if (std::find(current.begin(), current.end(), i) != current.end()) {
          continue;
        }
        current.push_back(i);
        if (model::is_feasible(net, current, units::Threshold(beta))) {
          improved = true;
        } else {
          current.pop_back();
        }
      }
      // 1-out / 2-in swap moves: remove one member, then greedily add.
      if (!options.use_swap_moves) continue;
      for (std::size_t out = 0; out < current.size(); ++out) {
        LinkSet trial = current;
        trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(out));
        std::size_t added = 0;
        for (LinkId i : order) {
          if (std::find(trial.begin(), trial.end(), i) != trial.end()) continue;
          trial.push_back(i);
          if (model::is_feasible(net, trial, units::Threshold(beta))) {
            ++added;
          } else {
            trial.pop_back();
          }
        }
        if (added >= 2 && trial.size() > current.size()) {
          current = std::move(trial);
          improved = true;
          break;  // membership changed; restart the pass
        }
      }
    }
    if (current.size() > best.size()) best = current;
  }

  std::sort(best.begin(), best.end());
  CapacityResult result;
  result.algorithm = "local-search";
  result.selected = std::move(best);
  result.value = static_cast<double>(result.selected.size());
  return result;
}

}  // namespace raysched::algorithms
