#include "algorithms/multihop.hpp"

#include <algorithm>

#include "core/latency_transform.hpp"
#include "model/rayleigh.hpp"
#include "model/sinr.hpp"
#include "util/error.hpp"

namespace raysched::algorithms {

using model::LinkId;
using model::LinkSet;
using model::Network;

MultihopResult schedule_multihop(const Network& net,
                                 const std::vector<MultihopRequest>& requests,
                                 double beta, core::Propagation propagation,
                                 util::RngStream& rng, std::size_t max_slots) {
  require(beta > 0.0, "schedule_multihop: beta must be positive");
  require(!requests.empty(), "schedule_multihop: no requests");
  for (const auto& r : requests) {
    require(!r.hops.empty(), "schedule_multihop: request with no hops");
    for (LinkId h : r.hops) {
      require(h < net.size(), "schedule_multihop: hop id out of range");
    }
  }

  MultihopResult result;
  result.completion_slot.assign(requests.size(), 0);
  std::vector<std::size_t> progress(requests.size(), 0);  // next hop index
  std::size_t incomplete = requests.size();
  std::vector<char> won;  // Rayleigh decisions of the slot's set

  const int repeats =
      propagation == core::Propagation::Rayleigh ? core::kLatencyRepeats : 1;

  while (incomplete > 0 && result.slots < max_slots) {
    // Frontier: the next hop of every unfinished request. Several requests
    // may share a link id; schedule it once and credit all of them.
    LinkSet frontier;
    for (std::size_t q = 0; q < requests.size(); ++q) {
      if (progress[q] < requests[q].hops.size()) {
        frontier.push_back(requests[q].hops[progress[q]]);
      }
    }
    model::normalize_link_set(net, frontier);
    LinkSet slot = greedy_capacity(net, beta, frontier).selected;
    if (slot.empty()) slot = {frontier.front()};

    std::vector<bool> delivered(net.size(), false);
    for (int r = 0; r < repeats && result.slots < max_slots; ++r) {
      if (propagation == core::Propagation::NonFading) {
        for (LinkId i : slot) {
          if (model::sinr_nonfading(net, slot, i) >= beta) delivered[i] = true;
        }
      } else {
        model::rayleigh_successes(net, slot, units::Threshold(beta), rng,
                                  won);
        for (std::size_t a = 0; a < slot.size(); ++a) {
          if (won[a] != 0) delivered[slot[a]] = true;
        }
      }
      ++result.slots;
    }

    for (std::size_t q = 0; q < requests.size(); ++q) {
      if (progress[q] < requests[q].hops.size() &&
          delivered[requests[q].hops[progress[q]]]) {
        ++progress[q];
        if (progress[q] == requests[q].hops.size()) {
          result.completion_slot[q] = result.slots - 1;
          --incomplete;
        }
      }
    }
  }
  result.completed = incomplete == 0;
  return result;
}

}  // namespace raysched::algorithms
