// raysched: multi-hop scheduling (Section 4, last paragraph).
//
// A multi-hop request is a path of links that must be served in order (hop
// k+1 can only transmit after hop k delivered the packet). The paper's
// observation: a multi-hop schedule is a concatenation of single-hop
// schedules, and each single-hop schedule transfers to Rayleigh fading with
// the same constant-factor machinery. We schedule the set of "ready" hops
// (the frontier of each request) in every slot, using any single-slot
// capacity algorithm, in either propagation model.
#pragma once

#include <vector>

#include "algorithms/latency.hpp"
#include "core/latency_transform.hpp"
#include "model/network.hpp"
#include "util/rng.hpp"

namespace raysched::algorithms {

/// A multi-hop request: an ordered sequence of link ids; each hop becomes
/// ready once the previous hop succeeded.
struct MultihopRequest {
  std::vector<model::LinkId> hops;
};

/// Outcome of scheduling a set of multi-hop requests.
struct MultihopResult {
  std::size_t slots = 0;                  ///< total elementary slots
  std::vector<std::size_t> completion_slot;  ///< per request (0-based)
  bool completed = false;
};

/// Schedules all requests to completion: in each slot the frontier hops are
/// candidates, a greedy feasible subset transmits, and success is judged in
/// `propagation` (Rayleigh samples fading via rng; per Section 4 each
/// frontier schedule is attempted up to core::kLatencyRepeats times before
/// recomputation, mirroring the single-hop transformation).
[[nodiscard]] MultihopResult schedule_multihop(
    const model::Network& net, const std::vector<MultihopRequest>& requests,
    double beta, core::Propagation propagation, util::RngStream& rng,
    std::size_t max_slots = 100000);

}  // namespace raysched::algorithms
