// raysched: latency minimization — schedule every link successfully at
// least once in as few slots as possible.
//
// Two families, matching Section 4's two classes:
//
//  * repeated_capacity_schedule: repeatedly run a single-slot capacity
//    algorithm on the not-yet-served links ([8]-style). Deterministic in the
//    non-fading model; under Rayleigh fading the same slot sets are
//    transmitted and actual success is stochastic, so slots repeat until all
//    links succeeded.
//
//  * ALOHA-style randomized protocols ([9]-style): every remaining link
//    transmits independently with a per-link probability; successful links
//    leave. Under Rayleigh fading each randomized step is executed
//    core::kLatencyRepeats = 4 times (the Section 4 transformation). Two
//    probability rules are provided: a fixed probability, and an adaptive
//    multiplicative backoff that tracks the (unknown) contention, which is
//    the spirit of Kesselheim-Voecking distributed contention resolution.
//    Exact constants of [9] are not material to the reduction; the rules
//    here keep the property the transformation needs (per-step transmission
//    probability <= 1/2).
#pragma once

#include <functional>
#include <vector>

#include "algorithms/capacity.hpp"
#include "core/latency_transform.hpp"
#include "model/block_fading.hpp"
#include "model/network.hpp"
#include "util/rng.hpp"

namespace raysched::algorithms {

/// Outcome of a latency run.
struct LatencyResult {
  /// Number of elementary time slots used until every link succeeded once
  /// (counts each of the 4 Rayleigh repeats separately).
  std::size_t slots = 0;
  /// The transmitting set of every slot, in order.
  std::vector<model::LinkSet> schedule;
  /// Slot index (0-based) in which each link first succeeded.
  std::vector<std::size_t> first_success_slot;
  bool completed = false;  ///< false if max_slots was hit first
};

/// Repeated single-slot capacity maximization. `capacity_algorithm` is
/// invoked with the remaining links and must return a feasible subset of
/// them; default is greedy_capacity. Success per slot is evaluated in
/// `propagation` (Rayleigh uses `rng` for fading; each computed slot is
/// transmitted once — the schedule itself adapts, re-serving failed links).
[[nodiscard]] LatencyResult repeated_capacity_schedule(
    const model::Network& net, double beta, core::Propagation propagation,
    util::RngStream& rng, std::size_t max_slots = 100000,
    const std::function<model::LinkSet(const model::Network&, double,
                                       const model::LinkSet&)>&
        capacity_algorithm = nullptr);

/// ALOHA probability rules.
struct AlohaOptions {
  /// Initial per-link transmission probability (must be in (0, 1/2]).
  double initial_probability = 0.25;
  /// If true, each link halves its probability after a failed attempt and
  /// (slowly) raises it after idling, bounded to (p_min, 1/2]; if false the
  /// probability stays fixed.
  bool adaptive = false;
  double min_probability = 1.0 / 1024.0;
  /// Multiplicative raise applied per idle slot in adaptive mode.
  double raise_factor = 1.1;
};

/// ALOHA-style randomized protocol. In the Rayleigh model every randomized
/// step is repeated core::kLatencyRepeats times with fresh fading (the
/// Section 4 transformation); slots counts elementary slots.
[[nodiscard]] LatencyResult aloha_schedule(const model::Network& net,
                                           double beta,
                                           core::Propagation propagation,
                                           util::RngStream& rng,
                                           const AlohaOptions& options = {},
                                           std::size_t max_slots = 100000);

/// ALOHA under time-correlated (block) fading: success per elementary slot
/// is judged by `channel`, which advances once per slot. The 4x repetition
/// of the Section-4 transformation is still applied, but when the channel's
/// coherence time exceeds the repetition window the repeats reuse the same
/// realization and the diversity boost degrades — the stress test for the
/// i.i.d.-per-slot assumption (ablation A10).
[[nodiscard]] LatencyResult aloha_schedule_block_fading(
    const model::Network& net, double beta, model::BlockFadingChannel& channel,
    util::RngStream& rng, const AlohaOptions& options = {},
    std::size_t max_slots = 100000);

}  // namespace raysched::algorithms
