// raysched: stochastic per-link arrival generators and random membership
// churn for the serving loop.
//
// The heavy-traffic service (serve/service.hpp) pumps packets into per-link
// queues slot by slot. Three arrival families cover the stability-frontier
// experiments and the soak tests:
//
//  * Poisson   — per slot, each active link receives an independent
//                Poisson(mean) packet count. Drawn by splitting: the slot's
//                total over all n positions is Poisson(mean * n) (a sum of
//                Knuth draws of mean <= 64 each, so e^-mean never
//                underflows), each packet lands on a uniform position, and
//                packets on inactive links are discarded. Exact, and about
//                two draws per packet instead of one or more per link.
//  * Bursty    — a two-state Markov on/off modulator per link; while "on"
//                a link receives a packet with probability on_rate per
//                slot, while "off" it receives nothing. This produces the
//                correlated load ramps that stress admission control.
//  * HeavyTailed — with probability batch_prob per slot a link receives a
//                whole Pareto(tail_alpha)-sized batch (capped at max_batch),
//                the flash-crowd workload that exercises shedding.
//
// Determinism contract: arrivals for slot s are drawn from the caller's
// slot-derived stream. Bursty and HeavyTailed consume it link by link in
// ascending link order, with inactive links skipped entirely. Poisson
// consumes it independently of the active mask: its draws depend only on
// the stream and n, and the mask filters packets afterwards. So masking
// links leaves every other link's counts bit-identical. Given the same
// stream, active mask, and modulator state, the draw sequence is
// bit-identical — which is what makes the service's snapshot/replay exact.
// The only cross-slot state is the bursty on/off vector, exposed for
// snapshotting.
//
// Random churn (churn_events) is drawn the same way: its draws depend only
// on the stream and n, and the mask decides which draws count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace raysched::serve {

enum class TrafficModel : std::uint8_t {
  Poisson = 0,
  Bursty = 1,
  HeavyTailed = 2,
};

/// Stable lowercase name (snapshot fingerprint + CLI flag values).
[[nodiscard]] const char* to_string(TrafficModel model);

/// Parses the names produced by to_string. Throws raysched::error on an
/// unknown name.
[[nodiscard]] TrafficModel traffic_model_from_string(const std::string& name);

struct TrafficConfig {
  TrafficModel model = TrafficModel::Poisson;
  /// Poisson: mean packets per link per slot (need not be <= 1).
  double mean_rate = 0.1;
  /// Bursty: off->on and on->off switch probabilities per slot, and the
  /// arrival probability while on.
  units::Probability burst_on = units::Probability(0.05);
  units::Probability burst_off = units::Probability(0.2);
  units::Probability on_rate = units::Probability(0.6);
  /// HeavyTailed: per-slot batch probability, Pareto tail exponent, and the
  /// hard cap on one batch (keeps a single draw from flooding a queue
  /// beyond anything admission control could meaningfully account).
  units::Probability batch_prob = units::Probability(0.05);
  double tail_alpha = 1.5;
  std::size_t max_batch = 64;
};

/// One slot's arrivals at one link: `count` >= 1 packets for `link`.
struct ArrivalEvent {
  std::size_t link = 0;
  std::uint32_t count = 0;
};

/// Per-network arrival generator; one instance drives all n links.
class TrafficGenerator {
 public:
  /// Throws raysched::error unless mean_rate >= 0 with mean_rate * n at
  /// most 2^31 packets per slot, tail_alpha > 0, and max_batch >= 1.
  TrafficGenerator(const TrafficConfig& config, std::size_t n);

  [[nodiscard]] const TrafficConfig& config() const { return config_; }
  [[nodiscard]] std::size_t size() const { return n_; }

  /// Replaces `out` with this slot's arrivals: one event per link that
  /// receives at least one packet, each link at most once, so at most n
  /// events (a caller that reserves n never reallocates). Links with
  /// active[i] == 0 receive nothing. Bursty and HeavyTailed events come in
  /// ascending link order and inactive links consume no randomness; Poisson
  /// events come in order of each link's first packet and the draws do not
  /// depend on the mask. `slot_rng` must be the stream derived for this
  /// slot.
  void arrivals(util::RngStream& slot_rng, const std::vector<char>& active,
                std::vector<ArrivalEvent>& out);

  /// Bursty modulator state (all models expose it; non-bursty models keep
  /// it empty). Snapshot/restore round-trips it verbatim.
  [[nodiscard]] const std::vector<char>& burst_state() const {
    return burst_state_;
  }
  void set_burst_state(std::vector<char> state);  // raysched-check: allow(RS-M2): sink parameter, moved into burst_state_

  /// Expected packets per active link per slot under the configured model
  /// (steady-state for Bursty; the capped-batch mean is approximated by the
  /// uncapped Pareto mean, infinite for tail_alpha <= 1). Load-planning
  /// aid for tools and benches, not determinism-bearing.
  [[nodiscard]] double expected_rate() const;

 private:
  TrafficConfig config_;
  std::size_t n_ = 0;
  std::vector<char> burst_state_;  // Bursty only: 1 = link is "on"
  // Poisson only: the slot total's mean mean_rate * n split into
  // full_chunks_ Knuth draws of mean 64 and one of the rest, given as
  // their limits e^-mean.
  std::uint64_t full_chunks_ = 0;
  double chunk_limit_ = 1.0;
  double rest_limit_ = 1.0;
  // Poisson only: per-link packet counts of the slot being drawn, all zero
  // between calls (reset through the event list).
  std::vector<std::uint32_t> count_scratch_;
};

/// One slot's random membership churn: each link with active[i] != 0
/// leaves with probability `leave`, each other link joins with probability
/// `join`, all independently. Replaces `out` with the leaving links, then
/// the joining ones, each list ascending, and returns the number of
/// leavers. Draws a geometric-skip process over all n positions for each
/// (leave, then join): O(events) per slot rather than a draw per link, and
/// the draws do not depend on the mask. Never allocates once out has
/// capacity n. Throws raysched::error unless both are in [0, 1].
std::size_t churn_events(util::RngStream& rng, double leave, double join,
                         const std::vector<char>& active,
                         std::vector<std::size_t>& out);

}  // namespace raysched::serve
