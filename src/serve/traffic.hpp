// raysched: stochastic per-link arrival generators for the serving loop.
//
// The heavy-traffic service (serve/service.hpp) pumps packets into per-link
// queues slot by slot. Three arrival families cover the stability-frontier
// experiments and the soak tests:
//
//  * Poisson   — per slot, each link receives a Poisson(mean) packet count
//                (Knuth inversion; exact, no approximation).
//  * Bursty    — a two-state Markov on/off modulator per link; while "on"
//                a link receives a packet with probability on_rate per
//                slot, while "off" it receives nothing. This produces the
//                correlated load ramps that stress admission control.
//  * HeavyTailed — with probability batch_prob per slot a link receives a
//                whole Pareto(tail_alpha)-sized batch (capped at max_batch),
//                the flash-crowd workload that exercises shedding.
//
// Determinism contract: arrivals for slot s are drawn from the caller's
// slot-derived stream, consumed link-by-link in ascending link order, with
// inactive links skipped entirely. Given the same stream, active mask, and
// modulator state, the draw sequence is bit-identical — which is what makes
// the service's snapshot/replay exact. The only cross-slot state is the
// bursty on/off vector, exposed for snapshotting.
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

/// Per-network arrival generator; one instance drives all n links.
class TrafficGenerator {
 public:
  /// Throws raysched::error unless mean_rate >= 0, tail_alpha > 0, and
  /// max_batch >= 1.
  TrafficGenerator(const TrafficConfig& config, std::size_t n);

  [[nodiscard]] const TrafficConfig& config() const { return config_; }
  [[nodiscard]] std::size_t size() const { return n_; }

  /// Draws this slot's arrivals into out[i] (resized to n). Links with
  /// active[i] == 0 receive nothing and consume no randomness. `slot_rng`
  /// must be the stream derived for this slot; it is consumed in ascending
  /// link order.
  void arrivals(util::RngStream& slot_rng, const std::vector<char>& active,
                std::vector<std::uint32_t>& out);

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
};

}  // namespace raysched::serve
