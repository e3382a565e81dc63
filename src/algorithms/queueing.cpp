#include "algorithms/queueing.hpp"

#include <algorithm>

#include "algorithms/weighted.hpp"
#include "model/rayleigh.hpp"
#include "model/sinr.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"

namespace raysched::algorithms {

using model::LinkId;
using model::LinkSet;
using model::Network;

QueueSimResult run_max_weight_queueing(const Network& net,
                                       const QueueSimOptions& options,
                                       util::RngStream& rng) {
  require(options.slots > 0, "run_max_weight_queueing: slots must be > 0");
  require(options.arrival_probs.size() == net.size(),
          "run_max_weight_queueing: arrival_probs size must equal n");
  // beta > 0 and every probability in [0,1] are enforced by the unit types
  // themselves at construction.
  const double beta = options.beta.value();

  const std::size_t n = net.size();
  std::vector<std::size_t> queue(n, 0);
  std::vector<double> weights(n, 0.0);
  std::vector<char> won;  // Rayleigh decisions of the served set
  QueueSimResult result;
  double total_backlog = 0.0;
  std::size_t total_served = 0, total_arrivals = 0;
  double backlog_q2 = 0.0, backlog_q4 = 0.0;

  for (std::size_t slot = 0; slot < options.slots; ++slot) {
    // Arrivals first.
    for (LinkId i = 0; i < n; ++i) {
      if (options.arrival_probs[i].value() > 0.0 &&
          rng.bernoulli(options.arrival_probs[i].value())) {
        if (queue[i] < options.queue_cap) {
          ++queue[i];
          ++total_arrivals;
        } else {
          ++result.dropped;
        }
      }
    }

    // Max-weight schedule: weighted capacity with queue lengths as weights;
    // empty queues get weight 0 and are never scheduled.
    bool any_backlog = false;
    for (LinkId i = 0; i < n; ++i) {
      weights[i] = static_cast<double>(queue[i]);
      any_backlog = any_backlog || queue[i] > 0;
    }
    if (any_backlog) {
      const LinkSet serve =
          weighted_greedy_capacity(net, beta, weights).selected;
      if (options.propagation == Propagation::NonFading) {
        // Scheduled sets are feasibility-certified: every service succeeds.
        for (LinkId i : serve) {
          if (queue[i] > 0) {
            --queue[i];
            ++total_served;
          }
        }
      } else {
        model::rayleigh_successes(net, serve, options.beta, rng, won);
        for (std::size_t a = 0; a < serve.size(); ++a) {
          if (won[a] != 0 && queue[serve[a]] > 0) {
            --queue[serve[a]];
            ++total_served;
          }
        }
      }
    }

    std::size_t backlog = 0;
    for (std::size_t q : queue) backlog += q;
    total_backlog += static_cast<double>(backlog);
    const std::size_t quarter = options.slots / 4;
    if (quarter > 0) {
      if (slot >= quarter && slot < 2 * quarter) {
        backlog_q2 += static_cast<double>(backlog);
      } else if (slot >= 3 * quarter) {
        backlog_q4 += static_cast<double>(backlog);
      }
    }
  }

  result.final_queue = std::move(queue);
  const double slots = static_cast<double>(options.slots);
  RAYSCHED_EXPECT(slots > 0.0, "slot count was required positive above");
  result.average_backlog = total_backlog / slots;
  result.served_per_slot = static_cast<double>(total_served) / slots;
  result.arrivals_per_slot = static_cast<double>(total_arrivals) / slots;
  const std::size_t quarter = options.slots / 4;
  if (quarter > 0) {
    const double window = static_cast<double>(quarter);
    RAYSCHED_EXPECT(window > 0.0, "quarter window is positive here");
    result.backlog_mean_q2 = backlog_q2 / window;
    result.backlog_mean_q4 = backlog_q4 / window;
    // Window centers are 2 quarters apart; the slope is backlog growth in
    // packets per slot between them.
    result.backlog_slope =
        (result.backlog_mean_q4 - result.backlog_mean_q2) / (2.0 * window);
  } else {
    // Fewer than 4 slots: no quarter-windows exist, so report the overall
    // mean and a flat trend rather than dividing by zero.
    result.backlog_mean_q2 = result.average_backlog;
    result.backlog_mean_q4 = result.average_backlog;
    result.backlog_slope = 0.0;
  }
  // Stable if the late-run backlog is not substantially above the early-run
  // backlog (allowing small drift). Kept on the raw window sums so the
  // verdict is bit-identical to earlier releases.
  result.looks_stable = backlog_q4 <= backlog_q2 * 1.5 + slots * 0.01;
  return result;
}

}  // namespace raysched::algorithms
