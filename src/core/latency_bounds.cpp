#include "core/latency_bounds.hpp"

#include <algorithm>
#include <cmath>

#include "core/latency_transform.hpp"
#include "model/network.hpp"
#include "core/success_probability.hpp"
#include "core/success_probability_batch.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"

namespace raysched::core {

using model::LinkId;
using model::Network;

units::ProbabilityVector aloha_slot_success_probabilities(
    const Network& net, units::Probability q, units::Threshold beta) {
  require(q.value() > 0.0 && q.value() <= 1.0,
          "aloha_slot_success_probabilities: q must be in (0,1]");
  require(beta.value() > 0.0,
          "aloha_slot_success_probabilities: beta must be > 0");
  const units::ProbabilityVector probs = units::uniform_probabilities(
      net.size(), q);
  // Fused batch evaluation: one validation sweep instead of one per link,
  // same per-link arithmetic as rayleigh_success_probability.
  const std::vector<double> values =
      batch_rayleigh_success_probabilities(net, probs, beta);
  units::ProbabilityVector out;
  out.reserve(net.size());
  for (double v : values) out.push_back(units::Probability(v));
  return out;
}

units::ProbabilityVector aloha_solo_success_probabilities(
    const Network& net, units::Probability q, units::Threshold beta) {
  require(q.value() > 0.0 && q.value() <= 1.0,
          "aloha_solo_success_probabilities: q must be in (0,1]");
  require(beta.value() > 0.0,
          "aloha_solo_success_probabilities: beta must be > 0");
  units::ProbabilityVector out;
  out.reserve(net.size());
  for (LinkId i = 0; i < net.size(); ++i) {
    RAYSCHED_EXPECT(net.signal(i) > 0.0,
                    "solo success probability needs a positive signal");
    out.push_back(units::Probability(
        q.value() * std::exp(-beta.value() * net.noise() / net.signal(i))));
  }
  return out;
}

double expected_cover_time(const units::ProbabilityVector& p) {
  require(!p.empty(), "expected_cover_time: need at least one probability");
  for (units::Probability v : p) {
    require(v.value() > 0.0 && v.value() <= 1.0,
            "expected_cover_time: probabilities must be in (0,1]");
  }
  // E[T] = sum_{t >= 0} P[T > t] with
  // P[T > t] = 1 - prod_i (1 - (1 - p_i)^t). Direct summation converges
  // geometrically at rate max_i (1 - p_i); truncate when the tail term is
  // negligible relative to the accumulated sum.
  double expectation = 0.0;
  std::vector<double> fail_pow(p.size(), 1.0);  // (1 - p_i)^t
  for (long t = 0; t < 100000000L; ++t) {
    double all_done = 1.0;
    for (std::size_t i = 0; i < p.size(); ++i) {
      // Underflow of this product to exact 0 is the correct limit (the
      // tail term saturates at 1); no log-space path is needed.
      all_done *= 1.0 - fail_pow[i];  // raysched-check: allow(RS-N4)
    }
    const double tail = 1.0 - all_done;
    expectation += tail;
    if (tail < 1e-12 * (1.0 + expectation)) break;
    for (std::size_t i = 0; i < p.size(); ++i) fail_pow[i] *= 1.0 - p[i].value();
  }
  // Covering a non-empty set takes at least one step; the truncated series
  // must also have stayed finite.
  RAYSCHED_ENSURE(std::isfinite(expectation) && expectation >= 1.0,
                  "expected cover time must be finite and >= 1");
  return expectation;
}

units::ProbabilityVector step_success_probabilities(
    const units::ProbabilityVector& p_slot, units::Probability q) {
  const double qv = q.value();
  require(qv > 0.0 && qv <= 1.0,
          "step_success_probabilities: q must be in (0,1]");
  units::ProbabilityVector out;
  out.reserve(p_slot.size());
  for (std::size_t i = 0; i < p_slot.size(); ++i) {
    const double ps = p_slot[i].value();
    require(ps >= 0.0 && ps <= qv * (1.0 + 1e-12),
            "step_success_probabilities: p_slot must be in [0, q]");
    const double conditional = std::min(1.0, ps / qv);
    double fail = 1.0;
    // kLatencyRepeats is a small fixed constant; the product cannot
    // underflow and its exact-0 limit would be correct anyway.
    for (int r = 0; r < kLatencyRepeats; ++r)
      fail *= 1.0 - conditional;
    const double step = qv * (1.0 - fail);
    RAYSCHED_ENSURE(step >= 0.0 && step <= qv,
                    "macro-step success probability must lie in [0, q]");
    out.push_back(units::Probability(step));
  }
  return out;
}

double aloha_latency_upper_estimate(const Network& net, units::Probability q,
                                    units::Threshold beta) {
  const auto steps = step_success_probabilities(
      aloha_slot_success_probabilities(net, q, beta), q);
  return static_cast<double>(kLatencyRepeats) * expected_cover_time(steps);
}

double aloha_latency_lower_estimate(const Network& net, units::Probability q,
                                    units::Threshold beta) {
  const auto steps = step_success_probabilities(
      aloha_solo_success_probabilities(net, q, beta), q);
  return static_cast<double>(kLatencyRepeats) * expected_cover_time(steps);
}

}  // namespace raysched::core
