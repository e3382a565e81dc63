#include "core/success_probability.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/success_probability_batch.hpp"
#include "model/sinr.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"
#include "util/fp.hpp"

namespace raysched::core {

using model::LinkId;
using model::Network;

void validate_probabilities(const Network& net,
                            const units::ProbabilityVector& q) {
  require(q.size() == net.size(),
          "probability vector size must equal network size");
  for (units::Probability p : q) {
    require(p.value() >= 0.0 && p.value() <= 1.0,
            "transmission probabilities must be in [0,1]");
  }
}

detail::Theorem1Term detail::theorem1_term(const Network& net, LinkId j,
                                            LinkId i, units::Threshold beta,
                                            double qj) {
  const double b = beta.value();
  const double sii = net.signal(i);
  RAYSCHED_EXPECT(sii > 0.0, "Theorem 1 needs a positive signal S(i,i)");
  const double bs = b * net.mean_gain(j, i);
  if (!std::isinf(bs)) {
    const double c = bs / (bs + sii);
    return {c, 1.0 - c * qj};
  }
  // Ordinary gains never come here.
  const double a = net.mean_gain(j, i) * (b / sii);
  if (std::isinf(a)) return {1.0, 1.0 - qj};
  return {a / (1.0 + a), (1.0 + a * (1.0 - qj)) / (1.0 + a)};
}

double detail::rayleigh_success_probability_unchecked(
    const Network& net, const units::ProbabilityVector& q, LinkId i,
    units::Threshold beta, bool conditional) {
  const double b = beta.value();
  const double sii = net.signal(i);
  RAYSCHED_EXPECT(sii > 0.0, "Theorem 1 needs a positive signal S(i,i)");
  const double qi = conditional ? 1.0 : q[i].value();
  double p = qi * std::exp(-b * net.noise() / sii);
  for (LinkId j = 0; j < net.size(); ++j) {
    if (j == i || util::fp::exact_zero(q[j].value())) continue;
    // beta / (beta + S(i,i)/S(j,i)) rewritten division-safely as
    // beta*S(j,i) / (beta*S(j,i) + S(i,i)); correct also when S(j,i) == 0.
    const double bs = b * net.mean_gain(j, i);
    p *= std::isinf(bs)
             ? theorem1_term(net, j, i, beta, q[j].value()).factor
             : 1.0 - bs * q[j].value() / (bs + sii);
  }
  RAYSCHED_ENSURE(std::isfinite(p) && p >= 0.0 && p <= 1.0,
                  "Theorem-1 product form left [0,1]");
  return p;
}

double detail::rayleigh_success_log_probability_unchecked(
    const Network& net, const units::ProbabilityVector& q, LinkId i,
    units::Threshold beta, bool conditional) {
  const double b = beta.value();
  const double sii = net.signal(i);
  RAYSCHED_EXPECT(sii > 0.0, "Theorem 1 needs a positive signal S(i,i)");
  const double qi = conditional ? 1.0 : q[i].value();
  if (util::fp::exact_zero(qi)) {
    return -std::numeric_limits<double>::infinity();
  }
  // Same c(j,i) = b S(j,i) / (b S(j,i) + S(i,i)) and j-order as the linear
  // form; FpDeterminism.LogGoldenBits pins the resulting bits.
  const double neg_exponent = -b * net.noise() / sii;
  double lp = std::log(qi) + neg_exponent;
  for (LinkId j = 0; j < net.size(); ++j) {
    if (j == i || util::fp::exact_zero(q[j].value())) continue;
    const double bs = b * net.mean_gain(j, i);
    if (std::isinf(bs)) {
      // 0 only where Q_i is: a overflows and q_j = 1.
      const double factor =
          theorem1_term(net, j, i, beta, q[j].value()).factor;
      RAYSCHED_EXPECT(factor >= 0.0, "Theorem-1 factor must be >= 0");
      lp += std::log(factor);
      continue;
    }
    // c(j,i) < 1 strictly (S(i,i) > 0), so the argument stays > -1 and
    // log1p is finite even where the linear product would underflow.
    lp += std::log1p(-(bs / (bs + sii)) * q[j].value());
  }
  RAYSCHED_ENSURE(!(lp > 0.0), "Theorem-1 log probability must be <= 0");
  return lp;
}

double rayleigh_success_log_probability(const Network& net,
                                        const units::ProbabilityVector& q,
                                        LinkId i, units::Threshold beta) {
  validate_probabilities(net, q);
  require(i < net.size(),
          "rayleigh_success_log_probability: id out of range");
  require(beta.value() > 0.0,
          "rayleigh_success_log_probability: beta must be positive");
  return detail::rayleigh_success_log_probability_unchecked(net, q, i, beta);
}

units::Probability rayleigh_success_probability(
    const Network& net, const units::ProbabilityVector& q, LinkId i,
    units::Threshold beta) {
  validate_probabilities(net, q);
  require(i < net.size(), "rayleigh_success_probability: id out of range");
  require(beta.value() > 0.0,
          "rayleigh_success_probability: beta must be positive");
  return units::Probability(
      detail::rayleigh_success_probability_unchecked(net, q, i, beta));
}

units::Probability rayleigh_success_lower_bound(
    const Network& net, const units::ProbabilityVector& q, LinkId i,
    units::Threshold beta) {
  validate_probabilities(net, q);
  require(i < net.size(), "rayleigh_success_lower_bound: id out of range");
  require(beta.value() > 0.0,
          "rayleigh_success_lower_bound: beta must be positive");
  const double b = beta.value();
  const double sii = net.signal(i);
  RAYSCHED_EXPECT(sii > 0.0, "Lemma 1 needs a positive signal S(i,i)");
  double mass = net.noise();
  for (LinkId j = 0; j < net.size(); ++j) {
    if (j != i) mass += net.mean_gain(j, i) * q[j].value();
  }
  const double lo = q[i].value() * std::exp(-b * mass / sii);
  RAYSCHED_ENSURE(std::isfinite(lo) && lo >= 0.0 && lo <= 1.0,
                  "Lemma-1 lower bound left [0,1]");
  return units::Probability(lo);
}

units::Probability rayleigh_success_upper_bound(
    const Network& net, const units::ProbabilityVector& q, LinkId i,
    units::Threshold beta) {
  validate_probabilities(net, q);
  require(i < net.size(), "rayleigh_success_upper_bound: id out of range");
  require(beta.value() > 0.0,
          "rayleigh_success_upper_bound: beta must be positive");
  const double b = beta.value();
  const double sii = net.signal(i);
  RAYSCHED_EXPECT(sii > 0.0, "Lemma 1 needs a positive signal S(i,i)");
  double exponent = -b * net.noise() / sii;
  for (LinkId j = 0; j < net.size(); ++j) {
    if (j == i) continue;
    exponent -=
        std::min(0.5, b * net.mean_gain(j, i) / (2.0 * sii)) * q[j].value();
  }
  RAYSCHED_EXPECT(exponent <= 0.0,
                  "Lemma-1 upper-bound exponent must be non-positive");
  const double hi = q[i].value() * std::exp(exponent);
  RAYSCHED_ENSURE(std::isfinite(hi) && hi >= 0.0 && hi <= 1.0,
                  "Lemma-1 upper bound left [0,1]");
  return units::Probability(hi);
}

double interference_weight(const Network& net,
                           const units::ProbabilityVector& q, LinkId i,
                           units::Threshold beta) {
  validate_probabilities(net, q);
  require(i < net.size(), "interference_weight: id out of range");
  require(beta.value() > 0.0, "interference_weight: beta must be positive");
  const double b = beta.value();
  const double sii = net.signal(i);
  RAYSCHED_EXPECT(sii > 0.0, "Lemma 3 needs a positive signal S(i,i)");
  double a = 0.0;
  for (LinkId j = 0; j < net.size(); ++j) {
    if (j == i) continue;
    a += std::min(1.0, b * net.mean_gain(j, i) / sii) * q[j].value();
  }
  RAYSCHED_ENSURE(std::isfinite(a) && a >= 0.0,
                  "interference weight A_i must be finite and non-negative");
  return a;
}

double expected_rayleigh_successes(const Network& net,
                                   const units::ProbabilityVector& q,
                                   units::Threshold beta) {
  // One validation sweep inside the batch call, then the per-link values
  // summed in ascending link order. Zero entries (q_i == 0) are bitwise
  // no-ops on a non-negative running sum, so they need no skip branch.
  double total = 0.0;
  std::vector<double> values;
  rayleigh_success_probabilities(net, q, beta, values);
  for (double v : values) total += v;
  RAYSCHED_ENSURE(total <= static_cast<double>(net.size()),
                  "expected successes cannot exceed the number of links");
  return total;
}

units::Probability nonfading_success_probability_exact(
    const Network& net, const units::ProbabilityVector& q, LinkId i,
    units::Threshold beta, std::size_t max_free) {
  validate_probabilities(net, q);
  require(i < net.size(), "nonfading_success_probability_exact: id range");
  require(beta.value() > 0.0,
          "nonfading_success_probability_exact: beta > 0 required");
  if (util::fp::exact_zero(q[i].value())) return units::Probability(0.0);

  // Links with q == 1 always interfere; links with fractional q are "free";
  // links with q == 0 never interfere.
  double fixed_interference = net.noise();
  std::vector<LinkId> free;
  for (LinkId j = 0; j < net.size(); ++j) {
    if (j == i) continue;
    if (q[j].value() >= 1.0) fixed_interference += net.mean_gain(j, i);
    else if (q[j].value() > 0.0) free.push_back(j);
  }
  require(free.size() <= max_free,
          "nonfading_success_probability_exact: too many fractional links; "
          "use the Monte-Carlo estimator");

  // need interference <= budget
  const double budget = net.signal(i) / beta.value();
  const std::size_t m = free.size();
  double success = 0.0;
  for (std::size_t mask = 0; mask < (std::size_t{1} << m); ++mask) {
    double interference = fixed_interference;
    double prob = 1.0;
    for (std::size_t b = 0; b < m; ++b) {
      if (mask & (std::size_t{1} << b)) {
        interference += net.mean_gain(free[b], i);
        prob *= q[free[b]].value();
      } else {
        prob *= 1.0 - q[free[b]].value();
      }
    }
    if (interference <= budget) success += prob;
  }
  // The mask sum equals a true probability in real arithmetic but can round
  // a few ulp past 1; snap the aggregate back into range.
  return units::Probability::clamped(q[i].value() * success);
}

units::Probability nonfading_success_probability_mc(
    const Network& net, const units::ProbabilityVector& q, LinkId i,
    units::Threshold beta, std::size_t trials, util::RngStream& rng) {
  validate_probabilities(net, q);
  require(i < net.size(), "nonfading_success_probability_mc: id range");
  require(beta.value() > 0.0,
          "nonfading_success_probability_mc: beta > 0 required");
  require(trials > 0, "nonfading_success_probability_mc: trials > 0 required");
  if (util::fp::exact_zero(q[i].value())) return units::Probability(0.0);
  const double budget = net.signal(i) / beta.value();
  std::size_t hits = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    if (!rng.bernoulli(q[i].value())) continue;  // i itself must transmit
    double interference = net.noise();
    for (LinkId j = 0; j < net.size(); ++j) {
      if (j == i || util::fp::exact_zero(q[j].value())) continue;
      if (rng.bernoulli(q[j].value())) interference += net.mean_gain(j, i);
    }
    if (interference <= budget) ++hits;
  }
  return units::Probability(static_cast<double>(hits) /
                            static_cast<double>(trials));
}

double expected_nonfading_successes_mc(const Network& net,
                                       const units::ProbabilityVector& q,
                                       units::Threshold beta,
                                       std::size_t trials,
                                       util::RngStream& rng) {
  validate_probabilities(net, q);
  require(beta.value() > 0.0,
          "expected_nonfading_successes_mc: beta > 0 required");
  require(trials > 0, "expected_nonfading_successes_mc: trials > 0 required");
  double total = 0.0;
  model::LinkSet active;
  for (std::size_t t = 0; t < trials; ++t) {
    active.clear();
    for (LinkId j = 0; j < net.size(); ++j) {
      if (q[j].value() > 0.0 && rng.bernoulli(q[j].value())) {
        active.push_back(j);
      }
    }
    total += static_cast<double>(
        model::count_successes_nonfading(net, active, beta));
  }
  return total / static_cast<double>(trials);
}

}  // namespace raysched::core
