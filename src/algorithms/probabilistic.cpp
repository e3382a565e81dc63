#include "algorithms/probabilistic.hpp"

#include <algorithm>
#include <cmath>

#include "core/success_probability.hpp"
#include "model/network.hpp"
#include "model/rayleigh.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"
#include "util/fp.hpp"
#include "util/units.hpp"

namespace raysched::algorithms {

using model::LinkId;
using model::Network;

namespace {

/// c(k,i) = beta S(k,i) / (beta S(k,i) + S(i,i)): the attenuation factor of
/// sender k in receiver i's Theorem-1 product.
double attenuation(const Network& net, LinkId k, LinkId i, double beta) {
  const double ski = net.mean_gain(k, i);
  return beta * ski / (beta * ski + net.signal(i));
}

/// Q_i(q) with the q_i factor stripped: E_i prod_{j != i} (1 - c(j,i) q_j).
double success_core(const Network& net, const std::vector<double>& q, LinkId i,
                    double beta) {
  RAYSCHED_EXPECT(net.signal(i) > 0.0,
                  "success_core: signal S(i,i) must be positive");
  double p = std::exp(-beta * net.noise() / net.signal(i));
  for (LinkId j = 0; j < net.size(); ++j) {
    if (j == i || util::fp::exact_zero(q[j])) continue;
    p *= 1.0 - attenuation(net, j, i, beta) * q[j];
  }
  return p;
}

/// Log-space companion of success_core: ln E_i + sum log1p(-c(j,i) q_j),
/// finite where the linear product underflows (n beyond ~40k active
/// interferers). Used by the gradient to keep cross terms representable
/// after cores[i] hits exact zero.
double success_core_log(const Network& net, const std::vector<double>& q,
                        LinkId i, double beta) {
  RAYSCHED_EXPECT(net.signal(i) > 0.0,
                  "success_core_log: signal S(i,i) must be positive");
  double lp = -beta * net.noise() / net.signal(i);
  for (LinkId j = 0; j < net.size(); ++j) {
    if (j == i || util::fp::exact_zero(q[j])) continue;
    lp += std::log1p(-attenuation(net, j, i, beta) * q[j]);
  }
  return lp;
}

/// Boundary adapter: the optimizer works on raw double vectors (they are
/// mutated in tight clamp/flip loops); core's typed API is entered here.
double expected_successes(const Network& net, const std::vector<double>& q,
                          double beta) {
  return core::expected_rayleigh_successes(net, units::probabilities(q),
                                           units::Threshold(beta));
}

}  // namespace

std::vector<double> expected_capacity_gradient(const Network& net,
                                               const std::vector<double>& q,
                                               double beta) {
  core::validate_probabilities(net, units::probabilities(q));
  require(beta > 0.0, "expected_capacity_gradient: beta must be positive");
  const std::size_t n = net.size();
  // Precompute cores once: O(n^2).
  std::vector<double> cores(n);
  for (LinkId i = 0; i < n; ++i) cores[i] = success_core(net, q, i, beta);

  std::vector<double> grad(n, 0.0);
  for (LinkId k = 0; k < n; ++k) {
    // Own term: d(q_k * core_k)/dq_k = core_k (core_k has no q_k).
    double g = cores[k];
    // Cross terms: Q_i = q_i * core_i contains the factor (1 - c(k,i) q_k);
    // its derivative removes that factor and multiplies by -c(k,i).
    for (LinkId i = 0; i < n; ++i) {
      if (i == k || util::fp::exact_zero(q[i])) continue;
      const double c = attenuation(net, k, i, beta);
      const double factor = 1.0 - c * q[k];
      // factor is >= 1 - c > 0 since c < 1 and q_k <= 1.
      RAYSCHED_EXPECT(factor > 0.0,
                      "gradient factor 1 - c(k,i) q_k must stay positive");
      if (util::fp::exact_zero(cores[i])) {
        // The linear core underflowed to zero: reconstitute the cross term
        // in log space, where core_i / factor stays representable down to
        // the subnormal range instead of collapsing to 0 / factor == 0.
        // The min(0, ·) clamp absorbs the few-ulp overshoot the summed
        // log1p terms can accumulate; the true value is a log probability.
        const double log_term = std::min(
            0.0, success_core_log(net, q, i, beta) - std::log1p(-c * q[k]));
        g -= q[i] * std::exp(log_term) * c;
      } else {
        g -= q[i] * cores[i] / factor * c;
      }
    }
    grad[k] = g;
  }
  return grad;
}

ProbabilityOptResult maximize_capacity_gradient_ascent(
    const Network& net, double beta, std::vector<double> q,
    const GradientAscentOptions& options) {
  core::validate_probabilities(net, units::probabilities(q));
  require(beta > 0.0,
          "maximize_capacity_gradient_ascent: beta must be positive");
  require(options.step > 0.0,
          "maximize_capacity_gradient_ascent: step must be positive");

  ProbabilityOptResult result;
  double value = expected_successes(net, q, beta);
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    const std::vector<double> grad = expected_capacity_gradient(net, q, beta);
    // Backtracking line search along the projected gradient direction.
    double step = options.step;
    bool improved = false;
    for (int bt = 0; bt < 20; ++bt) {
      std::vector<double> next = q;
      for (std::size_t i = 0; i < q.size(); ++i) {
        next[i] = std::clamp(q[i] + step * grad[i], 0.0, 1.0);
      }
      const double next_value = expected_successes(net, next, beta);
      if (next_value > value + options.tolerance) {
        q = std::move(next);
        value = next_value;
        improved = true;
        break;
      }
      step *= 0.5;
    }
    ++result.iterations;
    if (!improved) {
      result.converged = true;
      break;
    }
  }
  result.q = std::move(q);
  result.value = value;
  return result;
}

ProbabilityOptResult maximize_capacity_coordinate_ascent(
    const Network& net, double beta, const CoordinateAscentOptions& options) {
  require(beta > 0.0,
          "maximize_capacity_coordinate_ascent: beta must be positive");
  require(options.restarts >= 1,
          "maximize_capacity_coordinate_ascent: restarts must be >= 1");
  const std::size_t n = net.size();
  const units::Threshold threshold(beta);
  util::RngStream rng(options.seed);

  // q only ever holds 0/1, so Theorem 1 is the fixed-set product over the
  // transmitting set A (ascending ids): chance[x] = Q_i(A) for i = set[x],
  // and scale[x] = c_i = beta / S(i,i). Removing sender k multiplies each
  // other Q_i by (1 + a), adding it divides by (1 + a), a = c_i S(k,i); so
  // every flip gain is a closed form over A. A sweep costs O(n |A|), an
  // accepted flip O(|A|^2) to recompute Q over the new A.
  model::LinkSet set;
  std::vector<double> chance;
  std::vector<double> scale;
  // a = c_i S(k,i) for receiver set[x]; where c_i overflows, one division
  // per factor, as in success_chance.
  const auto affect = [&](LinkId k, std::size_t x) {
    const LinkId i = set[x];
    RAYSCHED_EXPECT(net.signal(i) > 0.0,
                    "a receiver with Q_i > 0 has a positive signal");
    return std::isfinite(scale[x]) ? scale[x] * net.mean_gain(k, i)
                                   : beta * net.mean_gain(k, i) / net.signal(i);
  };
  const auto refresh = [&](const std::vector<double>& q) {
    set.clear();
    for (LinkId i = 0; i < n; ++i) {
      if (!util::fp::exact_zero(q[i])) set.push_back(i);
    }
    chance.resize(set.size());
    scale.resize(set.size());
    double value = 0.0;
    for (std::size_t x = 0; x < set.size(); ++x) {
      chance[x] = model::detail::success_chance(net, set, set[x], threshold);
      // A zero Q_i gains or loses nothing in any flip; its c_i is unused.
      scale[x] = net.signal(set[x]) > 0.0 ? beta / net.signal(set[x]) : 0.0;
      value += chance[x];
    }
    return value;
  };
  // E(A xor {k}) - E(A).
  const auto flip_gain = [&](const std::vector<double>& q, LinkId k) {
    double gain = 0.0;
    if (util::fp::exact_zero(q[k])) {
      // success_chance of a non-member is its Q_k(A + k).
      gain = model::detail::success_chance(net, set, k, threshold);
      for (std::size_t x = 0; x < set.size(); ++x) {
        if (util::fp::exact_zero(chance[x])) continue;
        const double a = affect(k, x);
        gain -= chance[x] * (std::isinf(a) ? 1.0 : a / (1.0 + a));
      }
    } else {
      for (std::size_t x = 0; x < set.size(); ++x) {
        if (set[x] == k) {
          gain -= chance[x];
        } else if (!util::fp::exact_zero(chance[x])) {
          gain += chance[x] * affect(k, x);
        }
      }
    }
    return gain;
  };

  ProbabilityOptResult best;
  best.value = -1.0;

  for (int restart = 0; restart < options.restarts; ++restart) {
    std::vector<double> q(n, 0.0);
    if (restart > 0) {
      for (auto& v : q) v = rng.bernoulli(0.5) ? 1.0 : 0.0;
    }
    double value = refresh(q);
    std::size_t sweeps = 0;
    bool converged = false;
    while (sweeps < options.max_sweeps) {
      // Best single bit flip. Because E is affine in each coordinate, the
      // flip gain is exact and flipping the argmax is a steepest 1-opt move.
      double best_gain = 0.0;
      std::size_t best_idx = n;
      for (LinkId k = 0; k < n; ++k) {
        const double gain = flip_gain(q, k);
        if (gain > best_gain + 1e-12) {
          best_gain = gain;
          best_idx = k;
        }
      }
      ++sweeps;
      if (best_idx == n) {
        converged = true;
        break;
      }
      q[best_idx] = util::fp::exact_zero(q[best_idx]) ? 1.0 : 0.0;
      value = refresh(q);
    }
    if (value > best.value) {
      best.q = q;
      best.value = value;
      best.iterations = sweeps;
      best.converged = converged;
    }
  }
  // The reported value is core's general-q evaluation of the optimum.
  best.value = expected_successes(net, best.q, beta);
  return best;
}

}  // namespace raysched::algorithms
