// raysched: optimizing transmission probabilities in the Rayleigh model.
//
// Section 5 measures the Rayleigh-fading optimum over *probability
// assignments* q in [0,1]^n: max E(q) = sum_i Q_i(q, beta) with Q_i the
// Theorem 1 closed form. Two structural facts drive this module:
//
//  1. E(q) is multilinear: each Q_i is q_i times a product of terms
//     (1 - c_{ji} q_j) that are affine in every coordinate. Hence E is
//     affine in each q_k separately, so some maximizer lies at a vertex of
//     the cube — the single-slot Rayleigh optimum is attained by a
//     *deterministic* transmit set. Coordinate ascent therefore converges
//     to a 0/1 profile and is a principled OPT search.
//
//  2. The gradient has a closed form:
//       dE/dq_k = Q_k(q)/q_k  -  sum_{i != k} Q_i(q) c_{ki} / (1 - c_{ki} q_k)
//     with c_{ki} = beta S̄(k,i) / (beta S̄(k,i) + S̄(i,i)); the first term
//     is evaluated as E_k prod_{j != k}(1 - c_{jk} q_j) so q_k = 0 is fine.
//
// Provides the exact gradient, projected gradient ascent, and coordinate
// (bit-flip) ascent. The latter is used as the Rayleigh-OPT reference in
// the A7 ablation.
#pragma once

#include <vector>

#include "model/network.hpp"
#include "util/rng.hpp"

namespace raysched::algorithms {

/// Exact gradient of E(q) = sum_i Q_i(q, beta) (Theorem 1 closed form).
/// O(n^2).
[[nodiscard]] std::vector<double> expected_capacity_gradient(
    const model::Network& net, const std::vector<double>& q, double beta);

/// Result of a probability optimization run.
struct ProbabilityOptResult {
  std::vector<double> q;  ///< final probabilities
  double value = 0.0;     ///< E(q) at the final point
  std::size_t iterations = 0;
  bool converged = false;
};

struct GradientAscentOptions {
  double step = 0.5;
  std::size_t max_iterations = 500;
  double tolerance = 1e-9;  ///< stop when the objective gain per step drops below
};

/// Projected gradient ascent on [0,1]^n from the given start point. Takes
/// the start point by value on purpose: the optimizer mutates it in place
/// and moves it into the result.
[[nodiscard]] ProbabilityOptResult maximize_capacity_gradient_ascent(
    const model::Network& net, double beta, std::vector<double> q_start,  // raysched-check: allow(RS-M2): sink parameter, mutated and moved into the result
    const GradientAscentOptions& options = {});

struct CoordinateAscentOptions {
  std::size_t max_sweeps = 200;
  int restarts = 4;           ///< random 0/1 restarts (first starts from greedy-empty)
  std::uint64_t seed = 99;
};

/// Coordinate ascent over vertices: repeatedly flips the single bit with the
/// largest objective gain until no flip helps; best over restarts. Because
/// E is multilinear, the returned q is 0/1 and a local maximum over single
/// flips (a "1-opt" Rayleigh transmit set).
[[nodiscard]] ProbabilityOptResult maximize_capacity_coordinate_ascent(
    const model::Network& net, double beta,
    const CoordinateAscentOptions& options = {});

}  // namespace raysched::algorithms
