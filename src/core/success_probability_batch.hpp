// raysched: the Theorem-1 success probabilities of all links at once.
//
// Consumers of Theorem 1 under probabilistic access — expected capacity,
// its gradient, the latency bounds and fictitious play — need Q_i(q, beta)
// for ALL links at once. The all-links forms here validate q and beta once
// and then loop over core's two per-link bodies
// (detail::rayleigh_success_probability_unchecked and its log twin), so
// every element is bit-identical to the per-link public function: one
// formula, no cached matrix, O(n^2) time and O(1) memory beyond `out`.
//
// A fixed transmitting set (q in {0,1}) needs no batch unit: its closed
// form is model::detail::success_chance, behind
// model::expected_successes_rayleigh and the coordinate ascent's flip gains.
//
// Layering: core must not include learning/ or sim/ (raysched_check RS-A1).
// Every entry point runs serially on the calling thread; callers that want
// parallelism split work above this layer.
#pragma once

#include <vector>

#include "model/network.hpp"
#include "util/units.hpp"

namespace raysched::core {

/// out[i] = Q_i(q, beta) for every link, each bit-identical to
/// rayleigh_success_probability (q_i == 0 gives an exact 0). The out-buffer
/// forms resize `out` to n and overwrite it, so a reused buffer allocates
/// nothing after warm-up. Throws raysched::error on a bad q or beta <= 0.
void rayleigh_success_probabilities(const model::Network& net,
                                    const units::ProbabilityVector& q,
                                    units::Threshold beta,
                                    std::vector<double>& out);

/// out[i] = P[link i succeeds | it transmits], the others transmitting
/// independently with q (q[i] is ignored): bit for bit
/// rayleigh_success_probability at q with q[i] = 1. The per-round payoff of
/// the learning dynamics and the gradient's Q_i / q_i.
void rayleigh_conditional_success_probabilities(
    const model::Network& net, const units::ProbabilityVector& q,
    units::Threshold beta, std::vector<double>& out);

/// out[i] = ln Q_i(q, beta), each bit-identical to
/// rayleigh_success_log_probability: finite down to Q_i ~ 1e-300000 where
/// the linear product underflows to 0; q_i == 0 yields -infinity.
void rayleigh_success_log_probabilities(const model::Network& net,
                                        const units::ProbabilityVector& q,
                                        units::Threshold beta,
                                        std::vector<double>& out);

/// rayleigh_success_probabilities into a new vector.
[[nodiscard]] std::vector<double> batch_rayleigh_success_probabilities(
    const model::Network& net, const units::ProbabilityVector& q,
    units::Threshold beta);

/// Kept only because rsbench names it: its traced serve run constructs one
/// and times the construction. The constructor checks beta > 0 and the
/// signals and keeps nothing. The rsbench follow-up (ROADMAP item 1)
/// deletes both this and batch_expected_successes_active.
class SuccessProbabilityKernel {
 public:
  SuccessProbabilityKernel(const model::Network& net, units::Threshold beta);
};

/// model::expected_successes_rayleigh under its old core name. It stays only
/// because the benchmark driver (rsbench/) names it and must build
/// unchanged; nothing in the library calls it. New code calls the model
/// function.
[[nodiscard]] double batch_expected_successes_active(
    const model::Network& net, const model::LinkSet& active,
    units::Threshold beta);

}  // namespace raysched::core
