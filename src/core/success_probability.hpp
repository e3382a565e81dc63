// raysched: success probabilities under probabilistic spectrum access.
//
// Each sender transmits independently with probability q_i. In the Rayleigh
// model the probability that link i transmits AND reaches SINR >= beta has
// the closed form of Theorem 1:
//
//   Q_i(q, beta) = q_i * exp(-beta nu / S̄(i,i))
//                      * prod_{j != i} (1 - beta q_j / (beta + S̄(i,i)/S̄(j,i)))
//
// Lemma 1 sandwiches this between two exponentials; those bounds drive both
// the Lemma 2 transfer (1/e factor) and the Theorem 2 simulation argument.
//
// In the non-fading model the same quantity has no product form; we provide
// exact evaluation by subset enumeration (n <= ~25) and Monte-Carlo
// estimation for larger n.
//
// Probabilities and SINR thresholds cross this API as units::Probability /
// units::Threshold strong types; the implementations unwrap once via
// .value() and run the closed forms on raw doubles, so the numerics are
// bit-identical to the pre-typed code.
#pragma once

#include <vector>

#include "model/network.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace raysched::core {

/// Validates a transmission-probability vector: size n, entries in [0,1].
/// (Probability construction already enforces the range in contract builds;
/// this keeps the check in Release where the ctor contract compiles out.)
void validate_probabilities(const model::Network& net,
                            const units::ProbabilityVector& q);

/// Theorem 1: exact Rayleigh success probability of link i under independent
/// transmission probabilities q (includes the factor q_i for i transmitting).
[[nodiscard]] units::Probability rayleigh_success_probability(
    const model::Network& net, const units::ProbabilityVector& q,
    model::LinkId i, units::Threshold beta);

/// Lemma 1 lower bound:
///   Q_i >= q_i * exp(-(beta/S̄(i,i)) * (nu + sum_{j!=i} S̄(j,i) q_j)).
[[nodiscard]] units::Probability rayleigh_success_lower_bound(
    const model::Network& net, const units::ProbabilityVector& q,
    model::LinkId i, units::Threshold beta);

/// Lemma 1 upper bound:
///   Q_i <= q_i * exp(-beta nu/S̄(i,i)
///                    - sum_{j!=i} min{1/2, beta S̄(j,i)/(2 S̄(i,i))} q_j).
[[nodiscard]] units::Probability rayleigh_success_upper_bound(
    const model::Network& net, const units::ProbabilityVector& q,
    model::LinkId i, units::Threshold beta);

/// The interference weight A_i = sum_{j != i} min{1, beta S̄(j,i)/S̄(i,i)} q_j
/// from the proof of Theorem 2 (Lemma 3). A weight, not a probability — it
/// can exceed 1 — so it stays a raw double by design.
[[nodiscard]] double interference_weight(const model::Network& net,
                                         const units::ProbabilityVector& q,
                                         model::LinkId i,
                                         units::Threshold beta);

/// Expected number of Rayleigh-successful transmissions per slot under q
/// (sum of Theorem-1 probabilities). Exact. An expectation over links, not a
/// probability, so it returns double. Validates q once and sums
/// rayleigh_success_probabilities (core/success_probability_batch.hpp) in
/// ascending link order, so each term is rayleigh_success_probability bit
/// for bit.
[[nodiscard]] double expected_rayleigh_successes(
    const model::Network& net, const units::ProbabilityVector& q,
    units::Threshold beta);

/// Theorem 1 in log space: ln Q_i, finite wherever q_i > 0 even when the
/// linear product underflows to a denormal or to zero (n beyond ~40k links
/// at typical coefficients), and exactly -inf when q_i == 0. Bit-identical
/// per element to rayleigh_success_log_probabilities
/// (core/success_probability_batch.hpp). Not a units::Probability — the
/// value lives in (-inf, 0].
[[nodiscard]] double rayleigh_success_log_probability(
    const model::Network& net, const units::ProbabilityVector& q,
    model::LinkId i, units::Threshold beta);

namespace detail {

/// Sender j's term in receiver i's Theorem-1 product: the attenuation
/// c(j,i) = beta S(j,i) / (beta S(j,i) + S(i,i)) and the factor
/// 1 - c(j,i) q_j. Where beta S(j,i) overflows, c is inf/inf as written;
/// with a = S(j,i) (beta / S(i,i)) the term is c = a / (1 + a) and
/// factor = (1 + a (1 - q_j)) / (1 + a), which stays accurate where c
/// rounds to 1, and where a overflows too, c = 1 and factor = 1 - q_j.
struct Theorem1Term {
  double attenuation;
  double factor;
};
[[nodiscard]] Theorem1Term theorem1_term(const model::Network& net,
                                         model::LinkId j, model::LinkId i,
                                         units::Threshold beta, double qj);

/// Theorem-1 per-link evaluation with validation stripped: callers (the
/// public per-link function and the all-links forms) validate q / i / beta
/// once and then loop over this. With `conditional` it reads q_i as 1: the
/// success probability of link i given that it transmits, bit for bit the
/// value at q with q[i] = 1.
[[nodiscard]] double rayleigh_success_probability_unchecked(
    const model::Network& net, const units::ProbabilityVector& q,
    model::LinkId i, units::Threshold beta, bool conditional = false);

/// Log-space Theorem-1 per-link evaluation with validation stripped: the
/// log1p companion of rayleigh_success_probability_unchecked (the RS-N4
/// underflow escape hatch), with the same `conditional` flag.
[[nodiscard]] double rayleigh_success_log_probability_unchecked(
    const model::Network& net, const units::ProbabilityVector& q,
    model::LinkId i, units::Threshold beta, bool conditional = false);

}  // namespace detail

/// Exact non-fading success probability of link i under q, by enumerating
/// all 2^m subsets of interferers with q_j in (0,1) (links with q_j == 0 or
/// 1 are folded in). Throws raysched::error if more than `max_free` links
/// have fractional probabilities (default 25).
[[nodiscard]] units::Probability nonfading_success_probability_exact(
    const model::Network& net, const units::ProbabilityVector& q,
    model::LinkId i, units::Threshold beta, std::size_t max_free = 25);

/// Monte-Carlo estimate of the non-fading success probability of link i
/// under q, using `trials` independent transmit-set draws.
[[nodiscard]] units::Probability nonfading_success_probability_mc(
    const model::Network& net, const units::ProbabilityVector& q,
    model::LinkId i, units::Threshold beta, std::size_t trials,
    util::RngStream& rng);

/// Expected non-fading successes per slot under q, Monte-Carlo.
[[nodiscard]] double expected_nonfading_successes_mc(
    const model::Network& net, const units::ProbabilityVector& q,
    units::Threshold beta, std::size_t trials, util::RngStream& rng);

}  // namespace raysched::core
