// raysched: batched evaluation of the Theorem-1 success probabilities.
//
// Every hot consumer of Theorem 1 — expected_rayleigh_successes, the Lemma-2
// transfer check, and each round of the Section-6 regret dynamics — needs
// Q_i(q, beta) for ALL links at once. Evaluating link-by-link through the
// scalar API costs O(n^2) per batch with a division per (sender, receiver)
// pair plus a redundant O(n) validation sweep per link. This header provides
// the batched path:
//
//  * SuccessProbabilityKernel precomputes the n x n normalized-affectance
//    matrix c(j,i) = beta*S(j,i) / (beta*S(j,i) + S(i,i)) once per
//    (network, beta), turning each Theorem-1 factor into the division-free
//    form 1 - c(j,i) q_j. One-shot batch evaluation is a single pass over
//    the matrix; log-space evaluation is available for large n where the
//    plain product would underflow; and an incremental update_link refreshes
//    all n values after a single-link change in O(n log n) instead of
//    O(n^2) via per-link product trees.
//
//  * The batch_* free functions are fused aggregates that keep the scalar
//    functions' exact expression and iteration order (bit-identical results)
//    while hoisting validation out of the per-link loop. They back the
//    rewired expected_rayleigh_successes / transfer / learning payoffs so
//    pinned regression values are preserved to the last bit.
//
// Layering: the kernel lives in core and must not include learning/ or sim/
// (raysched_check RS-A1). Every entry point runs serially on the calling
// thread; callers that want parallelism split work above this layer.
#pragma once

#include <cstddef>
#include <vector>

#include "model/network.hpp"
#include "util/units.hpp"

namespace raysched::core {

/// Batched Theorem-1 evaluator bound to one (network, beta) pair.
///
/// Two modes share the precomputed affectance matrix:
///
///  * One-shot: evaluate / evaluate_conditional / evaluate_log take a fresh
///    q and return all n values in one O(n^2) pass (no divisions).
///  * Incremental: set_probabilities builds per-link product trees (O(n^2)),
///    after which update_link refreshes every link's value in O(n log n).
///    Tree products are accumulated in a fixed association order, so a
///    sequence of update_link calls reproduces a from-scratch
///    set_probabilities bit-for-bit.
///
/// The kernel copies everything it needs from the network in the
/// constructor; it holds no reference and outlives the network safely.
class SuccessProbabilityKernel {
 public:
  /// Precomputes the affectance matrix and noise factors: O(n^2) time,
  /// O(n^2) memory. Throws raysched::error unless beta > 0.
  SuccessProbabilityKernel(const model::Network& net, units::Threshold beta);

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] units::Threshold beta() const { return beta_; }

  /// The precomputed normalized affectance c(sender, receiver) =
  /// beta*S(j,i) / (beta*S(j,i) + S(i,i)); zero on the diagonal so the
  /// self-factor multiplies as an exact 1.
  [[nodiscard]] double affectance(model::LinkId sender,
                                  model::LinkId receiver) const;

  /// One-shot batch: out[i] = Q_i(q, beta) for every link, in one pass over
  /// the affectance matrix. Factors are applied in ascending sender order,
  /// matching the scalar loop; only the per-factor rounding differs from the
  /// scalar form (a few ulp — see docs/PERFORMANCE.md).
  void evaluate(const units::ProbabilityVector& q,
                std::vector<double>& out) const;
  [[nodiscard]] std::vector<double> evaluate(
      const units::ProbabilityVector& q) const;

  /// Conditional variant: out[i] = Q_i with the q_i prefactor stripped, i.e.
  /// the success probability of link i given that it transmits, against the
  /// others transmitting independently with q (q[i] is ignored). This is the
  /// per-round payoff of the learning dynamics.
  void evaluate_conditional(const units::ProbabilityVector& q,
                            std::vector<double>& out) const;

  /// Log-space batch: out[i] = log Q_i(q, beta) accumulated as
  /// log q_i - beta*nu/S(i,i) + sum_j log1p(-c(j,i) q_j), which stays finite
  /// down to Q_i ~ 1e-300000 where the plain product underflows to 0.
  /// q_i == 0 yields -infinity. The out-buffer form resizes `out` to n and
  /// overwrites it, so a reused buffer allocates nothing after warm-up.
  void evaluate_log(const units::ProbabilityVector& q,
                    std::vector<double>& out) const;
  [[nodiscard]] std::vector<double> evaluate_log(
      const units::ProbabilityVector& q) const;

  /// Enters incremental mode: stores q, builds the per-link product trees
  /// (O(n^2)), and caches all n success probabilities.
  void set_probabilities(const units::ProbabilityVector& q);

  /// Incremental single-link change: sets q[sender] = value and refreshes
  /// every cached success probability in O(n log n) by recomputing one leaf
  /// row and the log2(n) ancestors above it. Bit-for-bit equal to calling
  /// set_probabilities with the updated vector. Requires set_probabilities
  /// to have been called.
  void update_link(model::LinkId sender, units::Probability value);

  /// True once set_probabilities has been called.
  [[nodiscard]] bool has_state() const { return has_state_; }

  /// Cached Q_i values for the current q (incremental mode only).
  [[nodiscard]] const std::vector<double>& success_probabilities() const;
  [[nodiscard]] units::Probability success_probability(model::LinkId i) const;

  /// Sum of the cached Q_i in ascending link order (incremental mode only).
  [[nodiscard]] double expected_successes() const;

  /// The probability vector currently held in incremental mode.
  [[nodiscard]] const units::ProbabilityVector& probabilities() const;

 private:
  void validate_input(const units::ProbabilityVector& q) const;
  void refresh_interior(std::size_t node);
  void refresh_values();

  std::size_t n_ = 0;
  std::size_t leaves_ = 1;  // bit_ceil(n): power-of-two leaf count per tree
  units::Threshold beta_;
  // c_[j*n + i] = c(j, i), zero on the diagonal.
  std::vector<double> c_;
  // neg_exponent_[i] = -beta*nu/S(i,i); noise_factor_[i] = exp(neg_exponent_).
  std::vector<double> neg_exponent_;
  std::vector<double> noise_factor_;
  // Transposed product forest: row k (k in [1, 2*leaves_)) holds node k of
  // every link's tree contiguously, so leaf and path refreshes are linear
  // sweeps. Row k = n_ doubles at tree_[k*n_]. Allocated by the first
  // set_probabilities; one-shot evaluation never pays for it. Rows
  // [leaves_+n_, 2*leaves_) are padding leaves of links that do not exist,
  // held at 1.0 so they multiply as exact identities.
  std::vector<double> tree_;
  std::vector<double> values_;
  units::ProbabilityVector q_;
  bool has_state_ = false;
};

/// Fused batch form of the scalar Theorem-1 per-link values: validates q
/// once, then evaluates rayleigh_success_probability's exact expression for
/// every link (bit-identical per element, including the q_i == 0 -> 0 case).
[[nodiscard]] std::vector<double> batch_rayleigh_success_probabilities(
    const model::Network& net, const units::ProbabilityVector& q,
    units::Threshold beta);

/// Fused batch form of expected_rayleigh_successes: one validation sweep,
/// per-link values as above, summed in ascending link order. Bit-identical
/// to the scalar aggregate (which now delegates here).
[[nodiscard]] double batch_expected_rayleigh_successes(
    const model::Network& net, const units::ProbabilityVector& q,
    units::Threshold beta);

/// Fused batch form of model::success_probability_rayleigh over an active
/// set (q in {0,1}): out[a] is the success probability of active[a] against
/// the whole set, computed with the scalar function's exact division form
/// and iteration order (bit-identical), with the per-link id validation
/// hoisted to one sweep over the set.
[[nodiscard]] std::vector<double> batch_success_probabilities_active(
    const model::Network& net, const model::LinkSet& active,
    units::Threshold beta);

/// Fused batch form of model::expected_successes_rayleigh: the values above
/// summed in set order. Bit-identical to the scalar aggregate; it sums in
/// place and allocates nothing.
[[nodiscard]] double batch_expected_successes_active(
    const model::Network& net, const model::LinkSet& active,
    units::Threshold beta);

}  // namespace raysched::core
