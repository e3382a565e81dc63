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
// (raysched_arch RS-A1). Parallel execution is injected through the
// BatchExecutor hook below; sim/batch_executor.hpp adapts sim::ThreadPool to
// it. With no executor every entry point runs serially, and results are
// identical either way because chunking never changes per-element arithmetic.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "model/network.hpp"
#include "util/units.hpp"

namespace raysched::core {

/// Parallel-for hook: exec(count, body) must invoke body(begin, end) over
/// disjoint chunks covering [0, count), blocking until all chunks are done.
/// An empty executor means "run serially". Chunk boundaries never affect
/// results: each element is computed independently of its chunk.
using BatchExecutor = std::function<void(
    std::size_t, const std::function<void(std::size_t, std::size_t)>&)>;

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
  SuccessProbabilityKernel(const model::Network& net, units::Threshold beta,
                           BatchExecutor executor = {});

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] units::Threshold beta() const { return beta_; }

  /// Replaces the parallel-for hook (empty reverts to serial execution).
  void set_executor(BatchExecutor executor);

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
  /// every cached success probability in O(n log n) worst case by
  /// recomputing one leaf row and the log2(n) ancestors above it. Ancestors
  /// whose sibling subtree holds no nonzero q are aliased instead of
  /// multiplied out (see rep_), so with a sparse q the real cost is O(n)
  /// times the number of merge nodes on the path. Bit-for-bit equal to
  /// calling set_probabilities with the updated vector. Requires
  /// set_probabilities to have been called.
  void update_link(model::LinkId sender, units::Probability value);

  /// Leaves incremental mode: discards q and the cached values but keeps
  /// the affectance matrix and the (already-sized) product forest, so the
  /// next set_probabilities pays no allocation. One-shot evaluation is
  /// unaffected. Safe to call in any state.
  void reset();

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
  void run_chunks(
      std::size_t count,
      const std::function<void(std::size_t, std::size_t)>& body) const;
  [[nodiscard]] bool sparse_eligible() const;
  void rebuild_tree();
  void refresh_interior(std::size_t node);
  void refresh_values();
  void sparse_refresh_values();
  double* combine_sparse(std::size_t lo, std::size_t hi, std::size_t a,
                         std::size_t b, std::size_t& top, std::size_t col0,
                         std::size_t col1);

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
  // sweeps. Row k = n_ doubles at tree_[k*n_]. Allocated lazily by
  // set_probabilities; one-shot evaluation never pays for it.
  //
  // Sparse representation: rep_[k] names the node whose materialized row
  // holds node k's product — 0 when the whole subtree is an identity (all
  // q in it are exactly 0, so the product row is exactly all-ones), the id
  // of the single non-identity child's representative when only one side
  // contributes, and k itself when both children contribute and the row at
  // tree_[k*n_] was multiplied out. Because 1.0 * x == x exactly in IEEE
  // arithmetic, skipping identity factors and aliasing through single
  // contributors yields the same bits as materializing every row, while a
  // sparse q (coordinate ascent's restart from q = 0) touches O(#nonzero)
  // rows instead of O(n).
  std::vector<double> tree_;
  std::vector<std::size_t> rep_;
  std::vector<double> values_;
  units::ProbabilityVector q_;
  bool has_state_ = false;
  // Number of links with a nonzero q. When it is small (sparse_eligible),
  // the update path skips interior maintenance entirely and recompute the
  // cached values by folding the nonzero leaves in the exact tree
  // association via a log-depth scratch stack (combine_sparse) — the same
  // multiplication tree, so the same bits, at O(#nonzero * n) per refresh
  // with no O(n^2) tree allocation. tree_dirty_ records that the interior
  // rows are stale; the first dense update after a sparse phase rebuilds
  // them from q_ (rebuild_tree).
  std::size_t nz_count_ = 0;
  bool tree_dirty_ = true;
  BatchExecutor exec_;
  // combine_sparse scratch: the ascending ids of nonzero-q links, and a
  // stack pool of ceil(log2(leaves_))+1 rows (one live row per recursion
  // level). Reused across refreshes — zero-alloc after warm-up.
  std::vector<model::LinkId> nz_scratch_;
  std::vector<double> stack_scratch_;
};

/// Fused batch form of the scalar Theorem-1 per-link values: validates q
/// once, then evaluates rayleigh_success_probability's exact expression for
/// every link (bit-identical per element, including the q_i == 0 -> 0 case).
[[nodiscard]] std::vector<double> batch_rayleigh_success_probabilities(
    const model::Network& net, const units::ProbabilityVector& q,
    units::Threshold beta, const BatchExecutor& executor = {});

/// Fused batch form of expected_rayleigh_successes: one validation sweep,
/// per-link values as above, summed in ascending link order. Bit-identical
/// to the scalar aggregate (which now delegates here).
[[nodiscard]] double batch_expected_rayleigh_successes(
    const model::Network& net, const units::ProbabilityVector& q,
    units::Threshold beta, const BatchExecutor& executor = {});

/// Fused batch form of model::success_probability_rayleigh over an active
/// set (q in {0,1}): out[a] is the success probability of active[a] against
/// the whole set, computed with the scalar function's exact division form
/// and iteration order (bit-identical), with the per-link id validation
/// hoisted to one sweep over the set.
[[nodiscard]] std::vector<double> batch_success_probabilities_active(
    const model::Network& net, const model::LinkSet& active,
    units::Threshold beta, const BatchExecutor& executor = {});

/// Fused batch form of model::expected_successes_rayleigh: the values above
/// summed in set order. Bit-identical to the scalar aggregate. With no
/// executor it sums in place and allocates nothing.
[[nodiscard]] double batch_expected_successes_active(
    const model::Network& net, const model::LinkSet& active,
    units::Threshold beta, const BatchExecutor& executor = {});

}  // namespace raysched::core
