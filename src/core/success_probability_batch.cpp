#include "core/success_probability_batch.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "core/success_probability.hpp"
#include "model/rayleigh.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"
#include "util/fp.hpp"

namespace raysched::core {

using model::LinkId;
using model::LinkSet;
using model::Network;

SuccessProbabilityKernel::SuccessProbabilityKernel(const Network& net,
                                                   units::Threshold beta,
                                                   BatchExecutor executor)
    : n_(net.size()),
      leaves_(std::bit_ceil(net.size() > 0 ? net.size() : std::size_t{1})),
      beta_(beta),
      exec_(std::move(executor)) {
  require(beta.value() > 0.0,
          "SuccessProbabilityKernel: beta must be positive");
  const double b = beta_.value();
  c_.resize(n_ * n_);
  neg_exponent_.resize(n_);
  noise_factor_.resize(n_);
  for (LinkId i = 0; i < n_; ++i) {
    RAYSCHED_EXPECT(net.signal(i) > 0.0,
                    "SuccessProbabilityKernel: signal S(i,i) must be "
                    "positive");
    neg_exponent_[i] = -b * net.noise() / net.signal(i);
    RAYSCHED_EXPECT(neg_exponent_[i] <= 0.0,
                    "noise exponent must be non-positive");
    noise_factor_[i] = std::exp(neg_exponent_[i]);
  }
  run_chunks(n_, [&](std::size_t lo, std::size_t hi) {
    for (LinkId j = lo; j < hi; ++j) {
      double* row = c_.data() + j * n_;
      for (LinkId i = 0; i < n_; ++i) {
        // beta / (beta + S(i,i)/S(j,i)) rewritten division-safely as
        // beta*S(j,i) / (beta*S(j,i) + S(i,i)); correct also when S(j,i)==0.
        const double sji = net.mean_gain(j, i);
        row[i] = b * sji / (b * sji + net.signal(i));
      }
      // Exact zero so the self-factor 1 - c(j,j) q_j multiplies as 1.0,
      // which is bitwise neutral; no branch needed in the hot loops.
      row[j] = 0.0;
    }
  });
}

void SuccessProbabilityKernel::set_executor(BatchExecutor executor) {
  exec_ = std::move(executor);
}

double SuccessProbabilityKernel::affectance(LinkId sender,
                                            LinkId receiver) const {
  require(sender < n_ && receiver < n_,
          "SuccessProbabilityKernel::affectance: id out of range");
  return c_[sender * n_ + receiver];
}

void SuccessProbabilityKernel::validate_input(
    const units::ProbabilityVector& q) const {
  require(q.size() == n_,
          "SuccessProbabilityKernel: probability vector size must equal the "
          "network size");
  for (units::Probability p : q) {
    require(p.value() >= 0.0 && p.value() <= 1.0,
            "SuccessProbabilityKernel: probabilities must be in [0,1]");
  }
}

// raysched:hot
void SuccessProbabilityKernel::run_chunks(
    std::size_t count,
    // The executor hook is the one sanctioned per-iteration dispatch in a hot
    // region: it fires once per batch (not per element), and the chunk bodies
    // run as plain lambdas inside it.
    const std::function<void(std::size_t, std::size_t)>& body  // raysched-mem: allow(RS-M6): per-batch executor hook, not per-element dispatch
) const {
  if (exec_ && count > 1) {
    exec_(count, body);
  } else {
    body(0, count);
  }
}

// raysched:hot
void SuccessProbabilityKernel::evaluate(const units::ProbabilityVector& q,
                                        std::vector<double>& out) const {
  validate_input(q);
  out.resize(n_);
  run_chunks(n_, [&](std::size_t lo, std::size_t hi) {
    for (LinkId i = lo; i < hi; ++i) {
      out[i] = q[i].value() * noise_factor_[i];
    }
    for (LinkId j = 0; j < n_; ++j) {
      const double qj = q[j].value();
      if (util::fp::exact_zero(qj)) continue;
      const double* row = c_.data() + j * n_;
      for (LinkId i = lo; i < hi; ++i) {
        out[i] *= 1.0 - row[i] * qj;
      }
    }
  });
}

std::vector<double> SuccessProbabilityKernel::evaluate(
    const units::ProbabilityVector& q) const {
  std::vector<double> out;
  evaluate(q, out);
  return out;
}

// raysched:hot
void SuccessProbabilityKernel::evaluate_conditional(
    const units::ProbabilityVector& q, std::vector<double>& out) const {
  validate_input(q);
  out.resize(n_);
  run_chunks(n_, [&](std::size_t lo, std::size_t hi) {
    for (LinkId i = lo; i < hi; ++i) {
      out[i] = noise_factor_[i];
    }
    for (LinkId j = 0; j < n_; ++j) {
      const double qj = q[j].value();
      if (util::fp::exact_zero(qj)) continue;
      const double* row = c_.data() + j * n_;
      for (LinkId i = lo; i < hi; ++i) {
        out[i] *= 1.0 - row[i] * qj;
      }
    }
  });
}

std::vector<double> SuccessProbabilityKernel::evaluate_log(
    const units::ProbabilityVector& q) const {
  std::vector<double> out;
  evaluate_log(q, out);
  return out;
}

// raysched:hot
void SuccessProbabilityKernel::evaluate_log(const units::ProbabilityVector& q,
                                            std::vector<double>& out) const {
  validate_input(q);
  out.resize(n_);
  run_chunks(n_, [&](std::size_t lo, std::size_t hi) {
    for (LinkId i = lo; i < hi; ++i) {
      out[i] = util::fp::exact_zero(q[i].value())
                   ? -std::numeric_limits<double>::infinity()
                   : std::log(q[i].value()) + neg_exponent_[i];
    }
    for (LinkId j = 0; j < n_; ++j) {
      const double qj = q[j].value();
      if (util::fp::exact_zero(qj)) continue;
      const double* row = c_.data() + j * n_;
      for (LinkId i = lo; i < hi; ++i) {
        // c(j,i) < 1 strictly (S(i,i) > 0), so the argument stays > -1 and
        // log1p is finite even where exp(out[i]) would underflow.
        out[i] += std::log1p(-row[i] * qj);
      }
    }
  });
}

void SuccessProbabilityKernel::set_probabilities(
    const units::ProbabilityVector& q) {
  validate_input(q);
  q_ = q;
  values_.resize(n_);
  nz_count_ = 0;
  for (LinkId j = 0; j < n_; ++j) {
    if (!util::fp::exact_zero(q_[j].value())) ++nz_count_;
  }
  if (sparse_eligible()) {
    sparse_refresh_values();
    tree_dirty_ = true;
  } else {
    rebuild_tree();
  }
  has_state_ = true;
}

bool SuccessProbabilityKernel::sparse_eligible() const {
  // Value-only refresh costs O(nz) row sweeps; the eager walk costs O(path
  // merges) but keeps the whole O(n^2) forest warm. Stay sparse while nz is
  // far below n — schedules are (|S| << n), probability vectors are not.
  return nz_count_ <= 32 || nz_count_ * 32 <= leaves_;
}

void SuccessProbabilityKernel::rebuild_tree() {
  if (tree_.empty()) {
    // Rows are materialized on demand (rep_ tracks which); the backing
    // store is sized once so update paths never allocate. Rows
    // [leaves_+n_, 2*leaves_) are padding leaves of links that do not
    // exist; their rep_ entry stays 0 (permanent identity factors).
    tree_.resize(2 * leaves_ * n_);
    rep_.resize(2 * leaves_);
  }
  run_chunks(n_, [&](std::size_t lo, std::size_t hi) {
    for (LinkId j = lo; j < hi; ++j) {
      const std::size_t node = leaves_ + j;
      const double qj = q_[j].value();
      if (util::fp::exact_zero(qj)) {
        // Leaf row would be exactly all-ones (1 - c*0); never materialize.
        rep_[node] = 0;
        continue;
      }
      double* leaf = tree_.data() + node * n_;
      const double* row = c_.data() + j * n_;
      for (LinkId i = 0; i < n_; ++i) {
        leaf[i] = 1.0 - row[i] * qj;
      }
      rep_[node] = node;
    }
  });
  for (std::size_t j = n_; j < leaves_; ++j) rep_[leaves_ + j] = 0;
  for (std::size_t half = leaves_ / 2; half >= 1; half /= 2) {
    run_chunks(half, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t k = half + lo; k < half + hi; ++k) {
        refresh_interior(k);
      }
    });
  }
  refresh_values();
  tree_dirty_ = false;
}

namespace {
// Column-block width for combine_sparse: the whole fold runs block by block
// so every stack row segment stays cache-resident and DRAM traffic reduces
// to one streaming read of each nonzero leaf's c_ row. Per-element
// arithmetic is independent of the blocking, so results are bit-identical
// for any width.
constexpr std::size_t kSparseBlock = 512;
}  // namespace

// raysched:hot
void SuccessProbabilityKernel::sparse_refresh_values() {
  nz_scratch_.clear();
  for (LinkId j = 0; j < n_; ++j) {
    if (!util::fp::exact_zero(q_[j].value())) nz_scratch_.push_back(j);
  }
  // One live row per recursion level, plus one for the merge in flight.
  const std::size_t depth =
      static_cast<std::size_t>(std::bit_width(leaves_)) + 1;
  if (stack_scratch_.size() < depth * kSparseBlock) {
    stack_scratch_.resize(depth * kSparseBlock);
  }
  for (std::size_t b0 = 0; b0 < n_; b0 += kSparseBlock) {
    const std::size_t b1 = std::min(b0 + kSparseBlock, n_);
    std::size_t top = 0;
    const double* root =
        combine_sparse(0, leaves_, 0, nz_scratch_.size(), top, b0, b1);
    if (root == nullptr) {
      // Every q is exactly 0: values are q_i * noise * 1.0 == 0.0, the
      // same bits the materialized all-ones root would give.
      for (LinkId i = b0; i < b1; ++i) {
        values_[i] = q_[i].value() * noise_factor_[i];
      }
      continue;
    }
    for (LinkId i = b0; i < b1; ++i) {
      values_[i] = q_[i].value() * noise_factor_[i] * root[i - b0];
    }
  }
}

// Folds the nonzero leaves inside leaf-index range [lo, hi) — they are
// nz_scratch_[a, b), ascending — into a single product-row segment over
// columns [col0, col1), using the exact association of the rep_ tree: split
// at the leaf midpoint, fold each half, then multiply the halves. Identity
// subtrees return nullptr and are skipped, and a subtree holding exactly
// one nonzero leaf returns that leaf's row directly — both are bitwise
// neutral (1.0 * x == x, and every interior node above a lone leaf is an
// alias in the rep_ tree). Returns the topmost live stack row; each
// non-null return leaves exactly one net row on the stack, so the live
// depth never exceeds the recursion depth.
// raysched:hot
double* SuccessProbabilityKernel::combine_sparse(std::size_t lo,
                                                 std::size_t hi,
                                                 std::size_t a, std::size_t b,
                                                 std::size_t& top,
                                                 std::size_t col0,
                                                 std::size_t col1) {
  if (a == b) return nullptr;
  const std::size_t w = col1 - col0;
  if (b - a == 1) {
    const LinkId j = nz_scratch_[a];
    const double qj = q_[j].value();
    double* out = stack_scratch_.data() + top * kSparseBlock;
    ++top;
    const double* row = c_.data() + j * n_ + col0;
    for (std::size_t i = 0; i < w; ++i) {
      out[i] = 1.0 - row[i] * qj;
    }
    return out;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  const std::size_t m = static_cast<std::size_t>(
      std::lower_bound(nz_scratch_.begin() + a, nz_scratch_.begin() + b,
                       mid) -
      nz_scratch_.begin());
  double* left = combine_sparse(lo, mid, a, m, top, col0, col1);
  double* right = combine_sparse(mid, hi, m, b, top, col0, col1);
  if (left == nullptr) return right;
  if (right == nullptr) return left;
  for (std::size_t i = 0; i < w; ++i) {
    left[i] = left[i] * right[i];
  }
  --top;  // the right row is the topmost; its product now lives in left
  return left;
}

// raysched:hot
void SuccessProbabilityKernel::refresh_interior(std::size_t node) {
  const std::size_t left = rep_[2 * node];
  const std::size_t right = rep_[2 * node + 1];
  if (left == 0) {
    rep_[node] = right;  // 1 * x == x bitwise; alias instead of copying
    return;
  }
  if (right == 0) {
    rep_[node] = left;
    return;
  }
  double* out = tree_.data() + node * n_;
  const double* l = tree_.data() + left * n_;
  const double* r = tree_.data() + right * n_;
  for (LinkId i = 0; i < n_; ++i) {
    out[i] = l[i] * r[i];
  }
  rep_[node] = node;
}

// raysched:hot
void SuccessProbabilityKernel::refresh_values() {
  if (rep_[1] == 0) {
    // Root is an identity product: every q is exactly 0, so every value is
    // q_i * noise * 1.0 == 0.0 — the same bits the materialized root gives.
    for (LinkId i = 0; i < n_; ++i) {
      values_[i] = q_[i].value() * noise_factor_[i];
    }
    return;
  }
  const double* root = tree_.data() + rep_[1] * n_;
  for (LinkId i = 0; i < n_; ++i) {
    values_[i] = q_[i].value() * noise_factor_[i] * root[i];
  }
}

// raysched:hot
void SuccessProbabilityKernel::update_link(LinkId sender,
                                           units::Probability value) {
  require(has_state_,
          "SuccessProbabilityKernel::update_link: call set_probabilities "
          "first");
  require(sender < n_,
          "SuccessProbabilityKernel::update_link: id out of range");
  require(value.value() >= 0.0 && value.value() <= 1.0,
          "SuccessProbabilityKernel::update_link: probability must be in "
          "[0,1]");
  const bool was_nz = !util::fp::exact_zero(q_[sender].value());
  const bool now_nz = !util::fp::exact_zero(value.value());
  // size_t arithmetic: a 0 -> 1 transition adds one, 1 -> 0 wraps to -1.
  nz_count_ +=
      static_cast<std::size_t>(now_nz) - static_cast<std::size_t>(was_nz);
  q_[sender] = value;
  if (sparse_eligible()) {
    sparse_refresh_values();
    tree_dirty_ = true;
    return;
  }
  if (tree_dirty_) {
    // First dense update after a sparse phase: the interior rows are stale,
    // so rebuild the forest from q_ (cost scales with the current nonzero
    // count thanks to rep_, not with n).
    rebuild_tree();
    return;
  }
  const double qj = value.value();
  const std::size_t node = leaves_ + sender;
  if (util::fp::exact_zero(qj)) {
    rep_[node] = 0;
  } else {
    double* leaf = tree_.data() + node * n_;
    const double* row = c_.data() + sender * n_;
    for (LinkId i = 0; i < n_; ++i) {
      leaf[i] = 1.0 - row[i] * qj;
    }
    rep_[node] = node;
  }
  for (std::size_t k = node / 2; k >= 1; k /= 2) {
    refresh_interior(k);
  }
  refresh_values();
}

void SuccessProbabilityKernel::reset() {
  has_state_ = false;
  q_.clear();
  nz_count_ = 0;
  tree_dirty_ = true;
  // tree_ / values_ keep their capacity (and size) so the next
  // set_probabilities re-enters incremental mode without reallocating;
  // set_probabilities overwrites every row it reads.
}

const std::vector<double>& SuccessProbabilityKernel::success_probabilities()
    const {
  require(has_state_,
          "SuccessProbabilityKernel: call set_probabilities first");
  return values_;
}

units::Probability SuccessProbabilityKernel::success_probability(
    LinkId i) const {
  require(has_state_,
          "SuccessProbabilityKernel: call set_probabilities first");
  require(i < n_,
          "SuccessProbabilityKernel::success_probability: id out of range");
  return units::Probability::clamped(values_[i]);
}

double SuccessProbabilityKernel::expected_successes() const {
  require(has_state_,
          "SuccessProbabilityKernel: call set_probabilities first");
  double total = 0.0;
  for (double v : values_) total += v;
  RAYSCHED_ENSURE(std::isfinite(total) && total >= 0.0,
                  "expected successes must be finite and non-negative");
  return total;
}

const units::ProbabilityVector& SuccessProbabilityKernel::probabilities()
    const {
  require(has_state_,
          "SuccessProbabilityKernel: call set_probabilities first");
  return q_;
}

namespace {

void run_chunked(const BatchExecutor& executor, std::size_t count,
                 const std::function<void(std::size_t, std::size_t)>& body) {
  if (executor && count > 1) {
    executor(count, body);
  } else {
    body(0, count);
  }
}

}  // namespace

std::vector<double> batch_rayleigh_success_probabilities(
    const Network& net, const units::ProbabilityVector& q,
    units::Threshold beta, const BatchExecutor& executor) {
  validate_probabilities(net, q);
  require(beta.value() > 0.0,
          "batch_rayleigh_success_probabilities: beta must be positive");
  std::vector<double> out(net.size());
  run_chunked(executor, net.size(), [&](std::size_t lo, std::size_t hi) {
    for (LinkId i = lo; i < hi; ++i) {
      out[i] = util::fp::exact_zero(q[i].value())
                   ? 0.0
                   : detail::rayleigh_success_probability_unchecked(net, q, i,
                                                                    beta);
    }
  });
  return out;
}

double batch_expected_rayleigh_successes(const Network& net,
                                         const units::ProbabilityVector& q,
                                         units::Threshold beta,
                                         const BatchExecutor& executor) {
  const std::vector<double> values =
      batch_rayleigh_success_probabilities(net, q, beta, executor);
  // Ascending link order, matching the scalar aggregate. Zero entries are
  // bitwise no-ops on a non-negative running sum, so links with q_i == 0
  // need no skip branch.
  double total = 0.0;
  for (double v : values) total += v;
  RAYSCHED_ENSURE(total <= static_cast<double>(net.size()),
                  "expected successes cannot exceed the number of links");
  return total;
}

std::vector<double> batch_success_probabilities_active(
    const Network& net, const LinkSet& active, units::Threshold beta,
    const BatchExecutor& executor) {
  require(beta.value() > 0.0,
          "batch_success_probabilities_active: beta must be positive");
  for (LinkId j : active) {
    require(j < net.size(),
            "batch_success_probabilities_active: id out of range");
  }
  std::vector<double> out(active.size());
  run_chunked(executor, active.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t a = lo; a < hi; ++a) {
      out[a] = model::detail::success_probability_rayleigh_unchecked(
          net, active, active[a], beta);
    }
  });
  return out;
}

double batch_expected_successes_active(const Network& net,
                                       const LinkSet& active,
                                       units::Threshold beta,
                                       const BatchExecutor& executor) {
  // Serial: the scalar aggregate adds each value as it is produced — the
  // same values in the same set order, with no buffer — so pricing a
  // schedule on the serving path allocates nothing.
  if (!executor) return model::expected_successes_rayleigh(net, active, beta);
  const std::vector<double> values =
      batch_success_probabilities_active(net, active, beta, executor);
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

}  // namespace raysched::core
