#include "core/success_probability_batch.hpp"

#include <bit>
#include <cmath>
#include <limits>

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
                                                   units::Threshold beta)
    : n_(net.size()),
      leaves_(std::bit_ceil(net.size() > 0 ? net.size() : std::size_t{1})),
      beta_(beta) {
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
  for (LinkId j = 0; j < n_; ++j) {
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
void SuccessProbabilityKernel::evaluate(const units::ProbabilityVector& q,
                                        std::vector<double>& out) const {
  validate_input(q);
  out.resize(n_);
  for (LinkId i = 0; i < n_; ++i) {
    out[i] = q[i].value() * noise_factor_[i];
  }
  for (LinkId j = 0; j < n_; ++j) {
    const double qj = q[j].value();
    if (util::fp::exact_zero(qj)) continue;
    const double* row = c_.data() + j * n_;
    for (LinkId i = 0; i < n_; ++i) {
      out[i] *= 1.0 - row[i] * qj;
    }
  }
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
  for (LinkId i = 0; i < n_; ++i) {
    out[i] = noise_factor_[i];
  }
  for (LinkId j = 0; j < n_; ++j) {
    const double qj = q[j].value();
    if (util::fp::exact_zero(qj)) continue;
    const double* row = c_.data() + j * n_;
    for (LinkId i = 0; i < n_; ++i) {
      out[i] *= 1.0 - row[i] * qj;
    }
  }
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
  for (LinkId i = 0; i < n_; ++i) {
    out[i] = util::fp::exact_zero(q[i].value())
                 ? -std::numeric_limits<double>::infinity()
                 : std::log(q[i].value()) + neg_exponent_[i];
  }
  for (LinkId j = 0; j < n_; ++j) {
    const double qj = q[j].value();
    if (util::fp::exact_zero(qj)) continue;
    const double* row = c_.data() + j * n_;
    for (LinkId i = 0; i < n_; ++i) {
      // c(j,i) < 1 strictly (S(i,i) > 0), so the argument stays > -1 and
      // log1p is finite even where exp(out[i]) would underflow.
      out[i] += std::log1p(-row[i] * qj);
    }
  }
}

void SuccessProbabilityKernel::set_probabilities(
    const units::ProbabilityVector& q) {
  validate_input(q);
  if (tree_.empty()) {
    // Sized once, so update_link never allocates. Initializing the whole
    // forest to 1.0 makes the padding leaves permanent identity factors.
    tree_.assign(2 * leaves_ * n_, 1.0);
    values_.resize(n_);
  }
  q_ = q;
  for (LinkId j = 0; j < n_; ++j) {
    double* leaf = tree_.data() + (leaves_ + j) * n_;
    const double* row = c_.data() + j * n_;
    const double qj = q_[j].value();
    for (LinkId i = 0; i < n_; ++i) {
      leaf[i] = 1.0 - row[i] * qj;
    }
  }
  for (std::size_t k = leaves_ - 1; k >= 1; --k) {
    refresh_interior(k);
  }
  refresh_values();
  has_state_ = true;
}

// raysched:hot
void SuccessProbabilityKernel::refresh_interior(std::size_t node) {
  double* out = tree_.data() + node * n_;
  const double* left = tree_.data() + 2 * node * n_;
  const double* right = tree_.data() + (2 * node + 1) * n_;
  for (LinkId i = 0; i < n_; ++i) {
    out[i] = left[i] * right[i];
  }
}

// raysched:hot
void SuccessProbabilityKernel::refresh_values() {
  const double* root = tree_.data() + n_;  // node 1
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
  q_[sender] = value;
  const double qj = value.value();
  const std::size_t node = leaves_ + sender;
  double* leaf = tree_.data() + node * n_;
  const double* row = c_.data() + sender * n_;
  for (LinkId i = 0; i < n_; ++i) {
    leaf[i] = 1.0 - row[i] * qj;
  }
  for (std::size_t k = node / 2; k >= 1; k /= 2) {
    refresh_interior(k);
  }
  refresh_values();
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

std::vector<double> batch_rayleigh_success_probabilities(
    const Network& net, const units::ProbabilityVector& q,
    units::Threshold beta) {
  validate_probabilities(net, q);
  require(beta.value() > 0.0,
          "batch_rayleigh_success_probabilities: beta must be positive");
  std::vector<double> out(net.size());
  for (LinkId i = 0; i < net.size(); ++i) {
    out[i] = util::fp::exact_zero(q[i].value())
                 ? 0.0
                 : detail::rayleigh_success_probability_unchecked(net, q, i,
                                                                  beta);
  }
  return out;
}

double batch_expected_successes_active(const Network& net,
                                       const LinkSet& active,
                                       units::Threshold beta) {
  return model::expected_successes_rayleigh(net, active, beta);
}

}  // namespace raysched::core
