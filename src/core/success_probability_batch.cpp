#include "core/success_probability_batch.hpp"

#include "core/success_probability.hpp"
#include "model/rayleigh.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"
#include "util/fp.hpp"

namespace raysched::core {

using model::LinkId;
using model::LinkSet;
using model::Network;

namespace {

void validate_batch(const Network& net, const units::ProbabilityVector& q,
                    units::Threshold beta) {
  validate_probabilities(net, q);
  require(beta.value() > 0.0, "Theorem-1 batch: beta must be positive");
}

}  // namespace

// raysched:hot
void rayleigh_success_probabilities(const Network& net,
                                    const units::ProbabilityVector& q,
                                    units::Threshold beta,
                                    std::vector<double>& out) {
  validate_batch(net, q, beta);
  out.resize(net.size());
  for (LinkId i = 0; i < net.size(); ++i) {
    out[i] = util::fp::exact_zero(q[i].value())
                 ? 0.0
                 : detail::rayleigh_success_probability_unchecked(net, q, i,
                                                                  beta);
  }
}

// raysched:hot
void rayleigh_conditional_success_probabilities(
    const Network& net, const units::ProbabilityVector& q,
    units::Threshold beta, std::vector<double>& out) {
  validate_batch(net, q, beta);
  out.resize(net.size());
  for (LinkId i = 0; i < net.size(); ++i) {
    out[i] = detail::rayleigh_success_probability_unchecked(
        net, q, i, beta, /*conditional=*/true);
  }
}

// raysched:hot
void rayleigh_success_log_probabilities(const Network& net,
                                        const units::ProbabilityVector& q,
                                        units::Threshold beta,
                                        std::vector<double>& out) {
  validate_batch(net, q, beta);
  out.resize(net.size());
  for (LinkId i = 0; i < net.size(); ++i) {
    out[i] = detail::rayleigh_success_log_probability_unchecked(net, q, i,
                                                                beta);
  }
}

std::vector<double> batch_rayleigh_success_probabilities(
    const Network& net, const units::ProbabilityVector& q,
    units::Threshold beta) {
  std::vector<double> out;
  rayleigh_success_probabilities(net, q, beta, out);
  return out;
}

SuccessProbabilityKernel::SuccessProbabilityKernel(const Network& net,
                                                   units::Threshold beta) {
  require(beta.value() > 0.0,
          "SuccessProbabilityKernel: beta must be positive");
  for (LinkId i = 0; i < net.size(); ++i) {
    RAYSCHED_EXPECT(net.signal(i) > 0.0,
                    "SuccessProbabilityKernel: signal S(i,i) must be "
                    "positive");
  }
}

double batch_expected_successes_active(const Network& net,
                                       const LinkSet& active,
                                       units::Threshold beta) {
  return model::expected_successes_rayleigh(net, active, beta);
}

}  // namespace raysched::core
