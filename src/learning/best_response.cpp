#include "learning/best_response.hpp"

#include "core/latency_transform.hpp"
#include "model/rayleigh.hpp"
#include "model/sinr.hpp"
#include "util/error.hpp"

namespace raysched::learning {

using model::LinkId;
using model::LinkSet;
using model::Network;

namespace {

LinkSet profile_to_set(const std::vector<bool>& sending) {
  LinkSet active;
  for (LinkId i = 0; i < sending.size(); ++i) {
    if (sending[i]) active.push_back(i);
  }
  return active;
}

/// Expected reward of link i sending against the other senders in
/// `sending` (i's own entry is ignored).
double send_reward(const Network& net, const std::vector<bool>& sending,
                   LinkId i, core::Propagation model, double beta) {
  LinkSet active;
  for (LinkId j = 0; j < sending.size(); ++j) {
    if (j != i && sending[j]) active.push_back(j);
  }
  active.push_back(i);
  if (model == core::Propagation::NonFading) {
    return model::sinr_nonfading(net, active, i) >= beta ? 1.0 : -1.0;
  }
  return 2.0 * model::success_probability_rayleigh(
                   net, active, i, units::Threshold(beta))
                   .value() -
         1.0;
}

}  // namespace

bool is_pure_nash(const Network& net, const std::vector<bool>& sending,
                  core::Propagation model, double beta) {
  require(sending.size() == net.size(), "is_pure_nash: profile size mismatch");
  require(beta > 0.0, "is_pure_nash: beta must be positive");
  for (LinkId i = 0; i < net.size(); ++i) {
    const double reward = send_reward(net, sending, i, model, beta);
    // Staying yields 0. Sending is a strict improvement iff reward > 0;
    // staying is a strict improvement iff reward < 0.
    if (sending[i] && reward < 0.0) return false;
    if (!sending[i] && reward > 0.0) return false;
  }
  return true;
}

BestResponseResult run_best_response(const Network& net,
                                     const BestResponseOptions& options) {
  require(options.beta > 0.0, "run_best_response: beta must be positive");
  require(options.max_rounds > 0, "run_best_response: max_rounds must be > 0");

  BestResponseResult result;
  result.sending.assign(net.size(), options.start_all_sending);

  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    bool changed = false;
    for (LinkId i = 0; i < net.size(); ++i) {
      const double reward =
          send_reward(net, result.sending, i, options.model, options.beta);
      const bool want_send = reward > 0.0;
      if (want_send != result.sending[i]) {
        result.sending[i] = want_send;
        changed = true;
      }
    }
    ++result.rounds;
    if (!changed) {
      result.converged = true;
      break;
    }
  }

  const LinkSet active = profile_to_set(result.sending);
  if (options.model == core::Propagation::NonFading) {
    result.final_successes =
        static_cast<double>(model::count_successes_nonfading(
            net, active, units::Threshold(options.beta)));
  } else {
    result.final_successes = model::expected_successes_rayleigh(
        net, active, units::Threshold(options.beta));
  }
  return result;
}

}  // namespace raysched::learning
