#include "learning/fictitious_play.hpp"

#include <algorithm>

#include "core/success_probability.hpp"
#include "core/success_probability_batch.hpp"
#include "model/rayleigh.hpp"
#include "model/sinr.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace raysched::learning {

using model::LinkId;
using model::LinkSet;
using model::Network;

namespace {

/// Expected reward of link i sending, against others playing independently
/// with their empirical frequencies `freq` (freq[i] is ignored). Non-fading
/// only: the Rayleigh model evaluates all links at once through core's
/// all-links Theorem-1 form in the round loop below.
double send_reward_vs_frequencies(const Network& net,
                                  const units::ProbabilityVector& freq,
                                  LinkId i,
                                  const FictitiousPlayOptions& options,
                                  util::RngStream& rng) {
  const units::Threshold beta(options.beta);
  units::ProbabilityVector q = freq;
  q[i] = units::Probability(1.0);
  // Non-fading: count fractional interferers to pick exact vs Monte Carlo.
  std::size_t fractional = 0;
  for (LinkId j = 0; j < net.size(); ++j) {
    if (j != i && q[j].value() > 0.0 && q[j].value() < 1.0) ++fractional;
  }
  double p;
  if (fractional <= options.exact_enumeration_limit) {
    p = core::nonfading_success_probability_exact(
            net, q, i, beta, options.exact_enumeration_limit)
            .value();
  } else {
    p = core::nonfading_success_probability_mc(net, q, i, beta,
                                               options.nonfading_trials, rng)
            .value();
  }
  return 2.0 * p - 1.0;
}

}  // namespace

FictitiousPlayResult run_fictitious_play(const Network& net,
                                         const FictitiousPlayOptions& options,
                                         util::RngStream& rng) {
  require(options.rounds > 0, "run_fictitious_play: rounds must be > 0");
  require(options.beta > 0.0, "run_fictitious_play: beta must be positive");
  require(options.warmup_rounds < options.rounds,
          "run_fictitious_play: warmup must be shorter than the run");

  const std::size_t n = net.size();
  std::vector<std::size_t> send_count(n, 0);
  FictitiousPlayResult result;
  result.successes_per_round.reserve(options.rounds);
  result.final_profile.assign(n, false);

  std::vector<double> conditional;

  std::vector<bool> profile(n, false), previous(n, false);
  std::size_t stable_streak = 0;

  for (std::size_t t = 0; t < options.rounds; ++t) {
    if (t < options.warmup_rounds) {
      for (LinkId i = 0; i < n; ++i) profile[i] = rng.bernoulli(0.5);
    } else {
      units::ProbabilityVector freq(n);
      for (LinkId i = 0; i < n; ++i) {
        freq[i] = units::Probability(static_cast<double>(send_count[i]) /
                                     static_cast<double>(t));
      }
      if (options.model == GameModel::Rayleigh) {
        // Reward of sending is 2 * P[success | i sends] - 1: Theorem 1 at
        // freq with freq[i] read as 1, for every link in one O(n^2) pass.
        core::rayleigh_conditional_success_probabilities(
            net, freq, units::Threshold(options.beta), conditional);
        for (LinkId i = 0; i < n; ++i) {
          profile[i] = 2.0 * conditional[i] - 1.0 > 0.0;
        }
      } else {
        for (LinkId i = 0; i < n; ++i) {
          profile[i] =
              send_reward_vs_frequencies(net, freq, i, options, rng) > 0.0;
        }
      }
    }

    LinkSet active;
    for (LinkId i = 0; i < n; ++i) {
      if (profile[i]) {
        active.push_back(i);
        ++send_count[i];
      }
    }

    double successes = 0.0;
    if (options.model == GameModel::NonFading) {
      successes = static_cast<double>(
          model::count_successes_nonfading(net, active,
                                           units::Threshold(options.beta)));
    } else {
      successes = static_cast<double>(model::count_successes_rayleigh(
          net, active, units::Threshold(options.beta), rng));
    }
    result.successes_per_round.push_back(successes);

    if (t > options.warmup_rounds && profile == previous) {
      ++stable_streak;
    } else {
      stable_streak = 0;
    }
    previous = profile;
  }

  result.final_profile = profile;
  result.send_frequency.resize(n);
  for (LinkId i = 0; i < n; ++i) {
    result.send_frequency[i] =
        units::Probability(static_cast<double>(send_count[i]) /
                           static_cast<double>(options.rounds));
  }
  // Fixed point if the profile was unchanged over the last quarter of the run.
  result.reached_fixed_point = stable_streak >= options.rounds / 4;
  for (double s : result.successes_per_round) result.average_successes += s;
  result.average_successes /= static_cast<double>(options.rounds);
  return result;
}

}  // namespace raysched::learning
