// raysched: fictitious play for the capacity game.
//
// Each round, every link best-responds to the *empirical frequencies* of
// the other links' past play. The expected reward of sending against
// independent draws from those frequencies has a closed form in the
// Rayleigh model — it is exactly Theorem 1 evaluated at the empirical
// probability vector: E[h_i | send] = 2 * Q_i(q_hat with q_hat_i := 1,
// beta) - 1. In the non-fading model the same quantity needs the
// probabilistic-access success probability, which we evaluate exactly by
// subset enumeration for small n and by Monte Carlo otherwise.
//
// Fictitious play complements the no-regret dynamics of Section 6: both
// generalize Nash equilibria (Andrews-Dinitz [5]); FP converges to pure
// equilibria on many instances and exposes the empirical-frequency view of
// the game.
#pragma once

#include <cstddef>
#include <vector>

#include "core/latency_transform.hpp"
#include "learning/capacity_game.hpp"
#include "model/network.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace raysched::learning {

struct FictitiousPlayOptions {
  std::size_t rounds = 300;
  core::Propagation model = core::Propagation::Rayleigh;
  double beta = 2.5;
  /// Initial rounds in which every link plays uniformly at random (seeds
  /// the empirical frequencies).
  std::size_t warmup_rounds = 4;
  /// Monte-Carlo trials for the non-fading best response when n is too
  /// large for exact enumeration.
  std::size_t nonfading_trials = 400;
  /// Use exact subset enumeration for the non-fading best response when the
  /// number of fractional-frequency links is at most this.
  std::size_t exact_enumeration_limit = 20;
};

struct FictitiousPlayResult {
  std::vector<double> successes_per_round;  ///< realized successful sends
  units::ProbabilityVector send_frequency;  ///< final empirical frequencies
  std::vector<bool> final_profile;          ///< last round's pure profile
  bool reached_fixed_point = false;  ///< profile repeated till the horizon
  double average_successes = 0.0;
};

/// Runs (stochastic) fictitious play: rounds of simultaneous best responses
/// to empirical frequencies; actual successes are realized per the chosen
/// propagation model with `rng`.
[[nodiscard]] FictitiousPlayResult run_fictitious_play(
    const model::Network& net, const FictitiousPlayOptions& options,
    util::RngStream& rng);

}  // namespace raysched::learning
