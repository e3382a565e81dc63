// raysched: the distributed capacity-maximization game (Section 6).
//
// Every link runs a no-regret learner over {send, stay}. Each round:
//   1. every learner samples an action; the senders form the active set;
//   2. successes are judged in the chosen propagation model
//      (non-fading: deterministic SINR; Rayleigh: one uniform per link
//      against its Theorem-1 success probability for this round);
//   3. every link receives full-information losses — for links that did not
//      send, the counterfactual "had I sent against this active set" is
//      evaluated (by the same per-link draw in the Rayleigh model);
//   4. learners update.
//
// The engine records the Lemma 5 quantities: F (average number of
// transmitting links per round), X (average expected successes per round —
// for Rayleigh computed with the exact Theorem 1 closed form given the
// realized transmit probabilities... here, given realized transmit sets),
// per-round success counts, and per-link external regret.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "learning/no_regret.hpp"
#include "model/network.hpp"
#include "util/rng.hpp"

namespace raysched::learning {

/// Propagation model for the game (mirrors algorithms::Propagation but kept
/// separate so learning/ does not depend on algorithms/).
enum class GameModel { NonFading, Rayleigh };

struct GameOptions {
  std::size_t rounds = 200;
  GameModel model = GameModel::NonFading;
  double beta = 0.5;  ///< global SINR threshold of the binary utility
};

/// Per-round trace and aggregate statistics of a game run.
struct GameResult {
  std::vector<double> successes_per_round;   ///< realized successful sends
  std::vector<double> transmitters_per_round;///< |active set| per round
  std::vector<double> regret_per_link;       ///< final loss-regret per link
  double average_successes = 0.0;            ///< X-hat: mean of successes
  double average_transmitters = 0.0;         ///< F-hat: mean of transmitters
  /// Mean per-round *expected* successes given the realized active sets,
  /// computed in closed form for Rayleigh (Theorem 1 with q in {0,1}) and
  /// deterministically for non-fading. This is the X of Lemma 5.
  double average_expected_successes = 0.0;
};

/// Factory producing one learner per link.
using LearnerFactory = std::function<std::unique_ptr<Learner>()>;

/// Runs the capacity game. rng drives action sampling and fading.
[[nodiscard]] GameResult run_capacity_game(const model::Network& net,
                                           const GameOptions& options,
                                           const LearnerFactory& make_learner,
                                           util::RngStream& rng);

}  // namespace raysched::learning
