// raysched: best-response dynamics for the capacity game.
//
// The Section-6 game (rewards: send & succeed +1, send & fail -1, stay 0)
// is the game-theoretic lens of Andrews & Dinitz [5]; no-regret sequences
// generalize its Nash equilibria. Best-response dynamics make that
// connection concrete: in each round every link (asynchronously, in
// round-robin order) switches to the action maximizing its expected reward
// against the others' current actions —
//   non-fading: send iff the transmission would succeed (SINR >= beta);
//   Rayleigh:   send iff the success probability exceeds 1/2
//               (expected reward 2 Q_i - 1 > 0), using the exact
//               Theorem 1 closed form.
// A state where nobody wants to switch is a pure Nash equilibrium.
#pragma once

#include <vector>

#include "core/latency_transform.hpp"
#include "learning/capacity_game.hpp"
#include "model/network.hpp"

namespace raysched::learning {

struct BestResponseOptions {
  std::size_t max_rounds = 1000;  ///< full round-robin sweeps
  core::Propagation model = core::Propagation::NonFading;
  double beta = 1.0;
  /// Start state: if true every link starts sending, otherwise nobody does.
  bool start_all_sending = false;
};

struct BestResponseResult {
  std::vector<bool> sending;   ///< final action profile
  std::size_t rounds = 0;      ///< sweeps executed
  bool converged = false;      ///< true if a full sweep changed nothing
  /// Successes of the final profile: deterministic count (non-fading) or
  /// exact expectation (Rayleigh).
  double final_successes = 0.0;
};

/// Runs round-robin best-response dynamics to convergence (or max_rounds).
/// Deterministic given the start state — no RNG is involved because best
/// responses are computed against expected rewards.
[[nodiscard]] BestResponseResult run_best_response(
    const model::Network& net, const BestResponseOptions& options);

/// Checks whether a profile is a pure Nash equilibrium of the capacity game
/// under the given model (no link gains by switching its action).
[[nodiscard]] bool is_pure_nash(const model::Network& net,
                                const std::vector<bool>& sending,
                                core::Propagation model, double beta);

}  // namespace raysched::learning
