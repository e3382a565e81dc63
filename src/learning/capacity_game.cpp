#include "learning/capacity_game.hpp"

#include <algorithm>

#include "core/success_probability_batch.hpp"
#include "model/rayleigh.hpp"
#include "model/sinr.hpp"
#include "util/error.hpp"

namespace raysched::learning {

using model::LinkId;
using model::LinkSet;
using model::Network;

GameResult run_capacity_game(const Network& net, const GameOptions& options,
                             const LearnerFactory& make_learner,
                             util::RngStream& rng) {
  require(options.rounds > 0, "run_capacity_game: rounds must be positive");
  require(options.beta > 0.0, "run_capacity_game: beta must be positive");
  require(static_cast<bool>(make_learner),
          "run_capacity_game: learner factory must be non-empty");

  const std::size_t n = net.size();
  std::vector<std::unique_ptr<Learner>> learners;
  learners.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    learners.push_back(make_learner());
    require(learners.back() != nullptr,
            "run_capacity_game: factory returned null learner");
  }
  std::vector<RegretTracker> trackers(n);

  GameResult result;
  result.successes_per_round.reserve(options.rounds);
  result.transmitters_per_round.reserve(options.rounds);

  std::vector<Action> actions(n);
  // Round-loop scratch (DESIGN.md "scratch-buffer convention"): reserved to
  // their maximum sizes up front so steady-state rounds allocate nothing.
  LinkSet active_scratch;
  active_scratch.reserve(n);
  LinkSet with_i_scratch;
  with_i_scratch.reserve(n + 1);
  std::vector<char> success_scratch(n, 0);
  LinkSet everyone(n);
  for (LinkId i = 0; i < n; ++i) everyone[i] = i;

  // raysched:hot(round-loop)
  for (std::size_t t = 0; t < options.rounds; ++t) {
    LinkSet& active = active_scratch;
    active.clear();
    for (LinkId i = 0; i < n; ++i) {
      actions[i] = learners[i]->sample(rng);
      if (actions[i] == Action::Send) active.push_back(i);
    }

    // success_if_sent[i]: did / would link i's transmission succeed against
    // this round's active set? For senders this is the actual outcome; for
    // non-senders it is the counterfactual with i added (the other senders'
    // outcomes are unchanged because gains are independent per receiver).
    std::vector<char>& success_if_sent = success_scratch;
    if (options.model == GameModel::NonFading) {
      for (LinkId i = 0; i < n; ++i) {
        if (actions[i] == Action::Send) {
          success_if_sent[i] =
              model::sinr_nonfading(net, active, i) >= options.beta;
        } else {
          LinkSet& with_i = with_i_scratch;
          with_i.assign(active.begin(), active.end());
          with_i.push_back(i);
          success_if_sent[i] =
              model::sinr_nonfading(net, with_i, i) >= options.beta;
        }
      }
    } else {
      // Rayleigh: every link decided against the others of this round's
      // senders, one uniform each (model::rayleigh_successes, receivers form).
      model::rayleigh_successes(net, active, everyone,
                                units::Threshold(options.beta), rng,
                                success_if_sent);
    }

    double successes = 0.0;
    for (LinkId i = 0; i < n; ++i) {
      if (actions[i] == Action::Send && success_if_sent[i]) successes += 1.0;
    }
    result.successes_per_round.push_back(successes);
    result.transmitters_per_round.push_back(static_cast<double>(active.size()));

    // Expected successes for the realized active set (Lemma 5's X): exact
    // closed form under Rayleigh, deterministic count under non-fading. The
    // batched form validates the set once per round instead of once per link.
    if (options.model == GameModel::Rayleigh) {
      result.average_expected_successes += core::batch_expected_successes_active(
          net, active, units::Threshold(options.beta));
    } else {
      result.average_expected_successes +=
          static_cast<double>(model::count_successes_nonfading(
              net, active, units::Threshold(options.beta)));
    }

    for (LinkId i = 0; i < n; ++i) {
      LossPair losses;
      losses.stay = 0.5;
      losses.send = success_if_sent[i] ? 0.0 : 1.0;
      trackers[i].record(actions[i], losses);
      if (learners[i]->feedback() == Feedback::Full) {
        learners[i]->update(losses);
      } else {
        // Bandit learners only observe their own action's loss.
        learners[i]->update_bandit(actions[i], losses.of(actions[i]));
      }
    }
  }

  const double rounds = static_cast<double>(options.rounds);
  for (double s : result.successes_per_round) result.average_successes += s;
  result.average_successes /= rounds;
  for (double f : result.transmitters_per_round) {
    result.average_transmitters += f;
  }
  result.average_transmitters /= rounds;
  result.average_expected_successes /= rounds;

  result.regret_per_link.resize(n);
  for (LinkId i = 0; i < n; ++i) {
    result.regret_per_link[i] = trackers[i].loss_regret();
  }
  return result;
}

}  // namespace raysched::learning
