#include "algorithms/latency.hpp"

#include <algorithm>

#include "core/latency_transform.hpp"
#include "model/rayleigh.hpp"
#include "model/sinr.hpp"
#include "util/error.hpp"
#include "util/fp.hpp"

namespace raysched::algorithms {

using model::LinkId;
using model::LinkSet;
using model::Network;

namespace {

/// Evaluates which members of `active` succeed in one slot.
std::vector<char> slot_successes(const Network& net, const LinkSet& active,
                                 double beta, Propagation propagation,
                                 util::RngStream& rng) {
  std::vector<char> ok(active.size(), 0);
  if (active.empty()) return ok;
  if (propagation == Propagation::NonFading) {
    for (std::size_t a = 0; a < active.size(); ++a) {
      ok[a] = model::sinr_nonfading(net, active, active[a]) >= beta ? 1 : 0;
    }
  } else {
    model::rayleigh_successes(net, active, units::Threshold(beta), rng, ok);
  }
  return ok;
}

}  // namespace

LatencyResult repeated_capacity_schedule(
    const Network& net, double beta, Propagation propagation,
    util::RngStream& rng, std::size_t max_slots,
    const std::function<LinkSet(const Network&, double, const LinkSet&)>&
        capacity_algorithm) {
  require(beta > 0.0, "repeated_capacity_schedule: beta must be positive");
  auto algo = capacity_algorithm;
  if (!algo) {
    algo = [](const Network& n, double b, const LinkSet& remaining) {
      return greedy_capacity(n, b, remaining).selected;
    };
  }

  LatencyResult result;
  result.first_success_slot.assign(net.size(), 0);
  std::vector<bool> done(net.size(), false);
  std::size_t remaining_count = net.size();

  // Links that can never succeed alone (signal cannot beat noise at beta)
  // would make the schedule run forever; reject such instances up front.
  for (LinkId i = 0; i < net.size(); ++i) {
    require(util::fp::exact_zero(net.noise()) ||
                net.signal(i) / beta > net.noise() ||
                propagation == Propagation::Rayleigh,
            "repeated_capacity_schedule: link cannot reach beta even alone "
            "in the non-fading model");
  }

  while (remaining_count > 0 && result.slots < max_slots) {
    LinkSet remaining;
    for (LinkId i = 0; i < net.size(); ++i) {
      if (!done[i]) remaining.push_back(i);
    }
    LinkSet slot = algo(net, beta, remaining);
    if (slot.empty()) {
      // Defensive: a capacity algorithm must serve progress; fall back to
      // scheduling the single remaining link with the strongest signal.
      LinkId best = remaining.front();
      for (LinkId i : remaining) {
        if (net.signal(i) > net.signal(best)) best = i;
      }
      slot = {best};
    }
    const std::vector<char> ok =
        slot_successes(net, slot, beta, propagation, rng);
    for (std::size_t a = 0; a < slot.size(); ++a) {
      if (ok[a] && !done[slot[a]]) {
        done[slot[a]] = true;
        --remaining_count;
        result.first_success_slot[slot[a]] = result.slots;
      }
    }
    result.schedule.push_back(std::move(slot));
    ++result.slots;
  }
  result.completed = remaining_count == 0;
  return result;
}

LatencyResult aloha_schedule(const Network& net, double beta,
                             Propagation propagation, util::RngStream& rng,
                             const AlohaOptions& options,
                             std::size_t max_slots) {
  require(beta > 0.0, "aloha_schedule: beta must be positive");
  require(options.initial_probability > 0.0 &&
              options.initial_probability <= 0.5,
          "aloha_schedule: initial_probability must be in (0, 1/2]");
  require(options.min_probability > 0.0 &&
              options.min_probability <= options.initial_probability,
          "aloha_schedule: 0 < min_probability <= initial_probability");
  require(options.raise_factor >= 1.0,
          "aloha_schedule: raise_factor must be >= 1");

  LatencyResult result;
  result.first_success_slot.assign(net.size(), 0);
  std::vector<bool> done(net.size(), false);
  std::vector<double> prob(net.size(), options.initial_probability);
  std::size_t remaining_count = net.size();

  // Section 4: in the Rayleigh model, each randomized step (one draw of the
  // transmit set) is executed kLatencyRepeats times with fresh fading.
  const int repeats =
      propagation == Propagation::Rayleigh ? core::kLatencyRepeats : 1;

  while (remaining_count > 0 && result.slots < max_slots) {
    LinkSet active;
    for (LinkId i = 0; i < net.size(); ++i) {
      if (!done[i] && rng.bernoulli(prob[i])) active.push_back(i);
    }
    std::vector<bool> succeeded(active.size(), false);
    for (int r = 0; r < repeats && result.slots < max_slots; ++r) {
      const std::vector<char> ok =
          slot_successes(net, active, beta, propagation, rng);
      for (std::size_t a = 0; a < active.size(); ++a) {
        if (ok[a] && !succeeded[a]) {
          succeeded[a] = true;
          if (!done[active[a]]) {
            done[active[a]] = true;
            --remaining_count;
            result.first_success_slot[active[a]] = result.slots;
          }
        }
      }
      result.schedule.push_back(active);
      ++result.slots;
    }
    if (options.adaptive) {
      std::vector<bool> transmitted(net.size(), false);
      for (std::size_t a = 0; a < active.size(); ++a) {
        transmitted[active[a]] = true;
        if (!succeeded[a]) {
          prob[active[a]] =
              std::max(options.min_probability, prob[active[a]] * 0.5);
        }
      }
      for (LinkId i = 0; i < net.size(); ++i) {
        if (!done[i] && !transmitted[i]) {
          prob[i] = std::min(0.5, prob[i] * options.raise_factor);
        }
      }
    }
  }
  result.completed = remaining_count == 0;
  return result;
}

LatencyResult aloha_schedule_block_fading(const Network& net, double beta,
                                          model::BlockFadingChannel& channel,
                                          util::RngStream& rng,
                                          const AlohaOptions& options,
                                          std::size_t max_slots) {
  require(beta > 0.0, "aloha_schedule_block_fading: beta must be positive");
  require(options.initial_probability > 0.0 &&
              options.initial_probability <= 0.5,
          "aloha_schedule_block_fading: initial_probability must be in "
          "(0, 1/2]");

  LatencyResult result;
  result.first_success_slot.assign(net.size(), 0);
  std::vector<bool> done(net.size(), false);
  std::vector<double> prob(net.size(), options.initial_probability);
  std::size_t remaining_count = net.size();

  while (remaining_count > 0 && result.slots < max_slots) {
    LinkSet active;
    for (LinkId i = 0; i < net.size(); ++i) {
      if (!done[i] && rng.bernoulli(prob[i])) active.push_back(i);
    }
    std::vector<bool> succeeded(active.size(), false);
    for (int r = 0; r < core::kLatencyRepeats && result.slots < max_slots;
         ++r) {
      const std::vector<double> sinrs = channel.sinr_all(active);
      for (std::size_t a = 0; a < active.size(); ++a) {
        if (sinrs[a] >= beta && !succeeded[a]) {
          succeeded[a] = true;
          if (!done[active[a]]) {
            done[active[a]] = true;
            --remaining_count;
            result.first_success_slot[active[a]] = result.slots;
          }
        }
      }
      result.schedule.push_back(active);
      ++result.slots;
      channel.advance_slot();
    }
    if (options.adaptive) {
      std::vector<bool> transmitted(net.size(), false);
      for (std::size_t a = 0; a < active.size(); ++a) {
        transmitted[active[a]] = true;
        if (!succeeded[a]) {
          prob[active[a]] =
              std::max(options.min_probability, prob[active[a]] * 0.5);
        }
      }
      for (LinkId i = 0; i < net.size(); ++i) {
        if (!done[i] && !transmitted[i]) {
          prob[i] = std::min(0.5, prob[i] * options.raise_factor);
        }
      }
    }
  }
  result.completed = remaining_count == 0;
  return result;
}

}  // namespace raysched::algorithms
