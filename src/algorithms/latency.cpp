#include "algorithms/latency.hpp"

#include <algorithm>
#include <functional>
#include <string>

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
                                 double beta, core::Propagation propagation,
                                 util::RngStream& rng) {
  std::vector<char> ok(active.size(), 0);
  if (active.empty()) return ok;
  if (propagation == core::Propagation::NonFading) {
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
    const Network& net, double beta, core::Propagation propagation,
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
                propagation == core::Propagation::Rayleigh,
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

namespace {

/// The option checks both ALOHA forms share; `who` names the caller in the
/// error message.
void check_aloha_options(const char* who, double beta,
                         const AlohaOptions& options) {
  const std::string name(who);
  require(beta > 0.0, name + ": beta must be positive");
  require(options.initial_probability > 0.0 &&
              options.initial_probability <= 0.5,
          name + ": initial_probability must be in (0, 1/2]");
  require(options.min_probability > 0.0 &&
              options.min_probability <= options.initial_probability,
          name + ": 0 < min_probability <= initial_probability");
  require(options.raise_factor >= 1.0,
          name + ": raise_factor must be >= 1");
}

/// The ALOHA loop both forms run. Each step draws the transmit set from the
/// per-link probabilities, transmits it for `repeats` elementary slots,
/// records each link's first success and, in adaptive mode, halves the
/// probability of every link that failed all repeats and raises that of
/// every idle unfinished link. `decide` judges one elementary slot: it
/// returns, per member of the set, whether that link succeeded.
LatencyResult run_aloha(
    std::size_t n, util::RngStream& rng, const AlohaOptions& options,
    int repeats, std::size_t max_slots,
    const std::function<std::vector<char>(const LinkSet&)>& decide) {
  LatencyResult result;
  result.first_success_slot.assign(n, 0);
  std::vector<bool> done(n, false);
  std::vector<double> prob(n, options.initial_probability);
  std::size_t remaining_count = n;

  while (remaining_count > 0 && result.slots < max_slots) {
    LinkSet active;
    for (LinkId i = 0; i < n; ++i) {
      if (!done[i] && rng.bernoulli(prob[i])) active.push_back(i);
    }
    std::vector<bool> succeeded(active.size(), false);
    for (int r = 0; r < repeats && result.slots < max_slots; ++r) {
      const std::vector<char> ok = decide(active);
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
      std::vector<bool> transmitted(n, false);
      for (std::size_t a = 0; a < active.size(); ++a) {
        transmitted[active[a]] = true;
        if (!succeeded[a]) {
          prob[active[a]] =
              std::max(options.min_probability, prob[active[a]] * 0.5);
        }
      }
      for (LinkId i = 0; i < n; ++i) {
        if (!done[i] && !transmitted[i]) {
          prob[i] = std::min(0.5, prob[i] * options.raise_factor);
        }
      }
    }
  }
  result.completed = remaining_count == 0;
  return result;
}

}  // namespace

LatencyResult aloha_schedule(const Network& net, double beta,
                             core::Propagation propagation,
                             util::RngStream& rng, const AlohaOptions& options,
                             std::size_t max_slots) {
  check_aloha_options("aloha_schedule", beta, options);
  // Section 4: in the Rayleigh model, each randomized step (one draw of the
  // transmit set) is executed kLatencyRepeats times with fresh fading.
  const int repeats =
      propagation == core::Propagation::Rayleigh ? core::kLatencyRepeats : 1;
  return run_aloha(net.size(), rng, options, repeats, max_slots,
                   [&](const LinkSet& active) {
                     return slot_successes(net, active, beta, propagation,
                                           rng);
                   });
}

LatencyResult aloha_schedule_block_fading(const Network& net, double beta,
                                          model::BlockFadingChannel& channel,
                                          util::RngStream& rng,
                                          const AlohaOptions& options,
                                          std::size_t max_slots) {
  check_aloha_options("aloha_schedule_block_fading", beta, options);
  return run_aloha(net.size(), rng, options, core::kLatencyRepeats,
                   max_slots, [&](const LinkSet& active) {
                     const std::vector<double> sinrs =
                         channel.sinr_all(active);
                     std::vector<char> ok(active.size(), 0);
                     for (std::size_t a = 0; a < active.size(); ++a) {
                       ok[a] = sinrs[a] >= beta ? 1 : 0;
                     }
                     channel.advance_slot();
                     return ok;
                   });
}

}  // namespace raysched::algorithms
