// raysched: pluggable schedule-recompute policies for the serving loop.
//
// The ScheduleAgent used to be hard-wired to from-scratch weighted greedy
// capacity; this header makes the recompute step a strategy object so the
// serving loop can host the paper-adjacent scheduling algorithms side by
// side:
//
//   max-weight              The weighted greedy feasible set from a
//                           WeightedGreedyOracle that reads the network's
//                           own gain matrix (O(n) state, no n^2 cache).
//                           "max-weight-incremental", the name of the
//                           priced policy before the two max-weight
//                           policies merged, still parses to this kind.
//   ahm                     The Ásgeirsson–Halldórsson–Mitra stability
//                           algorithm (algorithms/ahm.hpp): per-link
//                           adaptive transmission probabilities driven by
//                           served/failed feedback. History-dependent, so
//                           its probability vector is the one policy state
//                           a snapshot must persist.
//
// Ownership: each policy owns one PolicyResult, reserved to n and refilled
// by every compute(), which returns it by reference, valid until the next
// compute(). persisted_state() is likewise a view of the policy's state.
//
// Concurrency contract: a policy instance is owned by one ScheduleAgent and
// is touched only inside the agent's strictly-serialized worker task (one
// recompute in flight at a time; reap() joins the pool before the next
// submit). persisted_state()/restore_state() are loop-thread calls and the
// serving loop guarantees they never overlap a running task: the service
// captures persisted_state() *before* submitting, never while in flight.
//
// Determinism contract: compute() is a pure function of (request, policy
// state); the AHM policy's sampling stream is derived from (policy seed,
// request slot), never from wall clock or call count — so resubmitting the
// same request after a crash/restore reproduces the same schedule and the
// same post-compute state, bit for bit.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "algorithms/ahm.hpp"
#include "algorithms/weighted.hpp"
#include "model/network.hpp"
#include "util/units.hpp"

namespace raysched::serve {

enum class PolicyKind : std::uint8_t {
  MaxWeight = 0,
  /// Alias of MaxWeight, kept only because the benchmark driver (rsbench/)
  /// names it and must build unchanged. New code uses MaxWeight.
  MaxWeightIncremental = MaxWeight,
  Ahm = 2,
};

/// Stable lowercase name (snapshot fingerprint + CLI flag values).
[[nodiscard]] const char* to_string(PolicyKind kind);

/// Parses the names produced by to_string, plus the legacy
/// "max-weight-incremental" (-> MaxWeight). Throws raysched::error on an
/// unknown name.
[[nodiscard]] PolicyKind policy_kind_from_string(const std::string& name);

/// One recompute request. The serving loop owns it and the accounting that
/// feeds it; the agent and the policy borrow it read-only while it is in
/// flight, and a mid-flight snapshot persists it so a restore can resubmit
/// it verbatim.
struct ScheduleRequest {
  /// The submitting slot; the AHM policy derives its sampling stream from
  /// it, and the agent times adoption from it.
  std::uint64_t slot = 0;
  /// Per-link weights: queue lengths, 0 for links that must not be
  /// scheduled (inactive, shed, or worthless).
  std::vector<double> weights;
  /// Links that went inactive since the previous submit, ascending ids.
  /// No policy reads it (a departed link already has weight 0); it rides
  /// along so a mid-flight snapshot resubmits the request verbatim.
  std::vector<model::LinkId> departed;
  /// Feedback for the AHM policy: the links of the previously adopted
  /// schedule that attempted service since the last submit, with a parallel
  /// flag vector (1 = served at least one packet). Empty for max-weight.
  model::LinkSet feedback_schedule;
  std::vector<char> feedback_success;
};

/// What a policy hands back to the agent; the policy owns it.
struct PolicyResult {
  model::LinkSet schedule;  ///< ascending link ids
};

/// Strategy interface: one recompute request in, one schedule out.
class SchedulePolicy {
 public:
  virtual ~SchedulePolicy() = default;
  [[nodiscard]] virtual PolicyKind kind() const = 0;

  /// Refills the policy's own result and returns it. Weights are
  /// pre-validated by the agent (finite, >= 0). May mutate internal policy
  /// state; called only from the agent's serialized worker task.
  [[nodiscard]] virtual const PolicyResult& compute(
      const ScheduleRequest& request) = 0;

  /// History-dependent state a snapshot must persist (the AHM probability
  /// vector), as a view valid until the next compute() or restore_state();
  /// empty when compute() is a pure function of the request (max-weight).
  [[nodiscard]] virtual std::span<const double> persisted_state() const {
    return {};
  }

  /// Restores policy state on a freshly constructed policy: `state` is a
  /// persisted_state() value and `adopted_schedule` the schedule the
  /// restoring service adopted last (no current policy needs it). Throws
  /// raysched::error on a malformed state.
  virtual void restore_state(const std::vector<double>& state,
                             const model::LinkSet& adopted_schedule) {
    (void)state;
    (void)adopted_schedule;
  }
};

/// Policy-construction knobs beyond the kind itself.
struct PolicyOptions {
  algorithms::AhmConfig ahm;
  /// Seed for the AHM sampling streams (the service passes its master
  /// seed; each request's stream is derived from (seed, request slot)).
  std::uint64_t seed = 1;
};

/// Builds a policy bound to (net, beta). The max-weight policy borrows `net`
/// (its oracle reads the gain matrix), so the network must outlive the
/// policy — the agent, its owner, already guarantees that.
[[nodiscard]] std::unique_ptr<SchedulePolicy> make_schedule_policy(
    PolicyKind kind, const model::Network& net, units::Threshold beta,
    const PolicyOptions& options = {});

}  // namespace raysched::serve
