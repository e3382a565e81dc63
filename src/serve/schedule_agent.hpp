// raysched: asynchronous schedule recomputation with a slot deadline.
//
// The serving loop must keep draining queues while a schedule recompute
// runs. The agent executes the recompute — delegated to a pluggable
// SchedulePolicy (serve/schedule_policy.hpp): max-weight or the AHM
// stability algorithm — on its own sim::ThreadPool and hands the result
// back under a *slot-deterministic* protocol:
//
//   * submit(request, latency_slots) launches the recompute submitted at
//     request.slot. The caller adopts the result exactly at slot
//     request.slot + latency_slots — never earlier — by calling reap(),
//     which blocks on the pool if the computation is still running.
//     latency_slots models (and, via the fault script, inflates) the
//     recompute's service time in slot units, so adoption timing is
//     independent of wall-clock scheduling and thread count: trajectories
//     replay bit-identically. Slot sums saturate at UINT64_MAX
//     (util/saturate.hpp), so scripted delay pile-ups can push a due slot
//     to "never" but can never wrap it into the past.
//
//   * If latency_slots exceeds the service's deadline, the loop declares a
//     timeout at submit + deadline without reaping, keeps serving from the
//     stale schedule, and discards the overdue result when it finally
//     lands. The agent never reads a clock.
//
//   * Input validation is the agent's contract boundary: non-finite or
//     negative weights (the poisoned-gain injection surface) throw
//     coded_error{PoisonedInput} *before* any policy runs, which reap()
//     converts into a structured failure outcome.
//
// The agent borrows the request; it keeps no copy. The caller keeps the
// request alive and unchanged from submit() until reap() returns: the
// worker task reads it, and so do submit_slot() and due_slot(). An rvalue
// request would die before the task runs, so that overload is deleted.
// The serving loop owns the one request (Service::request_), which is
// also what a mid-flight snapshot persists and what a restore refills.
//
// Nor does it copy the result: the policy owns the computed schedule, and
// reap()'s outcome is a view of it, valid until the next submit(). The
// serving loop copies the survivors of stale pruning out of it at adoption.
//
// The policy object is touched only inside the worker task; tasks are
// strictly serialized (one in flight, reap() joins the pool), so stateful
// policies (the AHM probabilities) need no locking. The
// serving loop reads policy state for snapshots only while nothing is in
// flight.
//
// With threads == 1 the pool runs the task inline in submit() — the
// degraded synchronous mode for single-core hosts — and by the protocol
// above, results are bit-identical to any multi-threaded run.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "model/network.hpp"
#include "serve/schedule_policy.hpp"
#include "sim/thread_pool.hpp"
#include "util/error.hpp"
#include "util/saturate.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"
#include "util/units.hpp"

namespace raysched::serve {

/// Result of one recompute attempt.
struct RecomputeOutcome {
  bool ok = false;
  ErrorCode code = ErrorCode::Internal;  ///< meaningful when !ok
  /// The schedule when ok: a view of the policy's result, valid until the
  /// next submit() on the agent that returned it.
  std::span<const model::LinkId> schedule;
};

class ScheduleAgent {
 public:
  /// The agent keeps a reference to `net`; the caller must keep it alive.
  /// threads == 0 selects 2 (one worker + headroom so submit returns
  /// immediately); threads == 1 degrades to inline synchronous execution.
  /// The policy is built here via make_schedule_policy.
  ScheduleAgent(const model::Network& net, units::Threshold beta,
                std::size_t threads,
                PolicyKind policy = PolicyKind::MaxWeight,
                const PolicyOptions& options = {});

  [[nodiscard]] bool in_flight() const { return in_flight_; }
  /// The in-flight request's slot. The accessors below read the borrowed
  /// request, so they are meaningful only while in_flight().
  [[nodiscard]] std::uint64_t submit_slot() const { return request_->slot; }
  [[nodiscard]] std::uint64_t latency_slots() const { return latency_slots_; }
  /// The slot at which reap() is due: submit_slot + latency_slots,
  /// saturating (a delay-fault pile-up means "never", not "already").
  [[nodiscard]] std::uint64_t due_slot() const {
    return util::sat_add(submit_slot(), latency_slots_);
  }

  /// The policy executing the recomputes. Mutating calls
  /// (restore_state) are legal only while nothing is in flight.
  [[nodiscard]] SchedulePolicy& policy() { return *policy_; }
  [[nodiscard]] const SchedulePolicy& policy() const { return *policy_; }

  /// Launches a recompute of `request`, submitted at request.slot. Borrows
  /// the request: the caller keeps it alive and unchanged until reap().
  void submit(const ScheduleRequest& request, std::uint64_t latency_slots);
  /// A temporary would be destroyed while the task still reads it.
  void submit(ScheduleRequest&& request, std::uint64_t latency_slots) = delete;

  /// Blocks until the in-flight recompute finished and returns its outcome
  /// (never throws on task failure: exceptions become structured failure
  /// outcomes). Throws raysched::error if none is in flight.
  [[nodiscard]] RecomputeOutcome reap();

 private:
  const model::Network& net_;
  std::unique_ptr<SchedulePolicy> policy_;  // worker-task confined in flight
  // Loop-thread-only bookkeeping: submit()/reap()/accessors are called from
  // the single serving-loop thread, never from the worker task.
  bool in_flight_ = false;
  const ScheduleRequest* request_ = nullptr;  // borrowed, read-only
  std::uint64_t latency_slots_ = 0;
  // The result is the only loop/worker shared state: the task publishes it
  // under mutex_, reap() consumes it under mutex_ after pool_.wait().
  util::Mutex mutex_;
  RecomputeOutcome outcome_ RAYSCHED_GUARDED_BY(mutex_);
  // Declared last, so it is destroyed first: its destructor joins the
  // worker, which may still be running a task that uses the members above.
  sim::ThreadPool pool_;
};

}  // namespace raysched::serve
