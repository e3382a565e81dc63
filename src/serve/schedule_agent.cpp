#include "serve/schedule_agent.hpp"

#include <cmath>

#include "model/link.hpp"
#include "util/units.hpp"

namespace raysched::serve {

ScheduleAgent::ScheduleAgent(const model::Network& net, units::Threshold beta,
                             std::size_t threads, PolicyKind policy,
                             const PolicyOptions& options)
    : net_(net),
      policy_(make_schedule_policy(policy, net, beta, options)),
      pool_(threads == 0 ? 2 : threads) {
  require(net.size() > 0, "ScheduleAgent: network must not be empty");
}

void ScheduleAgent::submit(const ScheduleRequest& request,
                           std::uint64_t latency_slots) {
  require(!in_flight_, "ScheduleAgent::submit: a recompute is in flight");
  require(request.weights.size() == net_.size(),
          "ScheduleAgent::submit: weights size must equal n");
  require(request.feedback_success.size() ==
              request.feedback_schedule.size(),
          "ScheduleAgent::submit: feedback flags must align with the "
          "feedback schedule");
  require(latency_slots >= 1,
          "ScheduleAgent::submit: latency must be >= 1 slot");
  in_flight_ = true;
  request_ = &request;
  latency_slots_ = latency_slots;
  {
    util::MutexLock lock(mutex_);
    outcome_ = RecomputeOutcome{};
  }
  // The task only reads the borrowed request, which the caller keeps
  // unchanged until reap(), and publishes a view of the policy's result
  // under mutex_ in one step (raysched_check RS-D3: executor bodies must
  // not write captured shared state outside a synchronized publish). The
  // policy object, result included, is the one sanctioned exception: it is
  // task-confined by the one-in-flight protocol (reap() joins the pool
  // before any other access).
  pool_.submit([this, input = &request] {
    // Validation boundary: poisoned gain-derived inputs must be caught
    // here, before they can steer any policy's comparisons.
    for (double w : input->weights) {
      require_code(std::isfinite(w) && w >= 0.0, ErrorCode::PoisonedInput,
                   "recompute weights must be finite and non-negative");
    }
    const PolicyResult& computed = policy_->compute(*input);
    util::MutexLock lock(mutex_);
    outcome_ = RecomputeOutcome{.ok = true, .schedule = computed.schedule};
  });
}

RecomputeOutcome ScheduleAgent::reap() {
  require(in_flight_, "ScheduleAgent::reap: no recompute in flight");
  in_flight_ = false;
  RecomputeOutcome failed;
  try {
    pool_.wait();
  } catch (const coded_error& e) {
    failed.code = e.code();
    return failed;
  } catch (const error&) {
    return failed;  // ErrorCode::Internal
  }
  util::MutexLock lock(mutex_);
  return outcome_;
}

}  // namespace raysched::serve
