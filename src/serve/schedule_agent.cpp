#include "serve/schedule_agent.hpp"

#include <cmath>
#include <utility>

#include "model/link.hpp"
#include "util/units.hpp"

namespace raysched::serve {

ScheduleAgent::ScheduleAgent(const model::Network& net, units::Threshold beta,
                             std::size_t threads, PolicyKind policy,
                             const PolicyOptions& options)
    : net_(net),
      beta_(beta),
      policy_(make_schedule_policy(policy, net, beta, options)),
      pool_(threads == 0 ? 2 : threads) {
  require(net.size() > 0, "ScheduleAgent: network must not be empty");
}

void ScheduleAgent::submit(std::uint64_t slot, ScheduleRequest request,
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
  submit_slot_ = slot;
  latency_slots_ = latency_slots;
  request.slot = slot;
  request_ = std::move(request);
  {
    util::MutexLock lock(mutex_);
    outcome_ = RecomputeOutcome{};
  }
  // The task computes entirely on its own copy of the request and publishes
  // the finished result under mutex_ in one step — no shared state is
  // touched mid-computation (raysched_check RS-D3: executor bodies must not
  // write captured shared state outside a synchronized publish). The policy
  // object is the one sanctioned exception: it is task-confined by the
  // one-in-flight protocol (reap() joins the pool before any other access).
  pool_.submit([this, request_copy = request_] {
    // Validation boundary: poisoned gain-derived inputs must be caught
    // here, before they can steer any policy's comparisons.
    for (double w : request_copy.weights) {
      require_code(std::isfinite(w) && w >= 0.0, ErrorCode::PoisonedInput,
                   "recompute weights must be finite and non-negative");
    }
    RecomputeOutcome done;
    PolicyResult computed = policy_->compute(request_copy);
    done.schedule = std::move(computed.schedule);
    done.expected_rate = computed.expected_rate;
    done.ok = true;
    util::MutexLock lock(mutex_);
    outcome_ = std::move(done);
  });
}

void ScheduleAgent::submit(std::uint64_t slot, std::vector<double> weights,
                           std::uint64_t latency_slots) {
  ScheduleRequest request;
  request.weights = std::move(weights);
  submit(slot, std::move(request), latency_slots);
}

RecomputeOutcome ScheduleAgent::reap() {
  require(in_flight_, "ScheduleAgent::reap: no recompute in flight");
  in_flight_ = false;
  try {
    pool_.wait();
  } catch (const coded_error& e) {
    RecomputeOutcome failed;
    failed.ok = false;
    failed.code = e.code();
    failed.what = e.what();
    return failed;
  } catch (const error& e) {
    RecomputeOutcome failed;
    failed.ok = false;
    failed.code = ErrorCode::Internal;
    failed.what = e.what();
    return failed;
  }
  util::MutexLock lock(mutex_);
  return std::move(outcome_);
}

const ScheduleRequest& ScheduleAgent::pending_request() const {
  require(in_flight_,
          "ScheduleAgent::pending_request: no recompute in flight");
  return request_;
}

}  // namespace raysched::serve
