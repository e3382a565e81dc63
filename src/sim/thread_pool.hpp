// raysched: portable thread pool with a dynamic parallel_for helper.
//
// Monte-Carlo sweeps (networks x transmit seeds x fading seeds) are
// embarrassingly parallel across networks. Each cell owns a derived
// RngStream, so parallel execution is deterministic regardless of
// scheduling. A pool built with one thread has no workers and runs inline;
// the process-wide default_pool() starts that way and grows on demand.
#pragma once

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace raysched::sim {

/// Worker pool. Tasks are std::function<void()>; wait() blocks until all
/// submitted tasks completed. Exceptions thrown by tasks are captured and
/// rethrown from wait() (first one wins). After the first captured
/// exception the pool drains: queued tasks that have not started — and
/// tasks submitted before the next wait() — are cancelled rather than
/// executed, since their results could never be observed.
///
/// All pool state is guarded by mutex_; the thread-safety analysis enforces
/// the discipline at compile time (see util/thread_annotations.hpp).
class ThreadPool {
 public:
  /// num_threads <= 1 builds an inline pool: no workers, submit() runs the
  /// task on the calling thread.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker threads (0 for an inline pool).
  [[nodiscard]] std::size_t num_threads() const RAYSCHED_EXCLUDES(mutex_);

  /// Adds workers until the pool has at least `num_workers`; never shrinks.
  /// Safe to call concurrently with any other member, also from a task.
  void grow(std::size_t num_workers) RAYSCHED_EXCLUDES(mutex_);

  /// Enqueues a task. If the pool has no workers, runs inline.
  void submit(std::function<void()> task) RAYSCHED_EXCLUDES(mutex_);

  /// Blocks until all submitted tasks finished; rethrows the first captured
  /// task exception, if any.
  void wait() RAYSCHED_EXCLUDES(mutex_);

 private:
  void worker_loop() RAYSCHED_EXCLUDES(mutex_);
  void record_exception() RAYSCHED_EXCLUDES(mutex_);

  mutable util::Mutex mutex_;
  util::CondVar cv_task_;
  util::CondVar cv_done_;
  std::vector<std::thread> threads_ RAYSCHED_GUARDED_BY(mutex_);
  // Pending tasks are queue_[head_, size()). Both reset to empty once the
  // last one is taken, so the storage is reused and a pool that never holds
  // more tasks than before allocates nothing per submit.
  std::vector<std::function<void()>> queue_ RAYSCHED_GUARDED_BY(mutex_);
  std::size_t head_ RAYSCHED_GUARDED_BY(mutex_) = 0;
  std::size_t in_flight_ RAYSCHED_GUARDED_BY(mutex_) = 0;
  bool stop_ RAYSCHED_GUARDED_BY(mutex_) = false;
  std::exception_ptr first_exception_ RAYSCHED_GUARDED_BY(mutex_);
};

/// Runs body(begin, end) over [0, count), blocking until every index ran.
/// Claimers draw chunks of `min_chunk` indices from one atomic counter: the
/// calling thread is one, and up to `max_claimers - 1` tasks submitted to
/// the pool are the others (0 = one per pool worker). body must be
/// thread-safe across disjoint ranges.
///
/// Each call keeps its own completion count and first exception, so calls
/// that share a pool never wait on or rethrow each other's work. Once a
/// body threw, unclaimed indices are skipped and the exception is rethrown
/// here. The caller does not wait for its tasks to start, only for claimed
/// ranges to finish, so a call made from inside a pool task completes even
/// when every worker is busy.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t min_chunk = 1, std::size_t max_claimers = 0);

/// The process-wide pool. It starts with no workers; callers grow() it to
/// the size they need, so threads are created once per process, not per call.
ThreadPool& default_pool();

}  // namespace raysched::sim
