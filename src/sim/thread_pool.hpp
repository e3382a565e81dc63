// raysched: portable fixed-size thread pool with a parallel_for helper.
//
// Monte-Carlo sweeps (networks x transmit seeds x fading seeds) are
// embarrassingly parallel across trials. Each trial owns a derived RngStream,
// so parallel execution is deterministic regardless of scheduling. On a
// single-core host the pool degrades to sequential execution with no
// thread-creation overhead (num_threads == 1 runs inline).
#pragma once

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace raysched::sim {

/// Fixed-size worker pool. Tasks are std::function<void()>; wait() blocks
/// until all submitted tasks completed. Exceptions thrown by tasks are
/// captured and rethrown from wait() (first one wins). After the first
/// captured exception the pool drains: queued tasks that have not started —
/// and tasks submitted before the next wait() — are cancelled rather than
/// executed, since their results could never be observed.
///
/// All pool state is guarded by mutex_; the thread-safety analysis enforces
/// the discipline at compile time (see util/thread_annotations.hpp).
class ThreadPool {
 public:
  /// num_threads == 0 selects hardware_concurrency() (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t num_threads() const { return threads_.size(); }

  /// Enqueues a task. If the pool was built with one thread, runs inline.
  void submit(std::function<void()> task) RAYSCHED_EXCLUDES(mutex_);

  /// Blocks until all submitted tasks finished; rethrows the first captured
  /// task exception, if any.
  void wait() RAYSCHED_EXCLUDES(mutex_);

 private:
  void worker_loop() RAYSCHED_EXCLUDES(mutex_);
  void record_exception() RAYSCHED_EXCLUDES(mutex_);

  std::vector<std::thread> threads_;
  util::Mutex mutex_;
  util::CondVar cv_task_;
  util::CondVar cv_done_;
  // Pending tasks are queue_[head_, size()). Both reset to empty once the
  // last one is taken, so the storage is reused and a pool that never holds
  // more tasks than before allocates nothing per submit.
  std::vector<std::function<void()>> queue_ RAYSCHED_GUARDED_BY(mutex_);
  std::size_t head_ RAYSCHED_GUARDED_BY(mutex_) = 0;
  std::size_t in_flight_ RAYSCHED_GUARDED_BY(mutex_) = 0;
  bool stop_ RAYSCHED_GUARDED_BY(mutex_) = false;
  std::exception_ptr first_exception_ RAYSCHED_GUARDED_BY(mutex_);
};

/// Splits [0, count) into contiguous chunks and runs body(begin, end) on the
/// pool, blocking until all chunks complete. body must be thread-safe across
/// disjoint ranges. With a 1-thread pool this is a plain loop.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t min_chunk = 1);

/// Shared default pool sized to the host (constructed on first use).
ThreadPool& default_pool();

}  // namespace raysched::sim
