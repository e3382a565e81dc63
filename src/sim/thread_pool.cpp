#include "sim/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "util/sync.hpp"

namespace raysched::sim {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads > 1) grow(num_threads);
}

ThreadPool::~ThreadPool() {
  std::vector<std::thread> threads;
  {
    util::MutexLock lock(mutex_);
    stop_ = true;
    threads.swap(threads_);
  }
  cv_task_.notify_all();
  for (auto& t : threads) t.join();
}

std::size_t ThreadPool::num_threads() const {
  util::MutexLock lock(mutex_);
  return threads_.size();
}

void ThreadPool::grow(std::size_t num_workers) {
  util::MutexLock lock(mutex_);
  if (stop_) return;
  threads_.reserve(num_workers);
  while (threads_.size() < num_workers) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

void ThreadPool::record_exception() {
  util::MutexLock lock(mutex_);
  if (!first_exception_) first_exception_ = std::current_exception();
  // Fail fast: tasks that have not started yet can never report a result —
  // wait() will rethrow — so drain them instead of executing them pointlessly.
  in_flight_ -= queue_.size() - head_;
  queue_.clear();
  head_ = 0;
  cv_done_.notify_all();
}

void ThreadPool::submit(std::function<void()> task) {
  bool inline_mode = false;
  {
    util::MutexLock lock(mutex_);
    if (first_exception_) return;  // draining until wait() rethrows
    inline_mode = threads_.empty();
    if (!inline_mode) {
      queue_.push_back(std::move(task));
      ++in_flight_;
    }
  }
  if (!inline_mode) {
    cv_task_.notify_one();
    return;
  }
  // Inline mode: run now, capture exceptions like a worker would. After a
  // captured exception the pool is draining until wait() rethrows, so
  // later submissions are cancelled just like queued tasks.
  try {
    task();
  } catch (...) {
    record_exception();
  }
}

void ThreadPool::wait() {
  std::exception_ptr ex;
  {
    util::MutexLock lock(mutex_);
    while (in_flight_ != 0 || !queue_.empty()) cv_done_.wait(mutex_);
    ex = first_exception_;
    first_exception_ = nullptr;
  }
  if (ex) std::rethrow_exception(ex);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      util::MutexLock lock(mutex_);
      while (!stop_ && queue_.empty()) cv_task_.wait(mutex_);
      if (queue_.empty()) return;  // only reachable when stopping
      task = std::move(queue_[head_++]);
      if (head_ == queue_.size()) {
        queue_.clear();
        head_ = 0;
      }
    }
    try {
      task();
    } catch (...) {
      record_exception();
    }
    {
      util::MutexLock lock(mutex_);
      --in_flight_;
    }
    cv_done_.notify_all();
  }
}

namespace {

using Body = std::function<void(std::size_t, std::size_t)>;

/// One parallel_for call's shared state. The caller and its pool tasks hold
/// it by shared_ptr, so a task that starts after the call returned still
/// finds it, sees no index left, and never touches the body. The body is
/// only called for a claimed, unfinished range, so the caller, which waits
/// for every range to finish, still holds it then.
class ForLoop {
 public:
  ForLoop(std::size_t count, std::size_t chunk, const Body& body)
      : count_(count), chunk_(chunk), body_(body) {}

  /// Claims and runs chunks until none is left.
  void claim() RAYSCHED_EXCLUDES(mutex_) {
    std::size_t begin = next_.load();
    while (begin < count_) {
      const std::size_t end = begin + std::min(chunk_, count_ - begin);
      if (next_.compare_exchange_weak(begin, end)) {
        run(begin, end);
        begin = next_.load();
      }
    }
  }

  /// Blocks until every index is finished or skipped; rethrows the first
  /// exception a body threw.
  void wait() RAYSCHED_EXCLUDES(mutex_) {
    std::exception_ptr ex;
    {
      util::MutexLock lock(mutex_);
      while (done_ < count_) cv_done_.wait(mutex_);
      ex = first_exception_;
    }
    if (ex) std::rethrow_exception(ex);
  }

 private:
  void run(std::size_t begin, std::size_t end) RAYSCHED_EXCLUDES(mutex_) {
    std::exception_ptr ex;
    if (!failed_.load()) {
      try {
        body_(begin, end);
      } catch (...) {
        ex = std::current_exception();
        failed_.store(true);
      }
    }
    util::MutexLock lock(mutex_);
    if (ex && !first_exception_) first_exception_ = ex;
    done_ += end - begin;
    if (done_ == count_) cv_done_.notify_all();
  }

  const std::size_t count_;
  const std::size_t chunk_;
  const Body& body_;
  std::atomic<std::size_t> next_{0};  ///< first unclaimed index
  std::atomic<bool> failed_{false};   ///< a body threw: skip the rest
  util::Mutex mutex_;
  util::CondVar cv_done_;
  std::size_t done_ RAYSCHED_GUARDED_BY(mutex_) = 0;  ///< finished or skipped
  std::exception_ptr first_exception_ RAYSCHED_GUARDED_BY(mutex_);
};

}  // namespace

void parallel_for(ThreadPool& pool, std::size_t count, const Body& body,
                  std::size_t min_chunk, std::size_t max_claimers) {
  // Degenerate inputs are well-defined, not caller errors: an empty range
  // runs nothing, and min_chunk == 0 behaves like min_chunk == 1 (the
  // smallest chunk that makes progress). Both are pinned by tests.
  if (count == 0) return;
  const std::size_t chunk = std::max<std::size_t>(1, min_chunk);
  if (count <= chunk) {  // one chunk: nothing to share
    body(0, count);
    return;
  }
  // The caller claims one chunk; more tasks than the rest would idle.
  std::size_t helpers = std::min(pool.num_threads(), (count - 1) / chunk);
  if (max_claimers > 0) helpers = std::min(helpers, max_claimers - 1);
  const auto loop = std::make_shared<ForLoop>(count, chunk, body);
  for (std::size_t i = 0; i < helpers; ++i) {
    pool.submit([loop] { loop->claim(); });
  }
  loop->claim();
  loop->wait();
}

ThreadPool& default_pool() {
  // The sanctioned shared executor: magic-static construction is
  // thread-safe (C++11 [stmt.dcl]) and all mutable state inside the pool
  // is mutex-guarded and TSA-checked, so the hidden-state hazard RS-D4
  // exists to catch does not apply here. It starts inline (no workers).
  static ThreadPool pool{1};  // raysched-check: allow(RS-D4)
  return pool;
}

}  // namespace raysched::sim
