// raysched: annotated synchronization primitives.
//
// These are the lock types all concurrent library code uses (raysched_check
// RS-L2 rejects raw std::mutex / std::condition_variable outside this
// file). They are thin zero-policy wrappers over the standard primitives
// whose only job is to carry the Clang Thread Safety annotations from
// util/thread_annotations.hpp: std::mutex itself is unannotated on
// libstdc++, so the analysis cannot see a std::lock_guard acquire it —
// guarded state would warn on every access no matter how correct the
// locking. With util::Mutex + util::MutexLock the compiler proves the
// discipline instead.
//
// Deliberately minimal surface:
//   Mutex      exclusive capability (lock/unlock/try_lock)
//   MutexLock  scoped acquire, the only sanctioned way to hold a Mutex
//   CondVar    condition variable waiting on a Mutex the caller holds
//
// CondVar::wait takes the Mutex directly (RAYSCHED_REQUIRES it) instead of
// a predicate overload: Clang's analysis cannot propagate capabilities
// into predicate lambdas, so annotated code writes the classic
//   while (!condition) cv.wait(mutex);
// loop, which the analysis checks end to end.
#pragma once

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.hpp"

namespace raysched::util {

/// Exclusive lock capability. Same semantics and cost as std::mutex; adds
/// the annotations the thread-safety analysis needs.
class RAYSCHED_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() RAYSCHED_ACQUIRE() { inner_.lock(); }
  void unlock() RAYSCHED_RELEASE() { inner_.unlock(); }
  [[nodiscard]] bool try_lock() RAYSCHED_TRY_ACQUIRE(true) {
    return inner_.try_lock();
  }

 private:
  friend class CondVar;
  std::mutex inner_;
};

/// RAII scoped acquire of a Mutex — the annotated std::lock_guard.
class RAYSCHED_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) RAYSCHED_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() RAYSCHED_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// Condition variable bound to util::Mutex. wait() atomically releases and
/// re-acquires the caller-held Mutex (the capability is held again when it
/// returns, which is what RAYSCHED_REQUIRES expresses to the analysis).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mutex) RAYSCHED_REQUIRES(mutex) {
    // Adopt the already-held std::mutex for the duration of the wait, then
    // release ownership back to the caller's MutexLock. The analysis treats
    // the capability as continuously held, matching the contract.
    std::unique_lock<std::mutex> lock(mutex.inner_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace raysched::util
