#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "sim/thread_pool.hpp"

namespace raysched::sim {
namespace {

TEST(ThreadPool, InlineModeRunsTasks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 0u);  // inline mode keeps no workers
  int counter = 0;
  pool.submit([&] { ++counter; });
  pool.submit([&] { counter += 10; });
  pool.wait();
  EXPECT_EQ(counter, 11);
}

TEST(ThreadPool, MultiThreadRunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] { counter.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&] { counter.fetch_add(1); });
  pool.wait();
  pool.submit([&] { counter.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, ExceptionsPropagateFromWait) {
  ThreadPool pool(2);
  pool.submit([] { throw raysched::error("boom"); });
  EXPECT_THROW(pool.wait(), raysched::error);
  // Pool stays usable after the exception.
  std::atomic<int> counter{0};
  pool.submit([&] { counter.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, InlineExceptionsPropagate) {
  ThreadPool pool(1);
  pool.submit([] { throw raysched::error("inline boom"); });
  EXPECT_THROW(pool.wait(), raysched::error);
}

TEST(ThreadPool, InlineModeCancelsTasksAfterException) {
  // After the first captured exception the pool drains: pending work is
  // cancelled instead of executed, until wait() rethrows and resets.
  ThreadPool pool(1);
  int counter = 0;
  pool.submit([] { throw raysched::error("boom"); });
  for (int i = 0; i < 10; ++i) {
    pool.submit([&] { ++counter; });
  }
  EXPECT_THROW(pool.wait(), raysched::error);
  EXPECT_EQ(counter, 0);
  // wait() cleared the exception; the pool accepts work again.
  pool.submit([&] { ++counter; });
  pool.wait();
  EXPECT_EQ(counter, 1);
}

TEST(ThreadPool, QueuedTasksAreDrainedAfterException) {
  // Block both workers, queue a pile of tasks behind them, then make the
  // blockers throw: the queued tasks must be cancelled, not executed.
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<int> executed{0};
  for (int i = 0; i < 2; ++i) {
    pool.submit([&] {
      while (!release.load()) std::this_thread::yield();
      throw raysched::error("deferred boom");
    });
  }
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] { executed.fetch_add(1); });
  }
  release.store(true);
  EXPECT_THROW(pool.wait(), raysched::error);
  EXPECT_EQ(executed.load(), 0);
  // The pool remains usable afterwards.
  pool.submit([&] { executed.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(executed.load(), 1);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, hits.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for(pool, 0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, ZeroMinChunkBehavesLikeOne) {
  // min_chunk == 0 must not divide by zero or spin: it degrades to the
  // smallest chunk that makes progress.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(64);
  parallel_for(
      pool, hits.size(),
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
      },
      /*min_chunk=*/0);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroCountWithZeroMinChunkIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for(
      pool, 0, [&](std::size_t, std::size_t) { called = true; },
      /*min_chunk=*/0);
  EXPECT_FALSE(called);
}

TEST(ParallelFor, MinChunkLargerThanCountRunsOneChunk) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  std::atomic<std::size_t> covered{0};
  parallel_for(
      pool, 10,
      [&](std::size_t b, std::size_t e) {
        calls.fetch_add(1);
        covered.fetch_add(e - b);
      },
      /*min_chunk=*/1000);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(covered.load(), 10u);
}

TEST(ParallelFor, SequentialEquivalence) {
  // A reduction computed via parallel_for with per-chunk partials must match
  // the sequential result exactly (chunks are disjoint).
  ThreadPool pool(4);
  std::vector<double> data(5000);
  std::iota(data.begin(), data.end(), 0.0);
  std::mutex m;
  double sum = 0.0;
  parallel_for(pool, data.size(), [&](std::size_t b, std::size_t e) {
    double local = 0.0;
    for (std::size_t i = b; i < e; ++i) local += data[i];
    std::lock_guard<std::mutex> lock(m);
    sum += local;
  });
  EXPECT_DOUBLE_EQ(sum, 5000.0 * 4999.0 / 2.0);
}

TEST(ThreadPoolStress, ConcurrentSubmittersRacingWaitWithExceptions) {
  // TSan-targeted: many submitter threads race wait() while a fraction of
  // tasks throw, so the drain-after-first-exception path (record_exception
  // swapping the queue, wait() clearing and rethrowing, submit() observing
  // the draining flag) runs concurrently with everything else. The
  // assertions are deliberately weak — tasks submitted while the pool is
  // draining are dropped by design — the point is that TSan sees every
  // interleaving and the pool never deadlocks, crashes, or loses its
  // ability to run work afterwards.
  ThreadPool pool(4);
  constexpr int kSubmitters = 6;
  constexpr int kTasksPerSubmitter = 200;
  std::atomic<int> executed{0};
  std::atomic<int> exceptions_seen{0};
  std::atomic<bool> done_submitting{false};

  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &executed, s] {
      for (int t = 0; t < kTasksPerSubmitter; ++t) {
        if ((t + s) % 41 == 0) {
          pool.submit([] { throw raysched::error("stress boom"); });
        } else {
          pool.submit([&executed] { executed.fetch_add(1); });
        }
      }
    });
  }

  // Race wait() against the submitters from a dedicated thread too, so
  // rethrow-and-reset runs concurrently with submission.
  std::thread waiter([&pool, &exceptions_seen, &done_submitting] {
    while (!done_submitting.load()) {
      try {
        pool.wait();
      } catch (const raysched::error&) {
        exceptions_seen.fetch_add(1);
      }
    }
  });

  for (auto& t : submitters) t.join();
  done_submitting.store(true);
  waiter.join();

  // Flush any still-pending exception, then prove the pool still works.
  for (;;) {
    try {
      pool.wait();
      break;
    } catch (const raysched::error&) {
      exceptions_seen.fetch_add(1);
    }
  }
  EXPECT_GE(exceptions_seen.load(), 1);
  EXPECT_LE(executed.load(), kSubmitters * kTasksPerSubmitter);
  std::atomic<int> after{0};
  pool.submit([&after] { after.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(after.load(), 1);
}

TEST(ThreadPoolStress, ParallelForSurvivesThrowingBodies) {
  // parallel_for must propagate a body exception out of its internal wait()
  // and leave the pool reusable; repeated rounds stress the reset path.
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> ran{0};
    try {
      parallel_for(pool, 256, [&ran, round](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          if (round % 2 == 0 && i == 128) {
            throw raysched::error("body boom");
          }
          ran.fetch_add(1);
        }
      });
      EXPECT_EQ(ran.load(), 256);
    } catch (const raysched::error&) {
      EXPECT_LT(ran.load(), 256);
    }
  }
}

TEST(ThreadPool, GrowAddsWorkersAndNeverShrinks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 0u);
  pool.grow(3);
  EXPECT_EQ(pool.num_threads(), 3u);
  pool.grow(2);
  EXPECT_EQ(pool.num_threads(), 3u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) pool.submit([&ran] { ran.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(ran.load(), 16);
}

TEST(ParallelFor, MaxClaimersCapsTheThreadsThatRunBodies) {
  ThreadPool pool(6);
  std::mutex m;
  std::vector<std::thread::id> seen;
  parallel_for(
      pool, 64,
      [&](std::size_t, std::size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        std::lock_guard<std::mutex> lock(m);
        if (std::find(seen.begin(), seen.end(), std::this_thread::get_id()) ==
            seen.end()) {
          seen.push_back(std::this_thread::get_id());
        }
      },
      /*min_chunk=*/1, /*max_claimers=*/2);
  EXPECT_LE(seen.size(), 2u);
  EXPECT_GE(seen.size(), 1u);
}

TEST(ParallelFor, CallerFinishesWhenEveryWorkerIsBusy) {
  // Both workers block until the caller's loop is done; the caller must
  // claim every index itself instead of waiting for its queued tasks.
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  for (int i = 0; i < 2; ++i) {
    pool.submit([&release] {
      while (!release.load()) std::this_thread::yield();
    });
  }
  std::vector<std::atomic<int>> hits(100);
  parallel_for(pool, hits.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  release.store(true);
  pool.wait();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, CallsSharingAPoolRethrowOnlyTheirOwnFault) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> clean_hits{0};
    bool clean_threw = false;
    std::thread clean([&] {
      try {
        parallel_for(pool, 200, [&](std::size_t b, std::size_t e) {
          clean_hits.fetch_add(static_cast<int>(e - b));
        });
      } catch (...) {
        clean_threw = true;
      }
    });
    EXPECT_THROW(parallel_for(pool, 200,
                              [](std::size_t b, std::size_t) {
                                if (b == 50) throw raysched::error("boom");
                              }),
                 raysched::error);
    clean.join();
    EXPECT_FALSE(clean_threw);
    EXPECT_EQ(clean_hits.load(), 200);
  }
}

TEST(DefaultPool, IsSingleton) {
  ThreadPool& a = default_pool();
  ThreadPool& b = default_pool();
  EXPECT_EQ(&a, &b);
}

}  // namespace
}  // namespace raysched::sim
