// Unit tests for the fixed-size thread pool: ParallelFor partition
// correctness, RunOnAllWorkers coverage, nested-parallelism composition,
// exception propagation, and spin-then-park handoff.
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace mz {
namespace {

TEST(ThreadPoolTest, NumThreadsMatchesConstruction) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::int64_t kN = 10007;  // prime, so chunks are uneven
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) {
    h.store(0);
  }
  pool.ParallelFor(0, kN, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForNonZeroBegin) {
  ThreadPool pool(2);
  std::atomic<std::int64_t> sum{0};
  pool.ParallelFor(100, 200, [&](std::int64_t begin, std::int64_t end) {
    std::int64_t local = 0;
    for (std::int64_t i = begin; i < end; ++i) {
      local += i;
    }
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), (100 + 199) * 100 / 2);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeRunsNothing) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, [&](std::int64_t begin, std::int64_t end) {
    if (begin != end) {
      calls.fetch_add(1);
    }
  });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, RunOnAllWorkersSeesEveryWorkerIndex) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<int> indices;
  pool.RunOnAllWorkers([&](int worker) {
    std::lock_guard<std::mutex> lock(mu);
    indices.insert(worker);
  });
  EXPECT_EQ(indices, (std::set<int>{0, 1, 2, 3}));
}

TEST(ThreadPoolTest, InWorkerTrueOnlyInsidePoolWork) {
  EXPECT_FALSE(ThreadPool::InWorker());
  ThreadPool pool(2);
  std::atomic<int> in_worker_count{0};
  pool.RunOnAllWorkers([&](int) {
    if (ThreadPool::InWorker()) {
      in_worker_count.fetch_add(1);
    }
  });
  EXPECT_EQ(in_worker_count.load(), 2);
  EXPECT_FALSE(ThreadPool::InWorker());
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineAndStaysCorrect) {
  // A ParallelFor issued from inside pool work must degrade to serial on the
  // calling thread (TBB-style composition) rather than deadlocking or
  // fanning out, and must still cover its full range. Nest into GlobalPool —
  // the production nesting target — and assert the nested body runs on the
  // *calling* thread, which fan-out to the pool's own workers would break.
  ThreadPool outer(2);
  constexpr std::int64_t kN = 512;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) {
    h.store(0);
  }
  outer.RunOnAllWorkers([&](int) {
    EXPECT_TRUE(ThreadPool::InWorker());
    std::thread::id caller = std::this_thread::get_id();
    GlobalPool().ParallelFor(0, kN, [&](std::int64_t begin, std::int64_t end) {
      EXPECT_EQ(std::this_thread::get_id(), caller);  // inline, no handoff
      for (std::int64_t i = begin; i < end; ++i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      }
    });
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 2) << "index " << i;  // once per outer worker
  }
}

TEST(ThreadPoolTest, RunOnWorkersBoundsTheDispatchWidth) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::atomic<int> max_index{-1};
  pool.RunOnWorkers(2, [&](int worker) {
    ran.fetch_add(1);
    int seen = max_index.load();
    while (worker > seen && !max_index.compare_exchange_weak(seen, worker)) {
    }
  });
  EXPECT_EQ(ran.load(), 2);
  EXPECT_LE(max_index.load(), 1) << "a worker outside the requested width ran";

  // Width is clamped to the pool: oversized and degenerate requests behave.
  ran.store(0);
  pool.RunOnWorkers(99, [&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 4);
  ran.store(0);
  pool.RunOnWorkers(0, [&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 1);  // at least the caller runs
}

TEST(ThreadPoolTest, WorkerExceptionSurfacesOnCallerAndPoolStaysUsable) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.RunOnAllWorkers([](int worker) {
    if (worker == 1) {
      throw std::runtime_error("worker 1 failed");
    }
  }),
               std::runtime_error);
  EXPECT_THROW(pool.ParallelFor(0, 300,
                                [](std::int64_t begin, std::int64_t) {
                                  if (begin > 0) {
                                    throw std::runtime_error("chunk failed");
                                  }
                                }),
               std::runtime_error);

  // The failed dispatches left no task behind: the pool runs every worker
  // again.
  std::atomic<int> ran{0};
  pool.RunOnAllWorkers([&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 3);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPoolTest, CallerExceptionWaitsForWorkers) {
  // The body captures this frame by reference; the exception from the
  // caller's inline worker 0 must not unwind it while worker 1 still runs.
  ThreadPool pool(2);
  std::atomic<bool> worker_done{false};
  try {
    pool.RunOnAllWorkers([&](int worker) {
      if (worker == 0) {
        throw std::runtime_error("caller failed");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      worker_done.store(true);
    });
    FAIL() << "expected the caller's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "caller failed");
    EXPECT_TRUE(worker_done.load()) << "rethrown before worker 1 finished";
  }
}

TEST(ThreadPoolTest, ParkedAndSpinningDispatchesComplete) {
  ThreadPool pool(3);
  auto dispatch_once = [&pool] {
    std::atomic<unsigned> seen{0};
    std::atomic<int> calls{0};
    pool.RunOnAllWorkers([&](int worker) {
      seen.fetch_or(1u << worker);
      calls.fetch_add(1);
    });
    return calls.load() == 3 && seen.load() == 0b111u;
  };

  // Idle longer than the spin window, so the workers are parked on the
  // condition variable when the dispatch arrives.
  ASSERT_TRUE(dispatch_once());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(dispatch_once());

  // Back to back from two threads: workers stay in their spin window and
  // the two callers' tasks interleave through one queue.
  constexpr int kDispatches = 10000;
  std::atomic<int> bad{0};
  auto hammer = [&] {
    for (int i = 0; i < kDispatches / 2; ++i) {
      if (!dispatch_once()) {
        bad.fetch_add(1);
      }
    }
  };
  std::thread other(hammer);
  hammer();
  other.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(pool.dispatches(), kDispatches + 2);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPoolTest, GlobalPoolIsAliveAndSizedToMachine) {
  ThreadPool& pool = GlobalPool();
  EXPECT_GE(pool.num_threads(), 1);
  std::atomic<std::int64_t> count{0};
  pool.ParallelFor(0, 1000, [&](std::int64_t begin, std::int64_t end) {
    count.fetch_add(end - begin);
  });
  EXPECT_EQ(count.load(), 1000);
  EXPECT_EQ(&GlobalPool(), &pool);
}

}  // namespace
}  // namespace mz
