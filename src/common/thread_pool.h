// Fixed-size thread pool.
//
// Three users:
//  * the vecmath/matrix substrates run their *internal* parallel mode on a
//    pool (standing in for MKL's TBB-backed threading),
//  * Mozart's executor dispatches one task per worker per stage (the paper
//    uses static parallelism, §5.2), and
//  * the serving layer (core/session.h) shares ONE pool between many
//    concurrent sessions: RunOnAllWorkers is safe to call from multiple
//    threads at once — each call carries its own completion barrier, so
//    concurrent submissions interleave through the queue and each caller
//    blocks only on its own tasks. Admission control (core/admission.h)
//    bounds how many evaluations pile onto the queue, not correctness.
//
// ParallelFor partitions [0, n) into contiguous chunks, one per worker, which
// matches the static partitioning Mozart uses for split ranges.
//
// Handoff is spin-then-park. A worker that finishes a task polls the queued-
// task count for a fixed window (~50 µs, with a pause instruction per probe)
// before it sleeps on the condition variable, and a caller waiting on its
// dispatch's barrier polls the barrier's pending count for the same window
// before it blocks. Back-to-back dispatches — a runtime evaluating small
// graphs in a loop — therefore skip the futex wake/sleep round trip. The
// spin applies only while the pool is not oversubscribed
// (num_threads() <= NumLogicalCpus()); an oversubscribed pool parks at once,
// since spinning there would steal the CPU the awaited task needs.
//
// Exceptions: an exception thrown by fn on any worker, the caller's inline
// worker 0 included, reaches the caller of RunOnWorkers/RunOnAllWorkers/
// ParallelFor. The call always waits for every task it queued before it
// rethrows, so a body may capture the caller's frame by reference. When
// several tasks throw, the caller's own exception wins, else the first one
// recorded; the rest are dropped. The pool stays usable afterwards.
#ifndef MOZART_COMMON_THREAD_POOL_H_
#define MOZART_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mz {

class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(threads_.size()); }

  // Runs fn(worker_index) on every worker and blocks until all return.
  // Worker 0 runs on the calling thread so a 1-thread pool has no handoff
  // cost and thread-count sweeps degrade gracefully.
  void RunOnAllWorkers(const std::function<void(int)>& fn);

  // Same, but on only `width` workers (clamped to [1, num_threads()]):
  // fn(0) on the calling thread plus width-1 queued tasks. Lets narrow work
  // (e.g. a small batch of serial jobs, core/batch.h) avoid waking the
  // whole pool.
  void RunOnWorkers(int width, const std::function<void(int)>& fn);

  // Statically partitions [begin, end) into one contiguous range per worker
  // and runs fn(range_begin, range_end) in parallel. Ranges may be empty.
  //
  // Composability: when called from inside any pool worker (this pool or
  // another), the loop runs inline on the calling thread. This is how nested
  // parallelism composes (TBB-style): a library's internal ParallelFor under
  // a Mozart executor worker degrades to serial instead of thrashing two
  // schedulers against each other.
  void ParallelFor(std::int64_t begin, std::int64_t end,
                   const std::function<void(std::int64_t, std::int64_t)>& fn);

  // True on threads currently executing pool work (any pool).
  static bool InWorker();

  // Introspection for benches and the serving layer's admission tuning:
  // total RunOnAllWorkers dispatches and the current queue depth.
  std::int64_t dispatches() const { return dispatches_.load(std::memory_order_relaxed); }
  std::size_t queue_depth() const {
    return static_cast<std::size_t>(queued_.load(std::memory_order_relaxed));
  }

 private:
  struct Task {
    std::function<void(int)> fn;
    int worker_index = 0;
    std::shared_ptr<struct Barrier> barrier;
  };

  void WorkerLoop();

  std::vector<std::thread> threads_;
  bool spin_ = false;  // not oversubscribed: spin before parking
  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<Task> queue_;
  bool shutdown_ = false;
  std::atomic<std::int64_t> queued_{0};  // queue_.size(), readable without mu_
  std::atomic<std::int64_t> dispatches_{0};
};

// Returns a process-wide pool sized to the machine (used as the default by
// substrates when the caller does not pass one).
ThreadPool& GlobalPool();

}  // namespace mz

#endif  // MOZART_COMMON_THREAD_POOL_H_
