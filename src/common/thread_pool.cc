#include "common/thread_pool.h"

#include <algorithm>
#include <exception>

#include "common/check.h"
#include "common/cpu.h"
#include "common/timer.h"

namespace mz {
namespace {

thread_local bool tls_in_pool_worker = false;

// RAII marker for "this thread is running pool work".
struct WorkerMark {
  bool previous;
  WorkerMark() : previous(tls_in_pool_worker) { tls_in_pool_worker = true; }
  ~WorkerMark() { tls_in_pool_worker = previous; }
};

// How long a worker polls for more work, and a caller for its barrier,
// before parking on a condition variable (thread_pool.h).
constexpr std::int64_t kSpinNanos = 50'000;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Polls `done` until it holds or the spin window closes.
template <typename Pred>
void SpinUntil(Pred done) {
  const std::int64_t deadline = NowNanos() + kSpinNanos;
  while (!done() && NowNanos() < deadline) {
    CpuRelax();
  }
}

}  // namespace

// Completion barrier shared by the tasks of one RunOnWorkers call. The
// pending count is atomic so a spinning caller can poll it without the
// mutex; only the last Arrive takes the mutex, to notify a parked caller
// (holding it orders the notify after the caller's predicate check, so the
// wakeup cannot be lost).
struct Barrier {
  std::atomic<int> pending{0};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;  // first exception a queued task threw; under mu

  void Fail(std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(mu);
    if (!error) {
      error = std::move(e);
    }
  }

  void Arrive() {
    if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(mu);
      cv.notify_all();
    }
  }

  // Returns the first recorded task exception (null when none threw).
  std::exception_ptr Wait(bool spin) {
    auto done = [this] { return pending.load(std::memory_order_acquire) == 0; };
    if (spin) {
      SpinUntil(done);
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, done);
    return error;
  }
};

ThreadPool::ThreadPool(int num_threads) {
  MZ_CHECK_MSG(num_threads >= 1, "thread pool needs at least one thread");
  spin_ = num_threads <= NumLogicalCpus();
  // Worker 0 is the calling thread; spawn the rest.
  threads_.reserve(static_cast<std::size_t>(num_threads));
  threads_.emplace_back();  // placeholder slot for the inline worker 0
  for (int i = 1; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // shutdown with nothing left to run
      }
      task = std::move(queue_.front());
      queue_.pop();
      queued_.fetch_sub(1, std::memory_order_relaxed);
    }
    try {
      WorkerMark mark;
      task.fn(task.worker_index);
    } catch (...) {
      task.barrier->Fail(std::current_exception());
    }
    task.barrier->Arrive();
    if (spin_) {
      SpinUntil([this] { return queued_.load(std::memory_order_relaxed) > 0; });
    }
  }
}

bool ThreadPool::InWorker() { return tls_in_pool_worker; }

void ThreadPool::RunOnAllWorkers(const std::function<void(int)>& fn) {
  RunOnWorkers(num_threads(), fn);
}

void ThreadPool::RunOnWorkers(int width, const std::function<void(int)>& fn) {
  dispatches_.fetch_add(1, std::memory_order_relaxed);
  int n = std::clamp(width, 1, num_threads());
  if (n == 1) {
    WorkerMark mark;
    fn(0);
    return;
  }
  auto barrier = std::make_shared<Barrier>();
  barrier->pending.store(n - 1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int i = 1; i < n; ++i) {
      queue_.push(Task{fn, i, barrier});
    }
    queued_.fetch_add(n - 1, std::memory_order_relaxed);
  }
  if (n == num_threads()) {
    cv_.notify_all();
  } else {
    for (int i = 1; i < n; ++i) {
      cv_.notify_one();  // wake only as many sleepers as there are tasks
    }
  }
  // Always wait, even when fn(0) throws: the queued tasks may reference
  // the caller's frame.
  std::exception_ptr error;
  try {
    WorkerMark mark;
    fn(0);
  } catch (...) {
    error = std::current_exception();
  }
  std::exception_ptr task_error = barrier->Wait(spin_);
  if (!error) {
    error = std::move(task_error);
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

void ThreadPool::ParallelFor(std::int64_t begin, std::int64_t end,
                             const std::function<void(std::int64_t, std::int64_t)>& fn) {
  std::int64_t total = std::max<std::int64_t>(0, end - begin);
  if (total == 0) {
    return;
  }
  if (InWorker()) {
    fn(begin, end);  // nested: run inline (composable parallelism)
    return;
  }
  std::int64_t n = num_threads();
  std::int64_t chunk = (total + n - 1) / n;
  RunOnAllWorkers([&](int worker) {
    std::int64_t lo = begin + chunk * worker;
    std::int64_t hi = std::min(end, lo + chunk);
    if (lo < hi) {
      fn(lo, hi);
    }
  });
}

ThreadPool& GlobalPool() {
  static ThreadPool* pool = new ThreadPool(NumLogicalCpus());
  return *pool;
}

}  // namespace mz
