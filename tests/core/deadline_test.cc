// Deadlines, cancellation, and backpressure end-to-end (ISSUE 9): expired
// and mid-flight cancellation leave the runtime reusable; the admission gate
// sheds work it predicts cannot meet its deadline, times out queued waiters
// without leaking queue state, and enforces per-session rate quotas; the
// batch collector never strands a rider behind a window its deadline cannot
// survive, and a dispatch failure reaches every job in the batch instead of
// hanging the followers. "core;serving" label → rides the CI TSan job: the
// timed-wait withdrawal path and the deadline bypass are new cross-thread
// coordination.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/fault.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/admission.h"
#include "core/batch.h"
#include "core/client.h"
#include "core/session.h"
#include "vecmath/annotated.h"
#include "vecmath/vecmath.h"

namespace mz {
namespace {

std::vector<double> Iota(long n, double start) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = start + static_cast<double>(i);
  }
  return v;
}

void Capture(long n, const double* a, const double* b, double* out) {
  mzvec::Log1p(n, a, out);
  mzvec::Add(n, out, b, out);
  mzvec::Div(n, out, b, out);
}

std::vector<double> Expected(long n, const std::vector<double>& a, const std::vector<double>& b) {
  std::vector<double> want(static_cast<std::size_t>(n));
  vecmath::Log1p(n, a.data(), want.data());
  vecmath::Add(n, want.data(), b.data(), want.data());
  vecmath::Div(n, want.data(), b.data(), want.data());
  return want;
}

TEST(DeadlineTest, CancelBeforeEvaluateLeavesGraphReusable) {
  mzvec::EnsureRegistered();
  ServingContext ctx(ServingOptions{.pool_threads = 2});
  SessionOptions opts;
  opts.serving = &ctx;
  Session session(opts);

  const long n = 1000;
  std::vector<double> a = Iota(n, 1.0), b = Iota(n, 2.0);
  std::vector<double> out(static_cast<std::size_t>(n), 0.0);
  {
    Session::Scope scope(session);
    Capture(n, a.data(), b.data(), out.data());
  }

  CancelSource src;
  src.Cancel();
  EvalOptions eo;
  eo.cancel = src.token();
  EXPECT_THROW(session.Evaluate(eo), CancelledError);
  EXPECT_EQ(session.stats().cancelled_evals.load(), 1);
  // Nothing executed, nothing torn down: the captured range is intact and a
  // plain evaluation completes it with the right answer.
  EXPECT_EQ(session.runtime().num_pending_nodes(), 3);
  session.Evaluate();
  EXPECT_EQ(out, Expected(n, a, b));
}

TEST(DeadlineTest, ExpiredDeadlineThrowsAndCountsDeadlineError) {
  mzvec::EnsureRegistered();
  ServingContext ctx(ServingOptions{.pool_threads = 2});
  SessionOptions opts;
  opts.serving = &ctx;
  Session session(opts);

  const long n = 1000;
  std::vector<double> a = Iota(n, 1.0), b = Iota(n, 2.0);
  std::vector<double> out(static_cast<std::size_t>(n), 0.0);
  {
    Session::Scope scope(session);
    Capture(n, a.data(), b.data(), out.data());
  }

  CancelSource src;
  src.SetDeadlineNanos(NowNanos() - 1);  // already expired
  EvalOptions eo;
  eo.cancel = src.token();
  EXPECT_THROW(session.Evaluate(eo), DeadlineError);
  EXPECT_EQ(session.stats().deadline_evals.load(), 1);
  session.Evaluate();
  EXPECT_EQ(out, Expected(n, a, b));
}

// A cancel raised *inside* execution (by the first batch of a captured
// function) unwinds through the executor's boundary checks, and after a
// Reset the same capture re-evaluates bit-identically — under static and
// dynamic schedules.
TEST(DeadlineTest, MidEvaluationCancelUnwindsAndRetryIsBitIdentical) {
  mzvec::EnsureRegistered();
  const long n = 8192;
  std::vector<double> a = Iota(n, 1.0);
  std::vector<double> want(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) {
    want[static_cast<std::size_t>(i)] = a[static_cast<std::size_t>(i)] + 1.0;
  }

  for (bool dynamic : {false, true}) {
    CancelSource src;
    std::atomic<int> calls{0};
    Annotated<void(long, const double*, double*)> canceling_inc(
        [&](long size, const double* in, double* out) {
          for (long i = 0; i < size; ++i) {
            out[i] = in[i] + 1.0;
          }
          if (calls.fetch_add(1, std::memory_order_relaxed) == 0) {
            src.Cancel();  // cancel mid-plan, from the first batch executed
          }
        },
        AnnotationBuilder("test_canceling_inc")
            .Arg("size", Split("SizeSplit", {"size"}))
            .Arg("in", Split("ArraySplit", {"size"}))
            .MutArg("out", Split("ArraySplit", {"size"}))
            .Build());

    RuntimeOptions rt_opts;
    rt_opts.num_threads = 2;
    rt_opts.batch_elems_override = 256;  // 32 batches: plenty of boundaries
    rt_opts.dynamic_scheduling = dynamic;
    Runtime rt(rt_opts);
    RuntimeScope scope(&rt);

    std::vector<double> out(static_cast<std::size_t>(n), 0.0);
    canceling_inc(n, a.data(), out.data());
    EvalOptions eo;
    eo.cancel = src.token();
    EXPECT_THROW(rt.Evaluate(eo), CancelledError) << "dynamic=" << dynamic;
    EXPECT_GE(calls.load(), 1);

    // The runtime survives the unwind: Reset, re-capture, clean evaluate.
    rt.Reset();
    std::fill(out.begin(), out.end(), 0.0);
    canceling_inc(n, a.data(), out.data());
    rt.Evaluate();  // inert token: the prior cancel is irrelevant here
    EXPECT_EQ(out, want) << "dynamic=" << dynamic;
  }
}

// Load shedding: once the gate has hold-time history and the predicted wait
// exceeds the request's deadline, Acquire rejects up front with a structured
// OverloadError instead of queueing doomed work.
TEST(DeadlineTest, GateShedsWhenPredictedWaitExceedsDeadline) {
  AdmissionGate gate(1);
  // Build hold-time history: a few real acquire/release cycles ~2ms each.
  for (int i = 0; i < 3; ++i) {
    AdmissionGate::Ticket t = gate.Acquire();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GT(gate.ewma_hold_ns(), 0);

  AdmissionGate::Ticket holder = gate.Acquire();  // occupy the only token
  ASSERT_GT(gate.EstimatedWaitNanos(), 0);

  CancelSource src;
  src.SetDeadlineNanos(NowNanos() + gate.EstimatedWaitNanos() / 10);
  try {
    AdmissionGate::Ticket t = gate.Acquire(1, 1, src.token());
    FAIL() << "expected OverloadError";
  } catch (const OverloadError& e) {
    EXPECT_EQ(e.kind, OverloadError::Kind::kBacklog);
    EXPECT_GT(e.retry_after_us, 0);
  }
  EXPECT_EQ(gate.waiting(), 0) << "a shed request must never occupy queue state";

  // A generous deadline queues (no shed) and is granted once the holder
  // releases.
  CancelSource patient;
  patient.SetDeadlineAfterMicros(2'000'000);
  std::thread release([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    holder.Release();
  });
  AdmissionGate::Ticket granted = gate.Acquire(2, 1, patient.token());
  EXPECT_TRUE(granted.held());
  release.join();
  granted.Release();
  EXPECT_EQ(gate.in_use(), 0);
}

// A queued waiter whose deadline expires withdraws cleanly: DRR queue state
// is erased, the token count is untouched, and later acquires proceed.
TEST(DeadlineTest, QueuedWaiterTimesOutAndUnqueues) {
  AdmissionGate gate(1);  // fresh gate: no hold history, so no shedding
  AdmissionGate::Ticket holder = gate.Acquire(1);

  CancelSource src;
  src.SetDeadlineAfterMicros(20'000);
  const std::int64_t t0 = NowNanos();
  EXPECT_THROW({ AdmissionGate::Ticket t = gate.Acquire(2, 1, src.token()); }, DeadlineError);
  EXPECT_GE(NowNanos() - t0, 15'000'000) << "gave up well before the deadline";
  EXPECT_EQ(gate.waiting(), 0) << "timed-out waiter leaked queue state";

  holder.Release();
  AdmissionGate::Ticket next = gate.Acquire(3);
  EXPECT_TRUE(next.held());
  next.Release();
  EXPECT_EQ(gate.in_use(), 0);
}

TEST(DeadlineTest, CancelWhileWaitingUnqueues) {
  AdmissionGate gate(1);
  AdmissionGate::Ticket holder = gate.Acquire(1);

  CancelSource src;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    src.Cancel();
  });
  EXPECT_THROW({ AdmissionGate::Ticket t = gate.Acquire(2, 1, src.token()); }, CancelledError);
  canceller.join();
  EXPECT_EQ(gate.waiting(), 0);
  holder.Release();
  EXPECT_EQ(gate.in_use(), 0);
}

// Per-session rate quotas at the gate: an empty bucket rejects with kQuota
// and a refill-time hint; the bucket is refcounted across installers.
TEST(DeadlineTest, QuotaBucketRejectsWithRetryAfter) {
  AdmissionGate gate(2);
  gate.SetQuota(7, 2.0, 1.0);  // 2 evals/s, burst of 1
  gate.ChargeQuota(7);         // burst token
  try {
    gate.ChargeQuota(7);
    FAIL() << "expected OverloadError";
  } catch (const OverloadError& e) {
    EXPECT_EQ(e.kind, OverloadError::Kind::kQuota);
    EXPECT_GT(e.retry_after_us, 0);
    EXPECT_LE(e.retry_after_us, 600'000) << "refill hint far beyond 1/rate";
  }
  gate.ChargeQuota(8);  // sessions without a quota are unlimited
  gate.DropQuota(7);
  gate.ChargeQuota(7);  // dropped: unlimited again
}

TEST(DeadlineTest, SessionQuotaRejectsAndCounts) {
  mzvec::EnsureRegistered();
  ServingContext ctx(ServingOptions{.pool_threads = 2});
  SessionOptions opts;
  opts.serving = &ctx;
  opts.quota_evals_per_sec = 0.5;  // burst max(1, rate/4) = 1: one eval, then dry
  Session session(opts);

  const long n = 256;
  std::vector<double> a = Iota(n, 1.0), b = Iota(n, 2.0);
  std::vector<double> out(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < 2; ++i) {
    Session::Scope scope(session);
    Capture(n, a.data(), b.data(), out.data());
    if (i == 0) {
      session.Evaluate();
    } else {
      try {
        session.Evaluate();
        FAIL() << "expected OverloadError";
      } catch (const OverloadError& e) {
        EXPECT_EQ(e.kind, OverloadError::Kind::kQuota);
        EXPECT_GT(e.retry_after_us, 0);
      }
      session.Reset();
    }
  }
  EXPECT_EQ(session.stats().quota_rejects.load(), 1);
  EXPECT_EQ(session.stats().evaluations.load(), 1);
}

// A rider whose deadline falls inside the open batch's dispatch window must
// not ride: it runs solo immediately instead of sleeping out the window.
TEST(DeadlineTest, DeadlineRiderBypassesOpenBatch) {
  ThreadPool pool(2);
  BatchCollector collector(&pool, BatchOptions{.window_us = 200'000, .max_batch = 8});

  std::atomic<bool> leader_ran{false};
  std::thread leader([&] {
    collector.Run([&] { leader_ran.store(true); });  // opens a 200ms window
  });
  while (collector.jobs() < 1) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  std::atomic<bool> rider_ran{false};
  const std::int64_t t0 = NowNanos();
  collector.Run([&] { rider_ran.store(true); }, nullptr,
                /*deadline_ns=*/NowNanos() + 5'000'000);  // 5ms < 200ms window
  const std::int64_t rider_ns = NowNanos() - t0;
  EXPECT_TRUE(rider_ran.load());
  EXPECT_LT(rider_ns, 100'000'000) << "rider slept out the leader's window";
  EXPECT_EQ(collector.deadline_bypasses(), 1);

  collector.Flush();  // release the leader
  leader.join();
  EXPECT_TRUE(leader_ran.load());
}

// Regression (pre-fix the followers hang forever): a Dispatch() failure must
// mark the batch done and surface the error on every job it never ran.
TEST(DeadlineTest, BatchDispatchFailureReachesEveryJob) {
  ThreadPool pool(2);
  BatchCollector collector(&pool, BatchOptions{.window_us = 100'000, .max_batch = 2});

  FaultConfig cfg;
  cfg.p_throw = 1.0;
  cfg.only_site = "batch.dispatch";
  FaultInjector::Global().Arm(cfg);

  std::atomic<int> threw{0};
  std::atomic<int> ran{0};
  auto eval = [&] {
    try {
      collector.Run([&] { ran.fetch_add(1); });
    } catch (const FaultInjected&) {
      threw.fetch_add(1);
    }
  };
  std::thread t1(eval), t2(eval);  // max_batch=2: second arrival dispatches
  t1.join();
  t2.join();
  FaultInjector::Global().Disarm();

  EXPECT_EQ(threw.load(), 2) << "dispatch failure must reach leader AND rider";
  EXPECT_EQ(ran.load(), 0);
  EXPECT_GE(FaultInjector::Global().fires(), 1);

  // The collector survives: a clean batch still runs.
  std::atomic<bool> ok{false};
  collector.Run([&] { ok.store(true); });
  EXPECT_TRUE(ok.load());
}

// Regression for the admission-token audit: an exception thrown from inside
// a pooled evaluation must release the ticket on unwind (RAII), leaving the
// gate reusable.
TEST(DeadlineTest, PooledEvalThrowDoesNotLeakAdmissionToken) {
  mzvec::EnsureRegistered();
  ServingContext ctx(ServingOptions{
      .pool_threads = 2, .max_pool_sessions = 1, .serial_cutoff_elems = 0});
  SessionOptions opts;
  opts.serving = &ctx;
  Session session(opts);

  const long n = 65536;  // far above any cutoff: pooled, token held
  std::vector<double> a = Iota(n, 1.0), b = Iota(n, 2.0);
  std::vector<double> out(static_cast<std::size_t>(n), 0.0);
  {
    Session::Scope scope(session);
    Capture(n, a.data(), b.data(), out.data());
  }

  FaultConfig cfg;
  cfg.p_throw = 1.0;
  cfg.only_site = "exec.batch";
  FaultInjector::Global().Arm(cfg);
  EXPECT_THROW(session.Evaluate(), FaultInjected);
  FaultInjector::Global().Disarm();

  EXPECT_EQ(ctx.admission().in_use(), 0) << "throwing pooled eval leaked its token";
  EXPECT_EQ(ctx.admission().waiting(), 0);

  // And the session still works: Reset, re-capture, evaluate clean.
  session.Reset();
  {
    Session::Scope scope(session);
    Capture(n, a.data(), b.data(), out.data());
  }
  session.Evaluate();
  EXPECT_EQ(out, Expected(n, a, b));
}

}  // namespace
}  // namespace mz
