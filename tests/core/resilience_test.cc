// Resilient client layer + graceful drain (ISSUE 10).
//
// Covers the client-side policy stack (core/resilience.h) — budgeted
// retries with decorrelated-jitter backoff, the retry_after_us floor, the
// per-tenant circuit breaker's closed/open/half-open transitions under an
// injectable clock, hedged requests winning over a stragling primary — and
// the server-side pieces it paces against: per-tenant byte quotas with
// oversized-plan debt, bounded StreamSource backpressure with deadline-aware
// Push, and ServingContext::Drain (drain-under-load, drain-vs-stream,
// double-drain idempotence, zero leaked tokens).
//
// Labelled "core;serving" so the suite rides the CI TSan job: the hedge
// worker thread, drain's waiter wakeup, and the bounded-FIFO producer wait
// are new cross-thread coordination.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/fault.h"
#include "common/timer.h"
#include "core/resilience.h"
#include "core/session.h"
#include "core/stream.h"
#include "vecmath/annotated.h"
#include "vecmath/vecmath.h"

namespace mz {
namespace {

using Vec = std::vector<double>;

Vec Iota(long n, double start) {
  Vec v(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = start + static_cast<double>(i);
  }
  return v;
}

constexpr long kSmallN = 512;    // inline class under the default cutoff
constexpr long kLargeN = 32768;  // pooled class

// A tiny self-contained eval functor: capture under the attempt Session's
// scope, write into a lane-local output row so concurrent hedge lanes never
// share a buffer. RunOnce evaluates after the functor returns.
ResilientClient::EvalFn SmallFn(const Vec& a, const Vec& b, Vec out[2]) {
  return [&a, &b, out](Session& s, const EvalOptions&, int lane) {
    Session::Scope scope(s);
    mzvec::Log1p(kSmallN, a.data(), out[lane].data());
    mzvec::Add(kSmallN, out[lane].data(), b.data(), out[lane].data());
  };
}

struct FaultArm {
  explicit FaultArm(const FaultConfig& cfg) { FaultInjector::Global().Arm(cfg); }
  ~FaultArm() { FaultInjector::Global().Disarm(); }
};

// Deterministic time for the policy layer: a fake clock the fake sleeper
// advances, making backoff/breaker decisions pure functions of the seed.
struct FakeTime {
  std::int64_t now_ns = 1'000'000'000;
  std::vector<std::int64_t> sleeps_us;
  void Wire(ResilienceOptions* o) {
    o->clock = [this] { return now_ns; };
    o->sleep = [this](std::int64_t us) {
      sleeps_us.push_back(us);
      now_ns += us * 1000;
    };
  }
};

// ----------------------------------------------------------- retries ----

TEST(ResilienceTest, RetryConvergesAndBalancesBudget) {
  mzvec::EnsureRegistered();
  const Vec a = Iota(kSmallN, 1.0), b = Iota(kSmallN, 2.0);
  Vec out[2] = {Vec(kSmallN, 0.0), Vec(kSmallN, 0.0)};
  // The unannotated library's bits (its Log1p runs on libmvec lanes, within
  // a few ulp of std::log1p, not equal to it).
  Vec want(kSmallN, 0.0);
  vecmath::Log1p(kSmallN, a.data(), want.data());
  vecmath::Add(kSmallN, want.data(), b.data(), want.data());

  ServingContext ctx(ServingOptions{.pool_threads = 2});
  SessionOptions so;
  so.serving = &ctx;
  Session session(so);
  FakeTime time;
  ResilienceOptions ro;
  ro.max_attempts = 8;
  ro.record_trace = true;
  time.Wire(&ro);
  ResilientClient client(session, ro);

  // The first three plan-cache lookups throw; the retry loop must converge.
  FaultConfig cfg;
  cfg.seed = 7;
  cfg.p_throw = 1.0;
  cfg.only_site = "plan_cache.lookup";
  cfg.max_fires = 3;
  {
    FaultArm arm(cfg);
    client.Eval(SmallFn(a, b, out));
  }

  EXPECT_EQ(out[0], want);
  EXPECT_EQ(session.stats().retries.load(), 3);
  // Invariant: every retry was paid for — debits mirror the counter exactly.
  EXPECT_EQ(client.tenant().budget_debits, 3);
  EXPECT_EQ(client.tenant().budget_credits, 1);  // the final success
  EXPECT_EQ(time.sleeps_us.size(), 3u);
  // Backoff stays inside [base, cap] when the server gave no hint.
  for (const ResilienceTraceEvent& ev : client.trace()) {
    if (ev.kind == ResilienceTraceKind::kRetry) {
      EXPECT_GE(ev.value, ro.backoff_base_us);
      EXPECT_LE(ev.value, ro.backoff_cap_us);
    }
  }
}

TEST(ResilienceTest, BudgetExhaustionStopsRetries) {
  mzvec::EnsureRegistered();
  const Vec a = Iota(kSmallN, 1.0), b = Iota(kSmallN, 2.0);
  Vec out[2] = {Vec(kSmallN, 0.0), Vec(kSmallN, 0.0)};

  ServingContext ctx(ServingOptions{.pool_threads = 2});
  SessionOptions so;
  so.serving = &ctx;
  Session session(so);
  FakeTime time;
  ResilienceOptions ro;
  ro.max_attempts = 10;          // attempts are not the limiter here...
  ro.retry_budget_burst = 2.0;   // ...the budget is: two retries, then stop
  ro.breaker_enabled = false;    // isolate the budget policy
  time.Wire(&ro);
  ResilientClient client(session, ro);

  FaultConfig cfg;
  cfg.seed = 11;
  cfg.p_throw = 1.0;
  cfg.only_site = "plan_cache.lookup";
  FaultArm arm(cfg);
  EXPECT_THROW(client.Eval(SmallFn(a, b, out)), FaultInjected);

  EXPECT_EQ(session.stats().retries.load(), 2);
  EXPECT_EQ(client.tenant().budget_debits, 2);
  EXPECT_EQ(session.stats().retry_budget_exhausted.load(), 1);
  // The ablation: retries disabled fails on the first error, budget intact.
  ResilienceOptions off;
  off.retry_enabled = false;
  off.breaker_enabled = false;
  ResilientClient noretry(session, off);
  EXPECT_THROW(noretry.Eval(SmallFn(a, b, out)), FaultInjected);
  EXPECT_EQ(session.stats().retries.load(), 2);            // unchanged
  EXPECT_EQ(noretry.tenant().budget_debits, 2);            // shared tenant, no new debit
}

TEST(ResilienceTest, BackoffFloorsAtServerRetryAfterHint) {
  mzvec::EnsureRegistered();
  const Vec a = Iota(kSmallN, 1.0), b = Iota(kSmallN, 2.0);
  Vec out[2] = {Vec(kSmallN, 0.0), Vec(kSmallN, 0.0)};

  ServingContext ctx(ServingOptions{.pool_threads = 2});
  SessionOptions so;
  so.serving = &ctx;
  so.quota_evals_per_sec = 5.0;  // bucket: burst 1.25 — the 2nd eval rejects
  Session session(so);
  FakeTime time;
  ResilienceOptions ro;
  ro.max_attempts = 3;
  ro.breaker_enabled = false;
  ro.record_trace = true;
  time.Wire(&ro);
  ResilientClient client(session, ro);

  client.Eval(SmallFn(a, b, out));  // drains the quota bucket
  try {
    client.Eval(SmallFn(a, b, out));
    FAIL() << "quota bucket should have rejected the retries too";
  } catch (const OverloadError& e) {
    EXPECT_EQ(e.kind, OverloadError::Kind::kQuota);
  }
  // The gate's honest hint ((1 - 0.25 tokens) / 5 per sec = 150ms) exceeds
  // backoff_cap_us: every retry's sleep must be floored at the hint, proving
  // the floor is applied after the cap.
  int retry_events = 0;
  for (const ResilienceTraceEvent& ev : client.trace()) {
    if (ev.kind == ResilienceTraceKind::kRetry) {
      ++retry_events;
      EXPECT_GE(ev.value, 100'000) << "backoff ignored the retry_after_us floor";
    }
  }
  EXPECT_EQ(retry_events, 2);  // max_attempts - 1
}

TEST(ResilienceTest, NoRetryLaunchedPastTheDeadline) {
  mzvec::EnsureRegistered();
  const Vec a = Iota(kSmallN, 1.0), b = Iota(kSmallN, 2.0);
  Vec out[2] = {Vec(kSmallN, 0.0), Vec(kSmallN, 0.0)};

  ServingContext ctx(ServingOptions{.pool_threads = 2});
  SessionOptions so;
  so.serving = &ctx;
  Session session(so);
  ResilienceOptions ro;
  ro.backoff_base_us = 500'000;  // any retry would sleep past the deadline
  ro.breaker_enabled = false;
  ResilientClient client(session, ro);

  FaultConfig cfg;
  cfg.seed = 3;
  cfg.p_throw = 1.0;
  cfg.only_site = "plan_cache.lookup";
  FaultArm arm(cfg);

  CancelSource src;
  src.SetDeadlineAfterMicros(50'000);
  EvalOptions eo;
  eo.cancel = src.token();
  // The original error is rethrown — not converted to DeadlineError — and
  // no sleep was taken (the test would otherwise stall half a second).
  const std::int64_t t0 = NowNanos();
  EXPECT_THROW(client.Eval(SmallFn(a, b, out), eo), FaultInjected);
  EXPECT_LT(NowNanos() - t0, 400'000'000);
  EXPECT_EQ(session.stats().retries.load(), 0);
  EXPECT_EQ(client.tenant().budget_debits, 0);
}

// ----------------------------------------------------------- breaker ----

TEST(ResilienceTest, BreakerOpensFailsFastAndRecovers) {
  mzvec::EnsureRegistered();
  const Vec a = Iota(kSmallN, 1.0), b = Iota(kSmallN, 2.0);
  Vec out[2] = {Vec(kSmallN, 0.0), Vec(kSmallN, 0.0)};

  ServingContext ctx(ServingOptions{.pool_threads = 2});
  SessionOptions so;
  so.serving = &ctx;
  Session session(so);
  FakeTime time;
  ResilienceOptions ro;
  ro.retry_enabled = false;  // one outcome per Eval: deterministic windows
  ro.breaker_window = 4;
  ro.breaker_failure_ratio = 0.5;
  ro.breaker_open_us = 10'000;
  ro.record_trace = true;
  time.Wire(&ro);
  ResilientClient client(session, ro);

  FaultConfig cfg;
  cfg.seed = 5;
  cfg.p_throw = 1.0;
  cfg.only_site = "plan_cache.lookup";
  FaultInjector::Global().Arm(cfg);

  // Four failures fill the window at ratio 1.0: the circuit opens.
  for (int i = 0; i < 4; ++i) {
    EXPECT_THROW(client.Eval(SmallFn(a, b, out)), FaultInjected);
  }
  EXPECT_EQ(client.tenant().breaker_state, 1);
  EXPECT_EQ(session.stats().circuit_opens.load(), 1);

  // Open: fail fast without touching the server (injector hit count frozen).
  const std::int64_t hits_before = FaultInjector::Global().hits();
  try {
    client.Eval(SmallFn(a, b, out));
    FAIL() << "open breaker should fail fast";
  } catch (const CircuitOpenError& e) {
    EXPECT_EQ(e.kind, OverloadError::Kind::kCircuit);
    EXPECT_GT(e.retry_after_us, 0);
  }
  EXPECT_EQ(FaultInjector::Global().hits(), hits_before);

  // After the open hold, with the fault still armed: the half-open probe
  // fails and the circuit re-opens.
  time.now_ns += 11'000'000;
  EXPECT_THROW(client.Eval(SmallFn(a, b, out)), FaultInjected);
  EXPECT_EQ(client.tenant().breaker_state, 1);
  EXPECT_EQ(client.tenant().breaker_opens, 2);

  // After another hold, with the fault gone: the probe succeeds and closes.
  FaultInjector::Global().Disarm();
  time.now_ns += 11'000'000;
  client.Eval(SmallFn(a, b, out));
  EXPECT_EQ(client.tenant().breaker_state, 0);
  client.Eval(SmallFn(a, b, out));  // closed again: normal service

  // The trace tells the whole story in order.
  std::vector<ResilienceTraceKind> transitions;
  for (const ResilienceTraceEvent& ev : client.trace()) {
    switch (ev.kind) {
      case ResilienceTraceKind::kBreakerOpen:
      case ResilienceTraceKind::kBreakerHalfOpen:
      case ResilienceTraceKind::kBreakerClose:
      case ResilienceTraceKind::kFailFast:
        transitions.push_back(ev.kind);
        break;
      default:
        break;
    }
  }
  const std::vector<ResilienceTraceKind> want = {
      ResilienceTraceKind::kBreakerOpen, ResilienceTraceKind::kFailFast,
      ResilienceTraceKind::kBreakerHalfOpen, ResilienceTraceKind::kBreakerOpen,
      ResilienceTraceKind::kBreakerHalfOpen, ResilienceTraceKind::kBreakerClose};
  EXPECT_EQ(transitions, want);
}

// ----------------------------------------------------------- hedging ----

TEST(ResilienceTest, HedgeWinsOverStragglingPrimary) {
  mzvec::EnsureRegistered();
  const Vec a = Iota(kSmallN, 1.0), b = Iota(kSmallN, 2.0);
  Vec out[2] = {Vec(kSmallN, 0.0), Vec(kSmallN, 0.0)};
  // The unannotated library's bits (its Log1p runs on libmvec lanes, within
  // a few ulp of std::log1p, not equal to it).
  Vec want(kSmallN, 0.0);
  vecmath::Log1p(kSmallN, a.data(), want.data());
  vecmath::Add(kSmallN, want.data(), b.data(), want.data());

  ServingContext ctx(ServingOptions{.pool_threads = 2});
  SessionOptions so;
  so.serving = &ctx;
  Session session(so);
  ResilienceOptions ro;
  ro.hedge_enabled = true;
  ro.hedge_quantile = 0.95;
  // Floor the hedge threshold far above scheduler/sanitizer noise on a fast
  // inline eval, and far below the injected 80ms straggle.
  ro.hedge_min_us = 20'000;
  ResilientClient client(session, ro);

  // Prime the latency window: fast evals below the sample minimum hedge
  // nothing (also asserts the estimator's warm-up gate).
  for (int i = 0; i < 10; ++i) {
    client.Eval(SmallFn(a, b, out));
  }
  EXPECT_EQ(session.stats().hedges_launched.load(), 0);

  // Now a request whose primary lane stalls far past the p95 estimate while
  // the hedge lane is fast: the hedge must launch, win, and produce the
  // result in its own lane.
  out[0].assign(kSmallN, 0.0);
  out[1].assign(kSmallN, 0.0);
  client.Eval([&](Session& s, const EvalOptions&, int lane) {
    if (lane == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(80));
    }
    Session::Scope scope(s);
    mzvec::Log1p(kSmallN, a.data(), out[lane].data());
    mzvec::Add(kSmallN, out[lane].data(), b.data(), out[lane].data());
  });

  EXPECT_EQ(session.stats().hedges_launched.load(), 1);
  EXPECT_EQ(session.stats().hedge_wins.load(), 1);
  EXPECT_EQ(out[1], want);  // the winning lane's output
  // The hedge was paid for out of the shared retry budget.
  EXPECT_EQ(client.tenant().budget_debits, 1);
}

// --------------------------------------------------------- byte quota ----

TEST(ResilienceTest, ByteQuotaRejectsWithHonestHintAndDebt) {
  mzvec::EnsureRegistered();
  const Vec a = Iota(kSmallN, 1.0), b = Iota(kSmallN, 2.0);

  ServingContext ctx(ServingOptions{.pool_threads = 2});
  SessionOptions so;
  so.serving = &ctx;
  so.quota_bytes_per_sec = 1000.0;  // burst 250 B — far below any plan here
  Session session(so);

  auto eval_once = [&] {
    Vec out(static_cast<std::size_t>(kSmallN), 0.0);
    Session::Scope scope(session);
    mzvec::Add(kSmallN, a.data(), b.data(), out.data());
    session.Evaluate();
  };

  // An oversized plan admits against a full bucket (leaving debt) instead of
  // deadlocking on a quota it could never satisfy...
  eval_once();
  EXPECT_EQ(session.stats().quota_rejects.load(), 0);
  // ...and the debt rejects the next eval with an honest refill estimate.
  try {
    eval_once();
    FAIL() << "byte-quota debt should reject the second eval";
  } catch (const OverloadError& e) {
    EXPECT_EQ(e.kind, OverloadError::Kind::kQuota);
    EXPECT_GT(e.retry_after_us, 0);
    session.Reset();
  }
  EXPECT_EQ(session.stats().quota_rejects.load(), 1);
  // Unthrottled neighbors are unaffected: quotas are per-tenant buckets.
  SessionOptions other;
  other.serving = &ctx;
  Session neighbor(other);
  Vec out(static_cast<std::size_t>(kSmallN), 0.0);
  Session::Scope scope(neighbor);
  mzvec::Add(kSmallN, a.data(), b.data(), out.data());
  neighbor.Evaluate();
  EXPECT_EQ(neighbor.stats().quota_rejects.load(), 0);
}

// --------------------------------------------- bounded stream producer ----

TEST(ResilienceTest, BoundedStreamPushObservesDeadlineAndCancel) {
  StreamSource src(/*max_chunks=*/2);
  src.Push(Value::Make<Vec>(Iota(8, 0.0)));
  src.Push(Value::Make<Vec>(Iota(8, 8.0)));
  ASSERT_EQ(src.chunks_queued(), 2);

  // Full FIFO + deadline: the timed wait expires, the chunk is NOT enqueued.
  {
    CancelSource cs;
    cs.SetDeadlineAfterMicros(20'000);
    EXPECT_THROW(src.Push(Value::Make<Vec>(Iota(8, 16.0)), cs.token()), DeadlineError);
    EXPECT_EQ(src.chunks_queued(), 2);
  }
  // Full FIFO + explicit cancel: same contract, CancelledError.
  {
    CancelSource cs;
    cs.Cancel();
    EXPECT_THROW(src.Push(Value::Make<Vec>(Iota(8, 16.0)), cs.token()), CancelledError);
    EXPECT_EQ(src.chunks_queued(), 2);
  }

  // The consumer freeing a slot unblocks a waiting producer.
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    src.Push(Value::Make<Vec>(Iota(8, 16.0)));  // inert token: waits for space
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  ASSERT_TRUE(src.Pop().has_value());
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(src.chunks_queued(), 2);

  // Close() wakes a blocked producer into the closed-source error.
  std::thread blocked([&] {
    EXPECT_THROW(src.Push(Value::Make<Vec>(Iota(8, 24.0))), Error);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  src.Close();
  blocked.join();
}

// -------------------------------------------------------------- drain ----

TEST(ResilienceTest, DrainRejectsNewWorkAndIsIdempotent) {
  mzvec::EnsureRegistered();
  const Vec a = Iota(kSmallN, 1.0), b = Iota(kSmallN, 2.0);
  ServingContext ctx(ServingOptions{.pool_threads = 2});
  SessionOptions so;
  so.serving = &ctx;
  Session session(so);

  EXPECT_FALSE(ctx.draining());
  EXPECT_TRUE(ctx.Drain());  // idle context quiesces immediately
  EXPECT_TRUE(ctx.draining());
  EXPECT_TRUE(ctx.Drain());  // double drain: an idempotent re-wait

  Vec out(static_cast<std::size_t>(kSmallN), 0.0);
  {
    Session::Scope scope(session);
    mzvec::Add(kSmallN, a.data(), b.data(), out.data());
  }
  try {
    session.Evaluate();
    FAIL() << "a draining context must reject new evaluations";
  } catch (const OverloadError& e) {
    EXPECT_EQ(e.kind, OverloadError::Kind::kDraining);
    EXPECT_EQ(e.retry_after_us, 0);  // draining never comes back
    session.Reset();
  }
  EXPECT_EQ(session.stats().drained_evals.load(), 1);
}

TEST(ResilienceTest, DrainUnderLoadQuiescesWithinDeadline) {
  mzvec::EnsureRegistered();
  const Vec la = Iota(kLargeN, 1.0), lb = Iota(kLargeN, 2.0);
  ServingContext ctx(ServingOptions{
      .pool_threads = 2, .max_pool_sessions = 1, .serial_cutoff_elems = 0});

  constexpr int kClients = 4;
  std::atomic<std::int64_t> served{0}, drained{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      SessionOptions so;
      so.serving = &ctx;
      Session session(so);
      Vec out(static_cast<std::size_t>(kLargeN), 0.0);
      for (;;) {
        {
          Session::Scope scope(session);
          mzvec::Mul(kLargeN, la.data(), lb.data(), out.data());
          mzvec::Sqrt(kLargeN, out.data(), out.data());
        }
        try {
          session.Evaluate();
          served.fetch_add(1);
        } catch (const OverloadError& e) {
          session.Reset();
          if (e.kind == OverloadError::Kind::kDraining) {
            drained.fetch_add(1);
            return;  // the shutdown signal clients exit on
          }
        }
      }
    });
  }

  // Let traffic build, then drain with a generous deadline: in-flight work
  // retires, queued waiters are woken and rejected, nothing leaks.
  while (served.load() < 8) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(ctx.Drain(NowNanos() + 5'000'000'000));
  EXPECT_EQ(ctx.admission().in_use(), 0);
  EXPECT_EQ(ctx.admission().waiting(), 0);
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_EQ(drained.load(), kClients);
  EXPECT_GE(served.load(), 8);
}

TEST(ResilienceTest, DrainStopsAnInFlightStreamAtAFiringBoundary) {
  mzvec::EnsureRegistered();
  constexpr long kWindow = 256, kChunkElems = 128;
  ServingContext ctx(ServingOptions{.pool_threads = 2});
  SessionOptions so;
  so.serving = &ctx;
  Session session(so);

  StreamSource src(/*max_chunks=*/4);
  std::atomic<std::int64_t> fired{0};
  std::atomic<bool> overloaded{false};
  std::thread consumer([&] {
    Vec out(static_cast<std::size_t>(kWindow), 0.0);
    StreamOptions sopts;
    sopts.window = kWindow;
    try {
      session.runtime().EvalStream(src, sopts, [&](const Value& win, std::int64_t) {
        mzvec::MulC(static_cast<long>(win.As<Vec>().size()), win.As<Vec>().data(), 2.0,
                    out.data());
        fired.fetch_add(1);
      });
    } catch (const OverloadError& e) {
      EXPECT_EQ(e.kind, OverloadError::Kind::kDraining);
      overloaded.store(true);
    }
  });

  // Feed windows until the consumer fires a few, then drain mid-stream.
  long c = 0;
  while (fired.load() < 3) {
    src.Push(Value::Make<Vec>(Iota(kChunkElems, static_cast<double>(c++ * kChunkElems))));
  }
  EXPECT_TRUE(ctx.Drain(NowNanos() + 5'000'000'000));
  // The consumer must unwind at the next firing even though the stream is
  // still open — keep chunks coming so it is not just blocked on Pop.
  for (int i = 0; i < 8; ++i) {
    if (src.chunks_queued() < src.max_chunks()) {
      src.Push(Value::Make<Vec>(Iota(kChunkElems, 0.0)));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  src.Close();
  consumer.join();
  EXPECT_TRUE(overloaded.load());
  EXPECT_GE(fired.load(), 3);
  EXPECT_EQ(ctx.admission().in_use(), 0);
  EXPECT_EQ(ctx.admission().waiting(), 0);
}

// --------------------------------------------------- resilient streams ----

TEST(ResilienceTest, EvalStreamRetriesFiringsToTheExactAnswer) {
  mzvec::EnsureRegistered();
  constexpr long kWindow = 256, kChunks = 8, kChunkElems = 128;
  constexpr long kFirings = kChunks * kChunkElems / kWindow;

  ServingContext ctx(ServingOptions{.pool_threads = 2});
  SessionOptions so;
  so.serving = &ctx;
  Session session(so);
  ResilienceOptions ro;
  ro.max_attempts = 6;
  ro.retry_budget_burst = 32.0;
  ro.backoff_base_us = 50;  // keep the faulted run quick
  ro.backoff_cap_us = 500;
  ResilientClient client(session, ro);

  std::vector<Vec> results(kFirings, Vec(static_cast<std::size_t>(kWindow), 0.0));
  StreamSource src;
  for (long c = 0; c < kChunks; ++c) {
    src.Push(Value::Make<Vec>(Iota(kChunkElems, static_cast<double>(c * kChunkElems))));
  }
  src.Close();

  FaultConfig cfg;
  cfg.seed = 42;
  cfg.p_throw = 0.3;
  cfg.only_site = "plan_cache.lookup";
  cfg.max_fires = 6;
  std::int64_t firings = 0;
  {
    FaultArm arm(cfg);
    StreamOptions sopts;
    sopts.window = kWindow;
    firings = client.EvalStream(src, sopts, [&](const Value& win, std::int64_t firing) {
      // Overwrite-idempotent per-firing output: a retried firing redoes
      // exactly its own slot.
      mzvec::MulC(static_cast<long>(win.As<Vec>().size()), win.As<Vec>().data(), 3.0,
                  results[static_cast<std::size_t>(firing)].data());
    });
  }

  EXPECT_EQ(firings, kFirings);
  EXPECT_EQ(session.stats().window_firings.load(), kFirings);
  for (long f = 0; f < kFirings; ++f) {
    for (long i = 0; i < kWindow; ++i) {
      ASSERT_EQ(results[static_cast<std::size_t>(f)][static_cast<std::size_t>(i)],
                3.0 * static_cast<double>(f * kWindow + i))
          << "firing " << f << " elem " << i;
    }
  }
}

}  // namespace
}  // namespace mz
