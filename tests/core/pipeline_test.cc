// Stage-at-a-time execution of carried stage chains. The executor runs every
// stage to completion — split, task, merge — before the next starts, which
// is the schedule the paper's Table 4 "-pipe" ablation is defined against.
// Covers: the -pipe stage order itself (every batch of call k runs before
// any batch of call k+1, under static and dynamic scheduling), the fused
// single-stage case, carried chains with fresh split inputs joining
// mid-chain, dynamic vs. static equality over carried pieces, zero-element
// carried chains, exception propagation mid-chain under both schedulers
// (with runtime reuse after Reset), and warm plan-cache reproduction of the
// batch schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/client.h"
#include "core/plan_cache.h"
#include "core/runtime.h"
#include "dataframe/annotated.h"
#include "vecmath/annotated.h"
#include "vecmath/vecmath.h"

namespace mz {
namespace {

RuntimeOptions Opts(int threads = 4, bool pedantic = true) {
  RuntimeOptions o;
  o.num_threads = threads;
  o.pedantic = pedantic;
  return o;
}

// Serial node: forces a stage break without touching the streams around it.
const Annotated<void(long)>& Tick() {
  static long sink = 0;
  static const Annotated<void(long)> tick(
      [](long k) { sink += k; },
      AnnotationBuilder("pipeline_test.tick").Arg("k", NoSplit()).Build());
  return tick;
}

df::Column MakeColumn(long n, double start = 0.0) {
  std::vector<double> vals(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) {
    vals[static_cast<std::size_t>(i)] = start + static_cast<double>(i);
  }
  return df::Column::Doubles(std::move(vals));
}

// ---- the -pipe ablation runs one stage at a time ----

// In-place vecmath-style call `out[i] = out[i] * 2 + 1` that logs
// (call id, batch start) for every batch it runs. The batch start is the
// piece's offset into `base`: ArraySplit pieces are pointers into the
// caller's array.
struct OrderLog {
  std::mutex mu;
  std::vector<std::pair<long, long>> entries;  // (call id, batch start)
  const double* base = nullptr;
};

void CheckPipeAblationStageOrder(bool dynamic) {
  const long n = 4096;
  const long batch = 256;  // 16 batches per call
  const int kCalls = 3;
  OrderLog log;
  Annotated<void(long, long, double*)> logged_step(
      [&log](long size, long id, double* out) {
        for (long i = 0; i < size; ++i) {
          out[i] = out[i] * 2.0 + 1.0;
        }
        std::lock_guard<std::mutex> lock(log.mu);
        log.entries.emplace_back(id, static_cast<long>(out - log.base));
      },
      AnnotationBuilder("pipeline_test.logged_step")
          .Arg("size", Split("SizeSplit", {"size"}))
          .Arg("id", NoSplit())
          .MutArg("out", Split("ArraySplit", {"size"}))
          .Build());

  std::vector<double> out(static_cast<std::size_t>(n), 0.0);
  log.base = out.data();
  RuntimeOptions opts = Opts();
  opts.pipeline = false;  // Table 4's -pipe: one stage per call
  opts.dynamic_scheduling = dynamic;
  opts.batch_elems_override = batch;
  Runtime rt(opts);
  {
    RuntimeScope scope(&rt);
    for (long id = 0; id < kCalls; ++id) {
      logged_step(n, id, out.data());
    }
    rt.Evaluate();
  }
  for (double v : out) {
    ASSERT_EQ(v, 7.0);  // ((0*2+1)*2+1)*2+1
  }
  EvalStats::Snapshot s = rt.stats().Take();
  EXPECT_EQ(s.stages, kCalls);
  EXPECT_EQ(s.boundaries_elided, kCalls - 1);  // the chain is carried

  const long batches_per_call = n / batch;
  ASSERT_EQ(log.entries.size(), static_cast<std::size_t>(kCalls * batches_per_call));
  for (std::size_t k = 0; k < log.entries.size(); ++k) {
    // Call k's batches occupy exactly positions [k * B, (k + 1) * B).
    EXPECT_EQ(log.entries[k].first, static_cast<long>(k) / batches_per_call)
        << "log position " << k << " ran call " << log.entries[k].first
        << " (batch start " << log.entries[k].second << ") out of stage order";
  }
  for (long id = 0; id < kCalls; ++id) {
    std::vector<long> starts;
    for (const auto& [call, start] : log.entries) {
      if (call == id) {
        starts.push_back(start);
      }
    }
    std::sort(starts.begin(), starts.end());
    for (long b = 0; b < batches_per_call; ++b) {
      EXPECT_EQ(starts[static_cast<std::size_t>(b)], b * batch) << "call " << id;
    }
  }
}

TEST(StageOrder, PipeAblationRunsEachCallToCompletionStatic) {
  CheckPipeAblationStageOrder(/*dynamic=*/false);
}

TEST(StageOrder, PipeAblationRunsEachCallToCompletionDynamic) {
  CheckPipeAblationStageOrder(/*dynamic=*/true);
}

// ---- carried chains ----

TEST(StageAtATime, FusedChainIsOneStage) {
  const long n = 50000;
  df::Column base = MakeColumn(n);
  Runtime rt(Opts());
  double got;
  {
    RuntimeScope scope(&rt);
    // One fused stage: generic pipelining chains all three calls.
    Future<double> sum = mzdf::ColSum(mzdf::ColAddC(mzdf::ColMulC(base, 2.0), 1.0));
    got = sum.get();
  }
  double want = 0;
  for (long i = 0; i < n; ++i) {
    want += 2.0 * static_cast<double>(i) + 1.0;
  }
  EXPECT_DOUBLE_EQ(got, want);
  EvalStats::Snapshot s = rt.stats().Take();
  EXPECT_EQ(s.stages, 1);
  EXPECT_EQ(s.boundaries_elided, 0);
}

TEST(StageAtATime, FreshInputsJoinCarriedChain) {
  // Binary chain: each later stage reads the carried stream plus a fresh
  // array (and the fresh SizeSplit scalar), split by the carried ranges.
  const long n = 150000;
  std::vector<double> a(static_cast<std::size_t>(n), 1.0);
  std::vector<double> b(static_cast<std::size_t>(n), 2.0);
  std::vector<double> c(static_cast<std::size_t>(n), 3.0);
  std::vector<double> r(static_cast<std::size_t>(n));

  RuntimeOptions opts = Opts();
  opts.pipeline = false;
  Runtime rt(opts);
  RuntimeScope scope(&rt);
  mzvec::Copy(n, a.data(), r.data());
  mzvec::Add(n, r.data(), b.data(), r.data());
  mzvec::Add(n, r.data(), c.data(), r.data());
  rt.Evaluate();
  for (long i = 0; i < n; i += 1777) {
    EXPECT_DOUBLE_EQ(r[static_cast<std::size_t>(i)], 6.0);
  }
  EvalStats::Snapshot s = rt.stats().Take();
  EXPECT_EQ(s.stages, 3);
  EXPECT_EQ(s.boundaries_elided, 2);
}

TEST(StageAtATime, DynamicMatchesStaticOnCarriedChain) {
  // Dynamic workers steal carried pieces out of their producers' order;
  // the values and the elided boundaries must match the static walk.
  const long n = 150000;
  std::vector<double> a(static_cast<std::size_t>(n), 16.0);
  std::vector<double> want(static_cast<std::size_t>(n));
  vecmath::Sqrt(n, a.data(), want.data());
  vecmath::Sqrt(n, want.data(), want.data());
  vecmath::Sqr(n, want.data(), want.data());

  auto run = [&](bool dynamic) {
    std::vector<double> got(static_cast<std::size_t>(n));
    RuntimeOptions opts = Opts();
    opts.pipeline = false;
    opts.dynamic_scheduling = dynamic;
    opts.batch_elems_override = 4096;  // many pieces → real stealing
    Runtime rt(opts);
    RuntimeScope scope(&rt);
    mzvec::Sqrt(n, a.data(), got.data());
    mzvec::Sqrt(n, got.data(), got.data());
    mzvec::Sqr(n, got.data(), got.data());
    rt.Evaluate();
    return std::make_pair(got, rt.stats().Take());
  };
  auto [static_vals, static_stats] = run(false);
  auto [dynamic_vals, dynamic_stats] = run(true);
  EXPECT_EQ(static_vals, want);
  EXPECT_EQ(dynamic_vals, want);
  EXPECT_EQ(dynamic_stats.stages, 3);
  EXPECT_EQ(dynamic_stats.boundaries_elided, 2);
  EXPECT_EQ(static_stats.boundaries_elided, dynamic_stats.boundaries_elided);
}

TEST(StageAtATime, ZeroElementCarriedChainRunsEmptyBatches) {
  // A zero-length stream through a carried chain: one empty batch per
  // stage (schema preservation) hands its empty piece on without crashing.
  std::vector<double> a(1, 4.0);
  std::vector<double> out(1, -1.0);
  RuntimeOptions opts = Opts();
  opts.pipeline = false;
  Runtime rt(opts);
  RuntimeScope scope(&rt);
  mzvec::Sqrt(0, a.data(), out.data());
  mzvec::Sqr(0, out.data(), out.data());
  rt.Evaluate();
  EXPECT_DOUBLE_EQ(out[0], -1.0);  // untouched
  EvalStats::Snapshot s = rt.stats().Take();
  EXPECT_EQ(s.stages, 2);
  EXPECT_EQ(s.boundaries_elided, 1);
  EXPECT_EQ(s.batches, 2);
}

// ---- failure propagation ----

// Copies a→out but throws when it encounters the sentinel value, so the
// failure strikes mid-stream, in the consuming stage of a carried chain.
const Annotated<void(long, const double*, double*)>& ThrowOnSentinel() {
  static const Annotated<void(long, const double*, double*)> fn(
      [](long size, const double* a, double* out) {
        for (long i = 0; i < size; ++i) {
          if (a[i] == 12345.0) {
            throw std::runtime_error("sentinel hit");
          }
          out[i] = a[i];
        }
      },
      AnnotationBuilder("pipeline_test.throw_on_sentinel")
          .Arg("size", Split("SizeSplit", {"size"}))
          .Arg("a", Split("ArraySplit", {"size"}))
          .MutArg("out", Split("ArraySplit", {"size"}))
          .Build());
  return fn;
}

void RunMidChainThrow(bool dynamic) {
  const long n = 120000;
  std::vector<double> a(static_cast<std::size_t>(n), 1.0);
  std::vector<double> mid(static_cast<std::size_t>(n));
  std::vector<double> out(static_cast<std::size_t>(n));
  a[static_cast<std::size_t>(n / 2)] = 12345.0;  // trips stage 2 mid-stream

  RuntimeOptions opts = Opts();
  opts.pipeline = false;
  opts.dynamic_scheduling = dynamic;
  Runtime rt(opts);
  {
    RuntimeScope scope(&rt);
    mzvec::Copy(n, a.data(), mid.data());
    ThrowOnSentinel()(n, mid.data(), out.data());
    EXPECT_THROW(rt.Evaluate(), std::runtime_error);
  }
  // The executor must unwind cleanly (no stranded carried pieces, no
  // poisoned pool): the same runtime evaluates a fresh carried chain
  // afterwards, and its boundary still elides.
  rt.Reset();
  rt.stats().Reset();
  std::vector<double> b(1000, 9.0);
  std::vector<double> c(1000);
  {
    RuntimeScope scope(&rt);
    mzvec::Sqrt(1000, b.data(), c.data());
    mzvec::Sqr(1000, c.data(), c.data());
    rt.Evaluate();
  }
  EXPECT_EQ(c, b);
  EvalStats::Snapshot s = rt.stats().Take();
  EXPECT_EQ(s.stages, 2);
  EXPECT_EQ(s.boundaries_elided, 1);
}

TEST(StageAtATimeFailure, MidChainExceptionPropagatesStatic) {
  RunMidChainThrow(/*dynamic=*/false);
}

TEST(StageAtATimeFailure, MidChainExceptionPropagatesDynamic) {
  RunMidChainThrow(/*dynamic=*/true);
}

// ---- plan-template round trip (warm cache reproduces the schedule) ----

TEST(StageTemplate, WarmPlanCacheReproducesBatches) {
  // The carry marks and the footprint hints (splitter WidthForParams) are
  // plan-template state: a warm cache hit must reproduce the cold run's
  // schedule bit-identically — same batch count, same re-batching
  // decisions, same elided boundaries.
  const long n = 120000;
  std::vector<double> a(static_cast<std::size_t>(n), 4.0);
  df::Column base = MakeColumn(20000);
  PlanCache cache;
  RuntimeOptions opts = Opts();
  opts.pipeline = false;
  opts.plan_cache = &cache;
  Runtime rt(opts);

  auto run = [&] {
    std::vector<double> out(static_cast<std::size_t>(n));
    RuntimeScope scope(&rt);
    mzvec::Sqrt(n, a.data(), out.data());
    mzvec::Exp(n, out.data(), out.data());
    rt.Evaluate();
    // A column produce→consume chain across a serial break: carried column
    // pieces whose footprint model reads the SeriesSplit width params.
    Future<df::Column> cur = mzdf::ColMulC(base, 2.0);
    auto next = mzdf::ColAddC(cur, 1.0);
    Tick()(1);
    Future<double> sum = mzdf::ColSum(mzdf::ColAddC(next, 1.0));
    return sum.get();
  };

  double cold_val = run();
  EvalStats::Snapshot cold = rt.stats().Take();
  rt.stats().Reset();
  double warm_val = run();
  EvalStats::Snapshot warm = rt.stats().Take();

  EXPECT_DOUBLE_EQ(cold_val, warm_val);
  EXPECT_GT(warm.plan_cache_hits, 0);
  EXPECT_EQ(warm.plans_built, 0);
  EXPECT_EQ(warm.stages, cold.stages);
  EXPECT_EQ(warm.batches, cold.batches);
  EXPECT_EQ(warm.stages_rebatched, cold.stages_rebatched);
  EXPECT_EQ(warm.boundaries_elided, cold.boundaries_elided);
  EXPECT_GE(warm.boundaries_elided, 1);
}

}  // namespace
}  // namespace mz
