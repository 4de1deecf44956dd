// Streaming throughput + per-window latency (ISSUE 7): a fixed vecmath
// chain (mul, add, sum-reduce) over a chunked stream, windowed by
// Runtime::EvalStream; the runtime's plan cache makes every steady-state
// firing instantiate the first firing's template. Reports, per window
// size:
//   - seconds          total wall time for the whole stream (regression gate)
//   - elems_per_sec    sustained throughput
//   - p50/p95/p99 ns   per-window firing latency (capture -> result in hand)
//   - plan_cache_hits  should be firings - 1 in steady state
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "core/runtime.h"
#include "core/stream.h"
#include "vecmath/annotated.h"

namespace {

using Vec = std::vector<double>;

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t idx = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

}  // namespace

int main() {
  mzvec::EnsureRegistered();
  bench::Title("Streaming: sustained throughput + per-window latency (vec chain)");

  const long total = bench::Scaled(1L << 25);  // elements per stream
  const long chunk = std::max<long>(1, total / 192);  // misaligned with every window

  for (long window : {total / 128, total / 32, total / 8}) {
    if (window <= 0) continue;
    mz::RuntimeOptions o;
    o.num_threads = 0;  // all logical CPUs
    mz::Runtime rt(o);

    mz::StreamSource src;
    {
      Vec data(static_cast<std::size_t>(chunk));
      for (long i = 0; i < chunk; ++i) data[static_cast<std::size_t>(i)] = static_cast<double>(i % 97);
      for (long off = 0; off < total; off += chunk) {
        long n = std::min(chunk, total - off);
        src.Push(mz::Value::Make<Vec>(Vec(data.begin(), data.begin() + n)));
      }
      src.Close();
    }

    Vec out(static_cast<std::size_t>(window));
    mz::StreamAccumulator acc("ReduceAdd", {}, &rt.stats());
    std::vector<double> lat_ns;
    lat_ns.reserve(static_cast<std::size_t>(total / window + 2));

    mz::WallTimer timer;
    std::int64_t firings =
        rt.EvalStream(src, {.window = window}, [&](const mz::Value& win, std::int64_t) {
          mz::WallTimer t;
          const Vec& v = win.As<Vec>();
          const long n = static_cast<long>(v.size());
          mzvec::MulC(n, v.data(), 3.0, out.data());
          mzvec::AddC(n, out.data(), 1.0, out.data());
          acc.Fold(mz::Value::Make<double>(mzvec::Sum(n, out.data()).get()));
          lat_ns.push_back(t.ElapsedSeconds() * 1e9);
        });
    double secs = timer.ElapsedSeconds();

    mz::EvalStats::Snapshot s = rt.stats().Take();
    const double p50 = Percentile(lat_ns, 0.50);
    const double p95 = Percentile(lat_ns, 0.95);
    const double p99 = Percentile(lat_ns, 0.99);
    std::printf(
        "  window %9ld: %5lld firings  %7.3f s  %8.1f Melems/s  "
        "p50 %7.0f us  p95 %7.0f us  p99 %7.0f us  cache %lld/%lld\n",
        window, static_cast<long long>(firings), secs,
        static_cast<double>(total) / secs / 1e6, p50 / 1e3, p95 / 1e3, p99 / 1e3,
        static_cast<long long>(s.plan_cache_hits), static_cast<long long>(firings));

    const std::string cfg = "window=" + std::to_string(window);
    bench::Metric("stream_throughput", "vec_chain", cfg, "seconds", secs);
    bench::Metric("stream_throughput", "vec_chain", cfg, "elems_per_sec",
                  static_cast<double>(total) / secs);
    bench::Metric("stream_throughput", "vec_chain", cfg, "window_latency_p50_ns", p50);
    bench::Metric("stream_throughput", "vec_chain", cfg, "window_latency_p95_ns", p95);
    bench::Metric("stream_throughput", "vec_chain", cfg, "window_latency_p99_ns", p99);
    bench::Metric("stream_throughput", "vec_chain", cfg, "plan_cache_hits",
                  static_cast<double>(s.plan_cache_hits));
    bench::Metric("stream_throughput", "vec_chain", cfg, "incremental_merges",
                  static_cast<double>(s.incremental_merges));
  }
  bench::Note("steady state is re-plan-free: cache hits = firings - 1 per window size");
  return 0;
}
