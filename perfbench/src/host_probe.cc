// Host probe recorded with every run: how much parallel capacity and memory
// bandwidth the machine really offers right now, so a figure can be read
// against it (a 2-thread speedup means little on a host whose 2 vCPUs give
// 1.3x on a pure spin loop).
#include "host_probe.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu.h"
#include "common/timer.h"
#include "core/perf_counters.h"

namespace perfbench {
namespace {

// A dependent integer chain: no memory traffic, so k threads finish k
// chains in the time of one only if the host gives them k real cores.
std::uint64_t Spin(std::uint64_t iters, std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  return x;
}

double SpinSeconds(int threads, std::uint64_t iters) {
  std::vector<std::thread> pool;
  std::vector<std::uint64_t> sink(static_cast<std::size_t>(threads));
  const std::int64_t t0 = mz::NowNanos();
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] { sink[static_cast<std::size_t>(t)] = Spin(iters, 7u + t); });
  }
  for (std::thread& th : pool) {
    th.join();
  }
  const double s = static_cast<double>(mz::NowNanos() - t0) * 1e-9;
  return sink[0] == 42 ? s + 1e-12 : s;  // keeps the chains observable
}

// Best of 3, so a single preemption does not read as lost capacity.
double BestSpinSeconds(int threads, std::uint64_t iters) {
  double best = SpinSeconds(threads, iters);
  for (int r = 0; r < 2; ++r) {
    best = std::min(best, SpinSeconds(threads, iters));
  }
  return best;
}

// STREAM triad a = b + s*c over `elems` doubles per array on `threads`
// threads, each owning a contiguous slice (first-touched by its owner).
// Returns the best-of-reps bandwidth in GB/s (3 arrays x 8 bytes per element).
double TriadGbps(std::size_t elems, int threads, int reps) {
  // Left uninitialized: each thread first-touches its own slice below.
  std::unique_ptr<double[]> a(new double[elems]);
  std::unique_ptr<double[]> b(new double[elems]);
  std::unique_ptr<double[]> c(new double[elems]);
  auto parallel = [&](auto body) {
    std::vector<std::thread> pool;
    const std::size_t chunk = (elems + static_cast<std::size_t>(threads) - 1) /
                              static_cast<std::size_t>(threads);
    for (int t = 0; t < threads; ++t) {
      const std::size_t lo = std::min(elems, chunk * static_cast<std::size_t>(t));
      const std::size_t hi = std::min(elems, lo + chunk);
      pool.emplace_back([=] { body(lo, hi); });
    }
    for (std::thread& th : pool) {
      th.join();
    }
  };
  double* pa = a.get();
  double* pb = b.get();
  double* pc = c.get();
  parallel([=](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      pa[i] = 0.0;
      pb[i] = 1.0;
      pc[i] = 2.0;
    }
  });
  double best_s = 0.0;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = mz::NowNanos();
    parallel([=](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        pa[i] = pb[i] + 3.0 * pc[i];
      }
    });
    const double s = static_cast<double>(mz::NowNanos() - t0) * 1e-9;
    if (r == 0 || s < best_s) {
      best_s = s;
    }
  }
  if (pa[elems / 2] != 7.0) {
    return 0.0;  // the triad did not run as written
  }
  return best_s > 0.0 ? 3.0 * static_cast<double>(elems * sizeof(double)) * 1e-9 / best_s : 0.0;
}

}  // namespace

void RunHostProbe(Result* r) {
  const int cpus = mz::NumLogicalCpus();
  r->Set("host.cpus", cpus, "count");

  constexpr std::uint64_t kSpinIters = 40'000'000;
  const double t1 = BestSpinSeconds(1, kSpinIters);
  const double t2 = BestSpinSeconds(2, kSpinIters);
  const double t4 = BestSpinSeconds(4, kSpinIters);
  r->Set("host.spin_speedup_t2", 2.0 * t1 / t2, "x");
  r->Set("host.spin_speedup_t4", 4.0 * t1 / t4, "x");

  const double llc = static_cast<double>(mz::LlcBytes());
  r->Set("host.llc_mb", llc / (1024.0 * 1024.0), "MiB");

  // Three arrays whose total is 4x the LLC: the triad then streams from DRAM.
  const std::size_t elems = static_cast<std::size_t>(4.0 * llc / 3.0 / sizeof(double));
  const int threads = std::min(cpus, 4);
  r->Set("host.stream_array_mb", static_cast<double>(elems * sizeof(double)) / (1024.0 * 1024.0),
         "MiB");
  r->Set("host.stream_gbps", TriadGbps(elems, threads, 4), "GB/s");
  r->Note("host.stream",
          "triad a=b+s*c, 3 arrays of host.stream_array_mb each (total 4x host.llc_mb), " +
              std::to_string(threads) + " threads, best of 4");

  mz::PerfCounterGroup counters;
  r->Note("host.perf_counters", counters.available() ? "available" : "n/a");
}

}  // namespace perfbench
