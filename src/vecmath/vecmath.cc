#include "vecmath/vecmath.h"

#include <atomic>
#include <cmath>
#include <cstdint>

#include "common/check.h"
#include "common/cpu.h"
#include "common/thread_pool.h"
#include "vecmath/lanes.h"

namespace vecmath {
namespace {

std::atomic<int> g_num_threads{0};  // 0 = hardware concurrency

int EffectiveThreads() {
  int t = g_num_threads.load(std::memory_order_relaxed);
  return t > 0 ? t : mz::NumLogicalCpus();
}

// Library-internal pool (stand-in for MKL's TBB arena). Sized to the
// machine; SetNumThreads caps how many workers a call may use.
mz::ThreadPool& Pool() { return mz::GlobalPool(); }

bool ShouldParallelize(long n) { return EffectiveThreads() > 1 && n >= kParallelGrain; }

// Runs fn over [0, n) — serially, or statically partitioned across the
// library pool. fn must be pure element-wise over its range.
template <typename LoopBody>
void Dispatch(long n, LoopBody body) {
  if (!ShouldParallelize(n)) {
    body(0, n);
    return;
  }
  int threads = EffectiveThreads();
  long chunk = (n + threads - 1) / threads;
  Pool().ParallelFor(0, threads, [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      long lo = static_cast<long>(t) * chunk;
      long hi = lo + chunk < n ? lo + chunk : n;
      if (lo < hi) {
        body(lo, hi);
      }
    }
  });
}

// Plain maps: out[i] = f(in[i]...). The loop is written once and also
// instantiated in an AVX2 function, so the compiler vectorizes it (this
// file builds at -O3) at the width lanes::Detected() picks. IEEE + - * /
// give the same bits at any width; no fast-math flag may change that. No
// __restrict: `out` may alias an input exactly (MKL's in-place calls), and
// the compiler's runtime overlap check admits that case.
template <typename F, typename... In>
[[gnu::always_inline]] inline void MapLoop(long lo, long hi, double* out, F f, In... in) {
  for (long i = lo; i < hi; ++i) {
    out[i] = f(in[i]...);
  }
}

template <typename F, typename... In>
MZ_AVX2 void MapLoopAvx2(long lo, long hi, double* out, F f, In... in) {
  MapLoop(lo, hi, out, f, in...);
}

template <typename F, typename... In>
void Map(long n, double* out, F f, In... in) {
  const bool avx2 = lanes::Detected() == lanes::Width::kAvx2;
  Dispatch(n, [=](long lo, long hi) {
    if (avx2) {
      MapLoopAvx2(lo, hi, out, f, in...);
    } else {
      MapLoop(lo, hi, out, f, in...);
    }
  });
}

// Transcendental maps on libmvec lanes (lanes.h). An element's result does
// not depend on where a Dispatch chunk starts.
template <typename Op>
void LaneUnary(long n, const double* a, double* out) {
  const lanes::Width w = lanes::Detected();
  Dispatch(n, [=](long lo, long hi) { lanes::Map<Op>(w, hi - lo, a + lo, out + lo); });
}

template <typename Op>
void LaneBinary(long n, const double* a, const double* b, double* out) {
  const lanes::Width w = lanes::Detected();
  Dispatch(n, [=](long lo, long hi) { lanes::Map<Op>(w, hi - lo, a + lo, b + lo, out + lo); });
}

template <typename Op>
void LaneScalar(long n, const double* a, double c, double* out) {
  const lanes::Width w = lanes::Detected();
  Dispatch(n, [=](long lo, long hi) { lanes::Map<Op>(w, hi - lo, a + lo, c, out + lo); });
}

// Parallel tree reduction: each worker folds its range, partials are folded
// on the caller.
template <typename F>
double Reduce(long n, const double* a, double init, F f) {
  if (!ShouldParallelize(n)) {
    double acc = init;
    for (long i = 0; i < n; ++i) {
      acc = f(acc, a[i]);
    }
    return acc;
  }
  int threads = EffectiveThreads();
  long chunk = (n + threads - 1) / threads;
  std::vector<double> partials(static_cast<std::size_t>(threads), init);
  Pool().ParallelFor(0, threads, [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      long lo = static_cast<long>(t) * chunk;
      long hi = lo + chunk < n ? lo + chunk : n;
      double acc = init;
      for (long i = lo; i < hi; ++i) {
        acc = f(acc, a[i]);
      }
      partials[static_cast<std::size_t>(t)] = acc;
    }
  });
  double acc = init;
  for (double p : partials) {
    acc = f(acc, p);
  }
  return acc;
}

}  // namespace

void SetNumThreads(int threads) {
  MZ_CHECK_MSG(threads >= 0, "SetNumThreads requires a non-negative count");
  g_num_threads.store(threads, std::memory_order_relaxed);
}

int GetNumThreads() { return EffectiveThreads(); }

void Sqrt(long n, const double* a, double* out) { LaneUnary<lanes::Sqrt>(n, a, out); }
void Exp(long n, const double* a, double* out) { LaneUnary<lanes::Exp>(n, a, out); }
void Log(long n, const double* a, double* out) { LaneUnary<lanes::Log>(n, a, out); }
void Log1p(long n, const double* a, double* out) { LaneUnary<lanes::Log1p>(n, a, out); }
void Erf(long n, const double* a, double* out) { LaneUnary<lanes::Erf>(n, a, out); }
void Sin(long n, const double* a, double* out) { LaneUnary<lanes::Sin>(n, a, out); }
void Cos(long n, const double* a, double* out) { LaneUnary<lanes::Cos>(n, a, out); }
void Tan(long n, const double* a, double* out) { LaneUnary<lanes::Tan>(n, a, out); }
void Asin(long n, const double* a, double* out) { LaneUnary<lanes::Asin>(n, a, out); }
void Acos(long n, const double* a, double* out) { LaneUnary<lanes::Acos>(n, a, out); }
void Atan(long n, const double* a, double* out) { LaneUnary<lanes::Atan>(n, a, out); }
void Abs(long n, const double* a, double* out) {
  Map(n, out, [](double x) { return std::fabs(x); }, a);
}
void Neg(long n, const double* a, double* out) {
  Map(n, out, [](double x) { return -x; }, a);
}
void Inv(long n, const double* a, double* out) {
  Map(n, out, [](double x) { return 1.0 / x; }, a);
}
void Sqr(long n, const double* a, double* out) {
  Map(n, out, [](double x) { return x * x; }, a);
}
void Floor(long n, const double* a, double* out) {
  Map(n, out, [](double x) { return std::floor(x); }, a);
}
void Ceil(long n, const double* a, double* out) {
  Map(n, out, [](double x) { return std::ceil(x); }, a);
}

void Add(long n, const double* a, const double* b, double* out) {
  Map(n, out, [](double x, double y) { return x + y; }, a, b);
}
void Sub(long n, const double* a, const double* b, double* out) {
  Map(n, out, [](double x, double y) { return x - y; }, a, b);
}
void Mul(long n, const double* a, const double* b, double* out) {
  Map(n, out, [](double x, double y) { return x * y; }, a, b);
}
void Div(long n, const double* a, const double* b, double* out) {
  Map(n, out, [](double x, double y) { return x / y; }, a, b);
}
void Pow(long n, const double* a, const double* b, double* out) {
  LaneBinary<lanes::Pow>(n, a, b, out);
}
void Atan2(long n, const double* a, const double* b, double* out) {
  LaneBinary<lanes::Atan2>(n, a, b, out);
}
void Hypot(long n, const double* a, const double* b, double* out) {
  LaneBinary<lanes::Hypot>(n, a, b, out);
}
void Max(long n, const double* a, const double* b, double* out) {
  Map(n, out, [](double x, double y) { return x > y ? x : y; }, a, b);
}
void Min(long n, const double* a, const double* b, double* out) {
  Map(n, out, [](double x, double y) { return x < y ? x : y; }, a, b);
}

void AddC(long n, const double* a, double c, double* out) {
  Map(n, out, [c](double x) { return x + c; }, a);
}
void SubC(long n, const double* a, double c, double* out) {
  Map(n, out, [c](double x) { return x - c; }, a);
}
void MulC(long n, const double* a, double c, double* out) {
  Map(n, out, [c](double x) { return x * c; }, a);
}
void DivC(long n, const double* a, double c, double* out) {
  Map(n, out, [c](double x) { return x / c; }, a);
}
void RSubC(long n, const double* a, double c, double* out) {
  Map(n, out, [c](double x) { return c - x; }, a);
}
void RDivC(long n, const double* a, double c, double* out) {
  Map(n, out, [c](double x) { return c / x; }, a);
}
void PowC(long n, const double* a, double c, double* out) {
  LaneScalar<lanes::Pow>(n, a, c, out);
}

void Fma(long n, const double* a, const double* b, const double* c, double* out) {
  Map(n, out, [](double x, double y, double z) { return x * y + z; }, a, b, c);
}

void Axpy(long n, double alpha, const double* x, double* y) {
  Map(n, y, [alpha](double yi, double xi) { return yi + alpha * xi; }, y, x);
}

void Copy(long n, const double* a, double* out) {
  Map(n, out, [](double x) { return x; }, a);
}

void Fill(long n, double c, double* out) {
  Map(n, out, [c] { return c; });
}

double Sum(long n, const double* a) {
  return Reduce(n, a, 0.0, [](double acc, double x) { return acc + x; });
}

double Dot(long n, const double* a, const double* b) {
  if (!ShouldParallelize(n)) {
    double acc = 0.0;
    for (long i = 0; i < n; ++i) {
      acc += a[i] * b[i];
    }
    return acc;
  }
  int threads = EffectiveThreads();
  long chunk = (n + threads - 1) / threads;
  std::vector<double> partials(static_cast<std::size_t>(threads), 0.0);
  Pool().ParallelFor(0, threads, [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      long lo = static_cast<long>(t) * chunk;
      long hi = lo + chunk < n ? lo + chunk : n;
      double acc = 0.0;
      for (long i = lo; i < hi; ++i) {
        acc += a[i] * b[i];
      }
      partials[static_cast<std::size_t>(t)] = acc;
    }
  });
  double acc = 0.0;
  for (double p : partials) {
    acc += p;
  }
  return acc;
}

double MaxReduce(long n, const double* a) {
  MZ_CHECK_MSG(n > 0, "MaxReduce over an empty array");
  return Reduce(n, a, a[0], [](double acc, double x) { return x > acc ? x : acc; });
}

double MinReduce(long n, const double* a) {
  MZ_CHECK_MSG(n > 0, "MinReduce over an empty array");
  return Reduce(n, a, a[0], [](double acc, double x) { return x < acc ? x : acc; });
}

void Select(long n, const double* cond, const double* if_true, const double* if_false,
            double* out) {
  Map(n, out, [](double k, double t, double f) { return k != 0.0 ? t : f; }, cond, if_true,
      if_false);
}

void GreaterThan(long n, const double* a, const double* b, double* out) {
  Map(n, out, [](double x, double y) { return x > y ? 1.0 : 0.0; }, a, b);
}

void LessThan(long n, const double* a, const double* b, double* out) {
  Map(n, out, [](double x, double y) { return x < y ? 1.0 : 0.0; }, a, b);
}

}  // namespace vecmath
