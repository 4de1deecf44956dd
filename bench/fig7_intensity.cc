// Figure 7: compute- vs memory-boundedness.
//  (a) relative intensity (cycles per byte) of vecmath operators measured in
//      a tight loop over an L2-resident array — add/mul are cheap, exp is
//      ~an order of magnitude more expensive per byte;
//  (b) Mozart's speedup over the un-annotated parallel library for a
//      10-call chain of each operator: the lower the intensity, the more
//      memory-bound the chain, the bigger the pipelining win — and the win
//      grows with threads as bandwidth saturates.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "common/aligned.h"
#include "common/cpu.h"
#include "core/runtime.h"
#include "vecmath/annotated.h"
#include "vecmath/vecmath.h"

namespace {

using UnaryLibFn = void (*)(long, const double*, double*);

struct Op {
  const char* name;
  UnaryLibFn lib;
  const mzvec::UnaryFn* wrapped;
};

// Unary proxies for the paper's binary add/mul/div (same arithmetic per
// element; unary keeps the chain uniform).
const Op kOps[] = {
    {"add", vecmath::Copy, &mzvec::Copy},  // streaming move: lowest intensity
    {"mul", vecmath::Sqr, &mzvec::Sqr},
    {"div", vecmath::Inv, &mzvec::Inv},
    {"sqrt", vecmath::Sqrt, &mzvec::Sqrt},
    {"erf", vecmath::Erf, &mzvec::Erf},
    {"exp", vecmath::Exp, &mzvec::Exp},
};

}  // namespace

int main() {
  bench::Title("Figure 7a: relative intensity (cycles/byte proxy, L2-resident tight loop)");
  const long small_n = static_cast<long>(mz::L2CacheBytes() / (4 * sizeof(double)));
  mz::AlignedBuffer<double> a(static_cast<std::size_t>(small_n));
  mz::AlignedBuffer<double> b(static_cast<std::size_t>(small_n));
  a.Fill(0.73);
  vecmath::SetNumThreads(1);
  double base_time = 0;
  for (const Op& op : kOps) {
    double t = bench::TimeSeconds([&] {
      for (int r = 0; r < 64; ++r) {
        op.lib(small_n, a.data(), b.data());
      }
    });
    if (base_time == 0) {
      base_time = t;
    }
    std::printf("  %-6s relative intensity %6.2f\n", op.name, t / base_time);
  }

  bench::Title("Figure 7b: Mozart speedup over parallel library, 10-call chain per operator");
  const long n = bench::Scaled(8 << 20);
  mz::AlignedBuffer<double> src(static_cast<std::size_t>(n));
  mz::AlignedBuffer<double> dst(static_cast<std::size_t>(n));
  src.Fill(0.73);
  const int kChain = 10;
  std::printf("  %-6s", "op");
  for (int threads : bench::ThreadSweep()) {
    std::printf("      t=%d", threads);
  }
  std::printf("\n");
  for (const Op& op : kOps) {
    std::printf("  %-6s", op.name);
    for (int threads : bench::ThreadSweep()) {
      vecmath::SetNumThreads(threads);
      double t_base = bench::TimeSeconds([&] {
        op.lib(n, src.data(), dst.data());
        for (int c = 1; c < kChain; ++c) {
          op.lib(n, dst.data(), dst.data());
        }
      });
      mz::RuntimeOptions opts;
      opts.num_threads = threads;
      mz::Runtime rt(opts);
      double t_moz = bench::TimeSeconds([&] {
        mz::RuntimeScope scope(&rt);
        (*op.wrapped)(n, src.data(), dst.data());
        for (int c = 1; c < kChain; ++c) {
          (*op.wrapped)(n, dst.data(), dst.data());
        }
        rt.Evaluate();
      });
      std::printf("  %5.2fx", t_base / t_moz);
    }
    std::printf("\n");
  }
  vecmath::SetNumThreads(0);
  return 0;
}
