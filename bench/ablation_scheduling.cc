// Design-choice ablation (docs/ARCHITECTURE.md, "The execution engine"):
// static partitioning (the paper's choice, §5.2) vs dynamic work stealing,
// on a uniform workload (Black Scholes — per-element cost constant) and a
// skewed one (a filter whose surviving rows concentrate in one region, so
// static ranges imbalance the piece-construction work).
//
// Expected: parity within noise on both — the paper's rationale for
// defaulting to static ("it is simpler to schedule and... leads to similar
// results for most workloads"). Work stealing would only separate on loads
// with strong per-element cost skew and many more cores than this box has.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "core/runtime.h"
#include "dataframe/annotated.h"
#include "dataframe/ops.h"
#include "workloads/numerical.h"

namespace {

double RunFilterSum(mz::Runtime* rt, const df::DataFrame& frame) {
  mz::RuntimeScope scope(rt);
  mz::Future<double> sum;
  {
    auto col = mzdf::ColFromFrame(frame, 0);
    auto mask = mzdf::ColGtC(col, 0.5);
    auto kept = mzdf::FilterRows(frame, mask);
    auto vals = mzdf::ColFromFrame(kept, 1);
    sum = mzdf::ColSum(vals);
  }
  return sum.get();
}

}  // namespace

int main() {
  bench::Title("Ablation: static partitioning (paper default) vs dynamic work stealing");
  int threads = mz::NumLogicalCpus();

  std::printf("\n  uniform load: Black Scholes (%d threads)\n", threads);
  workloads::BlackScholes bs(bench::Scaled(4 << 20), 1);
  for (bool dynamic : {false, true}) {
    mz::RuntimeOptions opts;
    opts.num_threads = threads;
    opts.dynamic_scheduling = dynamic;
    mz::Runtime rt(opts);
    double t = bench::TimeSeconds([&] { bs.RunMozart(&rt); });
    std::printf("    %-8s %8.4f s\n", dynamic ? "dynamic" : "static", t);
  }

  std::printf("\n  skewed load: filter keeping only the last 12.5%% of rows (%d threads)\n",
              threads);
  const long n = bench::Scaled(8000000);
  std::vector<double> flag(static_cast<std::size_t>(n), 0.0);
  std::vector<double> vals(static_cast<std::size_t>(n));
  for (long i = 7 * n / 8; i < n; ++i) {
    flag[static_cast<std::size_t>(i)] = 1.0;
  }
  for (long i = 0; i < n; ++i) {
    vals[static_cast<std::size_t>(i)] = static_cast<double>(i % 1000);
  }
  df::DataFrame frame = df::DataFrame::Make(
      {"flag", "val"},
      {df::Column::Doubles(std::move(flag)), df::Column::Doubles(std::move(vals))});
  for (bool dynamic : {false, true}) {
    mz::RuntimeOptions opts;
    opts.num_threads = threads;
    opts.dynamic_scheduling = dynamic;
    mz::Runtime rt(opts);
    double t = bench::TimeSeconds([&] { (void)RunFilterSum(&rt, frame); });
    std::printf("    %-8s %8.4f s\n", dynamic ? "dynamic" : "static", t);
  }
  return 0;
}
