// Shared pieces of the repository benchmark: run arguments, the result
// record every workload fills, percentile helpers, EvalStats deltas, and the
// in-memory span tracer.
//
// Spans are recorded by the benchmark's own code around each call it makes
// into a layer of the program (capture, Evaluate, ResilientClient::Eval, ...).
// Nothing inside the runtime is instrumented: per-layer numbers combine these
// spans with deltas of the runtime's existing EvalStats counters.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/stats.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace-event JSON written at the end (trace runs)
};

// Everything a workload reports. Metrics keep insertion order so the human
// table and the JSON record read in the same order.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void Set(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& key, const std::string& value);
  void Mismatch(const std::string& what);  // an output check failed (names the output)

  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> notes;
  std::vector<std::string> mismatches;  // first few, by name
  std::vector<std::string> invalid;     // reasons the run's figures cannot be trusted
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t mismatch_count = 0;
};

// Writes `r` as one JSON object on stdout (the record run.py reads).
void PrintResult(const Args& args, const Result& r);

// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

// Latency statistics of a run that discount disturbed stretches: the
// per-unit times (in run order) are cut into up to kWindows consecutive
// windows of at least kMinWindowSamples, and each statistic (median, p90) is
// taken over the pooled samples of the half of the windows where that
// statistic is lowest (one window when there are fewer than two). Other
// tenants of a shared host only ever add time, so the disturbed half is set
// aside.
inline constexpr std::size_t kWindows = 10;
inline constexpr std::size_t kMinWindowSamples = 25;
struct QuietStats {
  double p50 = 0.0;
  double p90 = 0.0;
  std::size_t windows = 0;  // windows the run was cut into
  std::size_t samples = 0;  // samples each statistic is taken over
};
QuietStats Quietest(const std::vector<double>& samples);

// Peak resident set size of this process (VmHWM), MiB.
double PeakRssMb();

// v with 6 significant digits, for notes.
std::string Fmt(double v);

inline double SecondsSince(std::int64_t t0_ns) {
  return static_cast<double>(mz::NowNanos() - t0_ns) * 1e-9;
}

// The EvalStats counters the benchmark attributes time and work with, as a
// plain value that subtracts (after - before = one phase's share).
struct Counters {
  std::int64_t client_ns = 0;
  std::int64_t unprotect_ns = 0;
  std::int64_t planner_ns = 0;
  std::int64_t split_ns = 0;
  std::int64_t task_ns = 0;
  std::int64_t merge_ns = 0;
  std::int64_t evaluations = 0;
  std::int64_t batches = 0;
  std::int64_t nodes_executed = 0;
  std::int64_t plans_built = 0;
  std::int64_t plan_cache_hits = 0;
  std::int64_t plan_cache_misses = 0;
  std::int64_t pooled_evals = 0;
  std::int64_t admission_wait_ns = 0;
  std::int64_t batched_evals = 0;
  std::int64_t boundaries_elided = 0;
  std::int64_t pipeline_regions = 0;
  std::int64_t batch_window_adapted_us = 0;
  std::int64_t shed_evals = 0;
  std::int64_t quota_rejects = 0;
  std::int64_t deadline_evals = 0;
  std::int64_t cancelled_evals = 0;
  std::int64_t retries = 0;
  std::int64_t hedges_launched = 0;

  static Counters Of(const mz::EvalStats::Snapshot& s);
  Counters operator-(const Counters& o) const;
  std::int64_t WorkNs() const { return split_ns + task_ns + merge_ns; }
};

// Per-layer metrics shared by every workload, computed from the counters of
// the traced phase. A layer a workload bypasses reads 0.
struct LayerInputs {
  Counters delta;
  std::int64_t units = 0;        // iterations (batch) or requests (served)
  std::vector<double> eval_ms;   // wall time of each Evaluate span
  double attributed_ns = 0.0;    // sum over evaluations of their attributed wall time
  double busy_threads = 1.0;     // executor threads the workload can keep busy
  double busy_wall_ns = 0.0;     // wall time those threads were available
  // executor.eff_gbps = distinct_bytes / unit_median_s: the array bytes one
  // iteration touches over the median iteration time.
  double distinct_bytes = 0.0;
  double unit_median_s = 0.0;
};
void AddLayerMetrics(const LayerInputs& in, Result* r);

// Every workload reports every per-layer metric. These set the reference
// metrics a workload does not produce (the other libraries' base time, the
// fused stand-in) and the load-generator ones only served_mixed has to 0.
void SetUnusedReferencesToZero(Result* r);
void SetServedOnlyLayersToZero(Result* r);

// ---- tracing ---------------------------------------------------------------

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the same tracer, -1 = root
  std::int64_t id = 0;       // iteration or request id shared by its spans
};

// One thread's spans, kept in memory until the run ends. When off, Begin
// returns -1 without reading the clock and End ignores it.
class Tracer {
 public:
  Tracer(bool on, int tid) : on_(on), tid_(tid) {
    if (on_) {
      spans_.reserve(1 << 16);
    }
  }

  bool on() const { return on_; }
  int tid() const { return tid_; }

  int Begin(const char* name, int parent, std::int64_t id) {
    if (!on_) {
      return -1;
    }
    Span s;
    s.name = name;
    s.start_ns = mz::NowNanos();
    s.parent = parent;
    s.id = id;
    spans_.push_back(s);
    return static_cast<int>(spans_.size()) - 1;
  }

  void End(int index) {
    if (index >= 0) {
      spans_[static_cast<std::size_t>(index)].end_ns = mz::NowNanos();
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  int tid_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int parent, std::int64_t id)
      : tracer_(tracer), index_(tracer.Begin(name, parent, id)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

// Durations (ms) of every span called `name`.
std::vector<double> SpanMs(const Tracer& tracer, const char* name);

// Writes all tracers' spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto). Returns the number of spans written.
std::size_t WriteTrace(const std::string& path, const std::vector<const Tracer*>& tracers);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
