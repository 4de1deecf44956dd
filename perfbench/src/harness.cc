#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void Result::Set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit});
}

void Result::Note(const std::string& key, const std::string& value) {
  notes.emplace_back(key, value);
}

void Result::Mismatch(const std::string& what) {
  ++mismatch_count;
  if (mismatches.size() < 8) {
    mismatches.push_back(what);
  }
}

void PrintResult(const Args& args, const Result& r) {
  std::string out = "{\"workload\":" + JsonString(args.workload) +
                    ",\"seed\":" + std::to_string(args.seed) +
                    ",\"trace\":" + (args.trace ? "1" : "0") +
                    ",\"seconds\":" + JsonNumber(args.seconds) +
                    ",\"attempted\":" + std::to_string(r.attempted) +
                    ",\"failed\":" + std::to_string(r.failed) +
                    ",\"mismatch_count\":" + std::to_string(r.mismatch_count) + ",\"mismatches\":[";
  for (std::size_t i = 0; i < r.mismatches.size(); ++i) {
    out += (i ? "," : "") + JsonString(r.mismatches[i]);
  }
  out += "],\"invalid\":[";
  for (std::size_t i = 0; i < r.invalid.size(); ++i) {
    out += (i ? "," : "") + JsonString(r.invalid[i]);
  }
  out += "],\"notes\":{";
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    out += (i ? "," : "") + JsonString(r.notes[i].first) + ":" + JsonString(r.notes[i].second);
  }
  out += "},\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Result::Metric& m = r.metrics[i];
    out += (i ? "," : "") + JsonString(m.name) + ":{\"value\":" + JsonNumber(m.value) +
           ",\"unit\":" + JsonString(m.unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least p% of the sample at or below it.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

namespace {

// The pct-th percentile over the pooled samples of the half of `windows`
// where that percentile is lowest.
double OverQuieterHalf(const std::vector<std::vector<double>>& windows, double pct,
                       std::size_t* pooled) {
  std::vector<std::pair<double, std::size_t>> ranked;  // (statistic, window)
  for (std::size_t w = 0; w < windows.size(); ++w) {
    ranked.emplace_back(Percentile(windows[w], pct), w);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<double> quiet;
  for (std::size_t k = 0; k < std::max<std::size_t>(1, windows.size() / 2); ++k) {
    const std::vector<double>& w = windows[ranked[k].second];
    quiet.insert(quiet.end(), w.begin(), w.end());
  }
  *pooled = quiet.size();
  return Percentile(quiet, pct);
}

}  // namespace

QuietStats Quietest(const std::vector<double>& samples) {
  QuietStats q;
  q.windows = std::max<std::size_t>(1, std::min(kWindows, samples.size() / kMinWindowSamples));
  std::vector<std::vector<double>> windows;
  for (std::size_t w = 0; w < q.windows; ++w) {
    windows.emplace_back(
        samples.begin() + static_cast<std::ptrdiff_t>(samples.size() * w / q.windows),
        samples.begin() + static_cast<std::ptrdiff_t>(samples.size() * (w + 1) / q.windows));
  }
  q.p50 = OverQuieterHalf(windows, 50.0, &q.samples);
  q.p90 = OverQuieterHalf(windows, 90.0, &q.samples);
  return q;
}

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

#define PERFBENCH_COUNTER_FIELDS(X)                                                     \
  X(client_ns) X(unprotect_ns) X(planner_ns) X(split_ns) X(task_ns) X(merge_ns)        \
  X(evaluations) X(batches) X(nodes_executed) X(plans_built) X(plan_cache_hits)        \
  X(plan_cache_misses) X(pooled_evals) X(admission_wait_ns)            \
  X(batched_evals) X(boundaries_elided) X(pipeline_regions) X(batch_window_adapted_us) \
  X(shed_evals) X(quota_rejects) X(deadline_evals) X(cancelled_evals) X(retries)       \
  X(hedges_launched)

Counters Counters::Of(const mz::EvalStats::Snapshot& s) {
  Counters c;
#define PERFBENCH_COPY(f) c.f = s.f;
  PERFBENCH_COUNTER_FIELDS(PERFBENCH_COPY)
#undef PERFBENCH_COPY
  return c;
}

Counters Counters::operator-(const Counters& o) const {
  Counters d;
#define PERFBENCH_SUB(f) d.f = f - o.f;
  PERFBENCH_COUNTER_FIELDS(PERFBENCH_SUB)
#undef PERFBENCH_SUB
  return d;
}

#undef PERFBENCH_COUNTER_FIELDS

void AddLayerMetrics(const LayerInputs& in, Result* r) {
  const Counters& d = in.delta;
  const double evals = static_cast<double>(d.evaluations);
  const double units = static_cast<double>(in.units);
  r->Set("client.ns_per_call",
         Ratio(static_cast<double>(d.client_ns), static_cast<double>(d.nodes_executed)), "ns");
  r->Set("planner.us_per_eval", Ratio(static_cast<double>(d.planner_ns) * 1e-3, evals), "us");
  r->Set("planner.plans_per_eval", Ratio(static_cast<double>(d.plans_built), evals), "count");
  r->Set("plan_cache.hit_rate",
         Ratio(static_cast<double>(d.plan_cache_hits),
               static_cast<double>(d.plan_cache_hits + d.plan_cache_misses)),
         "fraction");
  r->Set("executor.task_ms_per_iter", Ratio(static_cast<double>(d.task_ns) * 1e-6, units), "ms");
  r->Set("executor.split_ms_per_iter", Ratio(static_cast<double>(d.split_ns) * 1e-6, units),
         "ms");
  r->Set("executor.merge_ms_per_iter", Ratio(static_cast<double>(d.merge_ns) * 1e-6, units),
         "ms");
  r->Set("executor.pipeline_regions_per_eval",
         Ratio(static_cast<double>(d.pipeline_regions), evals), "count");
  r->Set("executor.boundaries_elided_per_eval",
         Ratio(static_cast<double>(d.boundaries_elided), evals), "count");
  r->Set("executor.batches_per_eval", Ratio(static_cast<double>(d.batches), evals), "count");
  r->Set("executor.eff_gbps", Ratio(in.distinct_bytes * 1e-9, in.unit_median_s), "GB/s");
  r->Set("executor.busy_frac",
         Ratio(static_cast<double>(d.WorkNs()), in.busy_threads * in.busy_wall_ns), "fraction");
  double eval_wall_ms = 0.0;
  for (double ms : in.eval_ms) {
    eval_wall_ms += ms;
  }
  r->Set("runtime.evaluate_ms.p50", Median(in.eval_ms), "ms");
  r->Set("runtime.unattributed_frac",
         eval_wall_ms > 0.0 ? 1.0 - in.attributed_ns * 1e-6 / eval_wall_ms : 0.0, "fraction");
  r->Set("admission.pooled_frac", Ratio(static_cast<double>(d.pooled_evals), evals), "fraction");
  r->Set("admission.reject_rate",
         Ratio(static_cast<double>(d.shed_evals + d.quota_rejects + d.deadline_evals +
                                   d.cancelled_evals),
               units),
         "fraction");
  r->Set("batch.batched_frac", Ratio(static_cast<double>(d.batched_evals), evals), "fraction");
  r->Set("batch.window_us_per_eval", Ratio(static_cast<double>(d.batch_window_adapted_us), evals),
         "us");
  r->Set("resilience.retries_per_1k", Ratio(static_cast<double>(d.retries) * 1e3, units), "count");
  r->Set("resilience.hedges_per_1k", Ratio(static_cast<double>(d.hedges_launched) * 1e3, units),
         "count");
}

void SetUnusedReferencesToZero(Result* r) {
  for (const char* name : {"vecmath.base_ms", "matrix.base_ms", "dataframe.base_ms", "fused.ms"}) {
    r->Set(name, 0.0, "ms");
  }
  r->Set("speedup_vs_base", 0.0, "x");
  r->Set("speedup_vs_fused", 0.0, "x");
}

void SetServedOnlyLayersToZero(Result* r) {
  r->Set("loadgen.lag_ms.p99", 0.0, "ms");
  r->Set("loadgen.achieved_rps", 0.0, "1/s");
}

std::vector<double> SpanMs(const Tracer& tracer, const char* name) {
  std::vector<double> out;
  for (const Span& s : tracer.spans()) {
    if (std::string_view(s.name) == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    }
  }
  return out;
}

std::size_t WriteTrace(const std::string& path, const std::vector<const Tracer*>& tracers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return 0;
  }
  std::int64_t t0 = 0;
  for (const Tracer* t : tracers) {
    for (const Span& s : t->spans()) {
      if (t0 == 0 || s.start_ns < t0) {
        t0 = s.start_ns;
      }
    }
  }
  std::size_t written = 0;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (const Tracer* t : tracers) {
    const std::vector<Span>& spans = t->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"span\":%zu,\"parent\":%d,\"id\":%lld}}",
                   written ? ",\n" : "", s.name, t->tid(),
                   static_cast<double>(s.start_ns - t0) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i, s.parent,
                   static_cast<long long>(s.id));
      ++written;
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  return written;
}

}  // namespace perfbench
