// served_mixed: open-loop Poisson arrivals into one ServingContext.
//
// The only workload that reaches the session, admission, batch, plan-cache
// and resilience layers. One context runs 2 pool threads, default options
// and a 200 us batch window. Four tenants each hold a Session and a
// ResilientClient with the default policy; two client threads each generate
// the arrivals of two tenants and serve them, so 4 threads do work. 80% of
// requests are small vecmath pipelines (inline or batched), 20% large ones
// that take an admission token, drawn from six
// repeated templates. Each request carries a deadline equal to the latency
// limit and is timed from when it was due, so a stall also charges the
// requests queued behind it.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/rng.h"
#include "core/resilience.h"
#include "core/session.h"
#include "vecmath/annotated.h"
#include "vecmath/vecmath.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kPoolThreads = 2;
constexpr int kClientThreads = 2;
constexpr int kTenants = 4;
constexpr std::int64_t kBatchWindowUs = 200;
constexpr double kLatencyLimitMs = 100.0;
constexpr double kSmallShare = 0.8;
constexpr int kSetupReps = 31;  // setup_s is the median of this many set-ups
// 70% of the closed-loop saturation throughput measured with
// `--saturation` (see README.md); fixed so runs stay comparable.
constexpr double kOfferedRps = 1400.0;
// The run is invalid when the clients fall behind the schedule: they start
// requests under 99% of the scheduled rate (a growing backlog), or idle
// clients start them late by more than a quarter of the latency limit at
// p99. Lateness below that is host scheduling jitter and is reported as
// loadgen.lag_ms.p99.
constexpr double kMaxLagMs = kLatencyLimitMs / 4.0;

const double kNaN = std::nan("");

struct Template {
  int pipeline;  // 0 or 1, see RunPipeline
  long n;
  bool large;
  std::vector<double> a, b, expected;
};

// Two small elementwise pipelines; the wrapped and unwrapped libraries share
// the call sequence.
template <bool kAnnotated>
void RunPipeline(int pipeline, long n, const double* a, const double* b, double* out) {
  if constexpr (kAnnotated) {
    if (pipeline == 0) {
      mzvec::Log1p(n, a, out);
      mzvec::Add(n, out, b, out);
      mzvec::Div(n, out, b, out);
    } else {
      mzvec::Mul(n, a, b, out);
      mzvec::Sqrt(n, out, out);
      mzvec::AddC(n, out, 1.0, out);
      mzvec::Mul(n, out, a, out);
    }
  } else {
    if (pipeline == 0) {
      vecmath::Log1p(n, a, out);
      vecmath::Add(n, out, b, out);
      vecmath::Div(n, out, b, out);
    } else {
      vecmath::Mul(n, a, b, out);
      vecmath::Sqrt(n, out, out);
      vecmath::AddC(n, out, 1.0, out);
      vecmath::Mul(n, out, a, out);
    }
  }
}

std::vector<Template> MakeTemplates(std::uint64_t seed) {
  // Small ones sit at or under ServingOptions::serial_cutoff_elems (4096),
  // so admission runs them inline (or batched); large ones take a token.
  std::vector<Template> ts = {{0, 1024, false, {}, {}, {}}, {1, 1024, false, {}, {}, {}},
                              {0, 4096, false, {}, {}, {}}, {1, 4096, false, {}, {}, {}},
                              {0, 65536, true, {}, {}, {}},  {1, 262144, true, {}, {}, {}}};
  mz::Rng rng(seed);
  for (Template& t : ts) {
    const auto n = static_cast<std::size_t>(t.n);
    t.a.resize(n);
    t.b.resize(n);
    t.expected.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      t.a[i] = rng.NextDouble(0.5, 2.0);
      t.b[i] = rng.NextDouble(1.0, 3.0);
    }
    RunPipeline<false>(t.pipeline, t.n, t.a.data(), t.b.data(), t.expected.data());
  }
  return ts;
}

struct Request {
  std::int64_t due_ns = 0;  // offset from the start of the run
  int tenant = 0;
  int tmpl = 0;
};

// The arrival schedule: exponential gaps at `rps`, a uniform tenant, and a
// template drawn small with probability kSmallShare.
std::vector<Request> MakeSchedule(std::uint64_t seed, double rps, double seconds,
                                  const std::vector<Template>& ts) {
  std::vector<int> small, large;
  for (int i = 0; i < static_cast<int>(ts.size()); ++i) {
    (ts[static_cast<std::size_t>(i)].large ? large : small).push_back(i);
  }
  mz::Rng rng(seed ^ 0xA5A5A5A5DEADBEEFull);
  std::vector<Request> reqs;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.NextDouble()) / rps;
    if (t >= seconds) {
      break;
    }
    Request q;
    q.due_ns = static_cast<std::int64_t>(t * 1e9);
    q.tenant = static_cast<int>(rng.NextBounded(kTenants));
    const std::vector<int>& pool = rng.NextDouble() < kSmallShare ? small : large;
    q.tmpl = pool[rng.NextBounded(pool.size())];
    reqs.push_back(q);
  }
  return reqs;
}

struct Outcome {
  double latency_ms = 0.0;  // from due time (open loop) or start (closed loop)
  double service_ms = 0.0;  // from the client picking it up
  bool ok = false;          // served, outputs correct
  bool met = false;         // ok and within the latency limit
  bool small = false;
  long n = 0;
  const char* error = nullptr;  // why it was not served, when it was not
  // Traced runs only: this request's admission wait and attributed
  // Evaluate time (EvalStats delta of its tenant session).
  double admission_wait_ms = 0.0;
  double attributed_ns = 0.0;
  bool pooled = false;
};

struct Tenant {
  std::unique_ptr<mz::Session> session;
  std::unique_ptr<mz::ResilientClient> client;
};

// Everything one set-up builds. Members are destroyed in reverse order:
// clients before their sessions before the context they use.
struct Served {
  std::vector<Template> templates;
  std::unique_ptr<mz::ServingContext> ctx;
  std::vector<Tenant> tenants;
};

struct ClientState {
  explicit ClientState(bool trace, int tid, long max_n)
      : tracer(trace, tid),
        out{std::vector<double>(static_cast<std::size_t>(max_n)),
            std::vector<double>(static_cast<std::size_t>(max_n))} {}
  Tracer tracer;
  std::vector<double> out[2];  // lane-local outputs (0 = primary, 1 = hedge)
  std::vector<std::string> mismatches;
  std::int64_t mismatch_count = 0;
};

// Serves request `i` on its tenant and records the outcome. `t0_ns` is the
// run's time origin; `due_based` times from the due time (open loop).
Outcome Serve(Served& s, ClientState& c, const Request& q, std::int64_t i, std::int64_t t0_ns,
              bool due_based, double limit_ms = kLatencyLimitMs) {
  const Template& t = s.templates[static_cast<std::size_t>(q.tmpl)];
  Tenant& tenant = s.tenants[static_cast<std::size_t>(q.tenant)];
  Tracer& tr = c.tracer;
  const std::int64_t due = t0_ns + q.due_ns;
  const std::int64_t start = mz::NowNanos();
  std::fill(c.out[0].begin(), c.out[0].begin() + t.n, kNaN);

  mz::CancelSource src;
  src.SetDeadlineNanos((due_based ? due : start) + static_cast<std::int64_t>(limit_ms * 1e6));
  mz::EvalOptions eo;
  eo.cancel = src.token();
  const Counters before =
      tr.on() ? Counters::Of(tenant.session->stats().Take()) : Counters{};

  Outcome o;
  o.small = !t.large;
  o.n = t.n;
  int lane_used = 0;
  bool served = false;
  {
    ScopedSpan outer(tr, "resilience.eval", -1, i);
    try {
      tenant.client->Eval(
          [&](mz::Session& session, const mz::EvalOptions& e, int lane) {
            // Hedging is off under the default policy, so only lane 0 runs
            // and the tracer is never shared across threads.
            lane_used = lane;
            ScopedSpan attempt(tr, "session.attempt", outer.index(), i);
            {
              ScopedSpan capture(tr, "client.capture", attempt.index(), i);
              mz::Session::Scope scope(session);
              RunPipeline<true>(t.pipeline, t.n, t.a.data(), t.b.data(),
                                c.out[lane].data());
            }
            ScopedSpan evaluate(tr, "session.evaluate", attempt.index(), i);
            session.Evaluate(e);
          },
          eo);
      served = true;
    } catch (const mz::OverloadError&) {
      o.error = "overload";  // shed, over quota, circuit open, or draining
    } catch (const mz::DeadlineError&) {
      o.error = "deadline";
    } catch (const mz::Error&) {
      o.error = "error";  // failed after the policy's retries
    }
  }
  const std::int64_t done = mz::NowNanos();
  o.latency_ms = static_cast<double>(done - (due_based ? due : start)) * 1e-6;
  o.service_ms = static_cast<double>(done - start) * 1e-6;

  if (served && lane_used != 0) {
    // Only lane 0's buffer was poisoned; the default policy never hedges.
    ++c.mismatch_count;
    c.mismatches.push_back("served_mixed: request " + std::to_string(i) + " ran on a hedge lane");
  } else if (served) {
    const std::vector<double>& got = c.out[0];
    o.ok = true;
    for (long k = 0; k < t.n; ++k) {
      const double want = t.expected[static_cast<std::size_t>(k)];
      const double v = got[static_cast<std::size_t>(k)];
      if (!(std::abs(v - want) <= std::abs(want) * 1e-9 + 1e-9)) {
        ++c.mismatch_count;
        if (c.mismatches.size() < 4) {
          c.mismatches.push_back("served_mixed: request " + std::to_string(i) + " pipeline " +
                                 std::to_string(t.pipeline) + " n=" + std::to_string(t.n) +
                                 " out[" + std::to_string(k) + "] = " + std::to_string(v) +
                                 ", unannotated = " + std::to_string(want));
        }
        o.ok = false;
        break;
      }
    }
  }
  o.met = o.ok && o.latency_ms <= kLatencyLimitMs;
  if (tr.on()) {
    const Counters d = Counters::Of(tenant.session->stats().Take()) - before;
    o.pooled = d.pooled_evals > 0;
    o.admission_wait_ms = static_cast<double>(d.admission_wait_ns) * 1e-6;
    o.attributed_ns = static_cast<double>(d.planner_ns + d.unprotect_ns + d.admission_wait_ns) +
                      static_cast<double>(d.WorkNs()) / (o.pooled ? kPoolThreads : 1);
  }
  return o;
}

std::unique_ptr<Served> SetUp(std::uint64_t seed) {
  auto s = std::make_unique<Served>();
  s->templates = MakeTemplates(seed);
  mz::ServingOptions so;
  so.pool_threads = kPoolThreads;
  so.batch_window_us = kBatchWindowUs;
  s->ctx = std::make_unique<mz::ServingContext>(so);
  for (int t = 0; t < kTenants; ++t) {
    mz::SessionOptions opts;
    opts.serving = s->ctx.get();
    opts.admission_session = static_cast<std::uint64_t>(t + 1);
    Tenant tenant;
    tenant.session = std::make_unique<mz::Session>(opts);
    tenant.client = std::make_unique<mz::ResilientClient>(*tenant.session);
    s->tenants.push_back(std::move(tenant));
  }
  return s;
}

// Warm-up: every tenant runs every template once, so plans are cached and
// lazily built per-session state exists before timing starts.
bool WarmUp(Served& s, ClientState& c) {
  for (int tenant = 0; tenant < kTenants; ++tenant) {
    for (int tmpl = 0; tmpl < static_cast<int>(s.templates.size()); ++tmpl) {
      Request q;
      q.tenant = tenant;
      q.tmpl = tmpl;
      // A generous deadline: warm-up must not fail on a slow first plan.
      if (!Serve(s, c, q, -1, mz::NowNanos(), false, 1000.0).ok) {
        return false;
      }
    }
  }
  return true;
}

struct Phase {
  std::vector<Outcome> outcomes;  // every request that ran
  std::vector<double> lag_ms;     // how late an idle client started a request (open loop)
  double dispatch_s = 0.0;        // run start to the last request's start
  double wall_s = 0.0;
  std::vector<std::unique_ptr<ClientState>> clients;
};

// Runs the first `seconds` of the schedule. Each client thread is also the
// arrival generator for its two tenants: it waits for the next due time by
// spinning (a sleeping thread on a VM can wake milliseconds late, which
// would be charged to the system), then serves the request. A request due
// while its thread is still busy waits, and that wait counts in its latency.
// Closed loop (saturation probe): each thread runs its share back to back.
Phase RunPhase(Served& s, const std::vector<Request>& reqs, long max_n, double seconds,
               bool trace, bool closed_loop) {
  Phase p;
  const auto horizon = static_cast<std::int64_t>(seconds * 1e9);
  std::size_t count = 0;
  while (count < reqs.size() && (closed_loop || reqs[count].due_ns < horizon)) {
    ++count;
  }
  std::vector<Outcome> outcomes(count);
  std::vector<char> ran(count, 0);
  std::vector<std::vector<double>> lag_ms(kClientThreads);
  std::vector<std::int64_t> last_start(kClientThreads, 0);
  for (int c = 0; c < kClientThreads; ++c) {
    p.clients.push_back(std::make_unique<ClientState>(trace, c, max_n));
  }
  const std::int64_t t0 = mz::NowNanos() + 1'000'000;  // 1 ms to start the clients
  std::vector<std::thread> threads;
  for (int c = 0; c < kClientThreads; ++c) {
    threads.emplace_back([&, c] {
      ClientState& cs = *p.clients[static_cast<std::size_t>(c)];
      std::vector<double>& lag = lag_ms[static_cast<std::size_t>(c)];
      while (mz::NowNanos() < t0) {
      }
      for (std::size_t i = 0; i < count; ++i) {
        if (reqs[i].tenant % kClientThreads != c) {
          continue;
        }
        const std::int64_t due = t0 + reqs[i].due_ns;
        if (closed_loop) {
          if (mz::NowNanos() >= t0 + horizon) {
            break;
          }
        } else if (mz::NowNanos() < due) {
          while (mz::NowNanos() < due) {
          }
          lag.push_back(static_cast<double>(mz::NowNanos() - due) * 1e-6);
        }
        last_start[static_cast<std::size_t>(c)] = mz::NowNanos();
        outcomes[i] = Serve(s, cs, reqs[i], static_cast<std::int64_t>(i), t0, !closed_loop);
        ran[i] = 1;
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  p.wall_s = SecondsSince(t0);
  const std::int64_t last = *std::max_element(last_start.begin(), last_start.end());
  p.dispatch_s = static_cast<double>(last - t0) * 1e-9;
  for (const std::vector<double>& lag : lag_ms) {
    p.lag_ms.insert(p.lag_ms.end(), lag.begin(), lag.end());
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (ran[i]) {
      p.outcomes.push_back(outcomes[i]);
    }
  }
  return p;
}

struct Summary {
  std::vector<double> lat_ms, small_lat_ms;
  double met = 0.0, met_elems = 0.0;
  std::int64_t failed = 0;
  std::map<std::string, std::int64_t> failures;  // by reason
};

Summary Summarize(const Phase& p, Result* r) {
  Summary s;
  for (const Outcome& o : p.outcomes) {
    // A failed request counts as missing the latency limit.
    const double l = o.ok ? o.latency_ms : std::max(o.latency_ms, kLatencyLimitMs);
    s.lat_ms.push_back(l);
    if (o.small) {
      s.small_lat_ms.push_back(l);
    }
    if (o.met) {
      s.met += 1.0;
      s.met_elems += static_cast<double>(o.n);
    } else {
      ++s.failed;
      ++s.failures[o.error != nullptr ? o.error : o.ok ? "late" : "mismatch"];
    }
  }
  for (const auto& [why, count] : s.failures) {
    r->Note("failed." + why, std::to_string(count));
  }
  r->attempted += static_cast<std::int64_t>(p.outcomes.size());
  r->failed += s.failed;
  for (const auto& cs : p.clients) {
    r->mismatch_count += cs->mismatch_count;
    for (const std::string& m : cs->mismatches) {
      if (r->mismatches.size() < 8) {
        r->mismatches.push_back(m);
      }
    }
  }
  return s;
}

// Mean wall time of one request on the unannotated library (1 thread),
// weighted by the mix.
double BaseMsPerRequest(const std::vector<Template>& ts, long max_n) {
  std::vector<double> out(static_cast<std::size_t>(max_n));
  int n_small = 0;
  for (const Template& t : ts) {
    n_small += t.large ? 0 : 1;
  }
  const int n_large = static_cast<int>(ts.size()) - n_small;
  double base_ms = 0.0;
  for (const Template& t : ts) {
    std::vector<double> ms;
    for (int rep = 0; rep < 20; ++rep) {
      const std::int64_t t0 = mz::NowNanos();
      RunPipeline<false>(t.pipeline, t.n, t.a.data(), t.b.data(), out.data());
      ms.push_back(SecondsSince(t0) * 1e3);
    }
    base_ms += Median(ms) * (t.large ? (1.0 - kSmallShare) / n_large : kSmallShare / n_small);
  }
  return base_ms;
}

// Per-layer metrics of the traced phase.
void AddServedLayers(const Phase& p, const Counters& delta, double seconds, Result* r) {
  LayerInputs in;
  in.delta = delta;
  in.units = static_cast<std::int64_t>(p.outcomes.size());
  std::vector<double> wait_ms, self_us;
  double bytes = 0.0;
  for (const Outcome& o : p.outcomes) {
    in.attributed_ns += o.attributed_ns;
    if (!o.small) {
      wait_ms.push_back(o.admission_wait_ms);  // the requests that take a token
    }
    if (o.ok) {
      bytes += 3.0 * static_cast<double>(o.n) * sizeof(double);
    }
  }
  for (const auto& cs : p.clients) {
    const Tracer& tr = cs->tracer;
    for (double ms : SpanMs(tr, "session.evaluate")) {
      in.eval_ms.push_back(ms);
    }
    // Resilience self time: the Eval span minus its attempt spans.
    std::vector<double> child_ns(tr.spans().size(), 0.0);
    for (const Span& sp : tr.spans()) {
      if (std::string_view(sp.name) == "session.attempt" && sp.parent >= 0) {
        child_ns[static_cast<std::size_t>(sp.parent)] +=
            static_cast<double>(sp.end_ns - sp.start_ns);
      }
    }
    for (std::size_t k = 0; k < tr.spans().size(); ++k) {
      const Span& sp = tr.spans()[k];
      if (std::string_view(sp.name) == "resilience.eval") {
        self_us.push_back((static_cast<double>(sp.end_ns - sp.start_ns) - child_ns[k]) * 1e-3);
      }
    }
  }
  // Inline requests run on the client threads, pooled ones on the pool.
  in.busy_threads = kPoolThreads + kClientThreads;
  in.busy_wall_ns = seconds * 1e9;
  // Achieved data rate: bytes of every served request over the phase.
  in.distinct_bytes = bytes;
  in.unit_median_s = seconds;
  AddLayerMetrics(in, r);
  r->Set("admission.wait_ms.p50", Median(wait_ms), "ms");
  r->Set("admission.wait_ms.p99", Percentile(wait_ms, 99.0), "ms");
  r->Set("resilience.self_us.p50", Median(self_us), "us");
}

}  // namespace

double ServedOfferedRps() { return kOfferedRps; }

void RunServedMixed(const Args& args, double offered_rps, Result* r) {
  vecmath::SetNumThreads(1);
  const bool closed_loop = offered_rps <= 0.0;

  // Set-up: templates and expected outputs from the seed, the context and
  // tenants, and warm-up through the first requests.
  std::unique_ptr<Served> served;
  long max_n = 0;
  auto set_up = [&] {
    const std::int64_t t0 = mz::NowNanos();
    served = SetUp(args.seed);
    for (const Template& t : served->templates) {
      max_n = std::max(max_n, t.n);
    }
    ClientState warm(false, 0, max_n);
    if (!WarmUp(*served, warm)) {
      r->Mismatch("served_mixed: a warm-up request failed");
      for (const std::string& m : warm.mismatches) {
        r->Mismatch(m);
      }
      return -1.0;
    }
    return SecondsSince(t0);
  };
  std::vector<double> setup_s = {set_up()};
  if (setup_s[0] < 0.0) {
    return;
  }

  // Closed loop draws from a dense schedule it cannot exhaust.
  const std::vector<Request> reqs = MakeSchedule(
      args.seed, closed_loop ? 100000.0 : offered_rps, args.seconds, served->templates);

  if (closed_loop) {
    const Phase p = RunPhase(*served, reqs, max_n, args.seconds, false, true);
    const Summary s = Summarize(p, r);
    r->Set("saturation_rps", static_cast<double>(p.outcomes.size()) / p.wall_s, "1/s");
    r->Set("service_ms.p50", Median(s.lat_ms), "ms");
    r->Set("service_ms.p99", Percentile(s.lat_ms, 99.0), "ms");
    return;
  }

  if (!args.trace) {
    const Phase p = RunPhase(*served, reqs, max_n, args.seconds, false, false);
    const Summary s = Summarize(p, r);
    const double lag_p99 = Percentile(p.lag_ms, 99.0);
    const double scheduled_rps = static_cast<double>(p.outcomes.size()) / args.seconds;
    const double achieved_rps = static_cast<double>(p.outcomes.size()) / p.dispatch_s;
    const QuietStats quiet = Quietest(s.lat_ms);
    r->Set("elems_per_s", s.met_elems / args.seconds, "1/s");
    r->Set("latency_ms.p50", quiet.p50, "ms");
    r->Set("latency_ms.p90", quiet.p90, "ms");
    r->Set("peak_rss_mb", PeakRssMb(), "MiB");
    // The other set-ups of the setup_s median run after memory was read,
    // each replacing the previous context.
    for (int rep = 1; rep < kSetupReps; ++rep) {
      served.reset();
      const double t = set_up();
      if (t < 0.0) {
        return;
      }
      setup_s.push_back(t);
    }
    r->Set("setup_s", Median(setup_s), "s");
    r->Set("latency_ms.p99", Percentile(s.lat_ms, 99.0), "ms");
    r->Set("small_latency_ms.p99", Percentile(s.small_lat_ms, 99.0), "ms");
    r->Set("goodput_rps", s.met / args.seconds, "1/s");
    r->Set("loadgen.lag_ms.p99", lag_p99, "ms");
    r->Set("loadgen.achieved_rps", achieved_rps, "1/s");
    r->Set("loadgen.offered_rps", offered_rps, "1/s");
    r->Set("latency_ms.p50_all", Median(s.lat_ms), "ms");
    r->Set("latency_ms.p90_all", Percentile(s.lat_ms, 90.0), "ms");
    r->Note("latency_ms", "per request from its due time, " + std::to_string(quiet.samples) +
                              " requests in the quieter half of " +
                              std::to_string(quiet.windows) + " windows");
    if (lag_p99 > kMaxLagMs || achieved_rps < 0.99 * scheduled_rps) {
      r->invalid.push_back("generator fell behind: lag p99 " + Fmt(lag_p99) + " ms, achieved " +
                           Fmt(achieved_rps) + " of " + Fmt(scheduled_rps) + " scheduled rps");
    }
  } else {
    // Untraced half-length phase first; the trace overhead is measured
    // against it. Per-layer figures come from the traced phase only.
    const Phase plain = RunPhase(*served, reqs, max_n, args.seconds / 2.0, false, false);
    const Summary plain_s = Summarize(plain, r);
    const Counters before = Counters::Of(served->ctx->AggregateStats());
    const Phase p = RunPhase(*served, reqs, max_n, args.seconds, true, false);
    const Counters delta = Counters::Of(served->ctx->AggregateStats()) - before;
    const Summary s = Summarize(p, r);
    AddServedLayers(p, delta, args.seconds, r);

    SetUnusedReferencesToZero(r);
    double service_ms = 0.0;
    for (const Outcome& o : plain.outcomes) {
      service_ms += o.service_ms;
    }
    service_ms /= std::max<std::size_t>(1, plain.outcomes.size());
    const double base_ms = BaseMsPerRequest(served->templates, max_n);
    r->Set("vecmath.base_ms", base_ms, "ms");
    r->Set("speedup_vs_base", service_ms > 0.0 ? base_ms / service_ms : 0.0, "x");
    r->Set("loadgen.lag_ms.p99", Percentile(p.lag_ms, 99.0), "ms");
    r->Set("loadgen.achieved_rps", static_cast<double>(p.outcomes.size()) / p.dispatch_s, "1/s");
    r->Set("trace.overhead_frac", Median(s.lat_ms) / Median(plain_s.lat_ms) - 1.0, "fraction");
    std::vector<const Tracer*> tracers;
    std::size_t spans = 0;
    for (const auto& cs : p.clients) {
      tracers.push_back(&cs->tracer);
      spans += cs->tracer.spans().size();
    }
    r->Note("trace.spans", std::to_string(spans));
    if (!args.trace_out.empty()) {
      WriteTrace(args.trace_out, tracers);
    }
  }
  r->Note("latency_limit_ms", Fmt(kLatencyLimitMs));
  r->Note("offered_rps", Fmt(offered_rps));
}

}  // namespace perfbench
