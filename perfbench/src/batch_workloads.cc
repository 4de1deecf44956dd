// The three batch workloads: one client, a plain Runtime with two executor
// threads, and one annotated iteration after another.
//
//  bulk_vecmath     Black-Scholes over 8M options (~770 MB of arrays, more
//                   than 2x the host's LLC): the paper's core case, where
//                   pipelining through cache decides the time.
//  iterative_nbody  nBody on 256 bodies, 20 steps per iteration, two
//                   evaluations per step: per-evaluation fixed costs
//                   (capture, planning, dispatch) are a large share.
//  pandas_mix       Data Cleaning then Birth Analysis over 2M generated rows
//                   each: uneven string pieces and merges that do real work.
//
// Each iteration is timed from the first wrapped call to the last result,
// and its outputs are checked against the unannotated library run on the
// same inputs, within the tolerances tests/workloads/workloads_test.cc uses.
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/fused.h"
#include "common/aligned.h"
#include "common/rng.h"
#include "core/runtime.h"
#include "dataframe/annotated.h"
#include "dataframe/dataframe.h"
#include "dataframe/ops.h"
#include "matrix/annotated.h"
#include "matrix/matrix.h"
#include "vecmath/annotated.h"
#include "vecmath/vecmath.h"
#include "workloads.h"
#include "workloads/data_gen.h"

namespace perfbench {
namespace {

constexpr int kMozartThreads = 2;
constexpr int kMinIterations = 5;

// What one annotated iteration needs: the runtime, and where its spans go.
struct IterCtx {
  mz::Runtime& rt;
  Tracer& tracer;
  int parent;  // the iteration's span
  std::int64_t id;

  void Evaluate() {
    ScopedSpan span(tracer, "runtime.evaluate", parent, id);
    rt.Evaluate();
  }
};

using Outputs = std::vector<std::pair<std::string, double>>;

class BatchWorkload {
 public:
  virtual ~BatchWorkload() = default;
  // One iteration through the annotated wrappers, evaluated on ctx.rt.
  virtual void RunMozart(IterCtx& ctx) = 0;
  // The same calls on the unannotated library (1 thread).
  virtual void RunBase() = 0;
  // The hand-fused compiler stand-in (baselines/fused.h).
  virtual void RunFused(int threads) = 0;
  // The checked results of the last run, by name.
  virtual Outputs Results() const = 0;
  // Overwrites what Results() reads, so a run that skips work cannot pass.
  virtual void Poison() = 0;
  // Input units one iteration processes, and the array bytes it touches
  // (each array once per pass over it).
  virtual double Units() const = 0;
  virtual double Bytes() const = 0;
};

struct BatchSpec {
  const char* name;
  const char* unit;        // what Units() counts
  const char* library;     // the annotated library it drives (reference metric prefix)
  double tolerance;        // relative, as in tests/workloads/workloads_test.cc
  int setup_reps;          // setup_s is the median of this many set-ups
  std::function<std::unique_ptr<BatchWorkload>(std::uint64_t seed)> make;
};

const double kNaN = std::nan("");

// ---- bulk_vecmath: Black-Scholes ------------------------------------------

#define PERFBENCH_BS_OPS(X) \
  X(Div) X(Log) X(MulC) X(Add) X(Sqrt) X(Sub) X(Erf) X(AddC) X(Exp) X(Mul) X(RSubC)
#define PERFBENCH_FORWARD(ns, fn)       \
  template <typename... A>              \
  void fn(A... a) const {               \
    ns::fn(a...);                       \
  }
#define PERFBENCH_BASE_OP(fn) PERFBENCH_FORWARD(vecmath, fn)
#define PERFBENCH_MOZART_OP(fn) PERFBENCH_FORWARD(mzvec, fn)
struct BaseVec {
  PERFBENCH_BS_OPS(PERFBENCH_BASE_OP)
};
struct MozartVec {
  PERFBENCH_BS_OPS(PERFBENCH_MOZART_OP)
};
#undef PERFBENCH_MOZART_OP
#undef PERFBENCH_BASE_OP
#undef PERFBENCH_FORWARD
#undef PERFBENCH_BS_OPS

class BulkVecmath : public BatchWorkload {
 public:
  static constexpr long kOptions = 8'000'000;
  static constexpr int kArrays = 12;
  static constexpr long kStride = 97;  // checked sample: every 97th option

  explicit BulkVecmath(std::uint64_t seed) {
    for (mz::AlignedBuffer<double>* b : {&price_, &strike_, &tte_, &call_, &put_, &d1_, &d2_,
                                         &nd1_, &nd2_, &disc_, &vol_sqrt_, &tmp_}) {
      *b = mz::AlignedBuffer<double>(static_cast<std::size_t>(kOptions));
    }
    mz::Rng rng(seed);
    for (long i = 0; i < kOptions; ++i) {
      const auto k = static_cast<std::size_t>(i);
      price_[k] = rng.NextDouble(20.0, 120.0);
      strike_[k] = rng.NextDouble(20.0, 120.0);
      tte_[k] = rng.NextDouble(0.25, 2.0);
    }
  }

  void RunMozart(IterCtx& ctx) override {
    {
      ScopedSpan span(ctx.tracer, "client.capture", ctx.parent, ctx.id);
      mz::RuntimeScope scope(&ctx.rt);
      Body(MozartVec{});
    }
    ctx.Evaluate();
  }
  void RunBase() override { Body(BaseVec{}); }
  void RunFused(int threads) override {
    baselines::BlackScholesFused(kOptions, price_.data(), strike_.data(), tte_.data(), kRate, kVol,
                                 call_.data(), put_.data(), threads);
  }
  Outputs Results() const override {
    double sum = 0.0;
    for (long i = 0; i < kOptions; i += kStride) {
      sum += call_[static_cast<std::size_t>(i)] + put_[static_cast<std::size_t>(i)];
    }
    return {{"black_scholes.checksum", sum}};
  }
  void Poison() override {
    for (long i = 0; i < kOptions; i += kStride) {
      call_[static_cast<std::size_t>(i)] = kNaN;
      put_[static_cast<std::size_t>(i)] = kNaN;
    }
  }
  double Units() const override { return static_cast<double>(kOptions); }
  double Bytes() const override {
    return static_cast<double>(kArrays) * static_cast<double>(kOptions) * sizeof(double);
  }

 private:
  static constexpr double kRate = 0.02;
  static constexpr double kVol = 0.30;

  // The Black-Scholes call sequence of src/workloads/numerical.cc.
  template <typename Api>
  void Body(const Api& api) {
    const long n = kOptions;
    const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
    const double rsig = kRate + 0.5 * kVol * kVol;
    api.Div(n, price_.data(), strike_.data(), d1_.data());
    api.Log(n, d1_.data(), d1_.data());
    api.MulC(n, tte_.data(), rsig, tmp_.data());
    api.Add(n, d1_.data(), tmp_.data(), d1_.data());
    api.Sqrt(n, tte_.data(), vol_sqrt_.data());
    api.MulC(n, vol_sqrt_.data(), kVol, vol_sqrt_.data());
    api.Div(n, d1_.data(), vol_sqrt_.data(), d1_.data());
    api.Sub(n, d1_.data(), vol_sqrt_.data(), d2_.data());
    api.MulC(n, d1_.data(), inv_sqrt2, nd1_.data());
    api.Erf(n, nd1_.data(), nd1_.data());
    api.MulC(n, nd1_.data(), 0.5, nd1_.data());
    api.AddC(n, nd1_.data(), 0.5, nd1_.data());
    api.MulC(n, d2_.data(), inv_sqrt2, nd2_.data());
    api.Erf(n, nd2_.data(), nd2_.data());
    api.MulC(n, nd2_.data(), 0.5, nd2_.data());
    api.AddC(n, nd2_.data(), 0.5, nd2_.data());
    api.MulC(n, tte_.data(), -kRate, disc_.data());
    api.Exp(n, disc_.data(), disc_.data());
    api.Mul(n, strike_.data(), disc_.data(), tmp_.data());
    api.Mul(n, price_.data(), nd1_.data(), call_.data());
    api.Mul(n, tmp_.data(), nd2_.data(), put_.data());
    api.Sub(n, call_.data(), put_.data(), call_.data());
    api.RSubC(n, nd1_.data(), 1.0, nd1_.data());
    api.RSubC(n, nd2_.data(), 1.0, nd2_.data());
    api.Mul(n, tmp_.data(), nd2_.data(), put_.data());
    api.Mul(n, price_.data(), nd1_.data(), d1_.data());
    api.Sub(n, put_.data(), d1_.data(), put_.data());
  }

  mz::AlignedBuffer<double> price_, strike_, tte_, call_, put_;
  mz::AlignedBuffer<double> d1_, d2_, nd1_, nd2_, disc_, vol_sqrt_, tmp_;
};

// ---- iterative_nbody --------------------------------------------------------

class IterativeNBody : public BatchWorkload {
 public:
  static constexpr long kBodies = 256;
  static constexpr int kSteps = 20;

  explicit IterativeNBody(std::uint64_t seed) {
    mz::Rng rng(seed);
    auto fill = [&](std::vector<double>* v, double lo, double hi) {
      v->resize(static_cast<std::size_t>(kBodies));
      for (double& x : *v) {
        x = rng.NextDouble(lo, hi);
      }
    };
    for (int k = 0; k < 3; ++k) {
      fill(&init_[k], -1.0, 1.0);
    }
    for (int k = 3; k < 6; ++k) {
      fill(&init_[k], -0.1, 0.1);
    }
    for (matrix::Matrix* m : {&dx_, &dy_, &dz_, &t1_, &t2_, &t3_}) {
      *m = matrix::Matrix(kBodies, kBodies);
    }
    Reset();
  }

  // The nBody step of src/workloads/numerical.cc: the force stage is
  // evaluated, its three reductions read, then the update stage evaluated.
  void RunMozart(IterCtx& ctx) override {
    Reset();
    const long n = kBodies;
    for (int s = 0; s < kSteps; ++s) {
      mz::Future<std::vector<double>> fx, fy, fz;
      {
        ScopedSpan span(ctx.tracer, "client.capture", ctx.parent, ctx.id);
        mz::RuntimeScope scope(&ctx.rt);
        mzmat::OuterDiff(n, x(), &dx_);
        mzmat::OuterDiff(n, y(), &dy_);
        mzmat::OuterDiff(n, z(), &dz_);
        mzmat::Mul(&dx_, &dx_, &t1_);
        mzmat::Mul(&dy_, &dy_, &t2_);
        mzmat::Mul(&dz_, &dz_, &t3_);
        mzmat::Add(&t1_, &t2_, &t1_);
        mzmat::Add(&t1_, &t3_, &t1_);
        mzmat::AddScalar(&t1_, kSoftening, &t1_);
        mzmat::Pow(&t1_, -1.5, &t1_);
        mzmat::Mul(&dx_, &t1_, &t2_);
        fx = mzmat::SumReduceToVector(&t2_, 1);
        mzmat::Mul(&dy_, &t1_, &t3_);
        fy = mzmat::SumReduceToVector(&t3_, 1);
        mzmat::Mul(&dz_, &t1_, &dx_);
        fz = mzmat::SumReduceToVector(&dx_, 1);
      }
      ctx.Evaluate();
      std::vector<double> ax = fx.get();
      std::vector<double> ay = fy.get();
      std::vector<double> az = fz.get();
      {
        ScopedSpan span(ctx.tracer, "client.capture", ctx.parent, ctx.id);
        mz::RuntimeScope scope(&ctx.rt);
        mzvec::Axpy(n, kDt, ax.data(), vx());
        mzvec::Axpy(n, kDt, ay.data(), vy());
        mzvec::Axpy(n, kDt, az.data(), vz());
        mzvec::Axpy(n, kDt, vx(), x());
        mzvec::Axpy(n, kDt, vy(), y());
        mzvec::Axpy(n, kDt, vz(), z());
      }
      // The acceleration vectors are loop-local: evaluate before they die.
      ctx.Evaluate();
    }
  }

  void RunBase() override {
    Reset();
    const long n = kBodies;
    for (int s = 0; s < kSteps; ++s) {
      matrix::OuterDiff(n, x(), &dx_);
      matrix::OuterDiff(n, y(), &dy_);
      matrix::OuterDiff(n, z(), &dz_);
      matrix::Mul(&dx_, &dx_, &t1_);
      matrix::Mul(&dy_, &dy_, &t2_);
      matrix::Mul(&dz_, &dz_, &t3_);
      matrix::Add(&t1_, &t2_, &t1_);
      matrix::Add(&t1_, &t3_, &t1_);
      matrix::AddScalar(&t1_, kSoftening, &t1_);
      matrix::Pow(&t1_, -1.5, &t1_);
      matrix::Mul(&dx_, &t1_, &t2_);
      std::vector<double> ax = matrix::SumReduceToVector(&t2_, 1);
      matrix::Mul(&dy_, &t1_, &t2_);
      std::vector<double> ay = matrix::SumReduceToVector(&t2_, 1);
      matrix::Mul(&dz_, &t1_, &t2_);
      std::vector<double> az = matrix::SumReduceToVector(&t2_, 1);
      vecmath::Axpy(n, kDt, ax.data(), vx());
      vecmath::Axpy(n, kDt, ay.data(), vy());
      vecmath::Axpy(n, kDt, az.data(), vz());
      vecmath::Axpy(n, kDt, vx(), x());
      vecmath::Axpy(n, kDt, vy(), y());
      vecmath::Axpy(n, kDt, vz(), z());
    }
  }

  void RunFused(int threads) override {
    Reset();
    for (int s = 0; s < kSteps; ++s) {
      baselines::NBodyStepFused(kBodies, x(), y(), z(), vx(), vy(), vz(), kDt, kSoftening, threads);
    }
  }

  Outputs Results() const override {
    double sum = 0.0;
    for (int k = 0; k < 3; ++k) {
      for (double v : state_[k]) {
        sum += v;
      }
    }
    return {{"nbody.position_sum", sum}};
  }
  void Poison() override {
    for (std::vector<double>& v : state_) {
      v.assign(v.size(), kNaN);
    }
  }
  double Units() const override { return static_cast<double>(kBodies) * kSteps; }
  double Bytes() const override {
    // Six n x n matrices and six n-vectors, once per step.
    const double n = static_cast<double>(kBodies);
    return kSteps * (6.0 * n * n + 6.0 * n) * sizeof(double);
  }

 private:
  static constexpr double kDt = 0.01;
  static constexpr double kSoftening = 0.1;

  void Reset() {
    for (int k = 0; k < 6; ++k) {
      state_[k] = init_[k];
    }
  }
  double* x() { return state_[0].data(); }
  double* y() { return state_[1].data(); }
  double* z() { return state_[2].data(); }
  double* vx() { return state_[3].data(); }
  double* vy() { return state_[4].data(); }
  double* vz() { return state_[5].data(); }

  std::vector<double> init_[6];   // x y z vx vy vz at the start of every iteration
  std::vector<double> state_[6];
  matrix::Matrix dx_, dy_, dz_, t1_, t2_, t3_;
};

// ---- pandas_mix: Data Cleaning, then Birth Analysis -------------------------

class PandasMix : public BatchWorkload {
 public:
  static constexpr long kRows = 2'000'000;  // per frame

  explicit PandasMix(std::uint64_t seed)
      : requests_(workloads::Make311Requests(kRows, seed)),
        births_(workloads::MakeBabyNames(kRows, seed ^ 0x9E3779B97F4A7C15ull)) {}

  // The call sequences of src/workloads/analytics.cc. Intermediate futures
  // die inside the capture scope, so unobserved values stay pipeline pieces.
  void RunMozart(IterCtx& ctx) override {
    mz::Future<double> nan_count, valid_sum;
    {
      ScopedSpan span(ctx.tracer, "client.capture", ctx.parent, ctx.id);
      mz::RuntimeScope scope(&ctx.rt);
      auto zip = mzdf::ColFromFrame(requests_, 0);
      auto no_dash = mzdf::StrRemoveChar(zip, '-');
      auto five = mzdf::StrSlice(no_dash, 0, 5);
      auto len_mask = mzdf::ColEqC(mzdf::IntToDouble(mzdf::StrLen(five)), 5.0);
      auto numeric = mzdf::StrIsNumeric(five);
      auto ok = mzdf::MaskAnd(len_mask, numeric);
      auto cleaned = mzdf::StrWhere(ok, five, "nan");
      auto parsed = mzdf::StrToDouble(cleaned);
      auto nan_mask = mzdf::ColIsNaN(parsed);
      auto valid = mzdf::ColFillNaN(parsed, 0.0);
      nan_count = mzdf::ColSum(mzdf::IntToDouble(nan_mask));
      valid_sum = mzdf::ColSum(valid);
    }
    ctx.Evaluate();
    nan_count_ = nan_count.get();
    valid_sum_ = valid_sum.get();

    mz::Future<df::DataFrame> grouped;
    {
      ScopedSpan span(ctx.tracer, "client.capture", ctx.parent, ctx.id);
      mz::RuntimeScope scope(&ctx.rt);
      auto names = mzdf::ColFromFrame(births_, 0);
      auto lesl = mzdf::StrStartsWith(names, "Lesl");
      auto filtered = mzdf::FilterRows(births_, lesl);
      grouped = mzdf::GroupByAgg(filtered, 1, 2, 3, df::kAggSum);
    }
    ctx.Evaluate();
    group_checksum_ = GroupChecksum(grouped.get());
  }

  void RunBase() override {
    const df::Column& zip = requests_.col("incident_zip");
    df::Column no_dash = df::StrRemoveChar(zip, '-');
    df::Column five = df::StrSlice(no_dash, 0, 5);
    df::Column len_mask = df::ColEqC(df::IntToDouble(df::StrLen(five)), 5.0);
    df::Column numeric = df::StrIsNumeric(five);
    df::Column ok = df::MaskAnd(len_mask, numeric);
    df::Column cleaned = df::StrWhere(ok, five, "nan");
    df::Column parsed = df::StrToDouble(cleaned);
    df::Column nan_mask = df::ColIsNaN(parsed);
    df::Column valid = df::ColFillNaN(parsed, 0.0);
    nan_count_ = df::ColSum(df::IntToDouble(nan_mask));
    valid_sum_ = df::ColSum(valid);

    df::Column lesl = df::StrStartsWith(births_.col("name"), "Lesl");
    df::DataFrame filtered = df::FilterRows(births_, lesl);
    group_checksum_ = GroupChecksum(df::GroupByAgg(filtered, 1, 2, 3, df::kAggSum));
  }

  void RunFused(int threads) override {
    baselines::DataCleaningFused(requests_, &nan_count_, &valid_sum_, threads);
    group_checksum_ = GroupChecksum(baselines::BirthAnalysisFused(births_, threads));
  }

  Outputs Results() const override {
    return {{"data_cleaning.nan_count", nan_count_},
            {"data_cleaning.valid_sum", valid_sum_},
            {"birth_analysis.checksum", group_checksum_}};
  }
  void Poison() override { nan_count_ = valid_sum_ = group_checksum_ = kNaN; }
  double Units() const override {
    return static_cast<double>(requests_.num_rows() + births_.num_rows());
  }
  double Bytes() const override {
    return static_cast<double>(requests_.BytesPerRow() * requests_.num_rows() +
                               births_.BytesPerRow() * births_.num_rows());
  }

 private:
  // Order-independent checksum over (year, gender, sum) rows, as in
  // workloads::BirthAnalysis.
  static double GroupChecksum(const df::DataFrame& grouped) {
    double acc = 0.0;
    for (long r = 0; r < grouped.num_rows(); ++r) {
      const double year = static_cast<double>(grouped.col(0).i64(r));
      const double gender = static_cast<double>(grouped.col(1).i64(r));
      acc += year * 31.0 + gender * 7.0 + grouped.col("sum").d(r) * 1e-3;
    }
    return acc;
  }

  df::DataFrame requests_;
  df::DataFrame births_;
  double nan_count_ = kNaN;
  double valid_sum_ = kNaN;
  double group_checksum_ = kNaN;
};

const std::vector<BatchSpec>& Specs() {
  static const std::vector<BatchSpec> specs = {
      {"bulk_vecmath", "options", "vecmath", 1e-9, 3,
       [](std::uint64_t seed) { return std::make_unique<BulkVecmath>(seed); }},
      {"iterative_nbody", "body-steps", "matrix", 1e-7, 9,
       [](std::uint64_t seed) { return std::make_unique<IterativeNBody>(seed); }},
      {"pandas_mix", "rows", "dataframe", 1e-9, 3,
       [](std::uint64_t seed) { return std::make_unique<PandasMix>(seed); }},
  };
  return specs;
}

bool Close(double got, double want, double rel) {
  return std::abs(got - want) <= std::abs(want) * rel + 1e-9;  // NaN fails
}

// Compares `got` with the reference by name; returns false on any mismatch.
bool Check(const BatchSpec& spec, const std::string& what, const Outputs& got,
           const Outputs& want, Result* r) {
  bool ok = true;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (!Close(got[i].second, want[i].second, spec.tolerance)) {
      r->Mismatch(std::string(spec.name) + ": " + what + " " + got[i].first + " = " +
                  std::to_string(got[i].second) + ", unannotated = " +
                  std::to_string(want[i].second));
      ok = false;
    }
  }
  return ok;
}

// Median wall time (ms) of `fn` over at least 3 runs and at least 0.3 s.
double TimeReference(const std::function<void()>& fn) {
  std::vector<double> ms;
  const std::int64_t t_start = mz::NowNanos();
  while (ms.size() < 3 || SecondsSince(t_start) < 0.3) {
    const std::int64_t t0 = mz::NowNanos();
    fn();
    ms.push_back(SecondsSince(t0) * 1e3);
  }
  return Median(ms);
}

}  // namespace

bool RunBatchWorkload(const Args& args, Result* r) {
  const BatchSpec* spec = nullptr;
  for (const BatchSpec& s : Specs()) {
    if (args.workload == s.name) {
      spec = &s;
    }
  }
  if (spec == nullptr) {
    return false;
  }
  // Parallelism comes from Mozart alone: the libraries' own internal
  // threading (MKL-style) stays at 1, which is also the base reference.
  vecmath::SetNumThreads(1);
  matrix::SetNumThreads(1);

  mz::RuntimeOptions opts;
  opts.num_threads = kMozartThreads;
  Tracer untraced(false, 0);

  // Set-up: inputs from the seed, a fresh runtime, and the first iteration.
  std::unique_ptr<BatchWorkload> w;
  std::unique_ptr<mz::Runtime> rt;
  auto set_up = [&] {
    const std::int64_t t0 = mz::NowNanos();
    w = spec->make(args.seed);
    rt = std::make_unique<mz::Runtime>(opts);
    IterCtx ctx{*rt, untraced, -1, -1};
    w->RunMozart(ctx);
    rt->Reset();
    return SecondsSince(t0);
  };
  std::vector<double> setup_s = {set_up()};
  const Outputs first = w->Results();

  // Reference: the unannotated library on the same inputs, 1 thread. Its
  // time is only reported by traced runs.
  w->Poison();
  double base_ms = 0.0;
  if (args.trace) {
    base_ms = TimeReference([&] { w->RunBase(); });
  } else {
    w->RunBase();
  }
  const Outputs want = w->Results();
  for (const auto& [name, value] : want) {
    if (!std::isfinite(value)) {
      r->Mismatch(std::string(spec->name) + ": unannotated " + name + " is not finite");
    }
  }
  ++r->attempted;
  if (!Check(*spec, "set-up iteration", first, want, r)) {
    ++r->failed;
  }

  // Measured iterations. Returns per-iteration wall ms.
  auto measure = [&](Tracer& tracer, double seconds) {
    std::vector<double> iter_ms;
    const std::int64_t t_start = mz::NowNanos();
    for (std::int64_t i = 0; i < kMinIterations || SecondsSince(t_start) < seconds; ++i) {
      w->Poison();
      const int span = tracer.Begin("iteration", -1, i);
      const std::int64_t t0 = mz::NowNanos();
      IterCtx ctx{*rt, tracer, span, i};
      w->RunMozart(ctx);
      // A long-running client must drop the executed graph: the runtime
      // keeps every captured node until Reset, so memory would grow with
      // the iteration count.
      rt->Reset();
      iter_ms.push_back(SecondsSince(t0) * 1e3);
      tracer.End(span);
      ++r->attempted;
      if (!Check(*spec, "iteration " + std::to_string(i), w->Results(), want, r)) {
        ++r->failed;
      }
    }
    return iter_ms;
  };

  const double units = w->Units();
  if (!args.trace) {
    const std::vector<double> iter_ms = measure(untraced, args.seconds);
    const QuietStats quiet = Quietest(iter_ms);
    r->Set("elems_per_s", units / (quiet.p50 * 1e-3), "1/s");
    r->Set("latency_ms.p50", quiet.p50, "ms");
    r->Set("latency_ms.p90", quiet.p90, "ms");
    r->Set("peak_rss_mb", PeakRssMb(), "MiB");
    r->Set("latency_ms.p50_all", Median(iter_ms), "ms");
    // The other set-ups of the setup_s median run after memory was read,
    // each on a fresh instance with the previous one freed, so peak_rss_mb
    // covers one set-up whatever the repetition count.
    for (int rep = 1; rep < spec->setup_reps; ++rep) {
      rt.reset();
      w.reset();
      setup_s.push_back(set_up());
      ++r->attempted;
      if (!Check(*spec, "set-up iteration", w->Results(), want, r)) {
        ++r->failed;
      }
    }
    r->Set("setup_s", Median(setup_s), "s");
    r->Note("latency_ms", "per iteration (one request of a single closed-loop client), " +
                              std::to_string(quiet.samples) +
                              " iterations in the quieter half of " +
                              std::to_string(quiet.windows) + " windows");
  } else {
    // Untraced half-length phase first: the trace overhead is measured
    // against it. Per-layer figures come from the traced phase only.
    const std::vector<double> plain_ms = measure(untraced, args.seconds / 2.0);
    Tracer tracer(true, 0);
    const Counters before = Counters::Of(rt->stats().Take());
    const std::vector<double> iter_ms = measure(tracer, args.seconds);
    const Counters delta = Counters::Of(rt->stats().Take()) - before;

    LayerInputs in;
    in.delta = delta;
    in.units = static_cast<std::int64_t>(iter_ms.size());
    in.eval_ms = SpanMs(tracer, "runtime.evaluate");
    double eval_ns = 0.0;
    for (double ms : in.eval_ms) {
      eval_ns += ms * 1e6;
    }
    in.attributed_ns = static_cast<double>(delta.planner_ns + delta.unprotect_ns +
                                           delta.admission_wait_ns) +
                       static_cast<double>(delta.WorkNs()) / kMozartThreads;
    in.busy_threads = kMozartThreads;
    in.busy_wall_ns = eval_ns;
    in.distinct_bytes = w->Bytes();
    in.unit_median_s = Median(iter_ms) * 1e-3;
    AddLayerMetrics(in, r);
    r->Set("admission.wait_ms.p50", 0.0, "ms");
    r->Set("admission.wait_ms.p99", 0.0, "ms");
    r->Set("resilience.self_us.p50", 0.0, "us");

    SetUnusedReferencesToZero(r);
    const double plain_p50 = Median(plain_ms);
    r->Set(std::string(spec->library) + ".base_ms", base_ms, "ms");
    w->Poison();
    const double fused_ms = TimeReference([&] { w->RunFused(kMozartThreads); });
    ++r->attempted;
    if (!Check(*spec, "fused stand-in", w->Results(), want, r)) {
      ++r->failed;
    }
    r->Set("fused.ms", fused_ms, "ms");
    r->Set("speedup_vs_base", base_ms / plain_p50, "x");
    r->Set("speedup_vs_fused", fused_ms / plain_p50, "x");
    SetServedOnlyLayersToZero(r);
    r->Set("trace.overhead_frac", Median(iter_ms) / plain_p50 - 1.0, "fraction");
    r->Note("trace.spans", std::to_string(tracer.spans().size()));
    if (!args.trace_out.empty()) {
      WriteTrace(args.trace_out, {&tracer});
    }
  }
  r->Note("unit", spec->unit);
  r->Note("bytes_per_iteration_mb", Fmt(w->Bytes() / (1024.0 * 1024.0)));
  return true;
}

}  // namespace perfbench
