#include "workloads/numerical.h"

#include <cmath>

#include "baselines/fused.h"
#include "common/rng.h"
#include "matrix/annotated.h"
#include "vecmath/annotated.h"
#include "vecmath/vecmath.h"

namespace workloads {
namespace {

void FillUniform(mz::AlignedBuffer<double>* buf, mz::Rng* rng, double lo, double hi) {
  for (double& x : *buf) {
    x = rng->NextDouble(lo, hi);
  }
}

// The two call surfaces: raw library vs wrapped library. Same signatures, so
// the workload body is written once (the paper's "no application changes"
// property, modulo the namespace import).
struct BaseVecApi {
  template <typename... A>
  void Log(A... a) const {
    vecmath::Log(a...);
  }
  template <typename... A>
  void Exp(A... a) const {
    vecmath::Exp(a...);
  }
  template <typename... A>
  void Sqrt(A... a) const {
    vecmath::Sqrt(a...);
  }
  template <typename... A>
  void Erf(A... a) const {
    vecmath::Erf(a...);
  }
  template <typename... A>
  void Sin(A... a) const {
    vecmath::Sin(a...);
  }
  template <typename... A>
  void Cos(A... a) const {
    vecmath::Cos(a...);
  }
  template <typename... A>
  void Asin(A... a) const {
    vecmath::Asin(a...);
  }
  template <typename... A>
  void Add(A... a) const {
    vecmath::Add(a...);
  }
  template <typename... A>
  void Sub(A... a) const {
    vecmath::Sub(a...);
  }
  template <typename... A>
  void Mul(A... a) const {
    vecmath::Mul(a...);
  }
  template <typename... A>
  void Div(A... a) const {
    vecmath::Div(a...);
  }
  template <typename... A>
  void AddC(A... a) const {
    vecmath::AddC(a...);
  }
  template <typename... A>
  void SubC(A... a) const {
    vecmath::SubC(a...);
  }
  template <typename... A>
  void MulC(A... a) const {
    vecmath::MulC(a...);
  }
  template <typename... A>
  void RSubC(A... a) const {
    vecmath::RSubC(a...);
  }
};

struct MozartVecApi {
  template <typename... A>
  void Log(A... a) const {
    mzvec::Log(a...);
  }
  template <typename... A>
  void Exp(A... a) const {
    mzvec::Exp(a...);
  }
  template <typename... A>
  void Sqrt(A... a) const {
    mzvec::Sqrt(a...);
  }
  template <typename... A>
  void Erf(A... a) const {
    mzvec::Erf(a...);
  }
  template <typename... A>
  void Sin(A... a) const {
    mzvec::Sin(a...);
  }
  template <typename... A>
  void Cos(A... a) const {
    mzvec::Cos(a...);
  }
  template <typename... A>
  void Asin(A... a) const {
    mzvec::Asin(a...);
  }
  template <typename... A>
  void Add(A... a) const {
    mzvec::Add(a...);
  }
  template <typename... A>
  void Sub(A... a) const {
    mzvec::Sub(a...);
  }
  template <typename... A>
  void Mul(A... a) const {
    mzvec::Mul(a...);
  }
  template <typename... A>
  void Div(A... a) const {
    mzvec::Div(a...);
  }
  template <typename... A>
  void AddC(A... a) const {
    mzvec::AddC(a...);
  }
  template <typename... A>
  void SubC(A... a) const {
    mzvec::SubC(a...);
  }
  template <typename... A>
  void MulC(A... a) const {
    mzvec::MulC(a...);
  }
  template <typename... A>
  void RSubC(A... a) const {
    mzvec::RSubC(a...);
  }
};

}  // namespace

// ---- Black Scholes ----

BlackScholes::BlackScholes(long n, std::uint64_t seed)
    : n_(n),
      price_(static_cast<std::size_t>(n)),
      strike_(static_cast<std::size_t>(n)),
      tte_(static_cast<std::size_t>(n)),
      call_(static_cast<std::size_t>(n)),
      put_(static_cast<std::size_t>(n)),
      d1_(static_cast<std::size_t>(n)),
      d2_(static_cast<std::size_t>(n)),
      nd1_(static_cast<std::size_t>(n)),
      nd2_(static_cast<std::size_t>(n)),
      disc_(static_cast<std::size_t>(n)),
      vol_sqrt_(static_cast<std::size_t>(n)),
      tmp_(static_cast<std::size_t>(n)) {
  mz::Rng rng(seed);
  FillUniform(&price_, &rng, 20.0, 120.0);
  FillUniform(&strike_, &rng, 20.0, 120.0);
  FillUniform(&tte_, &rng, 0.25, 2.0);
}

template <typename Api>
void BlackScholes::RunWithApi(const Api& api) {
  const long n = n_;
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  const double rsig = rate_ + 0.5 * vol_ * vol_;
  // d1 = (log(price / strike) + rsig * t) / (vol * sqrt(t))
  api.Div(n, price_.data(), strike_.data(), d1_.data());
  api.Log(n, d1_.data(), d1_.data());
  api.MulC(n, tte_.data(), rsig, tmp_.data());
  api.Add(n, d1_.data(), tmp_.data(), d1_.data());
  api.Sqrt(n, tte_.data(), vol_sqrt_.data());
  api.MulC(n, vol_sqrt_.data(), vol_, vol_sqrt_.data());
  api.Div(n, d1_.data(), vol_sqrt_.data(), d1_.data());
  api.Sub(n, d1_.data(), vol_sqrt_.data(), d2_.data());
  // N(d1), N(d2) via erf
  api.MulC(n, d1_.data(), inv_sqrt2, nd1_.data());
  api.Erf(n, nd1_.data(), nd1_.data());
  api.MulC(n, nd1_.data(), 0.5, nd1_.data());
  api.AddC(n, nd1_.data(), 0.5, nd1_.data());
  api.MulC(n, d2_.data(), inv_sqrt2, nd2_.data());
  api.Erf(n, nd2_.data(), nd2_.data());
  api.MulC(n, nd2_.data(), 0.5, nd2_.data());
  api.AddC(n, nd2_.data(), 0.5, nd2_.data());
  // discounted strike
  api.MulC(n, tte_.data(), -rate_, disc_.data());
  api.Exp(n, disc_.data(), disc_.data());
  api.Mul(n, strike_.data(), disc_.data(), tmp_.data());
  // call = price * N(d1) - strike * e^{-rt} * N(d2)
  api.Mul(n, price_.data(), nd1_.data(), call_.data());
  api.Mul(n, tmp_.data(), nd2_.data(), put_.data());
  api.Sub(n, call_.data(), put_.data(), call_.data());
  // put = strike * e^{-rt} * N(-d2) - price * N(-d1)
  api.RSubC(n, nd1_.data(), 1.0, nd1_.data());
  api.RSubC(n, nd2_.data(), 1.0, nd2_.data());
  api.Mul(n, tmp_.data(), nd2_.data(), put_.data());
  api.Mul(n, price_.data(), nd1_.data(), d1_.data());
  api.Sub(n, put_.data(), d1_.data(), put_.data());
}

void BlackScholes::RunBase() { RunWithApi(BaseVecApi{}); }

void BlackScholes::RunMozart(mz::Runtime* rt) {
  mz::RuntimeScope scope(rt);
  RunWithApi(MozartVecApi{});
  rt->Evaluate();
}

void BlackScholes::RunFused(int threads) {
  baselines::BlackScholesFused(n_, price_.data(), strike_.data(), tte_.data(), rate_, vol_,
                               call_.data(), put_.data(), threads);
}

double BlackScholes::Checksum() const {
  double sum = 0;
  for (long i = 0; i < n_; i += 97) {
    sum += call_[static_cast<std::size_t>(i)] + put_[static_cast<std::size_t>(i)];
  }
  return sum;
}

std::vector<double> BlackScholes::Outputs() const {
  std::vector<double> out(call_.begin(), call_.end());
  out.insert(out.end(), put_.begin(), put_.end());
  return out;
}

// ---- Haversine ----

Haversine::Haversine(long n, std::uint64_t seed)
    : n_(n),
      lat_(static_cast<std::size_t>(n)),
      lon_(static_cast<std::size_t>(n)),
      dist_(static_cast<std::size_t>(n)),
      a1_(static_cast<std::size_t>(n)),
      a2_(static_cast<std::size_t>(n)),
      coslat_(static_cast<std::size_t>(n)) {
  mz::Rng rng(seed);
  lat0_ = 0.70984286;  // JFK, radians (as in the Weld benchmark)
  lon0_ = -1.2908886;
  FillUniform(&lat_, &rng, 0.5, 0.9);
  FillUniform(&lon_, &rng, -1.5, -1.0);
}

template <typename Api>
void Haversine::RunWithApi(const Api& api) {
  const long n = n_;
  const double kEarthRadiusMiles = 3959.0;
  api.SubC(n, lat_.data(), lat0_, a1_.data());
  api.MulC(n, a1_.data(), 0.5, a1_.data());
  api.Sin(n, a1_.data(), a1_.data());
  api.Mul(n, a1_.data(), a1_.data(), a1_.data());
  api.SubC(n, lon_.data(), lon0_, a2_.data());
  api.MulC(n, a2_.data(), 0.5, a2_.data());
  api.Sin(n, a2_.data(), a2_.data());
  api.Mul(n, a2_.data(), a2_.data(), a2_.data());
  api.Cos(n, lat_.data(), coslat_.data());
  api.Mul(n, a2_.data(), coslat_.data(), a2_.data());
  api.MulC(n, a2_.data(), std::cos(lat0_), a2_.data());
  api.Add(n, a1_.data(), a2_.data(), a1_.data());
  api.Sqrt(n, a1_.data(), a1_.data());
  api.Asin(n, a1_.data(), a1_.data());
  api.MulC(n, a1_.data(), 2.0 * kEarthRadiusMiles, dist_.data());
}

void Haversine::RunBase() { RunWithApi(BaseVecApi{}); }

void Haversine::RunMozart(mz::Runtime* rt) {
  mz::RuntimeScope scope(rt);
  RunWithApi(MozartVecApi{});
  rt->Evaluate();
}

void Haversine::RunFused(int threads) {
  baselines::HaversineFused(n_, lat_.data(), lon_.data(), lat0_, lon0_, dist_.data(), threads);
}

double Haversine::Checksum() const {
  double sum = 0;
  for (long i = 0; i < n_; i += 97) {
    sum += dist_[static_cast<std::size_t>(i)];
  }
  return sum;
}

std::vector<double> Haversine::Outputs() const { return {dist_.begin(), dist_.end()}; }

// ---- nBody ----

NBody::NBody(long bodies, int steps, std::uint64_t seed)
    : n_(bodies),
      steps_(steps),
      seed_(seed),
      dx_(bodies, bodies),
      dy_(bodies, bodies),
      dz_(bodies, bodies),
      t1_(bodies, bodies),
      t2_(bodies, bodies),
      t3_(bodies, bodies) {
  Reset(seed);
}

void NBody::Reset(std::uint64_t seed) {
  mz::Rng rng(seed);
  auto fill = [&](std::vector<double>* v, double lo, double hi) {
    v->resize(static_cast<std::size_t>(n_));
    for (double& x : *v) {
      x = rng.NextDouble(lo, hi);
    }
  };
  fill(&x_, -1.0, 1.0);
  fill(&y_, -1.0, 1.0);
  fill(&z_, -1.0, 1.0);
  fill(&vx_, -0.1, 0.1);
  fill(&vy_, -0.1, 0.1);
  fill(&vz_, -0.1, 0.1);
}

void NBody::RunBase() {
  Reset(seed_);
  for (int s = 0; s < steps_; ++s) {
    matrix::OuterDiff(n_, x_.data(), &dx_);
    matrix::OuterDiff(n_, y_.data(), &dy_);
    matrix::OuterDiff(n_, z_.data(), &dz_);
    matrix::Mul(&dx_, &dx_, &t1_);
    matrix::Mul(&dy_, &dy_, &t2_);
    matrix::Mul(&dz_, &dz_, &t3_);
    matrix::Add(&t1_, &t2_, &t1_);
    matrix::Add(&t1_, &t3_, &t1_);
    matrix::AddScalar(&t1_, softening_, &t1_);
    matrix::Pow(&t1_, -1.5, &t1_);
    matrix::Mul(&dx_, &t1_, &t2_);
    std::vector<double> ax = matrix::SumReduceToVector(&t2_, 1);
    matrix::Mul(&dy_, &t1_, &t2_);
    std::vector<double> ay = matrix::SumReduceToVector(&t2_, 1);
    matrix::Mul(&dz_, &t1_, &t2_);
    std::vector<double> az = matrix::SumReduceToVector(&t2_, 1);
    vecmath::Axpy(n_, dt_, ax.data(), vx_.data());
    vecmath::Axpy(n_, dt_, ay.data(), vy_.data());
    vecmath::Axpy(n_, dt_, az.data(), vz_.data());
    vecmath::Axpy(n_, dt_, vx_.data(), x_.data());
    vecmath::Axpy(n_, dt_, vy_.data(), y_.data());
    vecmath::Axpy(n_, dt_, vz_.data(), z_.data());
  }
}

void NBody::RunMozart(mz::Runtime* rt) {
  Reset(seed_);
  mz::RuntimeScope scope(rt);
  for (int s = 0; s < steps_; ++s) {
    mzmat::OuterDiff(n_, x_.data(), &dx_);
    mzmat::OuterDiff(n_, y_.data(), &dy_);
    mzmat::OuterDiff(n_, z_.data(), &dz_);
    mzmat::Mul(&dx_, &dx_, &t1_);
    mzmat::Mul(&dy_, &dy_, &t2_);
    mzmat::Mul(&dz_, &dz_, &t3_);
    mzmat::Add(&t1_, &t2_, &t1_);
    mzmat::Add(&t1_, &t3_, &t1_);
    mzmat::AddScalar(&t1_, softening_, &t1_);
    mzmat::Pow(&t1_, -1.5, &t1_);
    // Capture all three reductions before resolving, so the whole force
    // computation pipelines as one stage.
    mzmat::Mul(&dx_, &t1_, &t2_);
    auto fx = mzmat::SumReduceToVector(&t2_, 1);
    mzmat::Mul(&dy_, &t1_, &t3_);
    auto fy = mzmat::SumReduceToVector(&t3_, 1);
    mzmat::Mul(&dz_, &t1_, &dx_);  // dx_ is dead here; reuse as scratch
    auto fz = mzmat::SumReduceToVector(&dx_, 1);
    std::vector<double> ax = fx.get();
    std::vector<double> ay = fy.get();
    std::vector<double> az = fz.get();
    mzvec::Axpy(n_, dt_, ax.data(), vx_.data());
    mzvec::Axpy(n_, dt_, ay.data(), vy_.data());
    mzvec::Axpy(n_, dt_, az.data(), vz_.data());
    mzvec::Axpy(n_, dt_, vx_.data(), x_.data());
    mzvec::Axpy(n_, dt_, vy_.data(), y_.data());
    mzvec::Axpy(n_, dt_, vz_.data(), z_.data());
    // The acceleration vectors are loop-local: lazily captured pointers must
    // not outlive their data, so force the update stage before they die.
    rt->Evaluate();
  }
}

void NBody::RunFused(int threads) {
  Reset(seed_);
  for (int s = 0; s < steps_; ++s) {
    baselines::NBodyStepFused(n_, x_.data(), y_.data(), z_.data(), vx_.data(), vy_.data(),
                              vz_.data(), dt_, softening_, threads);
  }
}

double NBody::Checksum() const {
  double sum = 0;
  for (long i = 0; i < n_; ++i) {
    sum += x_[static_cast<std::size_t>(i)] + y_[static_cast<std::size_t>(i)] +
           z_[static_cast<std::size_t>(i)];
  }
  return sum;
}

std::vector<double> NBody::Outputs() const {
  std::vector<double> out;
  for (const std::vector<double>* v : {&x_, &y_, &z_, &vx_, &vy_, &vz_}) {
    out.insert(out.end(), v->begin(), v->end());
  }
  return out;
}

// ---- Shallow Water ----

ShallowWater::ShallowWater(long grid, int steps, std::uint64_t seed)
    : grid_(grid),
      steps_(steps),
      seed_(seed),
      h_(grid, grid),
      u_(grid, grid),
      v_(grid, grid),
      h2_(grid, grid),
      u2_(grid, grid),
      v2_(grid, grid),
      ra_(grid, grid),
      rb_(grid, grid),
      dudx_(grid, grid),
      dvdy_(grid, grid),
      dhdx_(grid, grid),
      dhdy_(grid, grid),
      div_(grid, grid) {
  Reset(seed);
}

void ShallowWater::Reset(std::uint64_t seed) {
  (void)seed;
  // Gaussian drop in the middle of a unit-depth basin (the classic setup).
  double cx = static_cast<double>(grid_) / 2.0;
  double cy = static_cast<double>(grid_) / 2.0;
  double w = static_cast<double>(grid_) / 8.0;
  for (long r = 0; r < grid_; ++r) {
    for (long c = 0; c < grid_; ++c) {
      double dr = (static_cast<double>(r) - cx) / w;
      double dc = (static_cast<double>(c) - cy) / w;
      h_.at(r, c) = 1.0 + 0.5 * std::exp(-(dr * dr + dc * dc));
      u_.at(r, c) = 0.0;
      v_.at(r, c) = 0.0;
    }
  }
}

namespace {

// One discretized step: periodic central differences. Template over the two
// call surfaces (raw matrix library vs annotated wrappers).
template <typename M>
struct SwApi;

struct SwBase {};
struct SwMoz {};

template <>
struct SwApi<SwBase> {
  static void RollRows(const matrix::Matrix* a, long s, matrix::Matrix* o) {
    matrix::RollRows(a, s, o);
  }
  static void RollCols(const matrix::Matrix* a, long s, matrix::Matrix* o) {
    matrix::RollCols(a, s, o);
  }
  static void Sub(const matrix::Matrix* a, const matrix::Matrix* b, matrix::Matrix* o) {
    matrix::Sub(a, b, o);
  }
  static void Add(const matrix::Matrix* a, const matrix::Matrix* b, matrix::Matrix* o) {
    matrix::Add(a, b, o);
  }
  static void MulScalar(const matrix::Matrix* a, double c, matrix::Matrix* o) {
    matrix::MulScalar(a, c, o);
  }
  static void AddScaled(const matrix::Matrix* a, double al, const matrix::Matrix* b,
                        matrix::Matrix* o) {
    matrix::AddScaled(a, al, b, o);
  }
};

template <>
struct SwApi<SwMoz> {
  static void RollRows(const matrix::Matrix* a, long s, matrix::Matrix* o) {
    mzmat::RollRows(a, s, o);
  }
  static void RollCols(const matrix::Matrix* a, long s, matrix::Matrix* o) {
    mzmat::RollCols(a, s, o);
  }
  static void Sub(const matrix::Matrix* a, const matrix::Matrix* b, matrix::Matrix* o) {
    mzmat::Sub(a, b, o);
  }
  static void Add(const matrix::Matrix* a, const matrix::Matrix* b, matrix::Matrix* o) {
    mzmat::Add(a, b, o);
  }
  static void MulScalar(const matrix::Matrix* a, double c, matrix::Matrix* o) {
    mzmat::MulScalar(a, c, o);
  }
  static void AddScaled(const matrix::Matrix* a, double al, const matrix::Matrix* b,
                        matrix::Matrix* o) {
    mzmat::AddScaled(a, al, b, o);
  }
};

}  // namespace

template <typename Mode, typename W>
static void ShallowWaterSteps(W* w, int steps, matrix::Matrix* h, matrix::Matrix* u,
                              matrix::Matrix* v, matrix::Matrix* h2, matrix::Matrix* u2,
                              matrix::Matrix* v2, double dt, double dx, double g,
                              matrix::Matrix* ra, matrix::Matrix* rb, matrix::Matrix* dudx,
                              matrix::Matrix* dvdy, matrix::Matrix* dhdx, matrix::Matrix* dhdy,
                              matrix::Matrix* div) {
  (void)w;
  using Api = SwApi<Mode>;
  double inv_2dx = 1.0 / (2.0 * dx);
  matrix::Matrix* src_h = h;
  matrix::Matrix* src_u = u;
  matrix::Matrix* src_v = v;
  matrix::Matrix* dst_h = h2;
  matrix::Matrix* dst_u = u2;
  matrix::Matrix* dst_v = v2;
  for (int s = 0; s < steps; ++s) {
    // du/dx (rows are the x dimension; periodic)
    Api::RollRows(src_u, 1, ra);
    Api::RollRows(src_u, -1, rb);
    Api::Sub(ra, rb, dudx);
    Api::MulScalar(dudx, inv_2dx, dudx);
    // dv/dy
    Api::RollCols(src_v, 1, ra);
    Api::RollCols(src_v, -1, rb);
    Api::Sub(ra, rb, dvdy);
    Api::MulScalar(dvdy, inv_2dx, dvdy);
    // dh/dx, dh/dy
    Api::RollRows(src_h, 1, ra);
    Api::RollRows(src_h, -1, rb);
    Api::Sub(ra, rb, dhdx);
    Api::MulScalar(dhdx, inv_2dx, dhdx);
    Api::RollCols(src_h, 1, ra);
    Api::RollCols(src_h, -1, rb);
    Api::Sub(ra, rb, dhdy);
    Api::MulScalar(dhdy, inv_2dx, dhdy);
    // updates
    Api::Add(dudx, dvdy, div);
    Api::AddScaled(src_h, -dt, div, dst_h);
    Api::AddScaled(src_u, -dt * g, dhdx, dst_u);
    Api::AddScaled(src_v, -dt * g, dhdy, dst_v);
    std::swap(src_h, dst_h);
    std::swap(src_u, dst_u);
    std::swap(src_v, dst_v);
  }
}

void ShallowWater::RunBase() {
  Reset(seed_);
  ShallowWaterSteps<SwBase>(this, steps_, &h_, &u_, &v_, &h2_, &u2_, &v2_, dt_, dx_, g_, &ra_,
                            &rb_, &dudx_, &dvdy_, &dhdx_, &dhdy_, &div_);
}

void ShallowWater::RunMozart(mz::Runtime* rt) {
  Reset(seed_);
  mz::RuntimeScope scope(rt);
  ShallowWaterSteps<SwMoz>(this, steps_, &h_, &u_, &v_, &h2_, &u2_, &v2_, dt_, dx_, g_, &ra_, &rb_,
                           &dudx_, &dvdy_, &dhdx_, &dhdy_, &div_);
  rt->Evaluate();
}

void ShallowWater::RunFused(int threads) {
  Reset(seed_);
  matrix::Matrix* src_h = &h_;
  matrix::Matrix* src_u = &u_;
  matrix::Matrix* src_v = &v_;
  matrix::Matrix* dst_h = &h2_;
  matrix::Matrix* dst_u = &u2_;
  matrix::Matrix* dst_v = &v2_;
  for (int s = 0; s < steps_; ++s) {
    baselines::ShallowWaterStepFused(src_h, src_u, src_v, dst_h, dst_u, dst_v, dt_, dx_, g_,
                                     threads);
    std::swap(src_h, dst_h);
    std::swap(src_u, dst_u);
    std::swap(src_v, dst_v);
  }
}

double ShallowWater::Checksum() const {
  const matrix::Matrix& final_h = steps_ % 2 == 0 ? h_ : h2_;
  double sum = 0;
  for (long r = 0; r < grid_; r += 7) {
    for (long c = 0; c < grid_; c += 7) {
      sum += final_h.at(r, c);
    }
  }
  return sum;
}

}  // namespace workloads
