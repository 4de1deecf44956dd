// Unit tests for the vecmath substrate itself: element-wise semantics vs the
// C math library, internal-parallel-mode equivalence, aliasing (in-place
// operation), reductions, and the lane contract of the libmvec drivers
// (lanes.h) at both widths.
#include "vecmath/vecmath.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "vecmath/lanes.h"

namespace {

using vecmath::lanes::Width;

bool BitEqual(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() && std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

std::vector<double> RandomVec(long n, double lo, double hi, std::uint64_t seed) {
  mz::Rng rng(seed);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) {
    x = rng.NextDouble(lo, hi);
  }
  return v;
}

using UnaryFn = void (*)(long, const double*, double*);
using StdFn = double (*)(double);

struct UnaryCase {
  const char* name;
  UnaryFn fn;
  StdFn ref;
  double lo;
  double hi;
};

class UnaryOpTest : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnaryOpTest, MatchesStdMath) {
  const UnaryCase& c = GetParam();
  const long n = 10001;
  std::vector<double> in = RandomVec(n, c.lo, c.hi, 5);
  std::vector<double> out(static_cast<std::size_t>(n));
  vecmath::SetNumThreads(1);
  c.fn(n, in.data(), out.data());
  for (long i = 0; i < n; i += 419) {
    EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(i)], c.ref(in[static_cast<std::size_t>(i)]))
        << c.name << " at " << i;
  }
  vecmath::SetNumThreads(0);
}

TEST_P(UnaryOpTest, ParallelMatchesSerial) {
  const UnaryCase& c = GetParam();
  const long n = vecmath::kParallelGrain * 3 + 7;  // force internal threading
  std::vector<double> in = RandomVec(n, c.lo, c.hi, 6);
  std::vector<double> serial(static_cast<std::size_t>(n));
  std::vector<double> parallel(static_cast<std::size_t>(n));
  vecmath::SetNumThreads(1);
  c.fn(n, in.data(), serial.data());
  vecmath::SetNumThreads(4);
  c.fn(n, in.data(), parallel.data());
  vecmath::SetNumThreads(0);
  EXPECT_EQ(serial, parallel) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, UnaryOpTest,
    ::testing::Values(UnaryCase{"sqrt", vecmath::Sqrt, std::sqrt, 0.0, 100.0},
                      UnaryCase{"exp", vecmath::Exp, std::exp, -5.0, 5.0},
                      UnaryCase{"log", vecmath::Log, std::log, 0.1, 100.0},
                      UnaryCase{"log1p", vecmath::Log1p, std::log1p, -0.5, 10.0},
                      UnaryCase{"erf", vecmath::Erf, std::erf, -3.0, 3.0},
                      UnaryCase{"sin", vecmath::Sin, std::sin, -3.14, 3.14},
                      UnaryCase{"cos", vecmath::Cos, std::cos, -3.14, 3.14},
                      UnaryCase{"asin", vecmath::Asin, std::asin, -1.0, 1.0},
                      UnaryCase{"atan", vecmath::Atan, std::atan, -10.0, 10.0},
                      UnaryCase{"floor", vecmath::Floor, std::floor, -10.0, 10.0}),
    [](const ::testing::TestParamInfo<UnaryCase>& param_info) { return param_info.param.name; });

TEST(VecmathTest, BinaryOps) {
  const long n = 1000;
  std::vector<double> a = RandomVec(n, 1.0, 10.0, 7);
  std::vector<double> b = RandomVec(n, 1.0, 10.0, 8);
  std::vector<double> out(static_cast<std::size_t>(n));
  vecmath::Add(n, a.data(), b.data(), out.data());
  EXPECT_DOUBLE_EQ(out[17], a[17] + b[17]);
  vecmath::Div(n, a.data(), b.data(), out.data());
  EXPECT_DOUBLE_EQ(out[17], a[17] / b[17]);
  vecmath::Atan2(n, a.data(), b.data(), out.data());
  EXPECT_DOUBLE_EQ(out[17], std::atan2(a[17], b[17]));
  vecmath::Max(n, a.data(), b.data(), out.data());
  EXPECT_DOUBLE_EQ(out[17], std::max(a[17], b[17]));
}

TEST(VecmathTest, InPlaceAliasing) {
  // MKL semantics: `vdLog1p(n, d1, d1)` operates in place, with the same
  // result as the out-of-place call.
  const long n = 513;
  std::vector<double> d = RandomVec(n, 0.5, 2.0, 9);
  std::vector<double> want(static_cast<std::size_t>(n));
  vecmath::Log1p(n, d.data(), want.data());
  vecmath::Log1p(n, d.data(), d.data());
  EXPECT_TRUE(BitEqual(d, want));
}

// In-place calls at every kind of map, serial and internally threaded, with
// a tail that is not a whole vector register: out == a must give the bits
// of the out-of-place call, and so must out == b.
TEST(VecmathTest, InPlaceMatchesOutOfPlace) {
  for (long n : {1003L, vecmath::kParallelGrain * 2 + 5}) {
    SCOPED_TRACE(n);
    const std::vector<double> a = RandomVec(n, 0.5, 2.0, 19);
    const std::vector<double> b = RandomVec(n, 1.0, 3.0, 20);
    std::vector<double> want(static_cast<std::size_t>(n));
    std::vector<double> got;

    vecmath::MulC(n, a.data(), 1.5, want.data());  // unary map
    got = a;
    vecmath::MulC(n, got.data(), 1.5, got.data());
    EXPECT_TRUE(BitEqual(got, want)) << "MulC, out == a";

    vecmath::Div(n, a.data(), b.data(), want.data());  // binary map
    got = a;
    vecmath::Div(n, got.data(), b.data(), got.data());
    EXPECT_TRUE(BitEqual(got, want)) << "Div, out == a";
    got = b;
    vecmath::Div(n, a.data(), got.data(), got.data());
    EXPECT_TRUE(BitEqual(got, want)) << "Div, out == b";

    vecmath::Erf(n, a.data(), want.data());  // lane op
    got = a;
    vecmath::Erf(n, got.data(), got.data());
    EXPECT_TRUE(BitEqual(got, want)) << "Erf, out == a";

    vecmath::Pow(n, a.data(), b.data(), want.data());  // binary lane op
    got = b;
    vecmath::Pow(n, a.data(), got.data(), got.data());
    EXPECT_TRUE(BitEqual(got, want)) << "Pow, out == b";

    std::vector<double> y = b;  // Axpy updates y in place by definition
    vecmath::Axpy(n, 0.25, a.data(), y.data());
    for (long i = 0; i < n; i += 97) {
      const auto k = static_cast<std::size_t>(i);
      EXPECT_EQ(y[k], b[k] + 0.25 * a[k]) << "Axpy at " << i;
    }
  }
}

TEST(VecmathTest, ScalarOps) {
  const long n = 256;
  std::vector<double> a = RandomVec(n, 1.0, 5.0, 10);
  std::vector<double> out(static_cast<std::size_t>(n));
  vecmath::RSubC(n, a.data(), 1.0, out.data());
  EXPECT_DOUBLE_EQ(out[3], 1.0 - a[3]);
  vecmath::RDivC(n, a.data(), 2.0, out.data());
  EXPECT_DOUBLE_EQ(out[3], 2.0 / a[3]);
  vecmath::PowC(n, a.data(), 1.5, out.data());
  EXPECT_DOUBLE_EQ(out[3], std::pow(a[3], 1.5));
}

TEST(VecmathTest, FmaAndAxpy) {
  const long n = 128;
  std::vector<double> a = RandomVec(n, 1.0, 2.0, 11);
  std::vector<double> b = RandomVec(n, 1.0, 2.0, 12);
  std::vector<double> c = RandomVec(n, 1.0, 2.0, 13);
  std::vector<double> out(static_cast<std::size_t>(n));
  vecmath::Fma(n, a.data(), b.data(), c.data(), out.data());
  EXPECT_DOUBLE_EQ(out[5], a[5] * b[5] + c[5]);
  std::vector<double> y = c;
  vecmath::Axpy(n, 2.5, a.data(), y.data());
  EXPECT_DOUBLE_EQ(y[5], c[5] + 2.5 * a[5]);
}

TEST(VecmathTest, Reductions) {
  const long n = 100000;
  std::vector<double> a = RandomVec(n, -1.0, 1.0, 14);
  double want_sum = 0;
  double want_max = a[0];
  double want_min = a[0];
  for (double x : a) {
    want_sum += x;
    want_max = std::max(want_max, x);
    want_min = std::min(want_min, x);
  }
  vecmath::SetNumThreads(1);
  EXPECT_NEAR(vecmath::Sum(n, a.data()), want_sum, 1e-9);
  EXPECT_DOUBLE_EQ(vecmath::MaxReduce(n, a.data()), want_max);
  EXPECT_DOUBLE_EQ(vecmath::MinReduce(n, a.data()), want_min);
  // Parallel reductions agree up to reassociation.
  vecmath::SetNumThreads(4);
  EXPECT_NEAR(vecmath::Sum(n, a.data()), want_sum, 1e-9);
  EXPECT_DOUBLE_EQ(vecmath::MaxReduce(n, a.data()), want_max);
  vecmath::SetNumThreads(0);
}

TEST(VecmathTest, SelectAndComparisons) {
  const long n = 64;
  std::vector<double> a = RandomVec(n, 0.0, 1.0, 15);
  std::vector<double> b = RandomVec(n, 0.0, 1.0, 16);
  std::vector<double> mask(static_cast<std::size_t>(n));
  std::vector<double> out(static_cast<std::size_t>(n));
  vecmath::GreaterThan(n, a.data(), b.data(), mask.data());
  vecmath::Select(n, mask.data(), a.data(), b.data(), out.data());
  for (long i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(i)],
                     std::max(a[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)]));
  }
}

TEST(VecmathTest, DotMatchesManual) {
  const long n = 4096;
  std::vector<double> a = RandomVec(n, -1.0, 1.0, 17);
  std::vector<double> b = RandomVec(n, -1.0, 1.0, 18);
  double want = 0;
  for (long i = 0; i < n; ++i) {
    want += a[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];
  }
  vecmath::SetNumThreads(1);
  EXPECT_NEAR(vecmath::Dot(n, a.data(), b.data()), want, 1e-10);
  vecmath::SetNumThreads(0);
}

TEST(VecmathTest, ZeroLengthIsNoop) {
  vecmath::Sqrt(0, nullptr, nullptr);
  vecmath::Add(0, nullptr, nullptr, nullptr);
  EXPECT_DOUBLE_EQ(vecmath::Sum(0, nullptr), 0.0);
}

// ---- the lane contract (lanes.h), at both widths ----

// Distance in units in the last place between two finite doubles.
std::int64_t UlpDistance(double x, double y) {
  auto ordered = [](double v) {
    std::int64_t i;
    std::memcpy(&i, &v, sizeof i);
    return i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i;
  };
  const std::int64_t d = ordered(x) - ordered(y);
  return d < 0 ? -d : d;
}

// One lane op through its driver, with its glibc scalar counterpart. Unary
// ops ignore `b`; PowC broadcasts the exponent -1.5.
struct LaneCase {
  const char* name;
  void (*run)(Width, long, const double*, const double*, double*);
  double (*ref)(double, double);
  double lo, hi;    // test range of the first argument
  double blo, bhi;  // and of the second (binary ops)
};

template <typename Op>
void RunUnary(Width w, long n, const double* a, const double*, double* out) {
  vecmath::lanes::Map<Op>(w, n, a, out);
}
template <typename Op>
void RunBinary(Width w, long n, const double* a, const double* b, double* out) {
  vecmath::lanes::Map<Op>(w, n, a, b, out);
}
void RunPowC(Width w, long n, const double* a, const double*, double* out) {
  vecmath::lanes::Map<vecmath::lanes::Pow>(w, n, a, -1.5, out);
}

template <double (*F)(double)>
double Ref1(double x, double) {
  return F(x);
}
template <double (*F)(double, double)>
double Ref2(double x, double y) {
  return F(x, y);
}
double RefPowC(double x, double) { return std::pow(x, -1.5); }

namespace lanes = vecmath::lanes;

const LaneCase kLaneCases[] = {
    {"sqrt", RunUnary<lanes::Sqrt>, Ref1<std::sqrt>, 0.0, 100.0, 0, 0},
    {"exp", RunUnary<lanes::Exp>, Ref1<std::exp>, -700.0, 700.0, 0, 0},
    {"log", RunUnary<lanes::Log>, Ref1<std::log>, 1e-300, 1e300, 0, 0},
    {"log1p", RunUnary<lanes::Log1p>, Ref1<std::log1p>, -0.999, 1e6, 0, 0},
    {"erf", RunUnary<lanes::Erf>, Ref1<std::erf>, -6.0, 6.0, 0, 0},
    {"sin", RunUnary<lanes::Sin>, Ref1<std::sin>, -100.0, 100.0, 0, 0},
    {"cos", RunUnary<lanes::Cos>, Ref1<std::cos>, -100.0, 100.0, 0, 0},
    {"tan", RunUnary<lanes::Tan>, Ref1<std::tan>, -1.5, 1.5, 0, 0},
    {"asin", RunUnary<lanes::Asin>, Ref1<std::asin>, -1.0, 1.0, 0, 0},
    {"acos", RunUnary<lanes::Acos>, Ref1<std::acos>, -1.0, 1.0, 0, 0},
    {"atan", RunUnary<lanes::Atan>, Ref1<std::atan>, -1e3, 1e3, 0, 0},
    {"pow", RunBinary<lanes::Pow>, Ref2<std::pow>, 0.01, 100.0, -3.0, 3.0},
    {"powc", RunPowC, RefPowC, 0.01, 100.0, 0, 0},
    {"atan2", RunBinary<lanes::Atan2>, Ref2<std::atan2>, -10.0, 10.0, -10.0, 10.0},
    {"hypot", RunBinary<lanes::Hypot>, Ref2<std::hypot>, -1e3, 1e3, -1e3, 1e3},
};

class LaneTest : public ::testing::TestWithParam<std::tuple<LaneCase, Width>> {
 protected:
  void SetUp() override {
    __builtin_cpu_init();
    if (width() == Width::kAvx2 && !__builtin_cpu_supports("avx2")) {
      GTEST_SKIP() << "this CPU has no AVX2";
    }
  }
  const LaneCase& op() const { return std::get<0>(GetParam()); }
  Width width() const { return std::get<1>(GetParam()); }
};

// An element's result must not depend on where a call starts: a Mozart
// piece or an internal-thread chunk may begin at any offset, including
// inside a vector register, and the tail of each call is padded.
TEST_P(LaneTest, SplitCallsMatchWholeCall) {
  const long n = 37;
  const std::vector<double> a = RandomVec(n, op().lo, op().hi, 21);
  const std::vector<double> b = RandomVec(n, op().blo, op().bhi, 22);
  std::vector<double> whole(static_cast<std::size_t>(n));
  op().run(width(), n, a.data(), b.data(), whole.data());
  for (long split = 0; split <= 8; ++split) {
    std::vector<double> parts(static_cast<std::size_t>(n));
    op().run(width(), split, a.data(), b.data(), parts.data());
    op().run(width(), n - split, a.data() + split, b.data() + split, parts.data() + split);
    EXPECT_TRUE(BitEqual(parts, whole)) << op().name << " split at " << split;
  }
}

TEST_P(LaneTest, WithinFourUlpOfLibm) {
  const long n = 4099;
  const std::vector<double> a = RandomVec(n, op().lo, op().hi, 23);
  const std::vector<double> b = RandomVec(n, op().blo, op().bhi, 24);
  std::vector<double> out(static_cast<std::size_t>(n));
  op().run(width(), n, a.data(), b.data(), out.data());
  std::int64_t worst = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double want = op().ref(a[i], b[i]);
    ASSERT_TRUE(std::isfinite(want)) << op().name << "(" << a[i] << ", " << b[i] << ")";
    worst = std::max(worst, UlpDistance(out[i], want));
  }
  EXPECT_LE(worst, 4) << op().name;
  if (op().ref == Ref1<std::sqrt>) {
    EXPECT_EQ(worst, 0) << "sqrtpd is correctly rounded";
  }
}

// NaN, infinities, signed zeros, denormals and domain errors: each result
// must agree with glibc's scalar function in NaN-ness, infinity, zero-ness
// and sign.
TEST_P(LaneTest, SpecialValuesMatchLibm) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const std::vector<double> specials = {nan,  inf,     -inf,    0.0,  -0.0,   denorm,
                                        -denorm, 1e-310, -1e-310, -1.0, 1.0,   2.0,
                                        -2.0, 800.0,   -800.0,  0.5,  -1.5};
  std::vector<double> a, b;
  for (double x : specials) {
    for (double y : specials) {
      a.push_back(x);
      b.push_back(y);
    }
  }
  std::vector<double> out(a.size());
  op().run(width(), static_cast<long>(a.size()), a.data(), b.data(), out.data());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double want = op().ref(a[i], b[i]);
    const double got = out[i];
    SCOPED_TRACE(::testing::Message() << op().name << "(" << a[i] << ", " << b[i]
                                      << "): got " << got << ", libm " << want);
    ASSERT_EQ(std::isnan(got), std::isnan(want));
    if (std::isnan(want)) {
      continue;
    }
    ASSERT_EQ(std::isinf(got), std::isinf(want));
    ASSERT_EQ(got == 0.0, want == 0.0);
    ASSERT_EQ(std::signbit(got), std::signbit(want));
  }
}

INSTANTIATE_TEST_SUITE_P(Ops, LaneTest,
                         ::testing::Combine(::testing::ValuesIn(kLaneCases),
                                            ::testing::Values(Width::kSse2, Width::kAvx2)),
                         [](const ::testing::TestParamInfo<LaneTest::ParamType>& param_info) {
                           return std::string(std::get<0>(param_info.param).name) +
                                  (std::get<1>(param_info.param) == Width::kAvx2 ? "_avx2" : "_sse2");
                         });

}  // namespace
