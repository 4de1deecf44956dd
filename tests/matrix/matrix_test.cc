// Tests for the matrix substrate: the library itself, its views, and its
// split annotations (the paper's Listing 4 examples).
#include "matrix/matrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "common/rng.h"

#include "core/client.h"
#include "core/runtime.h"
#include "matrix/annotated.h"

namespace {

using matrix::Matrix;

Matrix Filled(long rows, long cols, double start = 1.0) {
  Matrix m(rows, cols);
  double v = start;
  for (long r = 0; r < rows; ++r) {
    for (long c = 0; c < cols; ++c) {
      m.at(r, c) = v;
      v += 1.0;
    }
  }
  return m;
}

mz::RuntimeOptions TestOptions(int threads = 2) {
  mz::RuntimeOptions opts;
  opts.num_threads = threads;
  opts.pedantic = true;
  return opts;
}

TEST(MatrixTest, ConstructZeroed) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_DOUBLE_EQ(m.at(2, 3), 0.0);
}

TEST(MatrixTest, RowViewSharesStorage) {
  Matrix m = Filled(4, 3);
  Matrix v = Matrix::RowView(m, 1, 3);
  EXPECT_EQ(v.rows(), 2);
  EXPECT_EQ(v.row_offset(), 1);
  v.at(0, 0) = 99.0;
  EXPECT_DOUBLE_EQ(m.at(1, 0), 99.0);
}

TEST(MatrixTest, ColViewStride) {
  Matrix m = Filled(3, 5);
  Matrix v = Matrix::ColView(m, 2, 4);
  EXPECT_EQ(v.cols(), 2);
  EXPECT_EQ(v.col_offset(), 2);
  EXPECT_DOUBLE_EQ(v.at(1, 0), m.at(1, 2));
  v.at(1, 0) = -1.0;
  EXPECT_DOUBLE_EQ(m.at(1, 2), -1.0);
}

TEST(MatrixTest, ElementwiseOps) {
  Matrix a = Filled(2, 2, 1.0);   // 1 2 / 3 4
  Matrix b = Filled(2, 2, 10.0);  // 10 11 / 12 13
  Matrix out(2, 2);
  matrix::Add(&a, &b, &out);
  EXPECT_DOUBLE_EQ(out.at(1, 1), 17.0);
  matrix::Mul(&a, &b, &out);
  EXPECT_DOUBLE_EQ(out.at(0, 1), 22.0);
  matrix::AddScaled(&a, 2.0, &b, &out);
  EXPECT_DOUBLE_EQ(out.at(0, 0), 21.0);
}

Matrix RandomMatrix(long rows, long cols, double lo, double hi, std::uint64_t seed) {
  mz::Rng rng(seed);
  Matrix m(rows, cols);
  for (long r = 0; r < rows; ++r) {
    for (long c = 0; c < cols; ++c) {
      m.at(r, c) = rng.NextDouble(lo, hi);
    }
  }
  return m;
}

bool BitEqual(const Matrix& x, const Matrix& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) {
    return false;
  }
  for (long r = 0; r < x.rows(); ++r) {
    if (std::memcmp(x.row(r), y.row(r), static_cast<std::size_t>(x.cols()) * sizeof(double))) {
      return false;
    }
  }
  return true;
}

std::int64_t UlpDistance(double x, double y) {
  auto ordered = [](double v) {
    std::int64_t i;
    std::memcpy(&i, &v, sizeof i);
    return i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i;
  };
  const std::int64_t d = ordered(x) - ordered(y);
  return d < 0 ? -d : d;
}

// Pow runs on libmvec lanes: within 4 ulp of glibc's scalar pow on every
// element, including the tail of each 37-column row.
TEST(MatrixTest, PowWithinFourUlpOfStdPow) {
  const Matrix a = RandomMatrix(19, 37, 0.01, 50.0, 31);
  for (double e : {-1.5, 0.5, 2.0, 3.0}) {
    Matrix out(19, 37);
    matrix::Pow(&a, e, &out);
    std::int64_t worst = 0;
    for (long r = 0; r < a.rows(); ++r) {
      for (long c = 0; c < a.cols(); ++c) {
        worst = std::max(worst, UlpDistance(out.at(r, c), std::pow(a.at(r, c), e)));
      }
    }
    EXPECT_LE(worst, 4) << "exponent " << e;
  }
  Matrix root(19, 37);
  matrix::Sqrt(&a, &root);
  for (long r = 0; r < a.rows(); ++r) {
    for (long c = 0; c < a.cols(); ++c) {
      ASSERT_EQ(root.at(r, c), std::sqrt(a.at(r, c))) << "sqrtpd is correctly rounded";
    }
  }
}

// MKL-style in-place calls (`matrix::Add(&t1, &t2, &t1)`, as nBody makes)
// give the bits of the out-of-place call: a unary map, a binary map with
// out == a and out == b, and a lane op. 37 columns leave a tail in every
// row; 1200 rows cross the library's internal-threading grain.
TEST(MatrixTest, InPlaceMatchesOutOfPlace) {
  for (long rows : {5L, 1200L}) {
    SCOPED_TRACE(rows);
    const Matrix a = RandomMatrix(rows, 37, 0.5, 2.0, 32);
    const Matrix b = RandomMatrix(rows, 37, 1.0, 3.0, 33);
    Matrix want(rows, 37);
    Matrix got;

    matrix::MulScalar(&a, 1.5, &want);
    got = a.Clone();
    matrix::MulScalar(&got, 1.5, &got);
    EXPECT_TRUE(BitEqual(got, want)) << "MulScalar, out == a";

    matrix::Div(&a, &b, &want);
    got = a.Clone();
    matrix::Div(&got, &b, &got);
    EXPECT_TRUE(BitEqual(got, want)) << "Div, out == a";
    got = b.Clone();
    matrix::Div(&a, &got, &got);
    EXPECT_TRUE(BitEqual(got, want)) << "Div, out == b";

    matrix::Pow(&a, -1.5, &want);
    got = a.Clone();
    matrix::Pow(&got, -1.5, &got);
    EXPECT_TRUE(BitEqual(got, want)) << "Pow, out == a";
  }
}

TEST(MatrixTest, NormalizeRowsSumToOne) {
  Matrix m = Filled(3, 4);
  matrix::NormalizeAxis(&m, 0);
  for (long r = 0; r < 3; ++r) {
    double sum = 0;
    for (long c = 0; c < 4; ++c) {
      sum += m.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(MatrixTest, NormalizeColsSumToOne) {
  Matrix m = Filled(3, 4);
  matrix::NormalizeAxis(&m, 1);
  for (long c = 0; c < 4; ++c) {
    double sum = 0;
    for (long r = 0; r < 3; ++r) {
      sum += m.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(MatrixTest, SumReduceBothAxes) {
  Matrix m = Filled(2, 3);  // 1 2 3 / 4 5 6
  std::vector<double> rows = matrix::SumReduceToVector(&m, 1);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0], 6.0);
  EXPECT_DOUBLE_EQ(rows[1], 15.0);
  std::vector<double> cols = matrix::SumReduceToVector(&m, 0);
  ASSERT_EQ(cols.size(), 3u);
  EXPECT_DOUBLE_EQ(cols[0], 5.0);
  EXPECT_DOUBLE_EQ(cols[2], 9.0);
}

TEST(MatrixTest, OuterDiffUsesGlobalOffsets) {
  std::vector<double> v = {1.0, 2.0, 4.0};
  Matrix out(3, 3);
  matrix::OuterDiff(3, v.data(), &out);
  EXPECT_DOUBLE_EQ(out.at(0, 2), 3.0);   // v[2] - v[0]
  EXPECT_DOUBLE_EQ(out.at(2, 0), -3.0);  // v[0] - v[2]
  // The same computation on a row view must produce the same rows.
  Matrix band(3, 3);
  Matrix view = Matrix::RowView(band, 1, 3);
  matrix::OuterDiff(3, v.data(), &view);
  EXPECT_DOUBLE_EQ(band.at(1, 0), out.at(1, 0));
  EXPECT_DOUBLE_EQ(band.at(2, 2), out.at(2, 2));
}

TEST(MatrixTest, SetDiagonalOnViews) {
  Matrix m(4, 4);
  Matrix top = Matrix::RowView(m, 0, 2);
  Matrix bottom = Matrix::RowView(m, 2, 4);
  matrix::SetDiagonal(&top, 7.0);
  matrix::SetDiagonal(&bottom, 7.0);
  for (long i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(m.at(i, i), 7.0);
  }
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
}

TEST(MatrixTest, RollRowsWraps) {
  Matrix m = Filled(3, 2);
  Matrix out(3, 2);
  matrix::RollRows(&m, 1, &out);
  EXPECT_DOUBLE_EQ(out.at(0, 0), m.at(2, 0));
  EXPECT_DOUBLE_EQ(out.at(1, 0), m.at(0, 0));
}

TEST(MatrixTest, GemvMatchesManual) {
  Matrix m = Filled(3, 2);
  std::vector<double> v = {2.0, -1.0};
  std::vector<double> out(3);
  matrix::Gemv(&m, v.data(), out.data());
  EXPECT_DOUBLE_EQ(out[0], m.at(0, 0) * 2.0 - m.at(0, 1));
}

// --- annotated pipelines ---

TEST(MatrixAnnotatedTest, ElementwisePipelineSingleStage) {
  const long n = 256;
  Matrix a = Filled(n, n);
  Matrix b = Filled(n, n, 5.0);
  Matrix t1(n, n);
  Matrix t2(n, n);
  Matrix want(n, n);
  matrix::Add(&a, &b, &want);
  matrix::Sqrt(&want, &want);
  matrix::MulScalar(&want, 3.0, &want);

  mz::Runtime rt(TestOptions());
  mz::RuntimeScope scope(&rt);
  mzmat::Add(&a, &b, &t1);
  mzmat::Sqrt(&t1, &t2);
  mzmat::MulScalar(&t2, 3.0, &t2);
  rt.Evaluate();
  EXPECT_EQ(rt.stats().Take().stages, 1);
  for (long r = 0; r < n; r += 37) {
    EXPECT_DOUBLE_EQ(t2.at(r, r % n), want.at(r, r % n));
  }
}

TEST(MatrixAnnotatedTest, NormalizeAxisSequenceBreaksStages) {
  const long n = 128;
  Matrix m = Filled(n, n);
  mz::Runtime rt(TestOptions());
  mz::RuntimeScope scope(&rt);
  // Paper §3.1: the first call needs row splits, the second column splits —
  // MatrixSplit<r,c,0> ≠ MatrixSplit<r,c,1> forces a merge between them.
  mzmat::NormalizeAxis(&m, 0);
  mzmat::NormalizeAxis(&m, 1);
  rt.Evaluate();
  EXPECT_EQ(rt.stats().Take().stages, 2);
  for (long c = 0; c < n; c += 17) {
    double sum = 0;
    for (long r = 0; r < n; ++r) {
      sum += m.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(MatrixAnnotatedTest, ReduceToVectorAxis0SumsPartials) {
  const long rows = 300;
  const long cols = 40;
  Matrix m = Filled(rows, cols);
  std::vector<double> want = matrix::SumReduceToVector(&m, 0);

  mz::Runtime rt(TestOptions());
  mz::RuntimeScope scope(&rt);
  mz::Future<std::vector<double>> got = mzmat::SumReduceToVector(&m, 0);
  std::vector<double> result = got.get();
  ASSERT_EQ(result.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(result[i], want[i], 1e-9) << "col " << i;
  }
}

TEST(MatrixAnnotatedTest, ReduceToVectorAxis1Concatenates) {
  const long rows = 257;
  const long cols = 33;
  Matrix m = Filled(rows, cols);
  std::vector<double> want = matrix::SumReduceToVector(&m, 1);

  mz::Runtime rt(TestOptions());
  mz::RuntimeScope scope(&rt);
  std::vector<double> got = mzmat::SumReduceToVector(&m, 1).get();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], want[i]) << "row " << i;
  }
}

TEST(MatrixAnnotatedTest, GemvPipelinesMatrixAndArraySplits) {
  const long rows = 500;
  const long cols = 64;
  Matrix m = Filled(rows, cols);
  std::vector<double> v(static_cast<std::size_t>(cols), 0.5);
  std::vector<double> got(static_cast<std::size_t>(rows));
  std::vector<double> want(static_cast<std::size_t>(rows));
  matrix::Gemv(&m, v.data(), want.data());

  mz::Runtime rt(TestOptions());
  mz::RuntimeScope scope(&rt);
  mzmat::Gemv(&m, v.data(), got.data());
  rt.Evaluate();
  EXPECT_EQ(rt.stats().Take().stages, 1);
  for (long i = 0; i < rows; i += 41) {
    EXPECT_NEAR(got[static_cast<std::size_t>(i)], want[static_cast<std::size_t>(i)], 1e-9);
  }
}

TEST(MatrixAnnotatedTest, SerialRollBreaksPipeline) {
  const long n = 64;
  Matrix a = Filled(n, n);
  Matrix rolled(n, n);
  Matrix out(n, n);
  mz::Runtime rt(TestOptions());
  mz::RuntimeScope scope(&rt);
  mzmat::MulScalar(&a, 2.0, &a);        // stage 1 (split)
  mzmat::RollRows(&a, 1, &rolled);      // serial stage
  mzmat::Add(&a, &rolled, &out);        // stage 3 (split)
  rt.Evaluate();
  EXPECT_EQ(rt.stats().Take().stages, 3);
  EXPECT_DOUBLE_EQ(out.at(1, 0), a.at(1, 0) + a.at(0, 0));
}

TEST(MatrixAnnotatedTest, WholeMatrixReductions) {
  const long n = 200;
  Matrix m = Filled(n, n);
  mz::Runtime rt(TestOptions());
  mz::RuntimeScope scope(&rt);
  double total = mzmat::SumAll(&m).get();
  double maxabs = mzmat::MaxAbs(&m).get();
  EXPECT_DOUBLE_EQ(total, matrix::SumAll(&m));
  EXPECT_DOUBLE_EQ(maxabs, static_cast<double>(n * n));
}

TEST(MatrixAnnotatedTest, OuterDiffThenElementwiseSingleStage) {
  const long n = 128;
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  Matrix diff(n, n);
  Matrix sq(n, n);

  Matrix want_diff(n, n);
  Matrix want_sq(n, n);
  matrix::OuterDiff(n, v.data(), &want_diff);
  matrix::Mul(&want_diff, &want_diff, &want_sq);

  mz::Runtime rt(TestOptions());
  mz::RuntimeScope scope(&rt);
  mzmat::OuterDiff(n, v.data(), &diff);
  mzmat::Mul(&diff, &diff, &sq);
  rt.Evaluate();
  EXPECT_EQ(rt.stats().Take().stages, 1);
  EXPECT_DOUBLE_EQ(sq.at(3, 70), want_sq.at(3, 70));
}

// Parameterized: elementwise chains across thread counts and shapes.
struct MatrixSweep {
  int threads;
  long rows;
  long cols;
};

class MatrixPipelineSweep : public ::testing::TestWithParam<MatrixSweep> {};

TEST_P(MatrixPipelineSweep, ChainMatchesDirect) {
  const MatrixSweep p = GetParam();
  Matrix a = Filled(p.rows, p.cols);
  Matrix got(p.rows, p.cols);
  Matrix want(p.rows, p.cols);

  matrix::MulScalar(&a, 0.25, &want);
  matrix::Sqrt(&want, &want);
  matrix::AddScalar(&want, 1.0, &want);
  matrix::Mul(&want, &want, &want);

  mz::Runtime rt(TestOptions(p.threads));
  mz::RuntimeScope scope(&rt);
  mzmat::MulScalar(&a, 0.25, &got);
  mzmat::Sqrt(&got, &got);
  mzmat::AddScalar(&got, 1.0, &got);
  mzmat::Mul(&got, &got, &got);
  rt.Evaluate();
  EXPECT_EQ(rt.stats().Take().stages, 1);
  for (long r = 0; r < p.rows; r += std::max<long>(1, p.rows / 13)) {
    for (long c = 0; c < p.cols; c += std::max<long>(1, p.cols / 7)) {
      ASSERT_DOUBLE_EQ(got.at(r, c), want.at(r, c)) << r << "," << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatrixPipelineSweep,
                         ::testing::Values(MatrixSweep{1, 1, 1}, MatrixSweep{1, 100, 3},
                                           MatrixSweep{2, 64, 64}, MatrixSweep{2, 999, 17},
                                           MatrixSweep{4, 3, 1000}, MatrixSweep{4, 513, 129}),
                         [](const ::testing::TestParamInfo<MatrixSweep>& param_info) {
                           return "t" + std::to_string(param_info.param.threads) + "_r" +
                                  std::to_string(param_info.param.rows) + "_c" +
                                  std::to_string(param_info.param.cols);
                         });

}  // namespace
