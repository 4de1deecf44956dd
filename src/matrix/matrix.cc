#include "matrix/matrix.h"

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

#include "common/aligned.h"
#include "common/check.h"
#include "common/cpu.h"
#include "common/thread_pool.h"
#include "vecmath/lanes.h"

namespace matrix {
namespace {

std::atomic<int> g_num_threads{0};

int EffectiveThreads() {
  int t = g_num_threads.load(std::memory_order_relaxed);
  return t > 0 ? t : mz::NumLogicalCpus();
}

constexpr long kParallelGrainElems = 1 << 15;

// Runs body(r0, r1) over row ranges of an `nrows`-row operation, in parallel
// when the library's internal threading is enabled and the matrix is large.
template <typename Body>
void DispatchRows(long nrows, long ncols, Body body) {
  int threads = EffectiveThreads();
  if (threads <= 1 || nrows * ncols < kParallelGrainElems || nrows < 2) {
    body(0, nrows);
    return;
  }
  long chunk = (nrows + threads - 1) / threads;
  mz::GlobalPool().ParallelFor(0, threads, [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      long lo = static_cast<long>(t) * chunk;
      long hi = lo + chunk < nrows ? lo + chunk : nrows;
      if (lo < hi) {
        body(lo, hi);
      }
    }
  });
}

void CheckSameShape(const Matrix* a, const Matrix* b, const Matrix* out) {
  MZ_CHECK_MSG(a != nullptr && out != nullptr, "null matrix argument");
  MZ_CHECK_MSG(a->rows() == out->rows() && a->cols() == out->cols(),
               "matrix shape mismatch: " << a->rows() << "x" << a->cols() << " vs "
                                         << out->rows() << "x" << out->cols());
  if (b != nullptr) {
    MZ_CHECK_MSG(a->rows() == b->rows() && a->cols() == b->cols(), "matrix shape mismatch");
  }
}

// out = f(in...) elementwise, one row at a time. As in vecmath.cc, the row
// loop is also instantiated in an AVX2 function so it vectorizes (this file
// builds at -O3) at the width vecmath::lanes::Detected() picks; no
// __restrict, since `out` may alias an input.
template <typename F, typename... Row>
[[gnu::always_inline]] inline void RowLoop(long cols, double* out, F f, Row... in) {
  for (long c = 0; c < cols; ++c) {
    out[c] = f(in[c]...);
  }
}

template <typename F, typename... Row>
MZ_AVX2 void RowLoopAvx2(long cols, double* out, F f, Row... in) {
  RowLoop(cols, out, f, in...);
}

template <typename F, typename... In>
void Map(Matrix* out, F f, const In*... in) {
  (CheckSameShape(in, nullptr, out), ...);
  const bool avx2 = vecmath::lanes::Detected() == vecmath::lanes::Width::kAvx2;
  long cols = out->cols();
  DispatchRows(out->rows(), cols, [&](long r0, long r1) {
    for (long r = r0; r < r1; ++r) {
      if (avx2) {
        RowLoopAvx2(cols, out->row(r), f, in->row(r)...);
      } else {
        RowLoop(cols, out->row(r), f, in->row(r)...);
      }
    }
  });
}

// out = Op(a, args...) on libmvec lanes (vecmath/lanes.h), row by row; the
// library's own row dispatch, not vecmath's.
template <typename Op, typename... Args>
void LaneMap(const Matrix* a, Matrix* out, Args... args) {
  CheckSameShape(a, nullptr, out);
  const vecmath::lanes::Width w = vecmath::lanes::Detected();
  long cols = a->cols();
  DispatchRows(a->rows(), cols, [&](long r0, long r1) {
    for (long r = r0; r < r1; ++r) {
      vecmath::lanes::Map<Op>(w, cols, a->row(r), args..., out->row(r));
    }
  });
}

}  // namespace

Matrix::Matrix(long rows, long cols) : rows_(rows), cols_(cols), stride_(cols) {
  MZ_CHECK_MSG(rows >= 0 && cols >= 0, "negative matrix dimensions");
  std::size_t count = static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  if (count == 0) {
    return;
  }
  // Color the base (see common/aligned.h): simulation state is typically
  // many equal power-of-two matrices, which would otherwise be L2-set
  // congruent and thrash when row bands are pipelined.
  std::size_t color = mz::internal::NextColorOffset();
  std::size_t bytes = (count * sizeof(double) + 63) / 64 * 64 + color;
  char* p = static_cast<char*>(std::aligned_alloc(64, bytes));
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  std::memset(p, 0, bytes);
  storage_ = std::shared_ptr<double[]>(reinterpret_cast<double*>(p),
                                       [](double* q) { std::free(q); });
  data_ = reinterpret_cast<double*>(p + color);
}

Matrix Matrix::RowView(const Matrix& parent, long r0, long r1) {
  MZ_CHECK_MSG(r0 >= 0 && r0 <= r1 && r1 <= parent.rows(), "row view out of range");
  Matrix v;
  v.storage_ = parent.storage_;
  v.data_ = const_cast<double*>(parent.data()) + r0 * parent.stride();
  v.rows_ = r1 - r0;
  v.cols_ = parent.cols();
  v.stride_ = parent.stride();
  v.row_offset_ = parent.row_offset_ + r0;
  v.col_offset_ = parent.col_offset_;
  return v;
}

Matrix Matrix::ColView(const Matrix& parent, long c0, long c1) {
  MZ_CHECK_MSG(c0 >= 0 && c0 <= c1 && c1 <= parent.cols(), "col view out of range");
  Matrix v;
  v.storage_ = parent.storage_;
  v.data_ = const_cast<double*>(parent.data()) + c0;
  v.rows_ = parent.rows();
  v.cols_ = c1 - c0;
  v.stride_ = parent.stride();
  v.row_offset_ = parent.row_offset_;
  v.col_offset_ = parent.col_offset_ + c0;
  return v;
}

Matrix Matrix::Clone() const {
  Matrix out(rows_, cols_);
  for (long r = 0; r < rows_; ++r) {
    std::memcpy(out.row(r), row(r), static_cast<std::size_t>(cols_) * sizeof(double));
  }
  return out;
}

void SetNumThreads(int threads) {
  MZ_CHECK_MSG(threads >= 0, "SetNumThreads requires a non-negative count");
  g_num_threads.store(threads, std::memory_order_relaxed);
}

int GetNumThreads() { return EffectiveThreads(); }

void Add(const Matrix* a, const Matrix* b, Matrix* out) {
  Map(out, [](double x, double y) { return x + y; }, a, b);
}
void Sub(const Matrix* a, const Matrix* b, Matrix* out) {
  Map(out, [](double x, double y) { return x - y; }, a, b);
}
void Mul(const Matrix* a, const Matrix* b, Matrix* out) {
  Map(out, [](double x, double y) { return x * y; }, a, b);
}
void Div(const Matrix* a, const Matrix* b, Matrix* out) {
  Map(out, [](double x, double y) { return x / y; }, a, b);
}

void AddScalar(const Matrix* a, double c, Matrix* out) {
  Map(out, [c](double x) { return x + c; }, a);
}
void MulScalar(const Matrix* a, double c, Matrix* out) {
  Map(out, [c](double x) { return x * c; }, a);
}

void Fill(Matrix* m, double c) {
  Map(m, [c] { return c; });
}

void AddScaled(const Matrix* a, double alpha, const Matrix* b, Matrix* out) {
  Map(out, [alpha](double x, double y) { return x + alpha * y; }, a, b);
}

void Sqrt(const Matrix* a, Matrix* out) {
  LaneMap<vecmath::lanes::Sqrt>(a, out);
}
void Abs(const Matrix* a, Matrix* out) {
  Map(out, [](double x) { return std::fabs(x); }, a);
}
void Pow(const Matrix* a, double exponent, Matrix* out) {
  LaneMap<vecmath::lanes::Pow>(a, out, exponent);
}
void Inv(const Matrix* a, Matrix* out) {
  Map(out, [](double x) { return 1.0 / x; }, a);
}

void ClampMagnitude(const Matrix* a, double eps, Matrix* out) {
  Map(
      out,
      [eps](double x) {
        double m = std::fabs(x);
        double sign = x < 0 ? -1.0 : 1.0;
        return sign * (m < eps ? eps : m);
      },
      a);
}

void NormalizeAxis(Matrix* m, int axis) {
  MZ_CHECK_MSG(axis == 0 || axis == 1, "axis must be 0 (rows) or 1 (columns)");
  if (axis == 0) {
    long cols = m->cols();
    DispatchRows(m->rows(), cols, [&](long r0, long r1) {
      for (long r = r0; r < r1; ++r) {
        double* __restrict p = m->row(r);
        double sum = 0;
        for (long c = 0; c < cols; ++c) {
          sum += p[c];
        }
        if (sum != 0) {
          double inv = 1.0 / sum;
          for (long c = 0; c < cols; ++c) {
            p[c] *= inv;
          }
        }
      }
    });
    return;
  }
  // axis == 1: each column scaled to unit sum. Iterates row-major for
  // locality; the SA splits the matrix into column bands for this case.
  long rows = m->rows();
  long cols = m->cols();
  std::vector<double> sums(static_cast<std::size_t>(cols), 0.0);
  for (long r = 0; r < rows; ++r) {
    const double* p = m->row(r);
    for (long c = 0; c < cols; ++c) {
      sums[static_cast<std::size_t>(c)] += p[c];
    }
  }
  for (double& s : sums) {
    s = s != 0 ? 1.0 / s : 0.0;
  }
  for (long r = 0; r < rows; ++r) {
    double* p = m->row(r);
    for (long c = 0; c < cols; ++c) {
      p[c] *= sums[static_cast<std::size_t>(c)];
    }
  }
}

std::vector<double> SumReduceToVector(const Matrix* m, int axis) {
  MZ_CHECK_MSG(axis == 0 || axis == 1, "axis must be 0 (sum columns) or 1 (sum rows)");
  long rows = m->rows();
  long cols = m->cols();
  if (axis == 1) {
    std::vector<double> out(static_cast<std::size_t>(rows), 0.0);
    for (long r = 0; r < rows; ++r) {
      const double* p = m->row(r);
      double sum = 0;
      for (long c = 0; c < cols; ++c) {
        sum += p[c];
      }
      out[static_cast<std::size_t>(r)] = sum;
    }
    return out;
  }
  std::vector<double> out(static_cast<std::size_t>(cols), 0.0);
  for (long r = 0; r < rows; ++r) {
    const double* p = m->row(r);
    for (long c = 0; c < cols; ++c) {
      out[static_cast<std::size_t>(c)] += p[c];
    }
  }
  return out;
}

void OuterDiff(long n, const double* v, Matrix* out) {
  MZ_CHECK_MSG(out->cols() == n, "OuterDiff output must have n columns");
  long base = out->row_offset();
  long rows = out->rows();
  DispatchRows(rows, n, [&](long r0, long r1) {
    for (long r = r0; r < r1; ++r) {
      double vi = v[base + r];
      double* __restrict po = out->row(r);
      for (long c = 0; c < n; ++c) {
        po[c] = v[c] - vi;
      }
    }
  });
}

void BroadcastRow(long n, const double* v, Matrix* out) {
  MZ_CHECK_MSG(out->cols() == n, "BroadcastRow output must have n columns");
  DispatchRows(out->rows(), n, [&](long r0, long r1) {
    for (long r = r0; r < r1; ++r) {
      std::memcpy(out->row(r), v, static_cast<std::size_t>(n) * sizeof(double));
    }
  });
}

void SetDiagonal(Matrix* m, double c) {
  long base_r = m->row_offset();
  long base_c = m->col_offset();
  for (long r = 0; r < m->rows(); ++r) {
    long global_r = base_r + r;
    long local_c = global_r - base_c;
    if (local_c >= 0 && local_c < m->cols()) {
      m->at(r, local_c) = c;
    }
  }
}

void Gemv(const Matrix* m, const double* v, double* out) {
  long cols = m->cols();
  DispatchRows(m->rows(), cols, [&](long r0, long r1) {
    for (long r = r0; r < r1; ++r) {
      const double* __restrict p = m->row(r);
      double acc = 0;
      for (long c = 0; c < cols; ++c) {
        acc += p[c] * v[c];
      }
      out[r] = acc;
    }
  });
}

void RollRows(const Matrix* a, long shift, Matrix* out) {
  CheckSameShape(a, nullptr, out);
  MZ_CHECK_MSG(a->data() != out->data(), "RollRows cannot run in place");
  long rows = a->rows();
  long cols = a->cols();
  for (long r = 0; r < rows; ++r) {
    long src = ((r - shift) % rows + rows) % rows;
    std::memcpy(out->row(r), a->row(src), static_cast<std::size_t>(cols) * sizeof(double));
  }
}

void RollCols(const Matrix* a, long shift, Matrix* out) {
  CheckSameShape(a, nullptr, out);
  MZ_CHECK_MSG(a->data() != out->data(), "RollCols cannot run in place");
  long rows = a->rows();
  long cols = a->cols();
  for (long r = 0; r < rows; ++r) {
    const double* pa = a->row(r);
    double* po = out->row(r);
    for (long c = 0; c < cols; ++c) {
      long src = ((c - shift) % cols + cols) % cols;
      po[c] = pa[src];
    }
  }
}

void CopyMatrix(const Matrix* a, Matrix* out) {
  Map(out, [](double x) { return x; }, a);
}

double SumAll(const Matrix* m) {
  double acc = 0;
  for (long r = 0; r < m->rows(); ++r) {
    const double* p = m->row(r);
    for (long c = 0; c < m->cols(); ++c) {
      acc += p[c];
    }
  }
  return acc;
}

double MaxAbs(const Matrix* m) {
  double acc = 0;
  for (long r = 0; r < m->rows(); ++r) {
    const double* p = m->row(r);
    for (long c = 0; c < m->cols(); ++c) {
      double v = std::fabs(p[c]);
      acc = v > acc ? v : acc;
    }
  }
  return acc;
}

}  // namespace matrix
