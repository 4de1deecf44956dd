// Lane drivers: vecmath's (and matrix's) transcendental maps on glibc's
// vector math library, libmvec (glibc >= 2.35, x86-64).
//
// Internal to the libraries; applications call vecmath.h / matrix.h.
//
// libmvec exports each function at fixed vector widths under the x86-64
// vector-function ABI: `_ZGVbN2v_erf` takes two doubles in an SSE2
// register, `_ZGVdN4v_erf` four in an AVX2 register (`vv` for two
// arguments). Every element of a call goes through the same vector
// routine — the tail is copied into a lane buffer padded with 1.0 — so an
// element's result depends only on its input and the width, never on where
// the call, a Mozart piece or an internal-thread chunk starts. The width is
// chosen once per process (`Detected()`); the drivers take it as an
// argument so both widths can be exercised on one machine.
//
// Accuracy: libmvec's documented bound is 4 ulp. Against glibc's scalar
// libm it measured at most 3 ulp on the ranges tests/vecmath uses (4 for
// sin and cos on ±1e6 at the SSE2 width). Sqrt uses the correctly rounded
// `sqrtpd`/`vsqrtpd` and is bit-identical to std::sqrt.
#ifndef MOZART_VECMATH_LANES_H_
#define MOZART_VECMATH_LANES_H_

#include <immintrin.h>

namespace vecmath::lanes {

enum class Width { kSse2 = 2, kAvx2 = 4 };

// The widest width this CPU runs: AVX2 when supported, else the x86-64
// SSE2 baseline. Resolved on first use.
inline Width Detected() {
  static const Width width = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? Width::kAvx2 : Width::kSse2;
  }();
  return width;
}

// Compiles a function for AVX2; call it only when Detected() is kAvx2.
#define MZ_AVX2 __attribute__((target("avx2")))

// An op is a struct whose Apply overloads run one register of lanes. They
// take registers by reference: by value, a 32-byte vector changes ABI in
// code compiled without AVX, which is what the shared loops below are.
#define MZ_LANES_UNARY(Name, fn)                                                      \
  extern "C" __m128d _ZGVbN2v_##fn(__m128d);                                          \
  extern "C" MZ_AVX2 __m256d _ZGVdN4v_##fn(__m256d);                                  \
  struct Name {                                                                       \
    static void Apply(const __m128d& x, __m128d& r) { r = _ZGVbN2v_##fn(x); }         \
    MZ_AVX2 static void Apply(const __m256d& x, __m256d& r) { r = _ZGVdN4v_##fn(x); } \
  };
#define MZ_LANES_BINARY(Name, fn)                                             \
  extern "C" __m128d _ZGVbN2vv_##fn(__m128d, __m128d);                        \
  extern "C" MZ_AVX2 __m256d _ZGVdN4vv_##fn(__m256d, __m256d);                \
  struct Name {                                                               \
    static void Apply(const __m128d& x, const __m128d& y, __m128d& r) {       \
      r = _ZGVbN2vv_##fn(x, y);                                               \
    }                                                                         \
    MZ_AVX2 static void Apply(const __m256d& x, const __m256d& y, __m256d& r) { \
      r = _ZGVdN4vv_##fn(x, y);                                               \
    }                                                                         \
  };

MZ_LANES_UNARY(Exp, exp)
MZ_LANES_UNARY(Log, log)
MZ_LANES_UNARY(Log1p, log1p)
MZ_LANES_UNARY(Erf, erf)
MZ_LANES_UNARY(Sin, sin)
MZ_LANES_UNARY(Cos, cos)
MZ_LANES_UNARY(Tan, tan)
MZ_LANES_UNARY(Asin, asin)
MZ_LANES_UNARY(Acos, acos)
MZ_LANES_UNARY(Atan, atan)
MZ_LANES_BINARY(Pow, pow)
MZ_LANES_BINARY(Atan2, atan2)
MZ_LANES_BINARY(Hypot, hypot)

#undef MZ_LANES_UNARY
#undef MZ_LANES_BINARY

struct Sqrt {
  static void Apply(const __m128d& x, __m128d& r) { r = _mm_sqrt_pd(x); }
  MZ_AVX2 static void Apply(const __m256d& x, __m256d& r) { r = _mm256_sqrt_pd(x); }
};

namespace internal {

// Loops written once over the register type V; they are only ever inlined
// into the per-width entry points below, which carry the target ISA.
template <typename V>
inline constexpr long kLanes = static_cast<long>(sizeof(V) / sizeof(double));

// The tail of a call, lanes [i, n) with n - i < kLanes, goes through the
// same routine as the rest: it is copied into a lane buffer padded with 1.0.
template <typename V>
[[gnu::always_inline]] inline void LoadTail(const double* a, long i, long n, V& v) {
  alignas(V) double lane[kLanes<V>];
  for (long k = 0; k < kLanes<V>; ++k) {
    lane[k] = i + k < n ? a[i + k] : 1.0;
  }
  __builtin_memcpy(&v, lane, sizeof v);
}

template <typename V>
[[gnu::always_inline]] inline void StoreTail(const V& v, long i, long n, double* out) {
  alignas(V) double lane[kLanes<V>];
  __builtin_memcpy(lane, &v, sizeof v);
  for (long k = 0; i + k < n; ++k) {
    out[i + k] = lane[k];
  }
}

// Each register's inputs are loaded before its outputs are stored, so
// `out` may alias an input exactly (the MKL in-place convention).
template <typename Op, typename V>
[[gnu::always_inline]] inline void UnaryLoop(long n, const double* a, double* out) {
  V x{}, r{};
  long i = 0;
  for (; i + kLanes<V> <= n; i += kLanes<V>) {
    __builtin_memcpy(&x, a + i, sizeof x);
    Op::Apply(x, r);
    __builtin_memcpy(out + i, &r, sizeof r);
  }
  if (i < n) {
    LoadTail(a, i, n, x);
    Op::Apply(x, r);
    StoreTail(r, i, n, out);
  }
}

template <typename Op, typename V>
[[gnu::always_inline]] inline void BinaryLoop(long n, const double* a, const double* b,
                                              double* out) {
  V x{}, y{}, r{};
  long i = 0;
  for (; i + kLanes<V> <= n; i += kLanes<V>) {
    __builtin_memcpy(&x, a + i, sizeof x);
    __builtin_memcpy(&y, b + i, sizeof y);
    Op::Apply(x, y, r);
    __builtin_memcpy(out + i, &r, sizeof r);
  }
  if (i < n) {
    LoadTail(a, i, n, x);
    LoadTail(b, i, n, y);
    Op::Apply(x, y, r);
    StoreTail(r, i, n, out);
  }
}

template <typename Op, typename V>
[[gnu::always_inline]] inline void ScalarLoop(long n, const double* a, double c, double* out) {
  alignas(V) double lane[kLanes<V>];
  for (long k = 0; k < kLanes<V>; ++k) {
    lane[k] = c;
  }
  V x{}, y{}, r{};
  __builtin_memcpy(&y, lane, sizeof y);
  long i = 0;
  for (; i + kLanes<V> <= n; i += kLanes<V>) {
    __builtin_memcpy(&x, a + i, sizeof x);
    Op::Apply(x, y, r);
    __builtin_memcpy(out + i, &r, sizeof r);
  }
  if (i < n) {
    LoadTail(a, i, n, x);
    Op::Apply(x, y, r);
    StoreTail(r, i, n, out);
  }
}

template <typename Op>
void Unary2(long n, const double* a, double* out) {
  UnaryLoop<Op, __m128d>(n, a, out);
}
template <typename Op>
MZ_AVX2 void Unary4(long n, const double* a, double* out) {
  UnaryLoop<Op, __m256d>(n, a, out);
}
template <typename Op>
void Binary2(long n, const double* a, const double* b, double* out) {
  BinaryLoop<Op, __m128d>(n, a, b, out);
}
template <typename Op>
MZ_AVX2 void Binary4(long n, const double* a, const double* b, double* out) {
  BinaryLoop<Op, __m256d>(n, a, b, out);
}
template <typename Op>
void Scalar2(long n, const double* a, double c, double* out) {
  ScalarLoop<Op, __m128d>(n, a, c, out);
}
template <typename Op>
MZ_AVX2 void Scalar4(long n, const double* a, double c, double* out) {
  ScalarLoop<Op, __m256d>(n, a, c, out);
}

}  // namespace internal

// out[i] = Op(a[i])
template <typename Op>
void Map(Width w, long n, const double* a, double* out) {
  w == Width::kAvx2 ? internal::Unary4<Op>(n, a, out) : internal::Unary2<Op>(n, a, out);
}

// out[i] = Op(a[i], b[i])
template <typename Op>
void Map(Width w, long n, const double* a, const double* b, double* out) {
  w == Width::kAvx2 ? internal::Binary4<Op>(n, a, b, out)
                    : internal::Binary2<Op>(n, a, b, out);
}

// out[i] = Op(a[i], c)
template <typename Op>
void Map(Width w, long n, const double* a, double c, double* out) {
  w == Width::kAvx2 ? internal::Scalar4<Op>(n, a, c, out)
                    : internal::Scalar2<Op>(n, a, c, out);
}

}  // namespace vecmath::lanes

#endif  // MOZART_VECMATH_LANES_H_
