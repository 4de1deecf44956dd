// The four numerical workloads of Table 2 (Black Scholes, Haversine, nBody,
// Shallow Water), each in three modes:
//
//   RunBase()   — unmodified library calls (vecmath / matrix). With the
//                 library's internal threading set to 1 this is the "NumPy"
//                 baseline of Fig. 4a–d; with it set to N it is the "MKL"
//                 baseline of Fig. 4j–m.
//   RunMozart() — the same call sequence through the annotated wrappers,
//                 split + pipelined + parallelized by the given runtime.
//   RunFused()  — the hand-fused compiler stand-in (baselines/fused.h).
//
// Every mode computes the same math; Checksum() lets tests and benches
// verify cross-mode agreement, and Outputs() returns every output element
// (for bit-exact comparisons). Operator counts mirror Table 2's per-workload
// API-call counts (32 / 18 / 38 / 32 in the paper; ours are of the same
// order).
#ifndef MOZART_WORKLOADS_NUMERICAL_H_
#define MOZART_WORKLOADS_NUMERICAL_H_

#include <cstdint>
#include <vector>

#include "common/aligned.h"
#include "core/runtime.h"
#include "matrix/matrix.h"

namespace workloads {

class BlackScholes {
 public:
  BlackScholes(long n, std::uint64_t seed);

  void RunBase();
  void RunMozart(mz::Runtime* rt);
  void RunFused(int threads);

  double Checksum() const;
  std::vector<double> Outputs() const;  // call prices, then put prices
  long size() const { return n_; }
  static int NumOperators() { return 30; }

 private:
  template <typename Api>
  void RunWithApi(const Api& api);

  long n_;
  double rate_ = 0.02;
  double vol_ = 0.30;
  mz::AlignedBuffer<double> price_, strike_, tte_;
  mz::AlignedBuffer<double> call_, put_;
  mz::AlignedBuffer<double> d1_, d2_, nd1_, nd2_, disc_, vol_sqrt_, tmp_;
};

class Haversine {
 public:
  Haversine(long n, std::uint64_t seed);

  void RunBase();
  void RunMozart(mz::Runtime* rt);
  void RunFused(int threads);

  double Checksum() const;
  std::vector<double> Outputs() const;  // distances
  long size() const { return n_; }
  static int NumOperators() { return 15; }

 private:
  template <typename Api>
  void RunWithApi(const Api& api);

  long n_;
  double lat0_, lon0_;
  mz::AlignedBuffer<double> lat_, lon_, dist_;
  mz::AlignedBuffer<double> a1_, a2_, coslat_;
};

class NBody {
 public:
  NBody(long bodies, int steps, std::uint64_t seed);

  void RunBase();
  void RunMozart(mz::Runtime* rt);
  void RunFused(int threads);

  double Checksum() const;
  std::vector<double> Outputs() const;  // x, y, z, then vx, vy, vz
  long size() const { return n_; }
  static int NumOperators() { return 22; }  // per step

 private:
  void Reset(std::uint64_t seed);

  long n_;
  int steps_;
  double dt_ = 0.01;
  double softening_ = 0.1;
  std::uint64_t seed_;
  std::vector<double> x_, y_, z_, vx_, vy_, vz_;
  matrix::Matrix dx_, dy_, dz_, t1_, t2_, t3_;
};

class ShallowWater {
 public:
  ShallowWater(long grid, int steps, std::uint64_t seed);

  void RunBase();
  void RunMozart(mz::Runtime* rt);
  void RunFused(int threads);

  double Checksum() const;
  long size() const { return grid_; }
  static int NumOperators() { return 20; }  // per step (8 rolls + 12 elementwise)

 private:
  void Reset(std::uint64_t seed);

  long grid_;
  int steps_;
  double dt_ = 0.001;
  double dx_ = 1.0;
  double g_ = 9.8;
  std::uint64_t seed_;
  matrix::Matrix h_, u_, v_, h2_, u2_, v2_;
  matrix::Matrix ra_, rb_, dudx_, dvdy_, dhdx_, dhdy_, div_;
};

}  // namespace workloads

#endif  // MOZART_WORKLOADS_NUMERICAL_H_
