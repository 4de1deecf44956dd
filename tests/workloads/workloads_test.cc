// Integration tests: every Table-2 workload must produce the same result in
// base (raw library), Mozart (split + pipelined + parallelized), and fused
// (compiler stand-in) modes, across thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/runtime.h"
#include "vecmath/vecmath.h"
#include "workloads/analytics.h"
#include "workloads/numerical.h"

namespace {

mz::Runtime* NewRuntime(int threads) {
  mz::RuntimeOptions opts;
  opts.num_threads = threads;
  opts.pedantic = true;
  return new mz::Runtime(opts);
}

bool BitEqual(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() && std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

// Relative comparison: pipelined/fused execution reassociates floating point.
void ExpectClose(double a, double b, double rel = 1e-9) {
  EXPECT_NEAR(a, b, std::abs(b) * rel + 1e-9) << "a=" << a << " b=" << b;
}

class WorkloadThreads : public ::testing::TestWithParam<int> {};

TEST_P(WorkloadThreads, BlackScholesModesAgree) {
  workloads::BlackScholes w(100000, 1);
  w.RunBase();
  double base = w.Checksum();
  std::unique_ptr<mz::Runtime> rt(NewRuntime(GetParam()));
  w.RunMozart(rt.get());
  ExpectClose(w.Checksum(), base);
  w.RunFused(GetParam());
  ExpectClose(w.Checksum(), base);
}

TEST_P(WorkloadThreads, HaversineModesAgree) {
  workloads::Haversine w(100000, 2);
  w.RunBase();
  double base = w.Checksum();
  std::unique_ptr<mz::Runtime> rt(NewRuntime(GetParam()));
  w.RunMozart(rt.get());
  ExpectClose(w.Checksum(), base);
  w.RunFused(GetParam());
  ExpectClose(w.Checksum(), base);
}

TEST_P(WorkloadThreads, NBodyModesAgree) {
  workloads::NBody w(256, 3, 3);
  w.RunBase();
  double base = w.Checksum();
  std::unique_ptr<mz::Runtime> rt(NewRuntime(GetParam()));
  w.RunMozart(rt.get());
  ExpectClose(w.Checksum(), base, 1e-7);
  w.RunFused(GetParam());
  ExpectClose(w.Checksum(), base, 1e-7);
}

TEST_P(WorkloadThreads, ShallowWaterModesAgree) {
  workloads::ShallowWater w(128, 4, 4);
  w.RunBase();
  double base = w.Checksum();
  std::unique_ptr<mz::Runtime> rt(NewRuntime(GetParam()));
  w.RunMozart(rt.get());
  ExpectClose(w.Checksum(), base);
  w.RunFused(GetParam());
  ExpectClose(w.Checksum(), base);
}

TEST_P(WorkloadThreads, DataCleaningModesAgree) {
  workloads::DataCleaning w(50000, 5);
  w.RunBase();
  double base = w.Checksum();
  std::unique_ptr<mz::Runtime> rt(NewRuntime(GetParam()));
  w.RunMozart(rt.get());
  ExpectClose(w.Checksum(), base);
  w.RunFused(GetParam());
  ExpectClose(w.Checksum(), base);
}

TEST_P(WorkloadThreads, CrimeIndexModesAgree) {
  workloads::CrimeIndex w(50000, 6);
  w.RunBase();
  double base = w.Checksum();
  std::unique_ptr<mz::Runtime> rt(NewRuntime(GetParam()));
  w.RunMozart(rt.get());
  ExpectClose(w.Checksum(), base);
  w.RunFused(GetParam());
  ExpectClose(w.Checksum(), base);
}

TEST_P(WorkloadThreads, BirthAnalysisModesAgree) {
  workloads::BirthAnalysis w(50000, 7);
  w.RunBase();
  double base = w.Checksum();
  std::unique_ptr<mz::Runtime> rt(NewRuntime(GetParam()));
  w.RunMozart(rt.get());
  ExpectClose(w.Checksum(), base);
  w.RunFused(GetParam());
  ExpectClose(w.Checksum(), base);
}

TEST_P(WorkloadThreads, MovieLensModesAgree) {
  workloads::MovieLens w(50000, 8);
  w.RunBase();
  double base = w.Checksum();
  std::unique_ptr<mz::Runtime> rt(NewRuntime(GetParam()));
  w.RunMozart(rt.get());
  ExpectClose(w.Checksum(), base, 1e-7);
  w.RunFused(GetParam());
  ExpectClose(w.Checksum(), base, 1e-7);
}

TEST_P(WorkloadThreads, SpeechTagModesAgree) {
  workloads::SpeechTag w(800, 40, 9);
  w.RunBase();
  double base = w.Checksum();
  std::unique_ptr<mz::Runtime> rt(NewRuntime(GetParam()));
  w.RunMozart(rt.get());
  EXPECT_DOUBLE_EQ(w.Checksum(), base);  // integer counts: exact
}

TEST_P(WorkloadThreads, NashvilleModesAgree) {
  workloads::ImageFilter w(workloads::ImageFilter::Filter::kNashville, 320, 240, 10);
  w.RunBase();
  double base = w.Checksum();
  std::unique_ptr<mz::Runtime> rt(NewRuntime(GetParam()));
  w.RunMozart(rt.get());
  EXPECT_DOUBLE_EQ(w.Checksum(), base);  // uint8 pixels: exact
  w.RunFused(GetParam());
  EXPECT_DOUBLE_EQ(w.Checksum(), base);  // LUT composition is exact
}

TEST_P(WorkloadThreads, GothamModesAgree) {
  workloads::ImageFilter w(workloads::ImageFilter::Filter::kGotham, 320, 240, 11);
  w.RunBase();
  double base = w.Checksum();
  std::unique_ptr<mz::Runtime> rt(NewRuntime(GetParam()));
  w.RunMozart(rt.get());
  EXPECT_DOUBLE_EQ(w.Checksum(), base);
  w.RunFused(GetParam());
  EXPECT_DOUBLE_EQ(w.Checksum(), base);
}

INSTANTIATE_TEST_SUITE_P(Threads, WorkloadThreads, ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return "t" + std::to_string(param_info.param);
                         });

// Mozart over the already-parallel library ("MKL mode") must also agree.
TEST(WorkloadModes, ParallelLibraryUnderMozart) {
  vecmath::SetNumThreads(2);
  workloads::BlackScholes w(200000, 12);
  w.RunBase();
  double base = w.Checksum();
  std::unique_ptr<mz::Runtime> rt(NewRuntime(2));
  w.RunMozart(rt.get());
  EXPECT_NEAR(w.Checksum(), base, std::abs(base) * 1e-9);
  vecmath::SetNumThreads(0);
}

// The pipelining ablation (Table 4's Mozart(-pipe)) must stay correct.
TEST(WorkloadModes, NoPipelineAblationCorrect) {
  workloads::Haversine w(80000, 13);
  w.RunBase();
  double base = w.Checksum();
  mz::RuntimeOptions opts;
  opts.num_threads = 2;
  opts.pipeline = false;
  mz::Runtime rt(opts);
  w.RunMozart(&rt);
  EXPECT_NEAR(w.Checksum(), base, std::abs(base) * 1e-9);
  EXPECT_EQ(rt.stats().Take().stages, workloads::Haversine::NumOperators());
}

// The paper's contract, exactly: annotated output equals the unannotated
// library's bit for bit. Pieces of 1001 and 4099 elements start inside a
// vector register of the libmvec lanes, so this holds only because an
// element's result does not depend on where its call starts.
class PieceOffsets : public ::testing::TestWithParam<std::int64_t> {
 protected:
  mz::Runtime* NewOverrideRuntime() const {
    mz::RuntimeOptions opts;
    opts.num_threads = 2;
    opts.pedantic = true;
    opts.batch_elems_override = GetParam();
    return new mz::Runtime(opts);
  }
};

TEST_P(PieceOffsets, BlackScholesBitIdentical) {
  workloads::BlackScholes w(30011, 41);
  w.RunBase();
  const std::vector<double> base = w.Outputs();
  std::unique_ptr<mz::Runtime> rt(NewOverrideRuntime());
  w.RunMozart(rt.get());
  EXPECT_TRUE(BitEqual(w.Outputs(), base));
}

TEST_P(PieceOffsets, HaversineBitIdentical) {
  workloads::Haversine w(30011, 42);
  w.RunBase();
  const std::vector<double> base = w.Outputs();
  std::unique_ptr<mz::Runtime> rt(NewOverrideRuntime());
  w.RunMozart(rt.get());
  EXPECT_TRUE(BitEqual(w.Outputs(), base));
}

INSTANTIATE_TEST_SUITE_P(Batch, PieceOffsets, ::testing::Values(1001, 4099),
                         [](const ::testing::TestParamInfo<std::int64_t>& param_info) {
                           return "b" + std::to_string(param_info.param);
                         });

// One nBody step in row bands of 3 and 7 rows (the last band is shorter):
// the matrix Pow lanes and the vecmath Axpy maps see odd piece sizes.
TEST(WorkloadModes, NBodyStepBitIdenticalOverOddRowSplits) {
  for (std::int64_t rows : {3, 7}) {
    workloads::NBody w(256, 1, 43);
    w.RunBase();
    const std::vector<double> base = w.Outputs();
    mz::RuntimeOptions opts;
    opts.num_threads = 2;
    opts.pedantic = true;
    opts.batch_elems_override = rows;
    mz::Runtime rt(opts);
    w.RunMozart(&rt);
    EXPECT_TRUE(BitEqual(w.Outputs(), base)) << rows << "-row bands";
  }
}

}  // namespace
