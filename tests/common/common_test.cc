// Tests for the common utility layer: error channels, logging levels, RNG
// determinism, timers, and CPU topology discovery. The interner, thread
// pool, and aligned buffers have dedicated suites (interner_test.cc,
// thread_pool_test.cc, aligned_test.cc).
#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <cctype>
#include <set>
#include <thread>

#include "common/check.h"
#include "common/cpu.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/timer.h"

namespace {

TEST(CheckTest, ThrowCarriesStreamedMessage) {
  try {
    MZ_THROW("bad axis " << 3 << " of " << 2);
    FAIL() << "MZ_THROW did not throw";
  } catch (const mz::Error& e) {
    EXPECT_STREQ(e.what(), "bad axis 3 of 2");
  }
}

TEST(CheckTest, ThrowIfOnlyFiresWhenTrue) {
  EXPECT_NO_THROW(MZ_THROW_IF(false, "never"));
  EXPECT_THROW(MZ_THROW_IF(1 + 1 == 2, "always"), mz::Error);
}

TEST(CheckTest, ErrorIsARuntimeError) {
  // Callers catch std::runtime_error at API boundaries; mz::Error must stay
  // part of that hierarchy.
  EXPECT_THROW(MZ_THROW("boom"), std::runtime_error);
}

TEST(LoggingTest, SetLogLevelOverridesAndReadsBack) {
  mz::LogLevel original = mz::GetLogLevel();
  mz::SetLogLevel(mz::LogLevel::kDebug);
  EXPECT_EQ(mz::GetLogLevel(), mz::LogLevel::kDebug);
  mz::SetLogLevel(mz::LogLevel::kOff);
  EXPECT_EQ(mz::GetLogLevel(), mz::LogLevel::kOff);
  // MZ_LOG below the current level must not even evaluate its operands.
  bool evaluated = false;
  auto touch = [&evaluated] {
    evaluated = true;
    return "msg";
  };
  MZ_LOG(Trace) << touch();
  EXPECT_FALSE(evaluated);
  mz::SetLogLevel(original);
}

TEST(TimerTest, NowNanosIsMonotonic) {
  std::int64_t a = mz::NowNanos();
  std::int64_t b = mz::NowNanos();
  EXPECT_GE(b, a);
}

TEST(TimerTest, WallTimerMeasuresSleepAndResets) {
  mz::WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GE(timer.ElapsedNanos(), 2'000'000);
  EXPECT_GT(timer.ElapsedSeconds(), 0.0);
  timer.Reset();
  EXPECT_LT(timer.ElapsedSeconds(), 1.0);
}

TEST(TimerTest, ScopedAccumTimerAddsFromConcurrentScopes) {
  std::atomic<std::int64_t> sink{0};
  {
    mz::ScopedAccumTimer t1(&sink);
    mz::ScopedAccumTimer t2(&sink);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(sink.load(), 2 * 1'000'000);
  { mz::ScopedAccumTimer null_sink(nullptr); }  // must be safe
}

TEST(RngTest, DeterministicAcrossInstances) {
  mz::Rng a(123);
  mz::Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DoublesInRange) {
  mz::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble(2.0, 5.0);
    EXPECT_GE(d, 2.0);
    EXPECT_LT(d, 5.0);
  }
}

TEST(RngTest, BoundedCoversRange) {
  mz::Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 300; ++i) {
    seen.insert(rng.NextBounded(7));
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NextIntStaysInClosedRange) {
  mz::Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    std::int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NextWordIsLowerCaseAscii) {
  mz::Rng rng(13);
  std::string word = rng.NextWord(32);
  ASSERT_EQ(word.size(), 32u);
  for (char c : word) {
    EXPECT_TRUE(std::islower(static_cast<unsigned char>(c))) << c;
  }
}

TEST(RngTest, NextBoolExtremes) {
  mz::Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(CpuTest, SaneTopology) {
  EXPECT_GE(mz::NumLogicalCpus(), 1);
  EXPECT_GE(mz::L2CacheBytes(), 64u * 1024);
  EXPECT_GE(mz::LlcBytes(), mz::L2CacheBytes());
  EXPECT_GE(mz::CacheLineBytes(), 16u);
}

#ifdef __linux__
TEST(CpuTest, LogicalCpusHonorsAffinityMask) {
  // taskset/cpusets narrow the usable CPUs below the online count; pools
  // sized from NumLogicalCpus() must follow the mask.
  cpu_set_t mask;
  CPU_ZERO(&mask);
  ASSERT_EQ(::sched_getaffinity(0, sizeof(mask), &mask), 0);
  EXPECT_EQ(mz::NumLogicalCpus(), CPU_COUNT(&mask));
}
#endif

}  // namespace
