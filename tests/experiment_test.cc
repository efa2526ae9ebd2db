#include "src/exp/experiment.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "src/exp/env_knob.h"

namespace omega {
namespace {

TEST(LogSpaceTest, EndpointsAndMonotonicity) {
  const auto v = LogSpace(0.01, 100.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_NEAR(v.front(), 0.01, 1e-12);
  EXPECT_NEAR(v.back(), 100.0, 1e-9);
  EXPECT_NEAR(v[2], 1.0, 1e-9);  // geometric midpoint
  for (size_t i = 1; i < v.size(); ++i) {
    EXPECT_GT(v[i], v[i - 1]);
  }
}

TEST(LinSpaceTest, EvenSpacing) {
  const auto v = LinSpace(0.0, 10.0, 6);
  ASSERT_EQ(v.size(), 6u);
  for (size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(v[i], 2.0 * static_cast<double>(i), 1e-12);
  }
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer_name", "2.5"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer_name"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TablePrinterTest, NumericRows) {
  TablePrinter t({"a", "b"});
  t.AddNumericRow({1.23456789, 1e6});
  std::ostringstream os;
  t.Print(os);
  EXPECT_NE(os.str().find("1.235"), std::string::npos);
}

TEST(TablePrinterDeathTest, WrongArityAborts) {
  TablePrinter t({"a", "b"});
  EXPECT_DEATH(t.AddRow({"only-one"}), "Check failed");
}

TEST(PrintCdfTest, RendersRows) {
  Cdf cdf;
  for (int i = 1; i <= 100; ++i) {
    cdf.Add(i);
  }
  std::ostringstream os;
  PrintCdf(os, cdf, "test-cdf", 6);
  const std::string out = os.str();
  EXPECT_NE(out.find("test-cdf"), std::string::npos);
  EXPECT_NE(out.find("n=100"), std::string::npos);
}

TEST(PrintCdfTest, EmptyCdf) {
  Cdf cdf;
  std::ostringstream os;
  PrintCdf(os, cdf, "empty");
  EXPECT_NE(os.str().find("no samples"), std::string::npos);
}

TEST(BenchHorizonTest, DefaultAndOverride) {
  unsetenv("OMEGA_BENCH_DAYS");
  EXPECT_EQ(BenchHorizon(2.0), Duration::FromDays(2.0));
  setenv("OMEGA_BENCH_DAYS", "0.5", 1);
  EXPECT_EQ(BenchHorizon(2.0), Duration::FromDays(0.5));
  unsetenv("OMEGA_BENCH_DAYS");
}

// The inputs every knob must refuse: a sign, a value past 32 bits, trailing
// junk, no digits, and the non-finite spellings.
constexpr const char* kHostileKnobValues[] = {"-1",  "4294967297", "2x",
                                              "abc", "nan",        "inf"};

TEST(EnvKnobTest, ThreadCountsParseStrictly) {
  for (const char* bad : kHostileKnobValues) {
    EXPECT_FALSE(ParseKnob<uint32_t>(bad, 0, kMaxKnobThreads)) << bad;
  }
  for (const char* bad : {"", " 4", "+4", "4 ", "257", "0x4", "4.0"}) {
    EXPECT_FALSE(ParseKnob<uint32_t>(bad, 0, kMaxKnobThreads)) << bad;
  }
  EXPECT_EQ(ParseKnob<uint32_t>("0", 0, kMaxKnobThreads), 0u);
  EXPECT_EQ(ParseKnob<uint32_t>("4", 0, kMaxKnobThreads), 4u);
  EXPECT_EQ(ParseKnob<uint32_t>("256", 0, kMaxKnobThreads), kMaxKnobThreads);
}

TEST(EnvKnobTest, RealsMustBeFiniteAndInRange) {
  for (const char* bad : kHostileKnobValues) {
    EXPECT_FALSE(ParseKnob<double>(bad, kMinBenchDays, kMaxBenchDays)) << bad;
  }
  for (const char* bad : {"0", "1e400", "-inf", "infinity", "NaN", "1e-7",
                          "366", "0.5d"}) {
    EXPECT_FALSE(ParseKnob<double>(bad, kMinBenchDays, kMaxBenchDays)) << bad;
  }
  EXPECT_EQ(ParseKnob<double>("4", kMinBenchDays, kMaxBenchDays), 4.0);
  EXPECT_EQ(ParseKnob<double>("0.25", kMinBenchDays, kMaxBenchDays), 0.25);
  EXPECT_EQ(ParseKnob<double>("7e-1", kMinBenchDays, kMaxBenchDays), 0.7);
}

TEST(EnvKnobTest, SeedsTakeTheWholeUnsignedRange) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  EXPECT_EQ(ParseKnob<uint64_t>("4294967297", 0, kMax), 4294967297ULL);
  EXPECT_EQ(ParseKnob<uint64_t>("18446744073709551615", 0, kMax), kMax);
  EXPECT_FALSE(ParseKnob<uint64_t>("18446744073709551616", 0, kMax));
  EXPECT_FALSE(ParseKnob<uint64_t>("-1", 0, kMax));
  EXPECT_FALSE(ParseKnob<uint64_t>("2x", 0, kMax));
}

TEST(EnvKnobTest, UnsetOrEmptyMeansDefault) {
  unsetenv("OMEGA_TEST_KNOB");
  EXPECT_FALSE(EnvKnob<uint32_t>("OMEGA_TEST_KNOB", 0, kMaxKnobThreads));
  setenv("OMEGA_TEST_KNOB", "", 1);
  EXPECT_FALSE(EnvKnob<uint32_t>("OMEGA_TEST_KNOB", 0, kMaxKnobThreads));
  setenv("OMEGA_TEST_KNOB", "4", 1);
  EXPECT_EQ(EnvKnob<uint32_t>("OMEGA_TEST_KNOB", 0, kMaxKnobThreads), 4u);
  unsetenv("OMEGA_TEST_KNOB");
}

// A rejected value ends the process with status 2 and names the variable.
// The knob is read before anything uses it, so no worker is ever started.
TEST(EnvKnobDeathTest, RejectedValueExitsTwoNamingTheVariable) {
  setenv("OMEGA_BENCH_THREADS", "-1", 1);
  EXPECT_EXIT(BenchThreads(), ::testing::ExitedWithCode(2),
              "OMEGA_BENCH_THREADS=-1: expected a number in \\[0, 256\\]");
  unsetenv("OMEGA_BENCH_THREADS");
  setenv("OMEGA_BENCH_DAYS", "1e400", 1);
  EXPECT_EXIT(BenchHorizon(1.0), ::testing::ExitedWithCode(2),
              "OMEGA_BENCH_DAYS=1e400: expected");
  unsetenv("OMEGA_BENCH_DAYS");
}

}  // namespace
}  // namespace omega
