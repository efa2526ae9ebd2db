// Shared utilities for the figure/table reproduction benches.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/stats.h"

namespace omega {

// n log-spaced values in [lo, hi] inclusive.
std::vector<double> LogSpace(double lo, double hi, int n);

// n linearly spaced values in [lo, hi] inclusive.
std::vector<double> LinSpace(double lo, double hi, int n);

// Column-aligned table printer for bench output.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  // Convenience for numeric rows; formats with %g-style precision.
  void AddNumericRow(const std::vector<double>& cells);

  void Print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Formats a double compactly ("0.42", "1.3e+04").
std::string FormatValue(double v);

// Renders an empirical CDF as rows "x  F(x)" at `points` log-spaced probe
// values of the sample range.
void PrintCdf(std::ostream& os, const Cdf& cdf, const std::string& label,
              int points = 14, bool log_spaced = true);

// Simulation horizon used by the figure benches. The paper simulates 7 days
// (1 day for Mesos); full-length runs are expensive across sweeps, so benches
// default to a shorter window and honor OMEGA_BENCH_DAYS (a number of days in
// [kMinBenchDays, kMaxBenchDays], parsed strictly, src/exp/env_knob.h) to
// reproduce the paper's exact durations.
inline constexpr double kMinBenchDays = 1e-6;
inline constexpr double kMaxBenchDays = 365.0;
Duration BenchHorizon(double default_days);

// Number of worker threads for sweep parallelism (OMEGA_BENCH_THREADS, in
// [0, kMaxKnobThreads]; 0 or unset = hardware concurrency).
size_t BenchThreads();

}  // namespace omega

