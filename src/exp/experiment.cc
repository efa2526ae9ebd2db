#include "src/exp/experiment.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "src/common/logging.h"
#include "src/exp/env_knob.h"

namespace omega {

std::vector<double> LogSpace(double lo, double hi, int n) {
  OMEGA_CHECK(lo > 0.0 && hi >= lo && n >= 2);
  std::vector<double> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    const double frac = static_cast<double>(i) / (n - 1);
    out.push_back(lo * std::pow(hi / lo, frac));
  }
  return out;
}

std::vector<double> LinSpace(double lo, double hi, int n) {
  OMEGA_CHECK(n >= 2);
  std::vector<double> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    const double frac = static_cast<double>(i) / (n - 1);
    out.push_back(lo + frac * (hi - lo));
  }
  return out;
}

std::string FormatValue(double v) {
  std::ostringstream os;
  os << std::setprecision(4) << v;
  return os.str();
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  OMEGA_CHECK(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::AddNumericRow(const std::vector<double>& cells) {
  std::vector<std::string> row;
  row.reserve(cells.size());
  for (double c : cells) {
    row.push_back(FormatValue(c));
  }
  AddRow(std::move(row));
}

void TablePrinter::Print(std::ostream& os) const {
  std::vector<size_t> widths(headers_.size());
  for (size_t i = 0; i < headers_.size(); ++i) {
    widths[i] = headers_[i].size();
  }
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      os << std::left << std::setw(static_cast<int>(widths[i]) + 2) << row[i];
    }
    os << "\n";
  };
  print_row(headers_);
  size_t total = 0;
  for (size_t w : widths) {
    total += w + 2;
  }
  os << std::string(total, '-') << "\n";
  for (const auto& row : rows_) {
    print_row(row);
  }
}

void PrintCdf(std::ostream& os, const Cdf& cdf, const std::string& label,
              int points, bool log_spaced) {
  os << label << " (n=" << cdf.count() << ")\n";
  if (cdf.empty()) {
    os << "  <no samples>\n";
    return;
  }
  double lo = cdf.MinValue();
  double hi = cdf.MaxValue();
  if (log_spaced) {
    lo = std::max(lo, 1e-6);
    hi = std::max(hi, lo * 1.000001);
  }
  TablePrinter table({"value", "cdf"});
  const std::vector<double> xs =
      log_spaced ? LogSpace(lo, hi, points) : LinSpace(lo, hi, points);
  for (double x : xs) {
    table.AddNumericRow({x, cdf.FractionAtOrBelow(x)});
  }
  table.Print(os);
}

Duration BenchHorizon(double default_days) {
  return Duration::FromDays(
      EnvKnob<double>("OMEGA_BENCH_DAYS", kMinBenchDays, kMaxBenchDays)
          .value_or(default_days));
}

size_t BenchThreads() {
  // 0 (and unset) is the ParallelFor default: hardware concurrency.
  return EnvKnob<uint32_t>("OMEGA_BENCH_THREADS", 0, kMaxKnobThreads)
      .value_or(0);
}

}  // namespace omega
