// One bit-exact golden harness for the smoke benches.
//
// A smoke bench reruns a short, seeded slice of its figure and diffs every
// row against a checked-in golden file. Rows are the bench's own text
// formatting of a trial's metrics, with doubles as hex floats (%a), which
// round-trip exactly; the comparison is string equality, i.e. bitwise.
//
// Every smoke bench shares one command line:
//   <bench>                              full run (bench_smoke has none)
//   <bench> --smoke-write <golden-file>  regenerate the golden
//   <bench> --smoke-check <golden-file>  run and diff; non-zero on mismatch
//
// ctest runs each --smoke-check against its bench/*_golden.txt. Regenerate
// a golden only from the code before a change that must keep it
// bit-identical, never from the change itself.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace omega::golden {

// FNV-1a over the bit patterns of doubles: a checksum of per-machine state
// that shows a changed placement even where the aggregates agree.
constexpr uint64_t kFnvOffset = 1469598103934665603ULL;

inline uint64_t FnvMix(uint64_t h, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return (h ^ bits) * 1099511628211ULL;
}

// Streams every argument into one string (header lines mix text and
// constants, and ostream's default double format is what the goldens hold).
template <typename... Args>
std::string Cat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

// What a bench hands the harness.
struct Smoke {
  std::string name;                 // prefix of every message, e.g. "fig_mega"
  std::vector<std::string> header;  // written as "# <line>" comments
  std::function<std::vector<std::string>()> rows;  // one row per trial
};

// A golden data row and its 1-based line number in the file.
struct GoldenRow {
  int line = 0;
  std::string text;
};

// Reads the data rows of `path`, skipping empty and `#` lines. Returns false
// (with a message on `err`) when the file is unreadable or has no data rows.
inline bool ReadGolden(const Smoke& smoke, const std::string& path,
                       std::vector<GoldenRow>& rows, std::ostream& err) {
  std::ifstream in(path);
  if (!in) {
    err << smoke.name << ": cannot read golden " << path << "\n";
    return false;
  }
  std::string text;
  for (int line = 1; std::getline(in, text); ++line) {
    if (!text.empty() && text[0] != '#') {
      rows.push_back({line, text});
    }
  }
  if (rows.empty()) {
    err << smoke.name << ": golden " << path << " has no data rows\n";
    return false;
  }
  return true;
}

inline std::vector<std::string> RunRows(const Smoke& smoke, std::ostream& out) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::string> rows = smoke.rows();
  out << smoke.name << ": " << rows.size() << " smoke rows in "
      << std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
             .count()
      << " s\n";
  return rows;
}

inline int WriteGolden(const Smoke& smoke, const std::string& path,
                       std::ostream& out, std::ostream& err) {
  const std::vector<std::string> rows = RunRows(smoke, out);
  std::ofstream file(path);
  for (const std::string& line : smoke.header) {
    file << "# " << line << "\n";
  }
  for (const std::string& row : rows) {
    file << row << "\n";
  }
  file.close();
  if (!file) {
    err << smoke.name << ": cannot write " << path << "\n";
    return 1;
  }
  out << smoke.name << ": wrote " << rows.size() << " rows to " << path
      << "\n";
  return 0;
}

// Runs the rows and diffs them against the golden; every mismatch names the
// golden file's line.
inline int CheckGolden(const Smoke& smoke, const std::string& path,
                       std::ostream& out, std::ostream& err) {
  std::vector<GoldenRow> golden;
  if (!ReadGolden(smoke, path, golden, err)) {
    return 1;
  }
  const std::vector<std::string> got = RunRows(smoke, out);
  int mismatches = 0;
  if (got.size() != golden.size()) {
    err << smoke.name << ": row count mismatch: golden " << path << " has "
        << golden.size() << ", run produced " << got.size() << "\n";
    ++mismatches;
  }
  const size_t n = std::min(got.size(), golden.size());
  for (size_t i = 0; i < n; ++i) {
    if (got[i] != golden[i].text) {
      err << path << ":" << golden[i].line << ": " << smoke.name << " row "
          << i << " diverges\n  golden: " << golden[i].text
          << "\n  got:    " << got[i] << "\n";
      ++mismatches;
    }
  }
  if (mismatches != 0) {
    err << smoke.name << ": FAILED (" << mismatches << " mismatch(es))\n";
    return 1;
  }
  out << smoke.name << ": OK (" << n << " rows bit-identical)\n";
  return 0;
}

// The bench's main(): dispatches the smoke flags, else runs `full_run`.
// A bench without a full run (empty `full_run`) needs one of the flags.
inline int SmokeMain(int argc, char** argv, const Smoke& smoke,
                     const std::function<int()>& full_run = {}) {
  if (argc == 3 && std::strcmp(argv[1], "--smoke-write") == 0) {
    return WriteGolden(smoke, argv[2], std::cout, std::cerr);
  }
  if (argc == 3 && std::strcmp(argv[1], "--smoke-check") == 0) {
    return CheckGolden(smoke, argv[2], std::cout, std::cerr);
  }
  if (argc == 1 && full_run) {
    return full_run();
  }
  std::cerr << "usage: " << smoke.name
            << (full_run ? " [--smoke-write|--smoke-check <golden-file>]\n"
                         : " --smoke-write|--smoke-check <golden-file>\n");
  return 2;
}

}  // namespace omega::golden
