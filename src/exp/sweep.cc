#include "src/exp/sweep.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
// Thread-count *reporting* only; all dispatch goes through ParallelForRanges.
#include <thread>  // omega-lint: allow(det-parallel-reduce)

#include "src/common/json.h"
#include "src/exp/env_knob.h"
#include "src/exp/experiment.h"

namespace omega {

using json::AppendNumber;
using json::AppendString;

std::string SanitizeProvenance(std::string_view value) {
  if (value.empty()) {
    return "unknown";
  }
  for (const char c : value) {
    // Reject whitespace and control characters: a git error message ("fatal:
    // not a git repository") or stray newline is not a sha or build type.
    if (static_cast<unsigned char>(c) <= ' ' ||
        static_cast<unsigned char>(c) >= 0x7f) {
      return "unknown";
    }
  }
  return std::string(value);
}

double SweepReport::TrialSecondsTotal() const {
  double total = 0.0;
  for (double s : trial_wall_seconds) {
    total += s;
  }
  return total;
}

double SweepReport::SpeedupVsSerial() const {
  if (wall_seconds <= 0.0) {
    return 0.0;
  }
  return TrialSecondsTotal() / wall_seconds;
}

void SweepReport::AddMetric(const std::string& key, double value) {
  metrics.emplace_back(key, value);
}

std::string SweepReport::ToJson() const {
  std::ostringstream os;
  os << "{\n  \"figure\": ";
  AppendString(os, name);
  os << ",\n  \"git_sha\": ";
  AppendString(os, git_sha);
  os << ",\n  \"build_type\": ";
  AppendString(os, build_type);
  os << ",\n  \"base_seed\": " << base_seed;
  os << ",\n  \"threads\": " << threads;
  os << ",\n  \"trials\": " << trials;
  os << ",\n  \"wall_seconds\": ";
  AppendNumber(os, wall_seconds);
  os << ",\n  \"trial_seconds_total\": ";
  AppendNumber(os, TrialSecondsTotal());
  os << ",\n  \"speedup_vs_serial\": ";
  AppendNumber(os, SpeedupVsSerial());
  os << ",\n  \"trial_wall_seconds\": [";
  for (size_t i = 0; i < trial_wall_seconds.size(); ++i) {
    if (i > 0) {
      os << ", ";
    }
    AppendNumber(os, trial_wall_seconds[i]);
  }
  os << "]";
  if (!trial_labels.empty()) {
    os << ",\n  \"trial_labels\": [";
    for (size_t i = 0; i < trial_labels.size(); ++i) {
      if (i > 0) {
        os << ", ";
      }
      AppendString(os, trial_labels[i]);
    }
    os << "]";
  }
  os << ",\n  \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) {
      os << ", ";
    }
    os << "\n    ";
    AppendString(os, metrics[i].first);
    os << ": ";
    AppendNumber(os, metrics[i].second);
  }
  if (!metrics.empty()) {
    os << "\n  ";
  }
  os << "}\n}\n";
  return os.str();
}

std::string SweepReport::WriteJson() const {
  std::string dir = ".";
  if (const char* env = std::getenv("OMEGA_BENCH_JSON_DIR");
      env != nullptr && env[0] != '\0') {
    dir = env;
  }
  const std::string path = dir + "/BENCH_" + name + ".json";
  std::ofstream out(path);
  if (!out) {
    return std::string();
  }
  out << ToJson();
  return path;
}

SweepRunner::SweepRunner(std::string name, uint64_t base_seed,
                         size_t max_threads)
    : max_threads_(max_threads == 0 ? BenchThreads() : max_threads) {
  report_.name = std::move(name);
  report_.base_seed = base_seed;
#ifdef OMEGA_GIT_SHA
  report_.git_sha = SanitizeProvenance(OMEGA_GIT_SHA);
#endif
#ifdef OMEGA_BUILD_TYPE
  report_.build_type = SanitizeProvenance(OMEGA_BUILD_TYPE);
#endif
  // The env override is deliberate operator input (tarball builds stamping a
  // known sha), so it is taken verbatim when non-empty.
  if (const char* env = std::getenv("OMEGA_GIT_SHA");
      env != nullptr && env[0] != '\0') {
    report_.git_sha = env;
  }
  if (const std::optional<uint64_t> seed = EnvKnob<uint64_t>(
          "OMEGA_BENCH_SEED", 0, std::numeric_limits<uint64_t>::max())) {
    report_.base_seed = *seed;
  }
}

void SweepRunner::Begin(size_t num_trials) {
  report_.trials = num_trials;
  report_.trial_wall_seconds.assign(num_trials, 0.0);
  report_.trial_labels.clear();  // the bench re-labels each grid after Run
  report_.wall_seconds = 0.0;
  size_t threads = max_threads_;
  if (threads == 0) {
    // omega-lint: allow(det-parallel-reduce) — reporting, not dispatch
    threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  report_.threads = std::min(threads, std::max<size_t>(1, num_trials));
}

RunningStats MergeTrialStats(const std::vector<RunningStats>& per_trial) {
  RunningStats merged;
  for (const RunningStats& s : per_trial) {
    merged.Merge(s);
  }
  return merged;
}

Cdf MergeTrialCdfs(const std::vector<Cdf>& per_trial) {
  Cdf merged;
  for (const Cdf& c : per_trial) {
    merged.Merge(c);
  }
  return merged;
}

}  // namespace omega
