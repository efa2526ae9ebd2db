// perfbench: host cost of the Omega reproduction's workloads.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--git-sha <sha>] [--src-digest <hex>]
//
// Runs whole trials of one workload, single-threaded, until the next trial
// would overrun --seconds (at least one). --trace 0 reports the end-to-end
// metrics from untraced trials; --trace 1 alternates untraced and traced
// trials and reports the per-layer metrics plus the tracing overhead, and
// writes the spans as a Chrome trace into --out-dir. The last line of stdout
// is one JSON object: {"correct", "attempted", "failed", "metrics"}. Exits 1
// if any trial failed its outcome checks, 2 on bad usage.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "probe.h"
#include "spans.h"
#include "src/federation/federation.h"
#include "src/scheduler/config.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>] [--git-sha <sha>] "
               "[--src-digest <hex>]\nworkloads:";
  for (const WorkloadInfo& w : Workloads()) {
    std::cerr << " " << w.name;
  }
  std::cerr << "\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || v[0] == '-') Usage("bad --seed " + v);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0.0)) Usage("bad --seconds " + v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("bad --trace " + v);
      a.trace = v == "1";
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else if (flag == "--git-sha") {
      a.git_sha = v;
    } else if (flag == "--src-digest") {
      a.src_digest = v;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (FindWorkload(a.workload) == nullptr) {
    Usage("unknown or missing --workload '" + a.workload + "'");
  }
  return a;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string HexU64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// CPU model and clock from /proc/cpuinfo (first processor).
std::pair<std::string, std::string> CpuModelAndMhz() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  std::string model = "unknown";
  std::string mhz = "unknown";
  const auto value = [](const std::string& l) {
    const size_t colon = l.find(':');
    return colon == std::string::npos ? std::string() : l.substr(colon + 2);
  };
  while (std::getline(in, line)) {
    if (model == "unknown" && line.rfind("model name", 0) == 0) {
      model = value(line);
    } else if (mhz == "unknown" && line.rfind("cpu MHz", 0) == 0) {
      mhz = value(line);
    }
  }
  return {model, mhz};
}

std::string Provenance(const Args& a) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
  const auto [model, mhz] = CpuModelAndMhz();
  const omega::SimOptions sim_defaults;
  const omega::FederationOptions fed_defaults;
  std::ostringstream os;
  os << "{\"workload\": " << JsonString(a.workload) << ", \"seed\": " << a.seed
     << ", \"trace\": " << (a.trace ? 1 : 0)
     << ", \"git_sha\": " << JsonString(a.git_sha)
     << ", \"src_digest\": " << JsonString(a.src_digest)
     << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
     << ", \"cxx_flags\": " << JsonString(PERFBENCH_CXX_FLAGS)
     << ", \"compiler\": " << JsonString(PERFBENCH_COMPILER)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"affinity_cpus\": " << affinity
     << ", \"cpu_model\": " << JsonString(model)
     << ", \"cpu_mhz\": " << JsonString(mhz)
     << ", \"benchmark_threads\": 1"
     << ", \"knobs\": {\"intra_trial_threads\": " << sim_defaults.intra_trial_threads
     << ", \"parallel_commit_min_claims\": " << sim_defaults.parallel_commit_min_claims
     << ", \"cohort_batching\": " << (sim_defaults.cohort_batching ? "true" : "false")
     << ", \"soa_cell\": " << (sim_defaults.soa_cell ? "true" : "false")
     << ", \"window_parallelism\": " << fed_defaults.window_parallelism << "}}";
  return os.str();
}

// Cap on set-up-only repetitions after the whole trials of a run.
constexpr int32_t kMaxExtraSetups = 128;

// A trial with the host speed the probe measured over it.
struct Sample {
  TrialResult r;
  double ns_per_step = 0.0;
  // Reference seconds per raw host second.
  double Scale() const {
    return ns_per_step > 0.0 ? HostSpeedProbe::kReferenceNsPerStep / ns_per_step : 1.0;
  }
};

// Runs one trial under the probe. `fallback_ns_per_step` stands in when no
// probe landed inside the trial.
Sample RunProbed(const WorkloadInfo& w, uint64_t seed, const TrialOptions& options,
                 double fallback_ns_per_step) {
  const HostSpeedProbe::Reading before = HostSpeedProbe::Now();
  Sample s{RunTrial(w, seed, options)};
  const double ns = HostSpeedProbe::NsPerStep(before, HostSpeedProbe::Now());
  s.ns_per_step = ns > 0.0 ? ns : fallback_ns_per_step;
  return s;
}

struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
};

// Judges one finished trial against the run's reference fingerprint (the
// first trial's) and, at the default seed, the pinned one.
void Judge(const WorkloadInfo& w, const Args& a, const Sample& sample,
           const char* kind, uint64_t reference, Outcome* out) {
  const TrialResult& r = sample.r;
  ++out->attempted;
  std::vector<std::string> problems = r.check_failures;
  if (r.fingerprint != reference) {
    problems.push_back("fingerprint " + HexU64(r.fingerprint) +
                       " differs from this run's first trial " + HexU64(reference));
  }
  if (a.seed == kDefaultSeed && r.fingerprint != w.pinned_fingerprint) {
    problems.push_back("fingerprint " + HexU64(r.fingerprint) +
                       " differs from the pinned " + HexU64(w.pinned_fingerprint));
  }
  std::printf("trial %lld (%s): setup_s=%.4f run_s=%.4f wall_s=%.4f probe_ns=%.3f jobs=%lld "
              "fingerprint=%s %s\n",
              static_cast<long long>(out->attempted), kind, r.setup_s, r.run_s,
              r.wall_s, sample.ns_per_step, static_cast<long long>(r.front_door_jobs),
              HexU64(r.fingerprint).c_str(), problems.empty() ? "ok" : "FAILED");
  if (!problems.empty()) {
    ++out->failed;
    for (const std::string& p : problems) {
      std::printf("  problem: %s\n", p.c_str());
    }
    const std::filesystem::path path =
        std::filesystem::path(a.out_dir) /
        ("fingerprint-" + a.workload + "-seed" + std::to_string(a.seed) + ".txt");
    std::ofstream(path) << r.fingerprint_text;
    std::printf("  fingerprint text written to %s\n", path.string().c_str());
  }
}

int Main(int argc, char** argv) {
  const Args a = ParseArgs(argc, argv);
  const WorkloadInfo& w = *FindWorkload(a.workload);
  std::filesystem::create_directories(a.out_dir);
  const std::string provenance = Provenance(a);
  std::printf("provenance: %s\n", provenance.c_str());
  std::fflush(stdout);

  SpanRecorder spans;
  TrialOptions plain;
  plain.work_dir = a.out_dir;
  TrialOptions traced = plain;
  traced.traced = true;
  traced.spans = &spans;
  TrialOptions setup_only = plain;
  setup_only.setup_only = true;

  if (!HostSpeedProbe::Start()) {
    std::printf("host speed probe unavailable\n");
    return 1;
  }
  std::vector<Sample> untraced_trials;
  std::vector<Sample> traced_trials;
  std::vector<Sample> extra_setups;
  Outcome outcome;
  uint64_t reference = 0;
  double peak_rss_mib = std::nan("");
  const int64_t start = NowNs();
  const auto elapsed = [&] { return static_cast<double>(NowNs() - start) / 1e9; };
  try {
    // Whole trials (or untraced/traced pairs) until the next would overrun.
    double per_round = 0.0;
    for (int32_t round = 0; round == 0 || elapsed() + per_round <= a.seconds; ++round) {
      const double round_start = elapsed();
      untraced_trials.push_back(RunProbed(w, a.seed, plain, 0.0));
      if (round == 0) {
        reference = untraced_trials.back().r.fingerprint;
        // The first trial's high-water mark: later repetitions only add
        // allocator fragmentation, which varies from run to run.
        peak_rss_mib = PeakRssMiB();
      }
      Judge(w, a, untraced_trials.back(), "untraced", reference, &outcome);
      if (a.trace) {
        spans.SetContext(a.workload, round);
        traced_trials.push_back(RunProbed(w, a.seed, traced, 0.0));
        Judge(w, a, traced_trials.back(), "traced", reference, &outcome);
      }
      per_round = std::max(per_round, elapsed() - round_start);
      std::fflush(stdout);
    }
    // Leftover time buys extra set-ups, so setup_s is a median of several
    // even when only a few whole trials fit. A set-up too short for a probe
    // to land in takes the last trial's speed.
    double per_setup = 0.0;
    for (int32_t i = 0; !a.trace && i < kMaxExtraSetups &&
                        elapsed() + per_setup <= a.seconds;
         ++i) {
      const double setup_start = elapsed();
      extra_setups.push_back(RunProbed(w, a.seed, setup_only,
                                       untraced_trials.back().ns_per_step));
      per_setup = std::max(per_setup, elapsed() - setup_start);
    }
  } catch (const std::exception& e) {
    ++outcome.attempted;
    ++outcome.failed;
    std::printf("trial threw: %s\n", e.what());
  }
  HostSpeedProbe::Stop();

  std::ostringstream metrics;
  const auto add = [&](const MetricInfo& m, double value) {
    metrics << (metrics.tellp() == 0 ? "" : ", ") << JsonString(m.name)
            << ": {\"value\": " << JsonNumber(value)
            << ", \"unit\": " << JsonString(m.unit) << "}";
  };
  const auto median_of = [](const std::vector<Sample>& samples, auto field) {
    std::vector<double> v;
    for (const Sample& s : samples) {
      v.push_back(field(s));
    }
    return v.empty() ? std::nan("") : Median(v);
  };
  const auto scaled_wall = [](const Sample& s) { return s.r.wall_s * s.Scale(); };
  if (!a.trace) {
    std::vector<Sample> setups = extra_setups;
    setups.insert(setups.end(), untraced_trials.begin(), untraced_trials.end());
    const auto jobs_per_s = [](const Sample& s, double scale) {
      return static_cast<double>(s.r.front_door_jobs) / (s.r.run_s * scale);
    };
    for (const MetricInfo& m : EndToEndMetrics()) {
      const std::string name = m.name;
      double value = std::nan("");
      if (name == "setup_s") {
        value = median_of(setups, [](const Sample& s) { return s.r.setup_s * s.Scale(); });
      } else if (name == "jobs_per_s") {
        value = median_of(untraced_trials,
                          [&](const Sample& s) { return jobs_per_s(s, s.Scale()); });
      } else if (name == "wall_s") {
        value = median_of(untraced_trials, scaled_wall);
      } else if (name == "peak_rss_mb") {
        value = peak_rss_mib;
      }
      add(m, value);
    }
    std::printf("unscaled host seconds: setup_s=%.6g jobs_per_s=%.6g wall_s=%.6g; "
                "probe ns/step median %.4g over %zu samples\n",
                median_of(setups, [](const Sample& s) { return s.r.setup_s; }),
                median_of(untraced_trials, [&](const Sample& s) { return jobs_per_s(s, 1.0); }),
                median_of(untraced_trials, [](const Sample& s) { return s.r.wall_s; }),
                median_of(setups, [](const Sample& s) { return s.ns_per_step; }),
                setups.size());
  } else {
    std::printf("per-layer self time over %zu traced trial(s):\n", traced_trials.size());
    for (const auto& [name, ns] : spans.SelfNsByName()) {
      std::printf("  %-24s %10.4f s\n", name.c_str(), static_cast<double>(ns) / 1e9);
    }
    if (!traced_trials.empty()) {
      std::printf("not exercised or not observable on %s (reported as 0):",
                  a.workload.c_str());
      for (const std::string& n : traced_trials.front().r.not_observed) {
        std::printf(" %s", n.c_str());
      }
      std::printf("\n");
    }
    // Both walls scaled to the reference speed, so host drift between the
    // paired trials does not read as tracing cost.
    const double overhead = median_of(traced_trials, scaled_wall) /
                                median_of(untraced_trials, scaled_wall) -
                            1.0;
    for (const MetricInfo& m : PerLayerMetrics()) {
      const std::string name = m.name;
      if (name == "trace.overhead_frac") {
        add(m, overhead);
      } else if (name == "host.probe_ns_per_step") {
        add(m, median_of(traced_trials, [](const Sample& s) { return s.ns_per_step; }));
      } else {
        add(m, median_of(traced_trials, [&](const Sample& s) { return s.r.layer.at(name); }));
      }
    }
    const std::filesystem::path trace_path =
        std::filesystem::path(a.out_dir) /
        ("trace-" + a.workload + "-seed" + std::to_string(a.seed) + ".json");
    std::ofstream out(trace_path);
    spans.ExportChromeTrace(out, provenance);
    std::printf("spans written to %s\n", trace_path.string().c_str());
  }
  const bool correct = outcome.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<long long>(outcome.attempted),
              static_cast<long long>(outcome.failed), metrics.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
