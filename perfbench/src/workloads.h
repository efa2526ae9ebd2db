// The benchmark's four workloads, one trial at a time.
//
// A trial is: set up (generate inputs, construct the simulation, initial
// fill), run the event loop to the horizon, extract the results, tear down.
// Every knob that does not define a workload keeps its library default
// (SimOptions, FederationOptions, HifiOptions), so a change of default shows
// up here. Each trial also computes a fingerprint of its simulated outcome,
// checks the cells' invariants and job conservation, and, when traced, the
// per-layer counters of perfbench/BENCHMARK.md.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "spans.h"

namespace perfbench {

// The seed whose outcome fingerprints are pinned (in workloads.cc).
inline constexpr uint64_t kDefaultSeed = 1;

struct WorkloadInfo {
  const char* name;
  // FNV-1a 64 of the outcome fingerprint text at kDefaultSeed.
  uint64_t pinned_fingerprint;
};

const std::vector<WorkloadInfo>& Workloads();
// Null when `name` is not a workload.
const WorkloadInfo* FindWorkload(std::string_view name);

// One metric of the catalogue in perfbench/BENCHMARK.md.
struct MetricInfo {
  const char* name;
  const char* unit;
  const char* better;  // "lower" or "higher"
  const char* layer;   // "end_to_end" or the layer the metric belongs to
};

const std::vector<MetricInfo>& EndToEndMetrics();
const std::vector<MetricInfo>& PerLayerMetrics();

// True if `name` follows the result format: starts with a letter or digit,
// at most 64 of letters, digits, '_', '.', '-'.
bool ValidMetricName(std::string_view name);
// True if `unit` is 1..16 of letters, digits, '_', '/', '%', '.', '-'.
bool ValidUnit(std::string_view unit);

struct TrialOptions {
  // Traced trial: attaches a small-ring TraceRecorder, wraps the placers the
  // benchmark can reach, records spans into `spans` (if non-null), and fills
  // TrialResult::layer.
  bool traced = false;
  SpanRecorder* spans = nullptr;
  // Directory for the hifi trace file (must exist).
  std::string work_dir = ".";
  // Stop after set-up (only the setup phase times are filled in).
  bool setup_only = false;
};

struct TrialResult {
  // Host seconds per phase. setup = gen + trace_io + construct + fill.
  double gen_s = 0.0;
  double trace_io_s = 0.0;
  double construct_s = 0.0;
  double fill_s = 0.0;
  double setup_s = 0.0;
  double run_s = 0.0;
  double extract_s = 0.0;
  double teardown_s = 0.0;
  double wall_s = 0.0;

  // Jobs submitted at the front door (fleet arrivals for the federation).
  int64_t front_door_jobs = 0;
  // Trace jobs carrying placement constraints (hifi-replay only).
  int64_t constrained_jobs = 0;

  std::string fingerprint_text;
  uint64_t fingerprint = 0;
  // Invariant and conservation failures; empty when the trial is sound.
  std::vector<std::string> check_failures;

  // Per-layer metrics (traced trials only), keyed by PerLayerMetrics() name;
  // every name is present, 0 where the layer is not exercised or not
  // observable on this workload. trace.overhead_frac and
  // host.probe_ns_per_step are left 0 for the caller, which measures them.
  std::map<std::string, double> layer;
  // Names in `layer` this workload does not exercise or cannot observe.
  std::vector<std::string> not_observed;
};

// Runs one trial. Throws std::runtime_error on I/O failure.
TrialResult RunTrial(const WorkloadInfo& workload, uint64_t seed,
                     const TrialOptions& options);

// The outcome fingerprint the library's own entry points produce (no
// benchmark wrapping: OmegaSimulation's default placer, MakeHifiSimulation +
// RunTrace), for the wrapped-equals-unwrapped test. Federation and Mesos have
// nothing wrapped and use RunTrial.
uint64_t LibraryFingerprint(const WorkloadInfo& workload, uint64_t seed,
                            const std::string& work_dir);

uint64_t Fnv1a64(std::string_view text);

}  // namespace perfbench
