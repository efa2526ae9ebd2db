// Trace tooling example: materialize a synthetic workload trace to a file,
// read it back, print summary statistics, and replay it through the
// high-fidelity simulator — the §5 pipeline end to end.
//
//   ./build/examples/trace_tool generate <path> [hours]
//   ./build/examples/trace_tool info <path>
//   ./build/examples/trace_tool replay <path>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "src/exp/experiment.h"
#include "src/hifi/hifi_simulation.h"
#include "src/workload/characterization.h"
#include "src/workload/cluster_config.h"
#include "src/workload/trace.h"

using namespace omega;

namespace {

int Generate(const std::string& path, double hours) {
  const ClusterConfig cluster = ClusterC();
  const auto trace =
      GenerateHifiTrace(cluster, Duration::FromHours(hours), /*seed=*/7);
  if (!WriteTraceFile(trace, path)) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  std::cout << "wrote " << trace.size() << " jobs (" << hours
            << "h of cluster C workload) to " << path << "\n";
  return 0;
}

int Info(const std::string& path) {
  std::vector<Job> jobs;
  std::string error;
  if (!ReadTraceFile(path, &jobs, &error)) {
    std::cerr << error << "\n";
    return 1;
  }
  Duration window = Duration::Zero();
  for (const Job& j : jobs) {
    if (j.submit_time - SimTime::Zero() > window) {
      window = j.submit_time - SimTime::Zero();
    }
  }
  const WorkloadCharacterization ch = Characterize(jobs, window);
  std::cout << "jobs: " << jobs.size() << " over " << window.ToHours()
            << " hours\n"
            << "service job fraction:      " << FormatValue(ch.ServiceJobFraction())
            << "\n"
            << "service resource fraction: " << FormatValue(ch.ServiceCpuFraction())
            << "\n"
            << "median batch tasks/job:    " << ch.batch_tasks.Quantile(0.5) << "\n"
            << "median batch runtime:      " << ch.batch_runtime.Quantile(0.5)
            << " s\n";
  return 0;
}

int Replay(const std::string& path) {
  std::vector<Job> jobs;
  std::string error;
  if (!ReadTraceFile(path, &jobs, &error)) {
    std::cerr << error << "\n";
    return 1;
  }
  SimTime last;
  for (const Job& j : jobs) {
    if (j.submit_time > last) {
      last = j.submit_time;
    }
  }
  SimOptions options;
  options.horizon = last - SimTime::Zero();
  options.seed = 1;
  auto sim = MakeHifiSimulation(ClusterC(), options, SchedulerConfig{},
                                SchedulerConfig{});
  const auto submitted = static_cast<int64_t>(jobs.size());
  sim->RunTrace(std::move(jobs));
  int64_t scheduled =
      sim->service_scheduler().metrics().JobsScheduled(JobType::kService);
  for (uint32_t i = 0; i < sim->NumBatchSchedulers(); ++i) {
    scheduled += sim->batch_scheduler(i).metrics().JobsScheduled(JobType::kBatch);
  }
  // Jobs neither fully scheduled nor abandoned were still queued or mid-
  // attempt when the horizon (the last submission) cut the replay off.
  const int64_t pending =
      sim->JobsSubmittedTotal() - scheduled - sim->TotalJobsAbandoned();
  std::cout << "replayed " << submitted << " jobs; scheduled " << scheduled
            << ", abandoned " << sim->TotalJobsAbandoned() << "\n"
            << "pending at horizon: " << pending << "\n"
            << "final cpu utilization: "
            << FormatValue(sim->cell().CpuUtilization()) << "\n";
  return 0;
}

constexpr const char* kUsage =
    "usage: trace_tool generate|info|replay <path> [hours]\n";

// Parses the whole of `text` as a finite, positive number of hours.
bool ParseHours(const char* text, double* hours) {
  char* end = nullptr;
  *hours = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*hours) && *hours > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::cerr << kUsage;
    return 2;
  }
  const std::string command = argv[1];
  const std::string path = argv[2];
  if (command == "generate") {
    double hours = 1.0;
    if (argc > 3 && !ParseHours(argv[3], &hours)) {
      std::cerr << "hours must be a finite number > 0, got '" << argv[3]
                << "'\n"
                << kUsage;
      return 2;
    }
    return Generate(path, hours);
  }
  if (command == "info") {
    return Info(path);
  }
  if (command == "replay") {
    return Replay(path);
  }
  std::cerr << "unknown command: " << command << "\n";
  return 2;
}
