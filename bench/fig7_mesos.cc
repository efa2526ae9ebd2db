// Figure 7: two-level scheduling (Mesos): job wait time, scheduler busyness
// and abandoned jobs as a function of t_job(service), clusters A, B, C.
// The paper simulates one day for Mesos (the failed scheduling attempts make
// longer runs impractical) — so does this bench.
//
// Paper shape: batch framework busyness is much higher than the monolithic
// multi-path equivalent (offer locking starves it into repeated futile
// attempts); at long service decision times jobs hit the 1,000-attempt limit
// and are abandoned.
//
// Usage:
//   fig7_mesos                        full run (day horizon)
//   fig7_mesos --smoke-write <golden> regenerate the CI smoke golden
//   fig7_mesos --smoke-check <golden> short run, bit-exact diff
//
// The smoke run pins the offer lifecycle on cluster A at a short horizon:
// a cheap service framework, the long-t_job regime where two offers
// overlap, machine failures under outstanding offers, and a hoarding
// (all-or-nothing) batch framework. Values are serialized as hex floats
// (%a), which round-trip doubles exactly; the comparison is string
// equality, i.e. bitwise. Each trial ends with FNV-1a checksums over every
// machine's offered (locked) resources and allocation, so a changed offer or
// placement shows up even where the aggregates agree.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/deterministic_reduce.h"
#include "src/common/parallel_for.h"
#include "src/mesos/mesos_simulation.h"

namespace omega {
namespace {

constexpr double kSmokeHorizonDays = 0.1;

struct Trial {
  const char* cluster = "A";
  double t_job = 0.0;
  uint64_t seed = 0;
  double machine_failure_rate_per_day = 0.0;
  CommitMode batch_commit_mode = CommitMode::kIncremental;
};

// Smoke trials: the first two reuse the seeds of the full figure's cluster A
// points at t_job 0.01 s and 100 s, so they are horizon prefixes of real
// figure trials.
const Trial kSmokeTrials[] = {
    {"A", 0.01, 7000},
    {"A", 100.0, 7006},
    {"A", 1.0, 7100, /*machine_failure_rate_per_day=*/2.0},
    {"A", 1.0, 7101, 0.0, CommitMode::kAllOrNothing},
};

struct Row {
  Trial trial;
  double batch_wait = 0.0, service_wait = 0.0;
  double batch_busy = 0.0, service_busy = 0.0;
  int64_t batch_abandoned = 0, service_abandoned = 0;
  int64_t batch_attempts = 0, service_attempts = 0;
  double batch_drf = 0.0, service_drf = 0.0;
  Resources offered;
  uint64_t offered_checksum = 0;  // FNV-1a over per-machine OfferedOn bits
  uint64_t alloc_checksum = 0;    // FNV-1a over per-machine allocation bits
};

uint64_t FnvMix(uint64_t h, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return (h ^ bits) * 1099511628211ULL;
}

Row RunTrial(const Trial& t, Duration horizon) {
  SimOptions opts;
  opts.horizon = horizon;
  opts.seed = t.seed;
  opts.intra_trial_threads = BenchIntraTrialThreads();
  if (t.machine_failure_rate_per_day > 0.0) {
    opts.track_running_tasks = true;
    opts.machine_failure_rate_per_day = t.machine_failure_rate_per_day;
  }
  SchedulerConfig batch = DefaultSchedulerConfig("batch");
  batch.commit_mode = t.batch_commit_mode;
  MesosSimulation sim(ClusterByName(t.cluster), opts, batch,
                      ServiceConfigWithTjob(t.t_job));
  sim.Run();
  const SimTime end = sim.EndTime();
  const SchedulerMetrics& bm = sim.batch_framework().metrics();
  const SchedulerMetrics& sm = sim.service_framework().metrics();
  const MesosAllocator& alloc = sim.allocator();
  Row r;
  r.trial = t;
  r.batch_wait = bm.MeanWait(JobType::kBatch);
  r.service_wait = sm.MeanWait(JobType::kService);
  r.batch_busy = bm.Busyness(end).median;
  r.service_busy = sm.Busyness(end).median;
  r.batch_abandoned = bm.JobsAbandonedTotal();
  r.service_abandoned = sm.JobsAbandonedTotal();
  r.batch_attempts = bm.TotalAttempts();
  r.service_attempts = sm.TotalAttempts();
  r.batch_drf = alloc.DominantShare(&sim.batch_framework());
  r.service_drf = alloc.DominantShare(&sim.service_framework());
  r.offered = alloc.TotalOffered();
  r.offered_checksum = 1469598103934665603ULL;
  r.alloc_checksum = 1469598103934665603ULL;
  const CellState& cell = sim.cell();
  for (MachineId m = 0; m < cell.NumMachines(); ++m) {
    const Resources offered = alloc.OfferedOn(m);
    r.offered_checksum = FnvMix(r.offered_checksum, offered.cpus);
    r.offered_checksum = FnvMix(r.offered_checksum, offered.mem_gb);
    r.alloc_checksum = FnvMix(r.alloc_checksum, cell.machine(m).allocated.cpus);
    r.alloc_checksum =
        FnvMix(r.alloc_checksum, cell.machine(m).allocated.mem_gb);
  }
  return r;
}

std::vector<Row> RunSweep(const std::vector<Trial>& trials, Duration horizon) {
  std::vector<Row> rows(trials.size());
  ShardSlots<Row> row_slots(rows);
  ParallelFor(
      trials.size(),
      [&](size_t i) { row_slots[i] = RunTrial(trials[i], horizon); },
      BenchThreads());
  return rows;
}

std::string FormatSmokeRow(const Row& r) {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "%s %a %a %d %a %a %a %a %lld %lld %lld %lld %a %a %a %a %016llx %016llx",
      r.trial.cluster, r.trial.t_job, r.trial.machine_failure_rate_per_day,
      r.trial.batch_commit_mode == CommitMode::kAllOrNothing ? 1 : 0,
      r.batch_wait, r.service_wait, r.batch_busy, r.service_busy,
      static_cast<long long>(r.batch_abandoned),
      static_cast<long long>(r.service_abandoned),
      static_cast<long long>(r.batch_attempts),
      static_cast<long long>(r.service_attempts), r.batch_drf, r.service_drf,
      r.offered.cpus, r.offered.mem_gb,
      static_cast<unsigned long long>(r.offered_checksum),
      static_cast<unsigned long long>(r.alloc_checksum));
  return buf;
}

std::vector<std::string> RunSmoke() {
  const std::vector<Trial> trials(std::begin(kSmokeTrials),
                                  std::end(kSmokeTrials));
  const std::vector<Row> rows =
      RunSweep(trials, Duration::FromDays(kSmokeHorizonDays));
  std::vector<std::string> lines;
  lines.reserve(rows.size());
  for (const Row& r : rows) {
    lines.push_back(FormatSmokeRow(r));
  }
  return lines;
}

int SmokeWrite(const std::string& path) {
  const std::vector<std::string> lines = RunSmoke();
  std::ofstream out(path);
  if (!out) {
    std::cerr << "fig7: cannot write " << path << "\n";
    return 1;
  }
  out << "# fig7 smoke golden: Mesos, horizon_days=" << kSmokeHorizonDays
      << " trials=" << lines.size() << "\n"
      << "# fields: cluster t_job failure_rate_per_day hoarding batch_wait "
         "service_wait batch_busy service_busy (hex floats) batch_abandoned "
         "service_abandoned batch_attempts service_attempts batch_drf "
         "service_drf offered_cpus offered_mem (hex floats) "
         "fnv1a-of-machine-offers fnv1a-of-machine-allocations\n";
  for (const std::string& line : lines) {
    out << line << "\n";
  }
  std::cout << "fig7: wrote " << lines.size() << " trials to " << path << "\n";
  return 0;
}

int SmokeCheck(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "fig7: cannot read golden " << path << "\n";
    return 1;
  }
  std::vector<std::string> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') {
      golden.push_back(line);
    }
  }
  const std::vector<std::string> got = RunSmoke();
  int mismatches = 0;
  if (got.size() != golden.size()) {
    std::cerr << "fig7: trial count mismatch: golden has " << golden.size()
              << ", run produced " << got.size() << "\n";
    ++mismatches;
  }
  const size_t n = std::min(got.size(), golden.size());
  for (size_t i = 0; i < n; ++i) {
    if (got[i] != golden[i]) {
      std::cerr << "fig7: trial " << i << " diverges\n  golden: " << golden[i]
                << "\n  got:    " << got[i] << "\n";
      ++mismatches;
    }
  }
  if (mismatches != 0) {
    std::cerr << "fig7: FAILED (" << mismatches
              << " mismatch(es)); if the change is intentional, regenerate "
                 "with --smoke-write\n";
    return 1;
  }
  std::cout << "fig7: OK (" << n << " trials bit-identical)\n";
  return 0;
}

int FullRun() {
  PrintBenchHeader("Figure 7", "two-level (Mesos): wait, busyness, abandoned",
                   "batch framework busyness far above multi-path monolithic; "
                   "jobs abandoned at long t_job(service)");
  std::vector<Trial> trials;
  for (const char* cluster : {"A", "B", "C"}) {
    for (double t : TjobSweep()) {
      trials.push_back({cluster, t, 7000 + trials.size()});
    }
  }
  const std::vector<Row> rows = RunSweep(trials, BenchHorizon(1.0));

  TablePrinter table({"cluster", "t_job(service) [s]", "batch wait [s]",
                      "service wait [s]", "batch busy", "service busy",
                      "abandoned jobs"});
  for (const Row& r : rows) {
    table.AddRow({r.trial.cluster, FormatValue(r.trial.t_job),
                  FormatValue(r.batch_wait), FormatValue(r.service_wait),
                  FormatValue(r.batch_busy), FormatValue(r.service_busy),
                  std::to_string(r.batch_abandoned + r.service_abandoned)});
  }
  table.Print(std::cout);
  return 0;
}

}  // namespace
}  // namespace omega

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--smoke-write") == 0) {
    return omega::SmokeWrite(argv[2]);
  }
  if (argc == 3 && std::strcmp(argv[1], "--smoke-check") == 0) {
    return omega::SmokeCheck(argv[2]);
  }
  if (argc != 1) {
    std::cerr << "usage: fig7_mesos "
                 "[--smoke-write|--smoke-check <golden-file>]\n";
    return 2;
  }
  return omega::FullRun();
}
