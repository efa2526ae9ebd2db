// Figure 12: high-fidelity simulator on a cluster B trace, varying
// t_job(service): (a) job wait time (average and 90th percentile), (b) mean
// conflict fraction, (c) scheduler busyness including the no-conflict
// approximation.
//
// Paper shape: once t_job(service) reaches ~10 s the conflict fraction
// crosses 1.0 (every service job needs at least one retry on average) and the
// service scheduler misses the 30 s wait-time SLO even before saturating; the
// busyness with conflicts runs ~40% above the no-conflict approximation.
//
// Usage: fig12_hifi_cluster_b runs the full figure (day horizon);
// --smoke-write/--smoke-check <golden> (bench/golden.h) pin the
// high-fidelity path (scoring placer over the availability index, headroom
// fullness, constraints) at a short horizon. The last field of each smoke
// row is an FNV-1a checksum over every machine's final allocation bits.
#include <cstdio>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/golden.h"
#include "src/common/parallel_for.h"
#include "src/hifi/hifi_simulation.h"

namespace omega {
namespace {

constexpr double kSmokeHorizonDays = 0.25;
// t_job(service) values of the smoke trials: one cheap, one at the paper's
// conflict knee.
constexpr double kSmokeTjobs[] = {0.1, 10.0};

struct Row {
  double t_job = 0.0;
  double batch_wait_avg = 0.0, batch_wait_p90 = 0.0;
  double service_wait_avg = 0.0, service_wait_p90 = 0.0;
  double batch_conflict = 0.0, service_conflict = 0.0;
  double batch_busy = 0.0, service_busy = 0.0, service_busy_noconflict = 0.0;
  int64_t tasks_accepted = 0;
  int64_t tasks_conflicted = 0;
  uint64_t alloc_checksum = 0;  // FNV-1a over per-machine allocation bits
};

// Trial `i` of the sweep: the same seeds as the full figure, so the smoke
// trials are prefixes (in horizon) of real figure trials.
Row RunTrial(double t_job, size_t i, Duration horizon) {
  SimOptions opts;
  opts.horizon = horizon;
  opts.seed = 12000 + i;
  auto sim = MakeHifiSimulation(ClusterB(), opts,
                                DefaultSchedulerConfig("batch"),
                                ServiceConfigWithTjob(t_job));
  auto trace = GenerateHifiTrace(ClusterB(), horizon, 1200 + i);
  sim->RunTrace(std::move(trace));
  const SimTime end = sim->EndTime();
  const auto& bm = sim->batch_scheduler(0).metrics();
  const auto& sm = sim->service_scheduler().metrics();
  Row r;
  r.t_job = t_job;
  r.batch_wait_avg = bm.MeanWait(JobType::kBatch);
  r.batch_wait_p90 = bm.WaitPercentile(JobType::kBatch, 0.9);
  r.service_wait_avg = sm.MeanWait(JobType::kService);
  r.service_wait_p90 = sm.WaitPercentile(JobType::kService, 0.9);
  r.batch_conflict = bm.ConflictFraction(end).mean;
  r.service_conflict = sm.ConflictFraction(end).mean;
  r.batch_busy = bm.Busyness(end).median;
  r.service_busy = sm.Busyness(end).median;
  r.service_busy_noconflict = sm.BusynessNoConflict(end).median;
  r.tasks_accepted = bm.TasksAccepted() + sm.TasksAccepted();
  r.tasks_conflicted = bm.TasksConflicted() + sm.TasksConflicted();
  r.alloc_checksum = golden::kFnvOffset;
  const CellState& cell = sim->cell();
  for (MachineId m = 0; m < cell.NumMachines(); ++m) {
    const Resources& allocated = cell.machine(m).allocated;
    r.alloc_checksum = golden::FnvMix(r.alloc_checksum, allocated.cpus);
    r.alloc_checksum = golden::FnvMix(r.alloc_checksum, allocated.mem_gb);
  }
  return r;
}

std::vector<Row> RunSweep(const std::vector<double>& t_jobs, Duration horizon) {
  std::vector<Row> rows(t_jobs.size());
  ShardSlots<Row> row_slots(rows);
  ParallelFor(
      t_jobs.size(),
      [&](size_t i) { row_slots[i] = RunTrial(t_jobs[i], i, horizon); },
      BenchThreads());
  return rows;
}

std::string FormatSmokeRow(const Row& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%a %a %a %a %a %a %a %a %a %a %lld %lld %016llx", r.t_job,
                r.batch_wait_avg, r.batch_wait_p90, r.service_wait_avg,
                r.service_wait_p90, r.batch_conflict, r.service_conflict,
                r.batch_busy, r.service_busy, r.service_busy_noconflict,
                static_cast<long long>(r.tasks_accepted),
                static_cast<long long>(r.tasks_conflicted),
                static_cast<unsigned long long>(r.alloc_checksum));
  return buf;
}

std::vector<std::string> SmokeRows() {
  std::vector<std::string> lines;
  const std::vector<double> t_jobs(std::begin(kSmokeTjobs),
                                  std::end(kSmokeTjobs));
  for (const Row& r : RunSweep(t_jobs, Duration::FromDays(kSmokeHorizonDays))) {
    lines.push_back(FormatSmokeRow(r));
  }
  return lines;
}

int FullRun() {
  PrintBenchHeader("Figure 12", "hifi cluster B: wait, conflicts, busyness",
                   "conflict fraction crosses 1.0 near t_job(service)=10s; "
                   "SLO missed from conflicts alone; busyness ~40% above "
                   "no-conflict");
  const std::vector<Row> rows = RunSweep(TjobSweep(), BenchHorizon(1.0));

  std::cout << "\n(a) job wait time [s]\n";
  TablePrinter wait({"t_job(service)", "batch avg", "batch 90%ile",
                     "service avg", "service 90%ile", "service SLO(30s)"});
  for (const Row& r : rows) {
    wait.AddRow({FormatValue(r.t_job), FormatValue(r.batch_wait_avg),
                 FormatValue(r.batch_wait_p90), FormatValue(r.service_wait_avg),
                 FormatValue(r.service_wait_p90),
                 r.service_wait_avg <= 30.0 ? "met" : "MISSED"});
  }
  wait.Print(std::cout);

  std::cout << "\n(b) mean conflict fraction\n";
  TablePrinter confl({"t_job(service)", "batch", "service"});
  for (const Row& r : rows) {
    confl.AddRow({FormatValue(r.t_job), FormatValue(r.batch_conflict),
                  FormatValue(r.service_conflict)});
  }
  confl.Print(std::cout);

  std::cout << "\n(c) scheduler busyness\n";
  TablePrinter busy({"t_job(service)", "batch", "service",
                     "service (no conflicts)", "overhead"});
  for (const Row& r : rows) {
    const double overhead =
        r.service_busy_noconflict > 1e-9
            ? r.service_busy / r.service_busy_noconflict - 1.0
            : 0.0;
    busy.AddRow({FormatValue(r.t_job), FormatValue(r.batch_busy),
                 FormatValue(r.service_busy),
                 FormatValue(r.service_busy_noconflict),
                 FormatValue(overhead * 100.0) + "%"});
  }
  busy.Print(std::cout);
  return 0;
}

}  // namespace
}  // namespace omega

int main(int argc, char** argv) {
  using omega::golden::Cat;
  return omega::golden::SmokeMain(
      argc, argv,
      {"fig12_hifi_cluster_b",
       {Cat("fig12 smoke golden: hifi cluster B, horizon_days=",
            omega::kSmokeHorizonDays,
            " trials=", std::size(omega::kSmokeTjobs)),
        "fields: t_job batch_wait_avg batch_wait_p90 service_wait_avg "
        "service_wait_p90 batch_conflict service_conflict batch_busy "
        "service_busy service_busy_noconflict (hex floats) tasks_accepted "
        "tasks_conflicted fnv1a-of-machine-allocations"},
       omega::SmokeRows},
      omega::FullRun);
}
