// fig_mega: the 100k-machine mega-cell sweep over the SoA placement core.
//
// Not a paper figure — the paper's cells top out around ~12.5k machines
// (cluster B/C) — but its scalability argument is that shared-state
// scheduling grows with cell size, and the ROADMAP's mega-cell item asks for
// exactly this regime: cluster C's per-machine load scaled to 100k machines
// (8x the machines, 8x the arrival rates), run over a day-scale horizon on
// the struct-of-arrays placement core (DESIGN.md §11). Emits
// BENCH_fig_mega.json so the mega-cell wall-clock trajectory is tracked
// across PRs alongside the figure benches.
//
// Usage:
//   fig_mega                        full run (day horizon, 3 seeds)
//   fig_mega --smoke-write <golden> regenerate the CI smoke golden
//   fig_mega --smoke-check <golden> short run, bit-exact diff vs the golden
//
// Smoke golden values are serialized as hex floats (%a), which round-trip
// doubles exactly; the comparison is string equality, i.e. bitwise.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/omega/omega_scheduler.h"

namespace omega {
namespace {

constexpr uint64_t kMegaBaseSeed = 9000;
constexpr double kFullHorizonDays = 1.0;
constexpr int kFullTrials = 3;
constexpr double kSmokeHorizonDays = 0.002;
constexpr int kSmokeTrials = 2;

struct Row {
  double batch_wait = 0.0;
  double service_wait = 0.0;
  double batch_busy = 0.0;
  double service_busy = 0.0;
  double conflict_fraction = 0.0;
  double cpu_utilization = 0.0;
  int64_t submitted = 0;
  int64_t abandoned = 0;
};

std::vector<Row> RunMegaSweep(Duration horizon, int trials,
                              SweepRunner& runner) {
  runner.report().AddMetric("sim_days", horizon.ToDays());
  runner.report().AddMetric("num_machines", 100000.0);
  return runner.Run(trials, [&](const TrialContext& ctx) {
    SimOptions opts;
    opts.horizon = horizon;
    opts.seed = ctx.seed;
    OmegaSimulation sim(ClusterMega(), opts, DefaultSchedulerConfig("batch"),
                        DefaultSchedulerConfig("service"));
    sim.Run();
    const SimTime end = sim.EndTime();
    const auto& bm = sim.batch_scheduler(0).metrics();
    const auto& sm = sim.service_scheduler().metrics();
    return Row{bm.MeanWait(JobType::kBatch),
               sm.MeanWait(JobType::kService),
               bm.Busyness(end).median,
               sm.Busyness(end).median,
               sm.ConflictFraction(end).mean,
               sim.cell().CpuUtilization(),
               sim.JobsSubmittedTotal(),
               sim.TotalJobsAbandoned()};
  });
}

std::string FormatTrial(const Row& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%a %a %a %a %a %a %lld %lld", r.batch_wait,
                r.service_wait, r.batch_busy, r.service_busy,
                r.conflict_fraction, r.cpu_utilization,
                static_cast<long long>(r.submitted),
                static_cast<long long>(r.abandoned));
  return buf;
}

std::vector<std::string> RunSmoke() {
  SweepRunner runner("fig_mega_smoke", kMegaBaseSeed);
  const std::vector<Row> rows = RunMegaSweep(
      Duration::FromDays(kSmokeHorizonDays), kSmokeTrials, runner);
  std::vector<std::string> lines;
  lines.reserve(rows.size());
  for (const Row& r : rows) {
    lines.push_back(FormatTrial(r));
  }
  std::cout << "fig_mega smoke: " << runner.report().trials << " trials on "
            << runner.report().threads << " thread(s) in "
            << runner.report().wall_seconds << " s\n";
  return lines;
}

int SmokeWrite(const std::string& path) {
  const std::vector<std::string> lines = RunSmoke();
  std::ofstream out(path);
  if (!out) {
    std::cerr << "fig_mega: cannot write " << path << "\n";
    return 1;
  }
  out << "# fig_mega smoke golden: 100k-machine omega cell, horizon_days="
      << kSmokeHorizonDays << " trials=" << kSmokeTrials
      << " base_seed=" << kMegaBaseSeed << "\n"
      << "# fields: batch_wait service_wait batch_busy service_busy "
         "conflict_fraction cpu_utilization submitted abandoned (hex floats)\n";
  for (const std::string& line : lines) {
    out << line << "\n";
  }
  std::cout << "fig_mega: wrote " << lines.size() << " trials to " << path
            << "\n";
  return 0;
}

int SmokeCheck(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "fig_mega: cannot read golden " << path << "\n";
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
    std::cerr << "fig_mega: trial count mismatch: golden has " << golden.size()
              << ", run produced " << got.size() << "\n";
    ++mismatches;
  }
  const size_t n = std::min(got.size(), golden.size());
  for (size_t i = 0; i < n; ++i) {
    if (got[i] != golden[i]) {
      std::cerr << "fig_mega: trial " << i << " diverges\n  golden: "
                << golden[i] << "\n  got:    " << got[i] << "\n";
      ++mismatches;
    }
  }
  if (mismatches != 0) {
    std::cerr << "fig_mega: FAILED (" << mismatches
              << " mismatch(es)); if the change is intentional, regenerate "
                 "with --smoke-write\n";
    return 1;
  }
  std::cout << "fig_mega: OK (" << n << " trials bit-identical)\n";
  return 0;
}

int FullRun() {
  PrintBenchHeader("fig_mega", "100k-machine mega-cell, SoA placement core",
                   "bounded wall-clock at 8x cluster C's machines and "
                   "arrival rates; busyness/wait in the unsaturated regime");
  SweepRunner runner("fig_mega", kMegaBaseSeed);
  const std::vector<Row> rows = RunMegaSweep(
      Duration::FromDays(kFullHorizonDays), kFullTrials, runner);

  TablePrinter table({"trial", "batch wait [s]", "service wait [s]",
                      "batch busy", "service busy", "svc confl frac",
                      "cpu util", "submitted", "abandoned"});
  RunningStats batch_wait, batch_busy, conflict;
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    table.AddRow({std::to_string(i), FormatValue(r.batch_wait),
                  FormatValue(r.service_wait), FormatValue(r.batch_busy),
                  FormatValue(r.service_busy),
                  FormatValue(r.conflict_fraction),
                  FormatValue(r.cpu_utilization), std::to_string(r.submitted),
                  std::to_string(r.abandoned)});
    batch_wait.Add(r.batch_wait);
    batch_busy.Add(r.batch_busy);
    conflict.Add(r.conflict_fraction);
  }
  table.Print(std::cout);
  runner.report().AddMetric("batch_wait_mean", batch_wait.mean());
  runner.report().AddMetric("batch_busy_mean", batch_busy.mean());
  runner.report().AddMetric("service_conflict_fraction_mean", conflict.mean());

  FinishSweep(runner);
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
    std::cerr << "usage: fig_mega [--smoke-write|--smoke-check <golden-file>]\n";
    return 2;
  }
  return omega::FullRun();
}
