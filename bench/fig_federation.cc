// fig_federation: multi-cell federation sweep over gossip staleness and
// spillover policy (DESIGN.md §13).
//
// Not a paper figure — the paper's cells are single scheduling domains — but
// its shared-state argument extends one level up: a front door routing jobs
// across N independent Omega cells using eventually-consistent summaries.
// This sweep measures what staleness costs: each row runs a fleet of N
// cluster-D cells under one of four gossip regimes (live summaries, 15 s
// cadence, 120 s cadence, never delivered) with spillover on or off, against
// two baselines — one giant cell with N cells' machines and load (the
// upper bound shared state is reaching for), and static partitioning by job
// hash with no shared knowledge (the lower bound). Emits
// BENCH_fig_federation.json with fleet conflict rate, spillover latency
// quantiles, and cross-cell utilization skew per row.
//
// Usage:
//   fig_federation                        full run
//   fig_federation --smoke-write <golden> regenerate the CI smoke golden
//   fig_federation --smoke-check <golden> short run, bit-exact diff vs golden
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
#include "src/federation/federation.h"
#include "src/omega/omega_scheduler.h"

namespace omega {
namespace {

constexpr uint64_t kFedBaseSeed = 11000;
constexpr double kFullHorizonDays = 0.25;
constexpr double kSmokeHorizonDays = 0.002;

// One grid row: a federation configuration or a baseline.
struct RowConfig {
  const char* label;
  uint32_t cells;
  // Gossip regime: interval 0 = live summaries; delay < 0 = never delivered.
  double gossip_interval_secs;
  double gossip_delay_secs;
  SpilloverPolicy spillover;
  FederationRouting routing;
  bool giant_cell;  // baseline: one cell with N cells' machines and load
};

constexpr RowConfig kFullGrid[] = {
    // Staleness sweep, 4 cells, spillover on.
    {"f4-live", 4, 0.0, 0.0, SpilloverPolicy::kNextBest,
     FederationRouting::kLeastLoaded, false},
    {"f4-15s", 4, 15.0, 1.0, SpilloverPolicy::kNextBest,
     FederationRouting::kLeastLoaded, false},
    {"f4-120s", 4, 120.0, 15.0, SpilloverPolicy::kNextBest,
     FederationRouting::kLeastLoaded, false},
    {"f4-never", 4, 15.0, -1.0, SpilloverPolicy::kNextBest,
     FederationRouting::kLeastLoaded, false},
    // Staleness sweep, 16 cells, spillover on.
    {"f16-live", 16, 0.0, 0.0, SpilloverPolicy::kNextBest,
     FederationRouting::kLeastLoaded, false},
    {"f16-15s", 16, 15.0, 1.0, SpilloverPolicy::kNextBest,
     FederationRouting::kLeastLoaded, false},
    {"f16-120s", 16, 120.0, 15.0, SpilloverPolicy::kNextBest,
     FederationRouting::kLeastLoaded, false},
    {"f16-never", 16, 15.0, -1.0, SpilloverPolicy::kNextBest,
     FederationRouting::kLeastLoaded, false},
    // Spillover off at the default cadence.
    {"f4-15s-nospill", 4, 15.0, 1.0, SpilloverPolicy::kNone,
     FederationRouting::kLeastLoaded, false},
    {"f16-15s-nospill", 16, 15.0, 1.0, SpilloverPolicy::kNone,
     FederationRouting::kLeastLoaded, false},
    // Static partitioning baseline: hash routing, no shared knowledge.
    {"static4", 4, 15.0, -1.0, SpilloverPolicy::kNone,
     FederationRouting::kStaticHash, false},
    {"static16", 16, 15.0, -1.0, SpilloverPolicy::kNone,
     FederationRouting::kStaticHash, false},
    // One-giant-cell baseline: N cells' machines and load, one domain.
    {"giant4", 4, 0.0, 0.0, SpilloverPolicy::kNone,
     FederationRouting::kLeastLoaded, true},
    {"giant16", 16, 0.0, 0.0, SpilloverPolicy::kNone,
     FederationRouting::kLeastLoaded, true},
};

constexpr RowConfig kSmokeGrid[] = {
    {"f4-live", 4, 0.0, 0.0, SpilloverPolicy::kNextBest,
     FederationRouting::kLeastLoaded, false},
    {"f4-15s", 4, 15.0, 1.0, SpilloverPolicy::kNextBest,
     FederationRouting::kLeastLoaded, false},
    {"f4-never", 4, 15.0, -1.0, SpilloverPolicy::kNextBest,
     FederationRouting::kLeastLoaded, false},
    {"static4", 4, 15.0, -1.0, SpilloverPolicy::kNone,
     FederationRouting::kStaticHash, false},
    {"giant4", 4, 0.0, 0.0, SpilloverPolicy::kNone,
     FederationRouting::kLeastLoaded, true},
};

struct Row {
  double conflict_fraction = 0.0;  // fleet mean over cells
  double mean_cpu_util = 0.0;
  double cpu_util_skew = 0.0;      // max - min across cells (0 for giant)
  double time_to_sched_p90 = 0.0;  // NaN for the giant cell (no front door)
  double spillover_p90 = 0.0;      // NaN when nothing spilled
  int64_t submitted = 0;           // front-door arrivals (giant: submissions)
  int64_t scheduled = 0;
  int64_t lost = 0;
  int64_t spills = 0;
};

FederationOptions MakeFedOptions(const RowConfig& cfg) {
  FederationOptions fed;
  fed.num_cells = cfg.cells;
  fed.routing = cfg.routing;
  fed.spillover = cfg.spillover;
  fed.gossip_interval = Duration::FromSeconds(cfg.gossip_interval_secs);
  fed.gossip_delay = cfg.gossip_delay_secs < 0.0
                         ? Duration::Max()
                         : Duration::FromSeconds(cfg.gossip_delay_secs);
  // A tight watchdog so short horizons still exercise timeout spills.
  fed.pending_timeout = Duration::FromSeconds(60);
  return fed;
}

Row RunFederationRow(const RowConfig& cfg, Duration horizon, uint64_t seed) {
  SimOptions opts;
  opts.horizon = horizon;
  opts.seed = seed;
  Row row;
  if (cfg.giant_cell) {
    // N cells' machines and arrival rates in one scheduling domain, with one
    // batch scheduler per federated cell so scheduling capacity matches.
    ClusterConfig giant = ClusterD();
    giant.name += "-x" + std::to_string(cfg.cells);
    giant.num_machines *= cfg.cells;
    giant.batch.interarrival_mean_secs /= static_cast<double>(cfg.cells);
    giant.service.interarrival_mean_secs /= static_cast<double>(cfg.cells);
    OmegaSimulation sim(giant, opts, DefaultSchedulerConfig("batch"),
                        DefaultSchedulerConfig("service"), cfg.cells);
    sim.Run();
    int64_t accepted = sim.service_scheduler().metrics().TasksAccepted();
    int64_t conflicted = sim.service_scheduler().metrics().TasksConflicted();
    int64_t scheduled =
        sim.service_scheduler().metrics().JobsScheduled(JobType::kService);
    for (uint32_t i = 0; i < sim.NumBatchSchedulers(); ++i) {
      accepted += sim.batch_scheduler(i).metrics().TasksAccepted();
      conflicted += sim.batch_scheduler(i).metrics().TasksConflicted();
      scheduled += sim.batch_scheduler(i).metrics().JobsScheduled(JobType::kBatch);
    }
    const int64_t total = accepted + conflicted;
    row.conflict_fraction =
        total > 0 ? static_cast<double>(conflicted) / static_cast<double>(total)
                  : 0.0;
    row.mean_cpu_util = sim.cell().CpuUtilization();
    row.cpu_util_skew = 0.0;
    row.time_to_sched_p90 = Cdf{}.Quantile(0.9);  // NaN: no front door here
    row.spillover_p90 = Cdf{}.Quantile(0.9);
    row.submitted = sim.JobsSubmittedTotal();
    row.scheduled = scheduled;
    row.lost = sim.TotalJobsAbandoned();
    return row;
  }
  FederationSim fed(ClusterD(), opts, DefaultSchedulerConfig("batch"),
                    DefaultSchedulerConfig("service"),
                    MakeFedOptions(cfg));
  fed.Run();
  const FederationMetrics& m = fed.metrics();
  row.conflict_fraction = fed.FleetConflictFraction();
  row.mean_cpu_util = fed.MeanCellCpuUtilization();
  row.cpu_util_skew = fed.CpuUtilizationSkew();
  row.time_to_sched_p90 = m.time_to_scheduled_secs.Quantile(0.9);
  row.spillover_p90 = m.spillover_latency_secs.Quantile(0.9);
  row.submitted = m.jobs_routed;
  row.scheduled = m.jobs_fully_scheduled;
  row.lost = m.jobs_lost;
  row.spills = m.spills;
  return row;
}

std::vector<Row> RunGrid(const RowConfig* grid, size_t grid_size,
                         Duration horizon, SweepRunner& runner) {
  runner.report().AddMetric("sim_days", horizon.ToDays());
  std::vector<Row> rows = runner.Run(grid_size, [&](const TrialContext& ctx) {
    return RunFederationRow(grid[ctx.index], horizon, ctx.seed);
  });
  for (size_t i = 0; i < grid_size; ++i) {
    runner.report().trial_labels.emplace_back(grid[i].label);
  }
  return rows;
}

std::string FormatTrial(const RowConfig& cfg, const Row& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%s %a %a %a %a %a %lld %lld %lld %lld",
                cfg.label, r.conflict_fraction, r.mean_cpu_util,
                r.cpu_util_skew, r.time_to_sched_p90, r.spillover_p90,
                static_cast<long long>(r.submitted),
                static_cast<long long>(r.scheduled),
                static_cast<long long>(r.lost),
                static_cast<long long>(r.spills));
  return buf;
}

std::vector<std::string> RunSmoke() {
  SweepRunner runner("fig_federation_smoke", kFedBaseSeed);
  const std::vector<Row> rows =
      RunGrid(kSmokeGrid, std::size(kSmokeGrid),
              Duration::FromDays(kSmokeHorizonDays), runner);
  std::vector<std::string> lines;
  lines.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    lines.push_back(FormatTrial(kSmokeGrid[i], rows[i]));
  }
  std::cout << "fig_federation smoke: " << runner.report().trials
            << " rows on " << runner.report().threads << " thread(s) in "
            << runner.report().wall_seconds << " s\n";
  return lines;
}

int SmokeWrite(const std::string& path) {
  const std::vector<std::string> lines = RunSmoke();
  std::ofstream out(path);
  if (!out) {
    std::cerr << "fig_federation: cannot write " << path << "\n";
    return 1;
  }
  out << "# fig_federation smoke golden: cluster-D fleets, horizon_days="
      << kSmokeHorizonDays << " base_seed=" << kFedBaseSeed << "\n"
      << "# fields: label conflict_fraction mean_cpu_util cpu_util_skew "
         "time_to_sched_p90 spillover_p90 submitted scheduled lost spills "
         "(hex floats; nan = empty sample)\n";
  for (const std::string& line : lines) {
    out << line << "\n";
  }
  std::cout << "fig_federation: wrote " << lines.size() << " rows to " << path
            << "\n";
  return 0;
}

int SmokeCheck(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "fig_federation: cannot read golden " << path << "\n";
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
    std::cerr << "fig_federation: row count mismatch: golden has "
              << golden.size() << ", run produced " << got.size() << "\n";
    ++mismatches;
  }
  const size_t n = std::min(got.size(), golden.size());
  for (size_t i = 0; i < n; ++i) {
    if (got[i] != golden[i]) {
      std::cerr << "fig_federation: row " << i << " diverges\n  golden: "
                << golden[i] << "\n  got:    " << got[i] << "\n";
      ++mismatches;
    }
  }
  if (mismatches != 0) {
    std::cerr << "fig_federation: FAILED (" << mismatches
              << " mismatch(es)); if the change is intentional, regenerate "
                 "with --smoke-write\n";
    return 1;
  }
  std::cout << "fig_federation: OK (" << n << " rows bit-identical)\n";
  return 0;
}

int FullRun() {
  PrintBenchHeader("fig_federation",
                   "multi-cell federation vs giant cell vs static partition",
                   "fresher gossip narrows the utilization skew toward the "
                   "giant-cell bound; stale gossip degrades toward static "
                   "partitioning, recovered partly by spillover");
  SweepRunner runner("fig_federation", kFedBaseSeed);
  const std::vector<Row> rows = RunGrid(kFullGrid, std::size(kFullGrid),
                                        Duration::FromDays(kFullHorizonDays),
                                        runner);

  TablePrinter table({"config", "confl frac", "cpu util", "util skew",
                      "sched p90 [s]", "spill p90 [s]", "submitted",
                      "scheduled", "lost", "spills"});
  RunningStats skew_fed, skew_static;
  for (size_t i = 0; i < rows.size(); ++i) {
    const RowConfig& cfg = kFullGrid[i];
    const Row& r = rows[i];
    table.AddRow({cfg.label, FormatValue(r.conflict_fraction),
                  FormatValue(r.mean_cpu_util), FormatValue(r.cpu_util_skew),
                  FormatValue(r.time_to_sched_p90),
                  FormatValue(r.spillover_p90), std::to_string(r.submitted),
                  std::to_string(r.scheduled), std::to_string(r.lost),
                  std::to_string(r.spills)});
    if (cfg.giant_cell) {
      continue;
    }
    (cfg.routing == FederationRouting::kStaticHash ? skew_static : skew_fed)
        .Add(r.cpu_util_skew);
  }
  table.Print(std::cout);
  runner.report().AddMetric("federated_util_skew_mean", skew_fed.mean());
  runner.report().AddMetric("static_util_skew_mean", skew_static.mean());
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
    std::cerr
        << "usage: fig_federation [--smoke-write|--smoke-check <golden-file>]\n";
    return 2;
  }
  return omega::FullRun();
}
