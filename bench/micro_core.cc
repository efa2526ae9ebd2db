// Micro-benchmarks of the simulator's core operations (google-benchmark):
// cell-state allocate/free, transaction commit under both conflict-detection
// modes, the placement algorithms (including the randomized-first-fit vs
// scoring-placer ablation from DESIGN.md), the event queue, a Mesos
// allocation round, the trace writer and reader, and the initial fill.
#include <benchmark/benchmark.h>

#include <sstream>

#include "src/cluster/cell_state.h"
#include "src/common/parallel_for.h"
#include "src/hifi/hifi_simulation.h"
#include "src/hifi/scoring_placer.h"
#include "src/mesos/mesos_simulation.h"
#include "src/omega/omega_scheduler.h"
#include "src/scheduler/placement.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"
#include "src/workload/cluster_config.h"
#include "src/workload/trace.h"

namespace omega {
namespace {

constexpr Resources kMachine{4.0, 16.0};
constexpr Resources kTask{0.5, 1.0};

// Micro benches run standalone (no SweepRunner/TrialContext), so their
// streams come from fixed, named per-bench seeds instead of an experiment
// substream. Identity on purpose: the value IS the documented seed.
constexpr uint64_t BenchSeed(uint64_t n) { return n; }

void BM_CellStateAllocateFree(benchmark::State& state) {
  CellState cell(static_cast<uint32_t>(state.range(0)), kMachine);
  MachineId m = 0;
  for (auto _ : state) {
    cell.Allocate(m, kTask);
    cell.Free(m, kTask);
    m = (m + 1) % cell.NumMachines();
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_CellStateAllocateFree)->Arg(1000)->Arg(12000);

void BM_CellStateAllocateFreeWithIndex(benchmark::State& state) {
  CellState cell(static_cast<uint32_t>(state.range(0)), kMachine);
  cell.EnableAvailabilityIndex();
  MachineId m = 0;
  for (auto _ : state) {
    cell.Allocate(m, kTask);
    cell.Free(m, kTask);
    m = (m + 1) % cell.NumMachines();
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_CellStateAllocateFreeWithIndex)->Arg(1000)->Arg(12000);

void CommitBenchmark(benchmark::State& state, ConflictMode mode) {
  CellState cell(1000, kMachine);
  Rng rng(BenchSeed(1));
  std::vector<TaskClaim> claims;
  for (int i = 0; i < 10; ++i) {
    const auto m = static_cast<MachineId>(rng.NextBounded(1000));
    claims.push_back(TaskClaim{m, kTask, cell.machine(m).seqnum});
  }
  for (auto _ : state) {
    const CommitResult r = cell.Commit(claims, mode, CommitMode::kIncremental);
    benchmark::DoNotOptimize(r);
    // Undo so the cell never fills.
    for (const TaskClaim& c : claims) {
      cell.Free(c.machine, c.resources);
    }
    state.PauseTiming();
    for (TaskClaim& c : claims) {
      c.seqnum_at_placement = cell.machine(c.machine).seqnum;
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 10);
}

void BM_CommitFineGrained(benchmark::State& state) {
  CommitBenchmark(state, ConflictMode::kFineGrained);
}
BENCHMARK(BM_CommitFineGrained);

void BM_CommitCoarseGrained(benchmark::State& state) {
  CommitBenchmark(state, ConflictMode::kCoarseGrained);
}
BENCHMARK(BM_CommitCoarseGrained);

void BM_RandomizedFirstFit(benchmark::State& state) {
  CellState cell(static_cast<uint32_t>(state.range(0)), kMachine);
  // Half-full cell.
  Rng fill(BenchSeed(7));
  for (uint32_t i = 0; i < cell.NumMachines() / 2; ++i) {
    const auto m = static_cast<MachineId>(fill.NextBounded(cell.NumMachines()));
    if (cell.CanFit(m, Resources{2.0, 8.0})) {
      cell.Allocate(m, Resources{2.0, 8.0});
    }
  }
  Job job;
  job.num_tasks = 10;
  job.task_resources = kTask;
  RandomizedFirstFitPlacer placer;
  Rng rng(BenchSeed(3));
  std::vector<TaskClaim> claims;
  for (auto _ : state) {
    claims.clear();
    benchmark::DoNotOptimize(placer.PlaceTasks(cell, job, 10, rng, &claims));
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_RandomizedFirstFit)->Arg(1000)->Arg(12000);

// Scoring placer over the availability index on a near-full headroom cell
// (the high-fidelity regime). Args: machines, tasks per job. Every machine
// keeps room for about one task, so each task of a job must walk past the
// machines its predecessors filled: the cost per task shows whether a job's
// walk is linear or quadratic in its task count.
void BM_ScoringPlacer(benchmark::State& state) {
  const auto machines = static_cast<uint32_t>(state.range(0));
  const auto tasks = static_cast<uint32_t>(state.range(1));
  CellState cell(machines, kMachine, FullnessPolicy::kHeadroom, 0.04);
  cell.EnableAvailabilityIndex();
  Rng fill(BenchSeed(7));
  for (MachineId m = 0; m < machines; ++m) {
    // Usable CPU is 96% of kMachine's; leave 1.0-1.9 tasks' worth of it free
    // (memory stays loose, so CPU is the binding dimension of the walk).
    const double free_tasks = 1.0 + 0.9 * fill.NextDouble();
    cell.Allocate(m, Resources{kMachine.cpus * 0.96 - kTask.cpus * free_tasks,
                               kMachine.mem_gb / 2});
  }
  Job job;
  job.num_tasks = tasks;
  job.task_resources = kTask;
  ScoringPlacer placer;
  Rng rng(BenchSeed(3));
  std::vector<TaskClaim> claims;
  for (auto _ : state) {
    claims.clear();
    benchmark::DoNotOptimize(placer.PlaceTasks(cell, job, tasks, rng, &claims));
  }
  state.SetItemsProcessed(state.iterations() * tasks);
}
BENCHMARK(BM_ScoringPlacer)->ArgsProduct({{1000, 12000}, {10, 100, 1000}});

void BM_EventQueuePushPop(benchmark::State& state) {
  EventQueue q;
  Rng rng(BenchSeed(5));
  int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 100; ++i) {
      q.Push(SimTime(t + static_cast<int64_t>(rng.NextBounded(10000))), [] {});
    }
    while (!q.Empty()) {
      SimTime when;
      q.Pop(&when);
      t = when.micros();
    }
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_EventQueuePushPop);

// Steady-state hold-one-pop-one at a fixed backlog: the shape of a running
// simulation, where every task-end pops one event and schedules the next.
// Arg is the number of pending events (heap depth).
void BM_EventQueueSteadyState(benchmark::State& state) {
  const auto backlog = static_cast<size_t>(state.range(0));
  EventQueue q;
  q.Reserve(backlog + 1);
  Rng rng(BenchSeed(5));
  int64_t now = 0;
  for (size_t i = 0; i < backlog; ++i) {
    q.Push(SimTime(static_cast<int64_t>(rng.NextBounded(1000000))), [] {});
  }
  for (auto _ : state) {
    SimTime when;
    q.Pop(&when);
    now = when.micros();
    q.Push(SimTime(now + 1 + static_cast<int64_t>(rng.NextBounded(1000000))),
           [] {});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueSteadyState)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000);

// Push/cancel churn at a fixed backlog: timers that are armed and almost
// always disarmed before firing (task preemption timeouts, retry timers).
void BM_EventQueuePushCancel(benchmark::State& state) {
  const auto backlog = static_cast<size_t>(state.range(0));
  EventQueue q;
  q.Reserve(backlog + 1);
  Rng rng(BenchSeed(7));
  for (size_t i = 0; i < backlog; ++i) {
    q.Push(SimTime(static_cast<int64_t>(rng.NextBounded(1000000))), [] {});
  }
  for (auto _ : state) {
    const EventId id = q.Push(
        SimTime(static_cast<int64_t>(rng.NextBounded(1000000))), [] {});
    benchmark::DoNotOptimize(q.Cancel(id));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_EventQueuePushCancel)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000);

// Mixed pop/push/cancel traffic (2 pushes : 1 cancel : 1 pop per round on
// average) at a fixed backlog — the closest microbenchmark to what a figure
// sweep drives through the queue.
void BM_EventQueueMixed(benchmark::State& state) {
  const auto backlog = static_cast<size_t>(state.range(0));
  EventQueue q;
  q.Reserve(2 * backlog);
  Rng rng(BenchSeed(9));
  std::vector<EventId> live;
  live.reserve(2 * backlog);
  int64_t now = 0;
  for (size_t i = 0; i < backlog; ++i) {
    live.push_back(
        q.Push(SimTime(static_cast<int64_t>(rng.NextBounded(1000000))), [] {}));
  }
  for (auto _ : state) {
    SimTime when;
    q.Pop(&when);
    now = when.micros();
    for (int i = 0; i < 2; ++i) {
      live.push_back(q.Push(
          SimTime(now + 1 + static_cast<int64_t>(rng.NextBounded(1000000))),
          [] {}));
    }
    // Cancel a random previously issued id; roughly half are already gone, so
    // this also exercises the stale-id path.
    const size_t pick = rng.NextBounded(live.size());
    benchmark::DoNotOptimize(q.Cancel(live[pick]));
    if (q.PendingCount() > 2 * backlog) {
      state.PauseTiming();
      while (q.PendingCount() > backlog) {
        q.Pop(nullptr);
      }
      live.clear();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_EventQueueMixed)->Arg(10000)->Arg(100000)->Arg(1000000);

// Randomized first fit at a controlled utilization level. The paper's
// experiments deliberately push cells toward fullness (§4/§5), where the
// random-probe phase keeps missing and the linear fallback dominates; the
// block-summary pruning pays off exactly there. Arg is percent utilization of
// the binding (CPU) dimension.
void BM_PlacerAtUtilization(benchmark::State& state) {
  constexpr uint32_t kMachines = 10000;
  CellState cell(kMachines, kMachine);
  Rng fill(BenchSeed(11));
  const double target = static_cast<double>(state.range(0)) / 100.0;
  if (state.range(0) >= 100) {
    // Saturate: pack every machine until the probe task fits nowhere, so each
    // placement attempt degenerates to the exhaustive no-fit scan — the case
    // where block pruning replaces a 10000-machine walk with ~157 block
    // checks.
    for (MachineId m = 0; m < kMachines; ++m) {
      while (cell.CanFit(m, kTask)) {
        cell.Allocate(m, kTask);
      }
    }
  } else {
    // Random first-fit fill: leaves a realistic mix of full and loose
    // machines.
    while (cell.CpuUtilization() < target) {
      const auto m = static_cast<MachineId>(fill.NextBounded(kMachines));
      if (cell.CanFit(m, kTask)) {
        cell.Allocate(m, kTask);
      }
    }
  }
  Job job;
  job.num_tasks = 10;
  job.task_resources = kTask;
  RandomizedFirstFitPlacer placer;
  Rng rng(BenchSeed(13));
  std::vector<TaskClaim> claims;
  for (auto _ : state) {
    claims.clear();
    const uint32_t placed = placer.PlaceTasks(cell, job, 10, rng, &claims);
    benchmark::DoNotOptimize(placed);
    // Commit and undo so utilization stays pinned at the target.
    for (const TaskClaim& c : claims) {
      cell.Allocate(c.machine, c.resources);
    }
    for (const TaskClaim& c : claims) {
      cell.Free(c.machine, c.resources);
    }
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_PlacerAtUtilization)->Arg(50)->Arg(85)->Arg(95)->Arg(99)->Arg(100);

// The SoA no-fit scan at mega-cell scale (100k machines). With
// max_random_probes=0 every placement goes straight to the phase-2 linear
// fallback, so this isolates the scan itself: a sweep over the contiguous
// per-resource arrays with two-level summary pruning and an 8-wide chunked
// fit kernel (DESIGN.md §11). Arg is the percent of machines that cannot fit
// the probe task: the first Arg% of the cell is packed solid and the rest
// left empty, so every scan must sweep past a controlled no-fit span before
// its first fit (at 100, every scan is a full-cell proof that no fit exists).
void BM_NoFitScanSoA(benchmark::State& state) {
  constexpr uint32_t kMachines = 100000;
  CellState cell(kMachines, kMachine);
  const auto saturated =
      static_cast<uint32_t>(state.range(0)) * (kMachines / 100);
  for (MachineId m = 0; m < saturated; ++m) {
    while (cell.CanFit(m, kTask)) {
      cell.Allocate(m, kTask);
    }
  }
  Job job;
  job.num_tasks = 10;
  job.task_resources = kTask;
  RandomizedFirstFitPlacer placer(/*max_random_probes=*/0);
  Rng rng(BenchSeed(13));
  std::vector<TaskClaim> claims;
  for (auto _ : state) {
    claims.clear();
    const uint32_t placed = placer.PlaceTasks(cell, job, 10, rng, &claims);
    benchmark::DoNotOptimize(placed);
    for (const TaskClaim& c : claims) {
      cell.Allocate(c.machine, c.resources);
    }
    for (const TaskClaim& c : claims) {
      cell.Free(c.machine, c.resources);
    }
  }
  state.SetItemsProcessed(state.iterations() * 10);
}

BENCHMARK(BM_NoFitScanSoA)->Arg(50)->Arg(85)->Arg(95)->Arg(99)->Arg(100);

// Parallel-for dispatch overhead: per-index (one type-erased call per
// element) vs. chunked ranges (one call per grain-sized chunk). The body is
// deliberately trivial so the dispatch cost dominates; on a single-core host
// both run their sequential fallbacks, which still isolates the per-index
// call overhead the chunked overload removes.
void BM_ParallelForPerIndex(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  std::vector<double> out(n, 0.0);
  ShardSlots<double> out_slots(out);
  for (auto _ : state) {
    ParallelFor(
        n, [&](size_t i) { out_slots[i] += 1.0; }, /*max_threads=*/1);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_ParallelForPerIndex)->Arg(1 << 10)->Arg(1 << 16);

void BM_ParallelForRangesChunked(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  std::vector<double> out(n, 0.0);
  ShardSlots<double> out_slots(out);
  for (auto _ : state) {
    ParallelForRanges(
        n, /*grain=*/1024,
        [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            out_slots[i] += 1.0;
          }
        },
        /*max_threads=*/1);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_ParallelForRangesChunked)->Arg(1 << 10)->Arg(1 << 16);

// Fills a cell to roughly `percent` CPU utilization with task-sized
// allocations (random first fit, mirroring BM_PlacerAtUtilization's fill).
// Machines below `reserve` are left empty so the benchmark body always has
// room to stack a transaction — at 99% utilization random fill can leave no
// machine with several free slots, and a rejection-sampling pick would spin.
void FillToUtilization(CellState& cell, int64_t percent, uint64_t seed,
                       uint32_t reserve) {
  Rng fill(seed);
  const double target = static_cast<double>(percent) / 100.0;
  const uint32_t fillable = cell.NumMachines() - reserve;
  while (cell.CpuUtilization() < target) {
    const auto m =
        static_cast<MachineId>(reserve + fill.NextBounded(fillable));
    if (cell.CanFit(m, kTask)) {
      cell.Allocate(m, kTask);
    }
  }
}

// Commit with per-machine claim grouping (cohort batching) on a transaction
// whose claims stack several tasks onto each machine — the shape StartTasks
// produces for multi-task jobs. Grouping does one seqnum/block-summary update
// per machine instead of per claim (DESIGN.md §10). Arg is percent CPU
// utilization.
void BM_CommitGrouped(benchmark::State& state) {
  constexpr uint32_t kMachines = 10000;
  constexpr int kTasksPerMachine = 4;
  constexpr int kMachinesPerTxn = 4;
  CellState cell(kMachines, kMachine);
  FillToUtilization(cell, state.range(0), 11, kMachinesPerTxn);
  std::vector<TaskClaim> claims;
  for (auto _ : state) {
    state.PauseTiming();
    claims.clear();
    // The reserved (empty) machines always fit the stack, so every claim is
    // accepted and the undo below frees exactly what was committed.
    for (MachineId m = 0; m < kMachinesPerTxn; ++m) {
      for (int t = 0; t < kTasksPerMachine; ++t) {
        claims.push_back(TaskClaim{m, kTask, cell.machine(m).seqnum});
      }
    }
    state.ResumeTiming();
    const CommitResult r = cell.Commit(claims, ConflictMode::kFineGrained,
                                       CommitMode::kIncremental);
    benchmark::DoNotOptimize(r);
    state.PauseTiming();
    for (const TaskClaim& c : claims) {
      cell.Free(c.machine, c.resources);
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * claims.size());
}

BENCHMARK(BM_CommitGrouped)->Arg(50)->Arg(85)->Arg(95)->Arg(99);

// Cohort end-of-life free — one FreeBatch per machine — vs. the per-task
// free loop it replaces. Arg is percent CPU utilization of the cell; the
// batch frees `kCohort` tasks stacked on one machine.
void CohortFreeBenchmark(benchmark::State& state, bool batched) {
  constexpr uint32_t kMachines = 10000;
  constexpr uint32_t kCohort = 8;
  CellState cell(kMachines, kMachine);
  FillToUtilization(cell, state.range(0), 11, /*reserve=*/1);
  for (auto _ : state) {
    const MachineId m = 0;  // reserved empty machine: the cohort always fits
    cell.AllocateBatch(m, kTask, kCohort);
    if (batched) {
      cell.FreeBatch(m, kTask, kCohort);
    } else {
      for (uint32_t i = 0; i < kCohort; ++i) {
        cell.Free(m, kTask);
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * kCohort);
}

void BM_CohortFree(benchmark::State& state) {
  CohortFreeBenchmark(state, /*batched=*/true);
}
BENCHMARK(BM_CohortFree)->Arg(50)->Arg(85)->Arg(95)->Arg(99);

void BM_PerTaskFree(benchmark::State& state) {
  CohortFreeBenchmark(state, /*batched=*/false);
}
BENCHMARK(BM_PerTaskFree)->Arg(50)->Arg(85)->Arg(95)->Arg(99);

// The Omega transaction's uniform path at the sizes Omega batch jobs commit:
// `n` identical claims on random machines of a 12k-machine cell (cluster B's
// size), committed fine-grained and incrementally. Commit groups the claims
// per machine in ascending order (DESIGN.md §10), sorting them up to 23
// claims on this cell and counting them from 24; the sizes straddle that
// switch. The undo between iterations is untimed.
constexpr uint32_t kTxnCellMachines = 12000;

std::vector<TaskClaim> UniformClaims(const CellState& cell, int64_t n,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<TaskClaim> claims;
  for (int64_t i = 0; i < n; ++i) {
    const auto m = static_cast<MachineId>(rng.NextBounded(kTxnCellMachines));
    claims.push_back(TaskClaim{m, kTask, cell.machine(m).seqnum});
  }
  return claims;
}

void BM_CommitUniform(benchmark::State& state) {
  CellState cell(kTxnCellMachines, kMachine);
  const std::vector<TaskClaim> claims =
      UniformClaims(cell, state.range(0), BenchSeed(12));
  for (auto _ : state) {
    const CommitResult r = cell.Commit(claims, ConflictMode::kFineGrained,
                                       CommitMode::kIncremental);
    benchmark::DoNotOptimize(r);
    state.PauseTiming();
    for (const TaskClaim& c : claims) {
      cell.Free(c.machine, c.resources);
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CommitUniform)
    ->Arg(1)
    ->Arg(8)
    ->Arg(16)
    ->Arg(24)
    ->Arg(32)
    ->Arg(48)
    ->Arg(64)
    ->Arg(128)
    ->Arg(512)
    ->Arg(3000);

// A cohort's shared end event, as the harness fires it: `n` tasks of one job
// committed and started together (untimed), then the timed pop of their one
// end event, which runs FinishCohort and frees the members per machine.
void BM_FinishCohort(benchmark::State& state) {
  SimOptions options;
  options.seed = BenchSeed(13);
  OmegaSimulation sim(TestCluster(kTxnCellMachines), options, SchedulerConfig{},
                      SchedulerConfig{});
  Job job;
  job.id = 1;
  job.num_tasks = static_cast<uint32_t>(state.range(0));
  job.task_duration = Duration::FromSeconds(1);
  job.task_resources = kTask;
  const std::vector<TaskClaim> claims =
      UniformClaims(sim.cell(), state.range(0), BenchSeed(13));
  for (auto _ : state) {
    state.PauseTiming();
    sim.cell().Commit(claims, ConflictMode::kFineGrained,
                      CommitMode::kIncremental);
    sim.StartTasks(job, claims);
    const SimTime end = sim.sim().Now() + job.task_duration;
    state.ResumeTiming();
    benchmark::DoNotOptimize(sim.sim().RunUntil(end));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FinishCohort)
    ->Arg(1)
    ->Arg(8)
    ->Arg(16)
    ->Arg(24)
    ->Arg(32)
    ->Arg(48)
    ->Arg(64)
    ->Arg(128)
    ->Arg(512)
    ->Arg(3000);

void BM_SimulatorThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    int64_t count = 0;
    for (int i = 0; i < 10000; ++i) {
      // This frame drives sim.Run() below, so every callback fires while
      // `count` is still alive.
      // omega-lint: allow(sim-dangling-capture)
      sim.ScheduleAt(SimTime(i), [&count] { ++count; });
    }
    sim.Run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorThroughput);

// One Mesos allocation round end to end on an empty cell of range(0)
// machines: a one-task batch job arrives and is offered, placed, committed,
// and its offer returned, then the clock moves on 200 ms. With range(1) == 1
// the batch round is the only outstanding offer and takes the implicit lock;
// lazy locking makes its cost independent of the cell size (DESIGN.md §7).
// With range(1) == 2 a service framework holds the lock throughout (its
// decision never ends), so every batch round is the deferred offer over the
// machines changed since.
void BM_MesosAllocationRound(benchmark::State& state) {
  ClusterConfig cfg = TestCluster(static_cast<uint32_t>(state.range(0)));
  cfg.initial_utilization = 0.0;
  SimOptions opts;
  opts.horizon = Duration::FromDays(365);
  opts.seed = BenchSeed(17);
  opts.batch_rate_multiplier = 0.0;
  opts.service_rate_multiplier = 0.0;
  SchedulerConfig service;
  service.name = "service";
  service.service_times.t_job = Duration::FromDays(365);
  MesosSimulation sim(cfg, opts, SchedulerConfig{}, service);
  sim.PrepareRun();
  JobId next_id = 1;
  SimTime now = SimTime::Zero();
  auto round = [&](JobType type, double task_secs) {
    auto job = std::make_shared<Job>();
    job->id = next_id++;
    job->type = type;
    job->submit_time = now;
    job->num_tasks = 1;
    job->task_resources = kTask;
    job->task_duration = Duration::FromSeconds(task_secs);
    job->precedence = DefaultPrecedence(type);
    sim.InjectJob(job);
    now = now + Duration::FromMillis(200);
    sim.sim().RunUntil(now);
  };
  // Two seconds of batch rounds fill the running-task set with 2 s tasks.
  // Once the service holds the lock, the resources those tasks free are all
  // the batch rounds are offered, and the 1 s tasks below always find one.
  for (int i = 0; i < 10; ++i) {
    round(JobType::kBatch, 2.0);
  }
  if (state.range(1) == 2) {
    round(JobType::kService, 2.0);
  }
  for (int i = 0; i < 10; ++i) {
    round(JobType::kBatch, 1.0);
  }
  const int64_t before =
      sim.batch_framework().metrics().JobsScheduled(JobType::kBatch);
  for (auto _ : state) {
    round(JobType::kBatch, 1.0);
  }
  const int64_t scheduled =
      sim.batch_framework().metrics().JobsScheduled(JobType::kBatch) - before;
  if (scheduled != static_cast<int64_t>(state.iterations())) {
    state.SkipWithError("a batch job went unscheduled");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MesosAllocationRound)
    ->ArgsProduct({{1000, 4000, 12000}, {1, 2}});

// The trace codec over the seed-1 one-day cluster-B hifi trace, the one
// perfbench's hifi-replay round-trips (99,132 jobs, 8,848,996 bytes), in
// memory so that only formatting and parsing are timed.
const std::vector<Job>& HifiDayTrace() {
  static const std::vector<Job> trace =
      GenerateHifiTrace(ClusterB(), Duration::FromDays(1.0), BenchSeed(1));
  return trace;
}

void BM_TraceWrite(benchmark::State& state) {
  const std::vector<Job>& trace = HifiDayTrace();
  int64_t bytes = 0;
  for (auto _ : state) {
    std::stringstream ss;
    WriteTrace(trace, ss);
    bytes += static_cast<int64_t>(ss.tellp());
    benchmark::DoNotOptimize(ss);
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_TraceWrite)->Unit(benchmark::kMillisecond);

void BM_TraceRead(benchmark::State& state) {
  std::stringstream ss;
  WriteTrace(HifiDayTrace(), ss);
  const auto size = static_cast<int64_t>(ss.tellp());
  std::vector<Job> jobs;
  std::string error;
  for (auto _ : state) {
    ss.clear();
    ss.seekg(0);
    if (!ReadTrace(ss, &jobs, &error)) {
      state.SkipWithError(error.c_str());
      break;
    }
    benchmark::DoNotOptimize(jobs.data());
  }
  state.SetBytesProcessed(state.iterations() * size);
}
BENCHMARK(BM_TraceRead)->Unit(benchmark::kMillisecond);

// Trial set-up outside perfbench: constructing an Omega simulation of a
// paper cluster and running PrepareRun with a one-day horizon, which samples
// and places the standing population (length-biased rejection sampling) and
// enqueues its task ends. Arg 0 is cluster A, 1 is cluster B.
void BM_InitialFill(benchmark::State& state) {
  const ClusterConfig config = state.range(0) == 0 ? ClusterA() : ClusterB();
  SimOptions opts;
  opts.horizon = Duration::FromDays(1);
  opts.seed = BenchSeed(1);
  size_t pending = 0;
  for (auto _ : state) {
    OmegaSimulation sim(config, opts, SchedulerConfig{}, SchedulerConfig{});
    sim.PrepareRun();
    pending = sim.sim().PendingEvents();
    benchmark::DoNotOptimize(pending);
  }
  state.counters["pending_events"] = static_cast<double>(pending);
}
BENCHMARK(BM_InitialFill)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace omega

BENCHMARK_MAIN();
