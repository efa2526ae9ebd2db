// Cohort task-lifecycle batching (DESIGN.md §10).
//
// The hard design constraint is bit-identicality: every simulation must
// produce exactly the same cell state, metrics, and trace event stream with
// cohort batching on or off. The differential tests here run each
// architecture both ways and compare fingerprints bitwise; the unit tests
// cover the batched CellState mutations, the partial-cancel (tombstone)
// paths, and the TaskRegistry slab against naive reference models.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/cluster/cell_state.h"
#include "src/cluster/task_registry.h"
#include "src/common/random.h"
#include "src/hifi/hifi_simulation.h"
#include "src/mapreduce/mr_scheduler.h"
#include "src/mapreduce/policy.h"
#include "src/mesos/mesos_simulation.h"
#include "src/omega/omega_scheduler.h"
#include "src/scheduler/cluster_simulation.h"
#include "src/scheduler/monolithic.h"
#include "src/trace/trace_recorder.h"
#include "src/workload/cluster_config.h"

namespace omega {
namespace {

// ---------------------------------------------------------------------------
// Differential fingerprinting: run an architecture with cohort batching on
// and off, demand bitwise-equal cell state, counters, and trace streams.
// ---------------------------------------------------------------------------

struct SimFingerprint {
  std::vector<uint64_t> seqnums;
  std::vector<double> allocated;  // cpus, mem per machine, exact
  double total_cpus = 0.0;
  double total_mem = 0.0;
  int64_t submitted = 0;
  int64_t preempted = 0;
  int64_t failures = 0;
  int64_t killed = 0;
  std::vector<TraceEvent> events;
  std::vector<int64_t> event_counts;
};

SimFingerprint Fingerprint(const ClusterSimulation& sim,
                           const TraceRecorder& trace) {
  SimFingerprint fp;
  const CellState& cell = sim.cell();
  for (MachineId m = 0; m < cell.NumMachines(); ++m) {
    fp.seqnums.push_back(cell.machine(m).seqnum);
    fp.allocated.push_back(cell.machine(m).allocated.cpus);
    fp.allocated.push_back(cell.machine(m).allocated.mem_gb);
  }
  fp.total_cpus = cell.TotalAllocated().cpus;
  fp.total_mem = cell.TotalAllocated().mem_gb;
  fp.submitted = sim.JobsSubmittedTotal();
  fp.preempted = sim.TasksPreempted();
  fp.failures = sim.MachineFailures();
  fp.killed = sim.TasksKilledByFailures();
  trace.ForEachRetained(
      [&fp](const TraceEvent& e) { fp.events.push_back(e); });
  for (size_t t = 0; t < kNumTraceEventTypes; ++t) {
    fp.event_counts.push_back(trace.CountOf(static_cast<TraceEventType>(t)));
    fp.event_counts.push_back(trace.SumArg0(static_cast<TraceEventType>(t)));
  }
  return fp;
}

void ExpectIdentical(const SimFingerprint& batched,
                     const SimFingerprint& per_task) {
  EXPECT_EQ(batched.seqnums, per_task.seqnums);
  EXPECT_EQ(batched.allocated, per_task.allocated);  // bitwise via operator==
  EXPECT_EQ(batched.total_cpus, per_task.total_cpus);
  EXPECT_EQ(batched.total_mem, per_task.total_mem);
  EXPECT_EQ(batched.submitted, per_task.submitted);
  EXPECT_EQ(batched.preempted, per_task.preempted);
  EXPECT_EQ(batched.failures, per_task.failures);
  EXPECT_EQ(batched.killed, per_task.killed);
  EXPECT_EQ(batched.event_counts, per_task.event_counts);
  ASSERT_EQ(batched.events.size(), per_task.events.size());
  for (size_t i = 0; i < batched.events.size(); ++i) {
    const TraceEvent& a = batched.events[i];
    const TraceEvent& b = per_task.events[i];
    ASSERT_TRUE(a.time_us == b.time_us && a.type == b.type &&
                a.track == b.track && a.job == b.job &&
                a.machine == b.machine && a.seqnum == b.seqnum &&
                a.arg0 == b.arg0 && a.arg1 == b.arg1)
        << "trace streams diverge at event " << i;
  }
}

// Runs `make_and_run(options, trace)` twice — cohort batching on, then off —
// and asserts bitwise-identical outcomes. The factory must construct the
// simulation, attach the recorder, run, and return the simulation's
// fingerprint.
template <typename MakeAndRun>
void DiffCohortPaths(SimOptions options, MakeAndRun&& make_and_run) {
  options.cohort_batching = true;
  TraceRecorder trace_on;
  const SimFingerprint batched = make_and_run(options, trace_on);
  options.cohort_batching = false;
  TraceRecorder trace_off;
  const SimFingerprint per_task = make_and_run(options, trace_off);
  ExpectIdentical(batched, per_task);
}

SimOptions DiffRun(uint64_t seed, double hours = 3.0) {
  SimOptions o;
  o.horizon = Duration::FromHours(hours);
  o.seed = seed;
  return o;
}

TEST(CohortDifferentialTest, MonolithicBitIdentical) {
  for (uint64_t seed : {1u, 7u}) {
    DiffCohortPaths(DiffRun(seed), [](const SimOptions& o, TraceRecorder& t) {
      MonolithicSimulation sim(TestCluster(64), o, SchedulerConfig{});
      sim.SetTraceRecorder(&t);
      sim.Run();
      EXPECT_TRUE(sim.cell().CheckInvariants());
      return Fingerprint(sim, t);
    });
  }
}

TEST(CohortDifferentialTest, OmegaMultiSchedulerBitIdentical) {
  // Multiple schedulers commit against the shared cell, so this exercises
  // conflicting transactions, partial commit (incremental mode), and
  // ReconstructAcceptedClaims feeding the cohort path.
  for (uint64_t seed : {2u, 11u}) {
    DiffCohortPaths(DiffRun(seed), [](const SimOptions& o, TraceRecorder& t) {
      OmegaSimulation sim(TestCluster(64), o, SchedulerConfig{},
                          SchedulerConfig{}, 3);
      sim.SetTraceRecorder(&t);
      sim.Run();
      EXPECT_TRUE(sim.cell().CheckInvariants());
      return Fingerprint(sim, t);
    });
  }
}

TEST(CohortDifferentialTest, OmegaGangSchedulingBitIdentical) {
  // All-or-nothing commits: gang aborts discard whole transactions before any
  // cohort is created; retried attempts must line up bit-identically.
  SchedulerConfig gang;
  gang.commit_mode = CommitMode::kAllOrNothing;
  gang.conflict_mode = ConflictMode::kCoarseGrained;
  DiffCohortPaths(DiffRun(3), [&gang](const SimOptions& o, TraceRecorder& t) {
    OmegaSimulation sim(TestCluster(64), o, gang, gang, 3);
    sim.SetTraceRecorder(&t);
    sim.Run();
    EXPECT_TRUE(sim.cell().CheckInvariants());
    return Fingerprint(sim, t);
  });
}

TEST(CohortDifferentialTest, MesosFrameworksBitIdentical) {
  // Mesos routes task-end through the on_task_end callback (allocator
  // bookkeeping) and OnTaskFreed (offer re-triggering); both must observe
  // the same sequence of states either way.
  for (uint64_t seed : {4u, 13u}) {
    DiffCohortPaths(DiffRun(seed), [](const SimOptions& o, TraceRecorder& t) {
      MesosSimulation sim(TestCluster(64), o, SchedulerConfig{},
                          SchedulerConfig{});
      sim.SetTraceRecorder(&t);
      sim.Run();
      EXPECT_TRUE(sim.cell().CheckInvariants());
      return Fingerprint(sim, t);
    });
  }
}

TEST(CohortDifferentialTest, MapReduceBitIdentical) {
  ClusterConfig cfg = TestCluster(64);
  cfg.mapreduce_fraction = 0.3;
  MapReducePolicyOptions policy;
  policy.policy = MapReducePolicy::kMaxParallelism;
  DiffCohortPaths(DiffRun(5), [&](const SimOptions& o, TraceRecorder& t) {
    MapReduceSimulation sim(cfg, o, SchedulerConfig{}, SchedulerConfig{},
                            policy);
    sim.SetTraceRecorder(&t);
    sim.Run();
    EXPECT_TRUE(sim.cell().CheckInvariants());
    return Fingerprint(sim, t);
  });
}

TEST(CohortDifferentialTest, HifiReplayBitIdentical) {
  // The high-fidelity configuration enables the availability index, whose
  // bucket-list order is observable through placement — the cohort path must
  // fall back to per-task index maintenance and still win on event count.
  const ClusterConfig cfg = TestCluster(64);
  const std::vector<Job> trace_jobs =
      GenerateHifiTrace(cfg, Duration::FromHours(3), 6);
  DiffCohortPaths(DiffRun(6), [&](const SimOptions& o, TraceRecorder& t) {
    auto sim = MakeHifiSimulation(cfg, o, SchedulerConfig{}, SchedulerConfig{});
    sim->SetTraceRecorder(&t);
    sim->RunTrace(trace_jobs);
    EXPECT_TRUE(sim->cell().CheckInvariants());
    return Fingerprint(*sim, t);
  });
}

TEST(CohortDifferentialTest, MachineFailuresBitIdentical) {
  // Failures kill cohort members mid-flight: the partial-cancel path must
  // shrink the pending free so the shared end event releases exactly the
  // survivors' resources.
  for (uint64_t seed : {8u, 21u}) {
    SimOptions o = DiffRun(seed, 6.0);
    o.track_running_tasks = true;
    o.machine_failure_rate_per_day = 12.0;
    o.machine_repair_time = Duration::FromMinutes(30);
    DiffCohortPaths(o, [](const SimOptions& opts, TraceRecorder& t) {
      OmegaSimulation sim(TestCluster(64), opts, SchedulerConfig{},
                          SchedulerConfig{});
      sim.SetTraceRecorder(&t);
      sim.Run();
      EXPECT_GT(sim.MachineFailures(), 0);
      EXPECT_TRUE(sim.cell().CheckInvariants());
      return Fingerprint(sim, t);
    });
  }
}

TEST(CohortDifferentialTest, PreemptionBitIdentical) {
  // Preemption evicts individual cohort members (and sometimes whole
  // cohorts); victim selection reads the registry's per-machine list order,
  // so this also pins the slab registry's order evolution.
  // A small cell saturated with long batch work plus rare large service jobs
  // (mirrors preemption_test's SaturatedCell): the service scheduler must
  // evict batch tasks, including individual cohort members.
  ClusterConfig cfg = TestCluster(8);
  cfg.initial_utilization = 0.05;
  cfg.batch.interarrival_mean_secs = 2.0;
  cfg.batch.tasks_per_job = std::make_shared<ConstantDist>(8.0);
  cfg.batch.cpus_per_task = std::make_shared<ConstantDist>(1.0);
  cfg.batch.mem_gb_per_task = std::make_shared<ConstantDist>(1.0);
  cfg.batch.task_duration_secs = std::make_shared<ConstantDist>(36000.0);
  cfg.service.interarrival_mean_secs = 900.0;
  cfg.service.tasks_per_job = std::make_shared<ConstantDist>(4.0);
  cfg.service.cpus_per_task = std::make_shared<ConstantDist>(2.0);
  cfg.service.mem_gb_per_task = std::make_shared<ConstantDist>(2.0);
  cfg.service.task_duration_secs = std::make_shared<ConstantDist>(36000.0);
  SchedulerConfig batch;
  batch.max_attempts = 20;
  batch.no_progress_backoff = Duration::FromSeconds(5);
  SchedulerConfig service = batch;
  service.enable_preemption = true;
  SimOptions o = DiffRun(9, 6.0);
  o.track_running_tasks = true;
  DiffCohortPaths(o, [&](const SimOptions& opts, TraceRecorder& t) {
    OmegaSimulation sim(cfg, opts, batch, service);
    sim.SetTraceRecorder(&t);
    sim.Run();
    EXPECT_GT(sim.TasksPreempted(), 0);
    EXPECT_TRUE(sim.cell().CheckInvariants());
    return Fingerprint(sim, t);
  });
}

// ---------------------------------------------------------------------------
// CellState batched mutations vs. the per-task reference.
// ---------------------------------------------------------------------------

TEST(CellStateBatchTest, AllocateAndFreeBatchMatchPerTaskLoops) {
  const Resources cap{16.0, 64.0};
  CellState batched(64, cap);
  CellState reference(64, cap);
  Rng rng(99);
  // Random interleaving of batch allocations and frees; the reference applies
  // the same operations as per-task loops. States must match bitwise.
  std::vector<std::pair<MachineId, std::pair<Resources, uint32_t>>> live;
  for (int step = 0; step < 2000; ++step) {
    const bool do_free = !live.empty() && rng.NextBounded(2) == 0;
    if (do_free) {
      const size_t pick = rng.NextBounded(live.size());
      const auto [m, rc] = live[pick];
      batched.FreeBatch(m, rc.first, rc.second);
      for (uint32_t i = 0; i < rc.second; ++i) {
        reference.Free(m, rc.first);
      }
      live[pick] = live.back();
      live.pop_back();
    } else {
      const auto m = static_cast<MachineId>(rng.NextBounded(64));
      const Resources r{0.1 + 0.1 * static_cast<double>(rng.NextBounded(5)),
                        0.3 + 0.3 * static_cast<double>(rng.NextBounded(5))};
      const auto count = static_cast<uint32_t>(1 + rng.NextBounded(6));
      if (!batched.CanFit(m, r * static_cast<double>(count))) {
        continue;
      }
      batched.AllocateBatch(m, r, count);
      for (uint32_t i = 0; i < count; ++i) {
        reference.Allocate(m, r);
      }
      live.push_back({m, {r, count}});
    }
    ASSERT_TRUE(batched.CheckInvariants());
  }
  for (MachineId m = 0; m < 64; ++m) {
    ASSERT_EQ(batched.machine(m).allocated, reference.machine(m).allocated);
    ASSERT_EQ(batched.machine(m).seqnum, reference.machine(m).seqnum);
  }
  EXPECT_EQ(batched.TotalAllocated(), reference.TotalAllocated());
}

TEST(CellStateBatchTest, BatchOfOneEqualsSingleCall) {
  CellState a(4, Resources{8.0, 32.0});
  CellState b(4, Resources{8.0, 32.0});
  a.AllocateBatch(2, Resources{1.5, 3.0}, 1);
  b.Allocate(2, Resources{1.5, 3.0});
  EXPECT_EQ(a.machine(2).allocated, b.machine(2).allocated);
  EXPECT_EQ(a.machine(2).seqnum, b.machine(2).seqnum);
  a.FreeBatch(2, Resources{1.5, 3.0}, 1);
  b.Free(2, Resources{1.5, 3.0});
  EXPECT_EQ(a.machine(2).allocated, b.machine(2).allocated);
  EXPECT_EQ(a.machine(2).seqnum, b.machine(2).seqnum);
}

TEST(CellStateBatchTest, ZeroCountBatchIsNoop) {
  CellState cell(4, Resources{8.0, 32.0});
  cell.AllocateBatch(1, Resources{1.0, 1.0}, 0);
  cell.FreeBatch(1, Resources{1.0, 1.0}, 0);
  EXPECT_EQ(cell.machine(1).seqnum, 0u);
  EXPECT_EQ(cell.TotalAllocated(), Resources::Zero());
}

TEST(CellStateBatchTest, BatchSeqnumAdvanceEqualsCount) {
  CellState cell(4, Resources{8.0, 32.0});
  cell.AllocateBatch(3, Resources{0.5, 1.0}, 7);
  EXPECT_EQ(cell.machine(3).seqnum, 7u);
  cell.FreeBatch(3, Resources{0.5, 1.0}, 7);
  EXPECT_EQ(cell.machine(3).seqnum, 14u);
}

TEST(CellStateBatchTest, BatchedOpsWithAvailabilityIndexMatchReference) {
  // With the index enabled, batched ops fall back to the per-task sequence so
  // bucket-list order (observable via WalkByAvailability) stays identical.
  CellState batched(64, Resources{16.0, 64.0});
  CellState reference(64, Resources{16.0, 64.0});
  batched.EnableAvailabilityIndex();
  reference.EnableAvailabilityIndex();
  Rng rng(7);
  for (int step = 0; step < 300; ++step) {
    const auto m = static_cast<MachineId>(rng.NextBounded(64));
    const Resources r{0.5, 2.0};
    const auto count = static_cast<uint32_t>(1 + rng.NextBounded(4));
    if (batched.CanFit(m, r * static_cast<double>(count))) {
      batched.AllocateBatch(m, r, count);
      for (uint32_t i = 0; i < count; ++i) {
        reference.Allocate(m, r);
      }
    }
  }
  auto walk_order = [](const CellState& cell) {
    std::vector<MachineId> order;
    auto walk = cell.WalkByAvailability(Resources{0.5, 2.0});
    for (MachineId m = walk.Next(); m != kInvalidMachineId; m = walk.Next()) {
      order.push_back(m);
    }
    return order;
  };
  EXPECT_EQ(walk_order(batched), walk_order(reference));
}

TEST(CellStateBatchTest, GroupedCommitMatchesPerClaimCommit) {
  // Randomized transactions — stacked claims, stale seqnums, both conflict
  // and commit modes — applied to twin cells, one with grouped application
  // disabled. Results, rejected lists, and state must match exactly.
  Rng rng(1234);
  for (int round = 0; round < 200; ++round) {
    const auto conflict = rng.NextBounded(2) == 0 ? ConflictMode::kFineGrained
                                                  : ConflictMode::kCoarseGrained;
    const auto commit = rng.NextBounded(2) == 0 ? CommitMode::kIncremental
                                                : CommitMode::kAllOrNothing;
    CellState grouped(16, Resources{8.0, 32.0});
    CellState per_claim(16, Resources{8.0, 32.0});
    per_claim.SetBatchedCommit(false);
    // Pre-load some machines and bump seqnums so stale claims conflict.
    for (int i = 0; i < 8; ++i) {
      const auto m = static_cast<MachineId>(rng.NextBounded(16));
      const Resources r{1.0, 4.0};
      if (grouped.CanFit(m, r)) {
        grouped.Allocate(m, r);
        per_claim.Allocate(m, r);
      }
    }
    const Resources task{1.0 + static_cast<double>(rng.NextBounded(3)),
                         2.0 + static_cast<double>(rng.NextBounded(3))};
    std::vector<TaskClaim> claims;
    const auto n = 1 + rng.NextBounded(24);
    for (uint64_t i = 0; i < n; ++i) {
      const auto m = static_cast<MachineId>(rng.NextBounded(16));
      // Mix fresh and stale seqnums to draw both accept and reject paths.
      const uint64_t seq = rng.NextBounded(2) == 0
                               ? grouped.machine(m).seqnum
                               : grouped.machine(m).seqnum + 1;
      claims.push_back(TaskClaim{m, task, seq});
    }
    std::vector<TaskClaim> rejected_grouped;
    std::vector<TaskClaim> rejected_per_claim;
    const CommitResult a =
        grouped.Commit(claims, conflict, commit, &rejected_grouped);
    const CommitResult b =
        per_claim.Commit(claims, conflict, commit, &rejected_per_claim);
    ASSERT_EQ(a.accepted, b.accepted);
    ASSERT_EQ(a.conflicted, b.conflicted);
    ASSERT_EQ(rejected_grouped.size(), rejected_per_claim.size());
    for (size_t i = 0; i < rejected_grouped.size(); ++i) {
      ASSERT_EQ(rejected_grouped[i].machine, rejected_per_claim[i].machine);
      ASSERT_EQ(rejected_grouped[i].seqnum_at_placement,
                rejected_per_claim[i].seqnum_at_placement);
    }
    for (MachineId m = 0; m < 16; ++m) {
      ASSERT_EQ(grouped.machine(m).allocated, per_claim.machine(m).allocated);
      ASSERT_EQ(grouped.machine(m).seqnum, per_claim.machine(m).seqnum);
    }
    ASSERT_EQ(grouped.TotalAllocated(), per_claim.TotalAllocated());
    ASSERT_TRUE(grouped.CheckInvariants());
  }
}

TEST(CellStateBatchTest, MixedResourceCommitFallsBackAndMatches) {
  // Transactions with non-uniform per-claim resources (not a cohort) must
  // take the per-claim path and still match the ungrouped reference.
  CellState grouped(8, Resources{8.0, 32.0});
  CellState per_claim(8, Resources{8.0, 32.0});
  per_claim.SetBatchedCommit(false);
  std::vector<TaskClaim> claims;
  claims.push_back(TaskClaim{0, Resources{1.0, 2.0}, 0});
  claims.push_back(TaskClaim{0, Resources{2.0, 1.0}, 0});
  claims.push_back(TaskClaim{1, Resources{1.0, 2.0}, 0});
  const CommitResult a =
      grouped.Commit(claims, ConflictMode::kFineGrained, CommitMode::kIncremental);
  const CommitResult b = per_claim.Commit(claims, ConflictMode::kFineGrained,
                                          CommitMode::kIncremental);
  EXPECT_EQ(a.accepted, 3);
  EXPECT_EQ(b.accepted, 3);
  for (MachineId m = 0; m < 8; ++m) {
    EXPECT_EQ(grouped.machine(m).allocated, per_claim.machine(m).allocated);
    EXPECT_EQ(grouped.machine(m).seqnum, per_claim.machine(m).seqnum);
  }
}

// ---------------------------------------------------------------------------
// Harness-level cohort lifecycle edge cases.
// ---------------------------------------------------------------------------

class HarnessSim final : public ClusterSimulation {
 public:
  using ClusterSimulation::ClusterSimulation;
  using ClusterSimulation::FailMachine;
  void SubmitJob(const JobPtr&) override {}
};

SimOptions TrackedOpts(bool cohorts) {
  SimOptions o;
  o.horizon = Duration::FromHours(2);
  o.track_running_tasks = true;
  o.cohort_batching = cohorts;
  return o;
}

Job UniformJob(uint32_t num_tasks, double secs = 600.0) {
  Job j;
  j.id = 42;
  j.num_tasks = num_tasks;
  j.task_duration = Duration::FromSeconds(secs);
  j.task_resources = Resources{1.0, 2.0};
  j.precedence = 0;
  return j;
}

TEST(CohortLifecycleTest, SingleTaskCohortRunsToCompletion) {
  HarnessSim sim(TestCluster(8), TrackedOpts(true));
  const Job job = UniformJob(1);
  sim.cell().Allocate(3, job.task_resources);
  const std::vector<TaskClaim> claims{{3, job.task_resources, 0}};
  sim.StartTasks(job, claims);
  EXPECT_EQ(sim.task_registry().NumRunning(), 1u);
  sim.sim().RunUntil(SimTime::Zero() + Duration::FromSeconds(601));
  EXPECT_EQ(sim.task_registry().NumRunning(), 0u);
  EXPECT_EQ(sim.cell().machine(3).allocated, Resources::Zero());
  // One allocate + one free.
  EXPECT_EQ(sim.cell().machine(3).seqnum, 2u);
  EXPECT_TRUE(sim.cell().CheckInvariants());
}

TEST(CohortLifecycleTest, CohortEndFreesAggregatedResourcesPerMachine) {
  HarnessSim sim(TestCluster(8), TrackedOpts(true));
  const Job job = UniformJob(5);
  // Three tasks stacked on machine 1, two on machine 4.
  std::vector<TaskClaim> claims;
  for (const MachineId m : {1u, 1u, 1u, 4u, 4u}) {
    sim.cell().Allocate(m, job.task_resources);
    claims.push_back(TaskClaim{m, job.task_resources, 0});
  }
  sim.StartTasks(job, claims);
  EXPECT_EQ(sim.task_registry().NumRunningOn(1), 3u);
  EXPECT_EQ(sim.task_registry().NumRunningOn(4), 2u);
  sim.sim().RunUntil(SimTime::Zero() + Duration::FromSeconds(601));
  EXPECT_EQ(sim.task_registry().NumRunning(), 0u);
  EXPECT_EQ(sim.cell().machine(1).allocated, Resources::Zero());
  EXPECT_EQ(sim.cell().machine(4).allocated, Resources::Zero());
  // 3 allocs + one batched free advancing by 3.
  EXPECT_EQ(sim.cell().machine(1).seqnum, 6u);
  EXPECT_EQ(sim.cell().machine(4).seqnum, 4u);
  EXPECT_TRUE(sim.cell().CheckInvariants());
}

TEST(CohortLifecycleTest, MemberKilledByFailureShrinksPendingFree) {
  // A machine failure kills two of five cohort members mid-flight; the
  // survivors' end event must free exactly the survivors' resources.
  for (const bool cohorts : {true, false}) {
    HarnessSim sim(TestCluster(8), TrackedOpts(cohorts));
    const Job job = UniformJob(5);
    std::vector<TaskClaim> claims;
    for (const MachineId m : {2u, 2u, 5u, 5u, 5u}) {
      sim.cell().Allocate(m, job.task_resources);
      claims.push_back(TaskClaim{m, job.task_resources, 0});
    }
    sim.StartTasks(job, claims);
    // Fail machine 2 halfway through the tasks' lifetime.
    sim.sim().ScheduleAt(SimTime::Zero() + Duration::FromSeconds(300),
                         [&sim] { sim.FailMachine(2); });
    sim.sim().RunUntil(SimTime::Zero() + Duration::FromSeconds(601));
    EXPECT_EQ(sim.TasksKilledByFailures(), 2);
    EXPECT_EQ(sim.task_registry().NumRunning(), 0u);
    // The failed machine holds only its downtime reservation; the survivor
    // machine is fully freed.
    EXPECT_EQ(sim.cell().machine(5).allocated, Resources::Zero());
    EXPECT_TRUE(sim.cell().CheckInvariants());
  }
}

TEST(CohortLifecycleTest, FullyEvictedCohortCancelsItsEndEvent) {
  for (const bool cohorts : {true, false}) {
    HarnessSim sim(TestCluster(8), TrackedOpts(cohorts));
    const Job job = UniformJob(3);
    std::vector<TaskClaim> claims;
    for (const MachineId m : {6u, 6u, 6u}) {
      sim.cell().Allocate(m, job.task_resources);
      claims.push_back(TaskClaim{m, job.task_resources, 0});
    }
    sim.StartTasks(job, claims);
    sim.sim().ScheduleAt(SimTime::Zero() + Duration::FromSeconds(100),
                         [&sim] { sim.FailMachine(6); });
    // Run well past the cohort's end time: the cancelled end event must not
    // double-free (Free would CHECK-fail on negative allocation).
    sim.sim().RunUntil(SimTime::Zero() + Duration::FromSeconds(2000));
    EXPECT_EQ(sim.TasksKilledByFailures(), 3);
    EXPECT_EQ(sim.task_registry().NumRunning(), 0u);
    EXPECT_TRUE(sim.cell().CheckInvariants());
  }
}

TEST(CohortLifecycleTest, OnTaskEndRunsPerMemberInClaimOrder) {
  HarnessSim sim(TestCluster(8), TrackedOpts(true));
  const Job job = UniformJob(4);
  std::vector<TaskClaim> claims;
  for (const MachineId m : {7u, 0u, 7u, 3u}) {
    sim.cell().Allocate(m, job.task_resources);
    claims.push_back(TaskClaim{m, job.task_resources, 0});
  }
  std::vector<MachineId> seen;
  sim.StartTasks(job, claims,
                 [&seen](const TaskClaim& c) { seen.push_back(c.machine); });
  sim.sim().RunUntil(SimTime::Zero() + Duration::FromSeconds(601));
  EXPECT_EQ(seen, (std::vector<MachineId>{7u, 0u, 7u, 3u}));
}

// ---------------------------------------------------------------------------
// TaskRegistry slab vs. a naive reference model (mirrors cell_state_test's
// randomized block-summary churn test).
// ---------------------------------------------------------------------------

// Reference model: hash maps plus the same append/swap-remove list evolution
// the registry promises (victim selection order is observable, so the slab
// must reproduce it exactly).
class ReferenceRegistry {
 public:
  uint64_t Add(MachineId machine, const Resources& resources,
               int32_t precedence) {
    const uint64_t id = next_id_++;
    tasks_.emplace(id, RunningTask{id, machine, resources, precedence, 0, 0});
    by_machine_[machine].push_back(id);
    return id;
  }

  void Remove(uint64_t task_id) {
    auto it = tasks_.find(task_id);
    ASSERT_TRUE(it != tasks_.end());
    auto& list = by_machine_[it->second.machine];
    auto pos = std::find(list.begin(), list.end(), task_id);
    ASSERT_TRUE(pos != list.end());
    *pos = list.back();
    list.pop_back();
    tasks_.erase(it);
  }

  std::vector<uint64_t> IdsOn(MachineId machine) const {
    auto it = by_machine_.find(machine);
    return it == by_machine_.end() ? std::vector<uint64_t>{} : it->second;
  }

  Resources PreemptibleOn(MachineId machine, int32_t precedence) const {
    Resources total;
    for (const uint64_t id : IdsOn(machine)) {
      const RunningTask& t = tasks_.at(id);
      if (t.precedence < precedence) {
        total += t.resources;
      }
    }
    return total;
  }

  size_t Size() const { return tasks_.size(); }

 private:
  std::unordered_map<uint64_t, RunningTask> tasks_;
  std::unordered_map<MachineId, std::vector<uint64_t>> by_machine_;
  uint64_t next_id_ = 1;
};

TEST(TaskRegistryChurnTest, MatchesReferenceModelUnderRandomizedChurn) {
  TaskRegistry registry;
  ReferenceRegistry reference;
  Rng rng(4321);
  std::vector<uint64_t> live;
  constexpr uint32_t kMachines = 24;
  for (int step = 0; step < 5000; ++step) {
    const uint64_t op = rng.NextBounded(10);
    if (op < 6 || live.empty()) {
      const auto m = static_cast<MachineId>(rng.NextBounded(kMachines));
      const Resources r{0.5 + 0.5 * static_cast<double>(rng.NextBounded(4)),
                        1.0 + static_cast<double>(rng.NextBounded(4))};
      const auto prec = static_cast<int32_t>(rng.NextBounded(3));
      const uint64_t id = registry.Add(m, r, prec, 0);
      const uint64_t ref_id = reference.Add(m, r, prec);
      ASSERT_EQ(id, ref_id);  // sequential ids are observable in traces
      live.push_back(id);
    } else {
      const size_t pick = rng.NextBounded(live.size());
      const uint64_t id = live[pick];
      EXPECT_TRUE(registry.Remove(id));
      reference.Remove(id);
      live[pick] = live.back();
      live.pop_back();
    }
    if (step % 50 == 0) {
      ASSERT_EQ(registry.NumRunning(), reference.Size());
      for (MachineId m = 0; m < kMachines; ++m) {
        const std::vector<uint64_t> expect_ids = reference.IdsOn(m);
        const std::vector<RunningTask> got = registry.TasksOn(m);
        ASSERT_EQ(got.size(), expect_ids.size()) << "machine " << m;
        for (size_t i = 0; i < got.size(); ++i) {
          // Exact order match: the per-machine list evolution is observable
          // through SelectVictims' non-stable sort.
          ASSERT_EQ(got[i].task_id, expect_ids[i]) << "machine " << m;
        }
        const auto prec = static_cast<int32_t>(rng.NextBounded(4));
        ASSERT_EQ(registry.PreemptibleOn(m, prec),
                  reference.PreemptibleOn(m, prec));
        ASSERT_EQ(registry.NumRunningOn(m), expect_ids.size());
      }
    }
  }
  EXPECT_FALSE(registry.Remove(~0ull));  // unknown id
}

TEST(TaskRegistryChurnTest, SlotReuseKeepsIdsUniqueAndSequential) {
  TaskRegistry registry;
  const uint64_t a = registry.Add(0, Resources{1.0, 1.0}, 0, 0);
  const uint64_t b = registry.Add(1, Resources{1.0, 1.0}, 0, 0);
  EXPECT_TRUE(registry.Remove(a));
  const uint64_t c = registry.Add(0, Resources{1.0, 1.0}, 0, 0);  // reuses slot
  EXPECT_NE(c, a);
  EXPECT_EQ(c, b + 1);
  EXPECT_FALSE(registry.Remove(a));  // stale id does not resolve
  EXPECT_TRUE(registry.Remove(b));
  EXPECT_TRUE(registry.Remove(c));
  EXPECT_EQ(registry.NumRunning(), 0u);
}

}  // namespace
}  // namespace omega
