#include "src/omega/omega_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/trace/trace_recorder.h"
#include "src/workload/cluster_config.h"
#include "tests/sim_fingerprint.h"

namespace omega {
namespace {

SimOptions ShortRun(uint64_t seed = 1) {
  SimOptions o;
  o.horizon = Duration::FromHours(4);
  o.seed = seed;
  return o;
}

int64_t TotalScheduled(OmegaSimulation& sim) {
  int64_t n = sim.service_scheduler().metrics().JobsScheduled(JobType::kService);
  for (uint32_t i = 0; i < sim.NumBatchSchedulers(); ++i) {
    n += sim.batch_scheduler(i).metrics().JobsScheduled(JobType::kBatch);
  }
  return n;
}

// The initial fill enqueues an end event only for the tasks that end inside
// the horizon (one that ends later could never fire). After PrepareRun the
// queue holds exactly those ends plus the two arrival chains. The count pins
// the queue's starting depth as a deterministic work count: most of cluster
// B's standing population outlives a day.
TEST(OmegaTest, PrepareRunEnqueuesNoTaskEndPastTheHorizon) {
  SimOptions opts;
  opts.horizon = Duration::FromDays(1);
  opts.seed = 1;
  OmegaSimulation plain(ClusterB(), opts, SchedulerConfig{}, SchedulerConfig{});
  plain.PrepareRun();
  EXPECT_EQ(plain.sim().PendingEvents(), 15413u);

  // The same fill with the registry on: every task is registered, and those
  // without an end event are exactly the ones the queue does not hold.
  opts.track_running_tasks = true;
  OmegaSimulation tracked(ClusterB(), opts, SchedulerConfig{},
                          SchedulerConfig{});
  tracked.PrepareRun();
  size_t with_end = 0;
  for (MachineId m = 0; m < tracked.cell().NumMachines(); ++m) {
    for (const RunningTask& t : tracked.task_registry().TasksOn(m)) {
      with_end += t.end_event != kInvalidEventId ? 1 : 0;
    }
  }
  EXPECT_EQ(tracked.sim().PendingEvents(), with_end + 2);
  EXPECT_EQ(tracked.sim().PendingEvents(), plain.sim().PendingEvents());
  // 71,793 standing tasks; 56,382 of them outlive the day.
  EXPECT_EQ(tracked.task_registry().NumRunning(), 71793u);
}

TEST(OmegaTest, SchedulesWholeWorkload) {
  OmegaSimulation sim(TestCluster(), ShortRun(), SchedulerConfig{},
                      SchedulerConfig{});
  sim.Run();
  EXPECT_GT(sim.JobsSubmittedTotal(), 100);
  // Nearly everything is scheduled by the end (a handful may be in flight).
  EXPECT_GE(TotalScheduled(sim) + sim.TotalJobsAbandoned(),
            sim.JobsSubmittedTotal() - 5);
  EXPECT_TRUE(sim.cell().CheckInvariants());
}

TEST(OmegaTest, ServiceAndBatchIndependent) {
  // A pathologically slow service scheduler must not delay batch jobs:
  // no inter-scheduler head-of-line blocking (§4.3).
  SchedulerConfig batch;
  SchedulerConfig service;
  service.service_times.t_job = Duration::FromSeconds(60.0);
  OmegaSimulation sim(TestCluster(), ShortRun(2), batch, service);
  sim.Run();
  EXPECT_LT(sim.MeanBatchWait(), 5.0);
}

TEST(OmegaTest, ConflictsDetectedBetweenSchedulers) {
  // Tiny cell + long decision times + two schedulers fighting over the same
  // machines: conflicts must occur and be resolved (everything still lands).
  ClusterConfig cfg = TestCluster(4);
  cfg.initial_utilization = 0.05;
  cfg.batch.interarrival_mean_secs = 30.0;
  cfg.service.interarrival_mean_secs = 30.0;
  cfg.batch.tasks_per_job = std::make_shared<ConstantDist>(6.0);
  cfg.service.tasks_per_job = std::make_shared<ConstantDist>(6.0);
  cfg.batch.cpus_per_task = std::make_shared<ConstantDist>(1.5);
  cfg.service.cpus_per_task = std::make_shared<ConstantDist>(1.5);
  cfg.batch.mem_gb_per_task = std::make_shared<ConstantDist>(1.0);
  cfg.service.mem_gb_per_task = std::make_shared<ConstantDist>(1.0);
  cfg.batch.task_duration_secs = std::make_shared<ConstantDist>(40.0);
  cfg.service.task_duration_secs = std::make_shared<ConstantDist>(40.0);
  SchedulerConfig sched;
  sched.batch_times.t_job = Duration::FromSeconds(25.0);
  sched.service_times.t_job = Duration::FromSeconds(25.0);
  OmegaSimulation sim(cfg, ShortRun(3), sched, sched);
  sim.Run();
  int64_t conflicts = sim.service_scheduler().metrics().TasksConflicted();
  for (uint32_t i = 0; i < sim.NumBatchSchedulers(); ++i) {
    conflicts += sim.batch_scheduler(i).metrics().TasksConflicted();
  }
  EXPECT_GT(conflicts, 0);
  EXPECT_TRUE(sim.cell().CheckInvariants());
}

TEST(OmegaTest, MultipleBatchSchedulersSplitWork) {
  OmegaSimulation sim(TestCluster(), ShortRun(4), SchedulerConfig{},
                      SchedulerConfig{}, /*num_batch_schedulers=*/4);
  sim.Run();
  ASSERT_EQ(sim.NumBatchSchedulers(), 4u);
  int64_t total = 0;
  for (uint32_t i = 0; i < 4; ++i) {
    const int64_t n = sim.batch_scheduler(i).metrics().JobsScheduled(JobType::kBatch);
    // Hash load balancing: every scheduler gets a meaningful share.
    EXPECT_GT(n, 0);
    total += n;
  }
  EXPECT_GT(total, 100);
  // Shares are roughly even (within a factor ~2 of each other).
  for (uint32_t i = 0; i < 4; ++i) {
    const auto n = static_cast<double>(
        sim.batch_scheduler(i).metrics().JobsScheduled(JobType::kBatch));
    EXPECT_GT(n, total / 4.0 / 2.0);
    EXPECT_LT(n, total / 4.0 * 2.0);
  }
}

TEST(OmegaTest, MoreSchedulersReducePerSchedulerBusyness) {
  ClusterConfig cfg = TestCluster();
  cfg.batch.interarrival_mean_secs = 0.5;  // load the batch path
  SchedulerConfig sched;
  OmegaSimulation sim1(cfg, ShortRun(5), sched, sched, 1);
  OmegaSimulation sim4(cfg, ShortRun(5), sched, sched, 4);
  sim1.Run();
  sim4.Run();
  EXPECT_LT(sim4.MeanBatchBusyness(), sim1.MeanBatchBusyness());
}

TEST(OmegaTest, GangSchedulingAllOrNothing) {
  SchedulerConfig gang;
  gang.commit_mode = CommitMode::kAllOrNothing;
  OmegaSimulation sim(TestCluster(), ShortRun(6), gang, gang);
  sim.Run();
  // Gang-scheduled jobs either fully land or retry: no partially scheduled
  // job can ever be recorded as scheduled (checked inside CompleteAttempt),
  // and the run completes with consistent cell state.
  EXPECT_GT(TotalScheduled(sim), 50);
  EXPECT_TRUE(sim.cell().CheckInvariants());
}

TEST(OmegaTest, CoarseDetectionProducesMoreConflicts) {
  auto run_with = [](ConflictMode mode, int64_t* conflicts, int64_t* scheduled) {
    ClusterConfig cfg = TestCluster(8);
    cfg.batch.interarrival_mean_secs = 1.0;
    cfg.service.interarrival_mean_secs = 5.0;
    SchedulerConfig sched;
    sched.conflict_mode = mode;
    sched.batch_times.t_job = Duration::FromSeconds(2.0);
    sched.service_times.t_job = Duration::FromSeconds(2.0);
    OmegaSimulation sim(cfg, ShortRun(7), sched, sched);
    sim.Run();
    *conflicts = sim.service_scheduler().metrics().TasksConflicted();
    *scheduled = TotalScheduled(sim);
    for (uint32_t i = 0; i < sim.NumBatchSchedulers(); ++i) {
      *conflicts += sim.batch_scheduler(i).metrics().TasksConflicted();
    }
  };
  int64_t fine_conflicts = 0;
  int64_t fine_scheduled = 0;
  int64_t coarse_conflicts = 0;
  int64_t coarse_scheduled = 0;
  run_with(ConflictMode::kFineGrained, &fine_conflicts, &fine_scheduled);
  run_with(ConflictMode::kCoarseGrained, &coarse_conflicts, &coarse_scheduled);
  EXPECT_GT(coarse_conflicts, fine_conflicts);
  EXPECT_GT(fine_scheduled, 100);
  EXPECT_GT(coarse_scheduled, 100);
}

TEST(OmegaTest, AdmissionLimitRejectsExcessJobs) {
  ClusterConfig cfg = TestCluster();
  cfg.batch.interarrival_mean_secs = 0.05;  // flood the scheduler
  SchedulerConfig sched;
  sched.admission_limit = 10;
  sched.batch_times.t_job = Duration::FromSeconds(5.0);
  OmegaSimulation sim(cfg, ShortRun(8), sched, SchedulerConfig{});
  sim.Run();
  int64_t abandoned = 0;
  for (uint32_t i = 0; i < sim.NumBatchSchedulers(); ++i) {
    abandoned += sim.batch_scheduler(i).metrics().JobsAbandoned(JobType::kBatch);
  }
  EXPECT_GT(abandoned, 0);
}

TEST(OmegaTest, DeterministicAcrossRuns) {
  OmegaSimulation sim1(TestCluster(), ShortRun(9), SchedulerConfig{},
                       SchedulerConfig{});
  OmegaSimulation sim2(TestCluster(), ShortRun(9), SchedulerConfig{},
                       SchedulerConfig{});
  sim1.Run();
  sim2.Run();
  EXPECT_EQ(TotalScheduled(sim1), TotalScheduled(sim2));
  EXPECT_DOUBLE_EQ(sim1.cell().CpuUtilization(), sim2.cell().CpuUtilization());
}

// The scheduler-owned attempt buffers. An OmegaScheduler keeps its one
// in-flight attempt's job, claims, rejected claims and preemption placements
// as members and reuses them, and its commit event captures only `this`. The
// audit below replays every attempt from the trace plus a commit observer
// and checks that each commit started exactly its accepted claims (the
// claims minus the rejected ones, whichever path rebuilt them), that a
// rejected claim was one of the transaction's claims, and that preemption
// placements are the only extra starts. Each run is also pinned by its
// whole-simulation digest, recorded while every attempt still allocated its
// own claim vector and captured it in its commit event.
struct AttemptAudit {
  int64_t attempts = 0;
  int64_t commits = 0;
  int64_t partial_commits = 0;          // accepted > 0 and conflicted > 0
  int64_t same_instant_retries = 0;  // next attempt begun by the commit event
  int64_t gang_aborts_at_commit = 0;
  int64_t gang_aborts_at_placement = 0;
  int64_t preemption_starts = 0;        // starts beyond the accepted claims
  int64_t mismatches = 0;
  uint64_t digest = 0;
};

std::vector<MachineId> Sorted(std::vector<MachineId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

AttemptAudit AuditAttempts(OmegaSimulation& sim) {
  TraceRecorder trace;
  sim.SetTraceRecorder(&trace);
  // The harness's observer records CellCommit events; keep it, and log each
  // transaction's claimed machines beside it.
  std::vector<std::vector<MachineId>> committed;
  const CellState::CommitObserver harness_observer =
      sim.cell().commit_observer();
  sim.cell().SetCommitObserver(
      [&committed, harness_observer](std::span<const TaskClaim> claims,
                                     const CommitResult& result) {
        std::vector<MachineId> machines;
        for (const TaskClaim& c : claims) {
          machines.push_back(c.machine);
        }
        committed.push_back(std::move(machines));
        harness_observer(claims, result);
      });
  sim.Run();
  EXPECT_TRUE(sim.cell().CheckInvariants());

  struct Window {
    bool committed = false;
    std::vector<MachineId> claims;
    int64_t accepted = 0;
    int64_t conflicted = 0;
    std::vector<MachineId> rejected;
    std::vector<MachineId> started;
  };
  AttemptAudit audit;
  std::map<uint64_t, Window> open;  // by job id: one attempt per job at a time
  size_t next_commit = 0;
  const TraceEvent* previous = nullptr;
  int64_t retained = 0;
  auto close = [&audit](Window& w) {
    std::vector<MachineId> accepted_part = Sorted(w.claims);
    for (const MachineId m : Sorted(w.rejected)) {
      auto it = std::lower_bound(accepted_part.begin(), accepted_part.end(), m);
      if (it == accepted_part.end() || *it != m) {
        ++audit.mismatches;  // rejected a claim the transaction never made
        return;
      }
      accepted_part.erase(it);
    }
    if (static_cast<int64_t>(accepted_part.size()) != w.accepted ||
        static_cast<int64_t>(w.rejected.size()) != w.conflicted) {
      ++audit.mismatches;
      return;
    }
    std::vector<MachineId> extra = Sorted(w.started);
    for (const MachineId m : accepted_part) {
      auto it = std::lower_bound(extra.begin(), extra.end(), m);
      if (it == extra.end() || *it != m) {
        ++audit.mismatches;  // an accepted claim that never started
        return;
      }
      extra.erase(it);
    }
    audit.preemption_starts += static_cast<int64_t>(extra.size());
  };
  std::vector<TraceEvent> events;
  trace.ForEachRetained(
      [&events](const TraceEvent& e) { events.push_back(e); });
  for (const TraceEvent& e : events) {
    ++retained;
    switch (e.type) {
      case TraceEventType::kAttemptBegin:
        ++audit.attempts;
        if (previous != nullptr &&
            previous->type == TraceEventType::kAttemptEnd &&
            previous->job == e.job && previous->track == e.track &&
            previous->time_us == e.time_us) {
          ++audit.same_instant_retries;
        }
        open[e.job] = Window{};
        break;
      case TraceEventType::kTxnCommit: {
        Window& w = open[e.job];
        if (next_commit >= committed.size()) {
          ++audit.mismatches;
          break;
        }
        w.committed = true;
        w.claims = committed[next_commit++];
        w.accepted = e.arg0;
        w.conflicted = e.arg1;
        ++audit.commits;
        audit.partial_commits += e.arg0 > 0 && e.arg1 > 0 ? 1 : 0;
        break;
      }
      case TraceEventType::kClaimConflict:
        open[e.job].rejected.push_back(e.machine);
        break;
      case TraceEventType::kTaskStart: {
        auto it = open.find(e.job);
        if (it != open.end()) {
          it->second.started.push_back(e.machine);
        }
        break;
      }
      case TraceEventType::kGangAbort:
        (e.arg1 != 0 ? audit.gang_aborts_at_commit
                     : audit.gang_aborts_at_placement)++;
        break;
      case TraceEventType::kAttemptEnd: {
        auto it = open.find(e.job);
        if (it == open.end()) {
          ++audit.mismatches;
          break;
        }
        close(it->second);
        open.erase(it);
        break;
      }
      default:
        break;
    }
    previous = &e;
  }
  // The whole run must fit the recorder, and every transaction must be seen.
  EXPECT_EQ(retained, [&trace] {
    int64_t total = 0;
    for (size_t t = 0; t < kNumTraceEventTypes; ++t) {
      total += trace.CountOf(static_cast<TraceEventType>(t));
    }
    return total;
  }());
  EXPECT_EQ(next_commit, committed.size());
  audit.digest = FingerprintDigest(Fingerprint(sim, trace));
  return audit;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

// Four batch schedulers on a contended cell with fine-grained incremental
// commits: partial conflicts rebuild the accepted set through
// ReconstructAcceptedClaims, and each attempt that made progress starts its
// retry from inside its own commit event, refilling the claim buffers the
// event is still finishing with.
TEST(OmegaAttemptBufferTest, PartialConflictsAndSameInstantRetries) {
  ClusterConfig cfg = TestCluster(32);
  cfg.batch.interarrival_mean_secs = 1.0;
  cfg.batch.tasks_per_job =
      std::make_shared<BoundedParetoDist>(1.0, 400.0, 0.92);
  OmegaSimulation sim(cfg, ShortRun(31), SchedulerConfig{}, SchedulerConfig{},
                      4);
  const AttemptAudit a = AuditAttempts(sim);
  EXPECT_EQ(a.mismatches, 0);
  EXPECT_GT(a.partial_commits, 50);
  EXPECT_GT(a.same_instant_retries, 50);
  EXPECT_EQ(a.preemption_starts, 0);
  EXPECT_EQ(a.digest, 0xe2d25ae02e29e972ULL)
      << "digest is now " << Hex(a.digest);
}

// All-or-nothing commits: gang aborts at commit discard the whole
// transaction (every claim rejected, nothing started), and jobs that do not
// fit the local snapshot abort at placement with an empty claim buffer.
TEST(OmegaAttemptBufferTest, GangAbortsAtCommitAndAtPlacement) {
  ClusterConfig cfg = TestCluster(32);
  cfg.batch.interarrival_mean_secs = 1.0;
  cfg.batch.tasks_per_job =
      std::make_shared<BoundedParetoDist>(1.0, 400.0, 0.92);
  SchedulerConfig gang;
  gang.commit_mode = CommitMode::kAllOrNothing;
  gang.conflict_mode = ConflictMode::kCoarseGrained;
  gang.max_attempts = 50;
  OmegaSimulation sim(cfg, ShortRun(32), gang, gang, 3);
  const AttemptAudit a = AuditAttempts(sim);
  EXPECT_EQ(a.mismatches, 0);
  EXPECT_GT(a.gang_aborts_at_commit, 20);
  EXPECT_GT(a.gang_aborts_at_placement, 20);
  EXPECT_EQ(a.partial_commits, 0);
  EXPECT_EQ(a.preemption_starts, 0);
  EXPECT_EQ(a.digest, 0x60c7c6d16441a7beULL)
      << "digest is now " << Hex(a.digest);
}

// A saturated cell whose service scheduler preempts: after its commit, the
// attempt places the rest of the job by eviction into its preemption buffer
// and starts those tasks too.
TEST(OmegaAttemptBufferTest, PreemptionBranchStartsEvictionWonPlacements) {
  ClusterConfig cfg = TestCluster(8);
  cfg.initial_utilization = 0.05;
  cfg.batch.interarrival_mean_secs = 2.0;
  cfg.batch.tasks_per_job = std::make_shared<ConstantDist>(8.0);
  cfg.batch.cpus_per_task = std::make_shared<ConstantDist>(1.0);
  cfg.batch.mem_gb_per_task = std::make_shared<ConstantDist>(1.0);
  cfg.batch.task_duration_secs = std::make_shared<ConstantDist>(36000.0);
  cfg.service.interarrival_mean_secs = 120.0;
  cfg.service.tasks_per_job = std::make_shared<ConstantDist>(6.0);
  cfg.service.cpus_per_task = std::make_shared<ConstantDist>(2.0);
  cfg.service.mem_gb_per_task = std::make_shared<ConstantDist>(2.0);
  cfg.service.task_duration_secs = std::make_shared<ConstantDist>(36000.0);
  SchedulerConfig batch;
  batch.max_attempts = 20;
  batch.no_progress_backoff = Duration::FromSeconds(5);
  SchedulerConfig service = batch;
  service.enable_preemption = true;
  SimOptions o = ShortRun(33);
  o.track_running_tasks = true;
  OmegaSimulation sim(cfg, o, batch, service);
  const AttemptAudit a = AuditAttempts(sim);
  EXPECT_EQ(a.mismatches, 0);
  const int64_t placed_by_preemption =
      sim.service_scheduler().metrics().TasksPlacedByPreemption();
  EXPECT_GT(placed_by_preemption, 10);
  EXPECT_EQ(a.preemption_starts, placed_by_preemption);
  EXPECT_GT(sim.TasksPreempted(), 0);
  EXPECT_EQ(a.digest, 0xd6875da29e2288bcULL)
      << "digest is now " << Hex(a.digest);
}

}  // namespace
}  // namespace omega
