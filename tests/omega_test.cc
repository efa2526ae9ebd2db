#include "src/omega/omega_scheduler.h"

#include <gtest/gtest.h>

#include "src/workload/cluster_config.h"

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

}  // namespace
}  // namespace omega
