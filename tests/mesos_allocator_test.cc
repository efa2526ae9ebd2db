// Unit-level tests of the Mesos allocator mechanics: DRF ordering, offer
// locking arithmetic, lazy offer locking, and round pacing.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "src/mesos/mesos_simulation.h"
#include "src/workload/cluster_config.h"

namespace omega {
namespace {

SimOptions Opts(uint64_t seed = 1) {
  SimOptions o;
  o.horizon = Duration::FromHours(1);
  o.seed = seed;
  return o;
}

// Suppress arrivals so tests can drive submissions manually.
ClusterConfig QuietCluster() {
  ClusterConfig cfg = TestCluster(8);
  cfg.initial_utilization = 0.05;
  cfg.batch.interarrival_mean_secs = 1e9;
  cfg.service.interarrival_mean_secs = 1e9;
  return cfg;
}

JobPtr MakeJob(JobId id, JobType type, uint32_t tasks) {
  auto job = std::make_shared<Job>();
  job->id = id;
  job->type = type;
  job->num_tasks = tasks;
  job->task_resources = Resources{1.0, 2.0};
  job->task_duration = Duration::FromMinutes(30);
  job->precedence = DefaultPrecedence(type);
  return job;
}

TEST(MesosAllocatorTest, DrfOffersToFrameworkFurthestBelowShare) {
  MesosSimulation sim(QuietCluster(), Opts(), SchedulerConfig{},
                      SchedulerConfig{});
  // Batch grabs a big chunk first; then both frameworks have pending jobs and
  // the *service* framework (share 0) must be served first.
  sim.sim().ScheduleAt(SimTime::FromSeconds(1), [&] {
    sim.SubmitJob(MakeJob(1, JobType::kBatch, 12));
  });
  sim.sim().ScheduleAt(SimTime::FromSeconds(60), [&] {
    sim.SubmitJob(MakeJob(2, JobType::kBatch, 4));
    sim.SubmitJob(MakeJob(3, JobType::kService, 4));
  });
  sim.sim().RunUntil(SimTime::FromMinutes(10));
  const double batch_share = sim.allocator().DominantShare(&sim.batch_framework());
  const double service_share =
      sim.allocator().DominantShare(&sim.service_framework());
  // Both got their jobs placed eventually...
  EXPECT_GT(batch_share, 0.0);
  EXPECT_GT(service_share, 0.0);
  // ...and the service framework's first job started no later than the second
  // batch job finished scheduling (it had priority by DRF).
  EXPECT_EQ(sim.service_framework().metrics().JobsScheduled(JobType::kService), 1);
}

TEST(MesosAllocatorTest, OfferedPlusAvailableNeverExceedsCapacity) {
  MesosSimulation sim(QuietCluster(), Opts(2), SchedulerConfig{},
                      SchedulerConfig{});
  sim.sim().ScheduleAt(SimTime::FromSeconds(1), [&] {
    sim.SubmitJob(MakeJob(1, JobType::kBatch, 6));
    sim.SubmitJob(MakeJob(2, JobType::kService, 6));
  });
  // Probe invariants at several points in time.
  for (int s = 2; s <= 20; s += 3) {
    sim.sim().ScheduleAt(SimTime::FromSeconds(s), [&] {
      const Resources offered = sim.allocator().TotalOffered();
      const Resources available = sim.cell().TotalAvailable();
      EXPECT_TRUE(offered.FitsIn(available))
          << "offers must only cover unused resources";
    });
  }
  sim.sim().RunUntil(SimTime::FromMinutes(5));
}

TEST(MesosAllocatorTest, PacedRoundsDoNotStarveThroughput) {
  // Even with the 100 ms round pacing, a stream of small jobs schedules at
  // high rate (the pacing bounds allocator work, not framework throughput).
  ClusterConfig cfg = TestCluster(32);
  cfg.batch.interarrival_mean_secs = 0.5;
  cfg.service.interarrival_mean_secs = 1e9;
  MesosSimulation sim(cfg, Opts(3), SchedulerConfig{}, SchedulerConfig{});
  sim.Run();
  const int64_t submitted = sim.JobsSubmitted(JobType::kBatch);
  const int64_t scheduled =
      sim.batch_framework().metrics().JobsScheduled(JobType::kBatch);
  EXPECT_GT(submitted, 5000);
  EXPECT_GE(scheduled, submitted * 9 / 10);
}

TEST(MesosAllocatorTest, IdleFrameworkReceivesNoOffers) {
  MesosSimulation sim(QuietCluster(), Opts(4), SchedulerConfig{},
                      SchedulerConfig{});
  sim.Run();  // no arrivals at all
  EXPECT_EQ(sim.batch_framework().metrics().TotalAttempts(), 0);
  EXPECT_EQ(sim.service_framework().metrics().TotalAttempts(), 0);
  EXPECT_TRUE(sim.allocator().TotalOffered().IsZero());
}

// --- Lazy offer locking (DESIGN.md §7) ---
//
// The allocator locks most of an offer implicitly and writes a machine's
// slice out only when it must. Each scenario below checks the lazy ledger
// against the eager one, computing every expected value with the eager
// formula: a round locks (available - offered).ClampNonNegative() on every
// machine where that is non-zero, and a used claim or returned slice is
// subtracted and clamped.

Resources EagerSlice(const Resources& available, const Resources& offered) {
  return (available - offered).ClampNonNegative();
}

Resources EagerRelease(const Resources& offered, const Resources& r) {
  return (offered - r).ClampNonNegative();
}

// Exposes the harness's deterministic failure injection.
class LockTestSim : public MesosSimulation {
 public:
  using MesosSimulation::MesosSimulation;
  using ClusterSimulation::FailMachine;
};

// An empty cell of {4, 16} machines with no generated arrivals.
ClusterConfig EmptyCell(uint32_t machines) {
  ClusterConfig cfg = TestCluster(machines);
  cfg.initial_utilization = 0.0;
  return cfg;
}

SimOptions LockOptions() {
  SimOptions o;
  o.horizon = Duration::FromHours(1);
  o.seed = 1;
  o.batch_rate_multiplier = 0.0;
  o.service_rate_multiplier = 0.0;
  o.track_running_tasks = true;
  return o;
}

// A service framework that holds each offer for 100 s, so batch rounds run
// while it holds the implicit lock.
SchedulerConfig SlowService() {
  SchedulerConfig c;
  c.name = "service";
  c.service_times.t_job = Duration::FromSeconds(100);
  return c;
}

JobPtr LockJob(JobId id, JobType type, Resources per_task, uint32_t tasks,
               double duration_secs) {
  JobPtr job = MakeJob(id, type, tasks);
  job->task_resources = per_task;
  job->task_duration = Duration::FromSeconds(duration_secs);
  return job;
}

void At(MesosSimulation& sim, double secs, std::function<void()> fn) {
  sim.sim().ScheduleAt(SimTime::FromSeconds(secs), std::move(fn));
}

// Every machine's available resources, in id order.
std::vector<Resources> Available(const MesosSimulation& sim) {
  std::vector<Resources> avail;
  for (MachineId m = 0; m < sim.cell().NumMachines(); ++m) {
    avail.push_back(sim.cell().machine(m).Available());
  }
  return avail;
}

// Timeline shared by the first two scenarios, on four empty machines:
//   t=1      batch B0 (one {3, 12} task, 50 s) lands on machine 0 and commits
//            at 1.106, leaving {1, 4} there.
//   t=2      service S1 (one {2, 8} task) takes the implicit lock at 2.001.
//            Its task does not fit machine 0, which stays under the lock;
//            it pulls machine 1. It holds the offer until 102.006.
//   t=51.106 B0's task ends, freeing machine 0 under the lock.
constexpr Resources kBig{3.0, 12.0};
constexpr Resources kService{2.0, 8.0};

void StartLockScenario(MesosSimulation& sim, std::vector<Resources>& at_lock) {
  At(sim, 1, [&sim] {
    sim.InjectJob(LockJob(1, JobType::kBatch, kBig, 1, 50.0));
  });
  At(sim, 2, [&sim, &at_lock] {
    at_lock = Available(sim);
    sim.InjectJob(LockJob(2, JobType::kService, kService, 1, 600.0));
  });
}

TEST(MesosLazyLockTest, FreedLockedMachineOffersExactlyTheFreedAmount) {
  LockTestSim sim(EmptyCell(4), LockOptions(), SchedulerConfig{},
                  SlowService());
  const MesosAllocator& alloc = sim.allocator();
  std::vector<Resources> at_lock;
  StartLockScenario(sim, at_lock);
  // The service's lock slices, eagerly: every machine's availability at 2.001.
  auto lock_slice = [&](MachineId m) {
    return Resources::Zero() + EagerSlice(at_lock[m], Resources::Zero());
  };
  At(sim, 55, [&] {
    ASSERT_EQ(at_lock.size(), 4u);
    EXPECT_EQ(at_lock[0], (Resources{1.0, 4.0}));
    for (MachineId m = 0; m < 4; ++m) {
      EXPECT_EQ(alloc.OfferedOn(m), lock_slice(m)) << "machine " << m;
    }
  });
  // B1 arrives while the service holds the lock; its round (60.001) may see
  // only what was freed since the lock was taken.
  At(sim, 60, [&sim] {
    sim.InjectJob(LockJob(3, JobType::kBatch, kBig, 1, 50.0));
  });
  Resources batch_slice;
  At(sim, 60.05, [&] {
    batch_slice = EagerSlice(sim.cell().machine(0).Available(), lock_slice(0));
    EXPECT_EQ(batch_slice, kBig) << "exactly the freed amount";
    EXPECT_EQ(alloc.OfferedOn(0), lock_slice(0) + batch_slice);
    for (MachineId m = 1; m < 4; ++m) {
      EXPECT_EQ(EagerSlice(sim.cell().machine(m).Available(), lock_slice(m)),
                Resources::Zero());
      EXPECT_EQ(alloc.OfferedOn(m), lock_slice(m)) << "machine " << m;
    }
  });
  At(sim, 61, [&] {
    EXPECT_EQ(sim.batch_framework().metrics().JobsScheduled(JobType::kBatch),
              2);
    EXPECT_EQ(sim.cell().machine(0).allocated, kBig);
    const Resources used = EagerRelease(lock_slice(0) + batch_slice, kBig);
    EXPECT_EQ(alloc.OfferedOn(0), EagerRelease(used, batch_slice - kBig));
  });
  sim.sim().RunUntil(SimTime::FromSeconds(200));
  EXPECT_EQ(sim.service_framework().metrics().JobsScheduled(JobType::kService),
            1);
  EXPECT_EQ(sim.cell().machine(1).allocated, kService);
  EXPECT_EQ(alloc.TotalOffered(), Resources::Zero());
}

TEST(MesosLazyLockTest, MachineFailureUnderOutstandingOffer) {
  SimOptions opts = LockOptions();
  opts.machine_repair_time = Duration::FromSeconds(200);
  LockTestSim sim(EmptyCell(4), opts, SchedulerConfig{}, SlowService());
  const MesosAllocator& alloc = sim.allocator();
  std::vector<Resources> at_lock;
  StartLockScenario(sim, at_lock);
  auto lock_slice = [&](MachineId m) {
    return Resources::Zero() + EagerSlice(at_lock[m], Resources::Zero());
  };
  // Both fail under the service's offer: machine 0 (under the lock, B0's task
  // running) and machine 1 (the service's pending claim).
  At(sim, 30, [&sim] {
    sim.FailMachine(0);
    sim.FailMachine(1);
  });
  At(sim, 30.5, [&] {
    EXPECT_EQ(sim.TasksKilledByFailures(), 1);
    for (MachineId m = 0; m < 4; ++m) {
      EXPECT_EQ(alloc.OfferedOn(m), lock_slice(m)) << "machine " << m;
      EXPECT_EQ(EagerSlice(sim.cell().machine(m).Available(), lock_slice(m)),
                Resources::Zero());
    }
  });
  // Nothing is unoffered, so B1 gets no offer while the service holds its.
  At(sim, 40, [&sim] {
    sim.InjectJob(LockJob(3, JobType::kBatch, Resources{1.0, 4.0}, 1, 1000.0));
  });
  At(sim, 100, [&] {
    EXPECT_EQ(sim.batch_framework().metrics().TotalAttempts(), 1);
    for (MachineId m = 0; m < 4; ++m) {
      EXPECT_EQ(alloc.OfferedOn(m), lock_slice(m)) << "machine " << m;
    }
  });
  // At 102.006 the service's claim on the dead machine is lost and its offer
  // returns; B1 then lands on machine 2, and the service's retry joins it.
  sim.sim().RunUntil(SimTime::FromSeconds(400));
  EXPECT_EQ(sim.batch_framework().metrics().JobsScheduled(JobType::kBatch), 2);
  EXPECT_EQ(sim.cell().machine(2).allocated, (Resources{3.0, 12.0}));
  EXPECT_EQ(sim.service_framework().metrics().JobsScheduled(JobType::kService),
            1);
  EXPECT_EQ(alloc.TotalOffered(), Resources::Zero());
}

TEST(MesosLazyLockTest, LeftoverOfferedEntryStaysExact) {
  // Two overlapping offers on machine 0 with inexact sums leave a non-zero
  // leftover in its offered entry; a later offer and its return must apply
  // the eager arithmetic on top of it.
  LockTestSim sim(EmptyCell(2), LockOptions(), SchedulerConfig{},
                  SlowService());
  const MesosAllocator& alloc = sim.allocator();
  const Resources x{0.7, 2.9};
  const Resources t{0.3, 1.1};
  const Resources y{0.1, 0.7};
  Resources eager;  // machine 0's eager offered entry
  Resources slice_a, slice_b, slice_c;
  At(sim, 1, [&sim, x] {
    sim.InjectJob(LockJob(1, JobType::kBatch, x, 1, 50.0));
  });
  At(sim, 2, [&sim, t] {
    sim.InjectJob(LockJob(2, JobType::kService, t, 1, 600.0));
  });
  At(sim, 2.0015, [&] {  // the service pulled machine 0 at 2.001
    slice_a = EagerSlice(sim.cell().machine(0).Available(), eager);
    eager += slice_a;
    EXPECT_EQ(alloc.OfferedOn(0), eager);
  });
  // X ends at 51.106 under the service's offer; B1's round takes the freed
  // part of machine 0 at 60.001 and returns it at 60.106.
  At(sim, 60, [&sim, y] {
    sim.InjectJob(LockJob(3, JobType::kBatch, y, 1, 600.0));
  });
  At(sim, 60.05, [&] {
    slice_b = EagerSlice(sim.cell().machine(0).Available(), eager);
    eager += slice_b;
    EXPECT_EQ(alloc.OfferedOn(0), eager);
  });
  At(sim, 61, [&] {
    eager = EagerRelease(eager, y);
    eager = EagerRelease(eager, slice_b - y);
    EXPECT_EQ(alloc.OfferedOn(0), eager);
  });
  At(sim, 103, [&] {  // the service committed and returned at 102.006
    eager = EagerRelease(eager, t);
    eager = EagerRelease(eager, slice_a - t);
    EXPECT_EQ(alloc.OfferedOn(0), eager);
    EXPECT_NE(eager, Resources::Zero()) << "scenario must leave a leftover";
  });
  // B2 takes the implicit lock at 150.001: machine 0 stays explicit because
  // of its leftover, and B2's task lands there.
  At(sim, 150, [&sim, y] {
    sim.InjectJob(LockJob(4, JobType::kBatch, y, 1, 600.0));
  });
  At(sim, 150.05, [&] {
    slice_c = EagerSlice(sim.cell().machine(0).Available(), eager);
    eager += slice_c;
    EXPECT_EQ(alloc.OfferedOn(0), eager);
    EXPECT_EQ(alloc.OfferedOn(1),
              EagerSlice(sim.cell().machine(1).Available(), Resources::Zero()));
  });
  sim.sim().RunUntil(SimTime::FromSeconds(151));
  eager = EagerRelease(eager, y);
  eager = EagerRelease(eager, slice_c - y);
  EXPECT_EQ(alloc.OfferedOn(0), eager);
  EXPECT_EQ(alloc.OfferedOn(1), Resources::Zero());
  EXPECT_EQ(alloc.TotalOffered(),
            Resources::Zero() + eager + Resources::Zero());
}

TEST(MesosLazyLockTest, TotalOfferedExactWithOfferOutstanding) {
  LockTestSim sim(EmptyCell(6), LockOptions(), SchedulerConfig{},
                  SlowService());
  // Uneven load: nine {0.7, 2.9} tasks fill machine 0 and part of machine 1,
  // and a short {0.6, 0.5} task frees under the lock.
  At(sim, 1, [&sim] {
    sim.InjectJob(LockJob(1, JobType::kBatch, Resources{0.7, 2.9}, 9, 1000.0));
  });
  At(sim, 2, [&sim] {
    sim.InjectJob(LockJob(2, JobType::kBatch, Resources{0.6, 0.5}, 1, 20.0));
  });
  std::vector<Resources> at_lock;
  At(sim, 5, [&] {
    at_lock = Available(sim);
    sim.InjectJob(LockJob(3, JobType::kService, Resources{0.3, 1.1}, 1, 600.0));
  });
  sim.sim().RunUntil(SimTime::FromSeconds(50));

  // The service's offer is outstanding: eagerly, every machine holds the
  // slice it had when the lock was taken, however it changed since.
  Resources expected;
  for (MachineId m = 0; m < sim.cell().NumMachines(); ++m) {
    const Resources slice = EagerSlice(at_lock[m], Resources::Zero());
    const Resources offered =
        slice.IsZero() ? Resources::Zero() : Resources::Zero() + slice;
    EXPECT_EQ(sim.allocator().OfferedOn(m), offered) << "machine " << m;
    expected += offered;
  }
  EXPECT_NE(sim.cell().machine(1).Available(), at_lock[1])
      << "a machine must have changed under the lock";
  EXPECT_EQ(sim.allocator().TotalOffered(), expected);
}

TEST(MesosLazyLockTest, DeferredOfferOutlivesTheLock) {
  // An offer made while another framework holds the lock defers the machines
  // it does not use; a later lock round must find them still locked.
  LockTestSim sim(EmptyCell(4), LockOptions(), SchedulerConfig{},
                  SlowService());
  const MesosAllocator& alloc = sim.allocator();
  const Resources full{4.0, 16.0};
  // B0 fills machines 0-2 until 2.556.
  At(sim, 1, [&sim, full] {
    sim.InjectJob(LockJob(1, JobType::kBatch, full, 3, 1.45));
  });
  // B1 takes the lock at 2.501 and holds it until 2.606; B0's tasks end
  // under it, freeing machines 0-2.
  At(sim, 2.5, [&sim] {
    sim.InjectJob(LockJob(2, JobType::kBatch, Resources{1.0, 4.0}, 1, 1000.0));
  });
  // S1's round (2.601) runs under B1's lock: it is offered machines 0-2,
  // uses machine 0 and holds 1 and 2 until 102.606.
  At(sim, 2.56, [&sim] {
    sim.InjectJob(LockJob(3, JobType::kService, kService, 1, 1000.0));
  });
  // B2 takes a fresh lock at 3.001; machines 1 and 2 are still S1's.
  At(sim, 3, [&sim, full] {
    sim.InjectJob(LockJob(4, JobType::kBatch, full, 1, 1000.0));
  });
  At(sim, 50, [&] {
    EXPECT_EQ(sim.batch_framework().metrics().JobsScheduled(JobType::kBatch),
              2);
    EXPECT_EQ(alloc.OfferedOn(0), Resources::Zero() + full);
    for (MachineId m : {1u, 2u}) {
      EXPECT_EQ(sim.cell().machine(m).allocated, Resources::Zero());
      EXPECT_EQ(alloc.OfferedOn(m), Resources::Zero() + full)
          << "machine " << m;
    }
  });
  sim.sim().RunUntil(SimTime::FromSeconds(200));
  EXPECT_EQ(sim.batch_framework().metrics().JobsScheduled(JobType::kBatch), 3);
  EXPECT_EQ(sim.cell().machine(0).allocated, kService);
  EXPECT_EQ(sim.cell().machine(1).allocated, full);
  EXPECT_EQ(alloc.TotalOffered(), Resources::Zero());
}

TEST(MesosAllocatorTest, UnregisteredFrameworkIsAnError) {
  MesosSimulation sim(QuietCluster(), Opts(), SchedulerConfig{},
                      SchedulerConfig{});
  MesosSimulation other(QuietCluster(), Opts(), SchedulerConfig{},
                        SchedulerConfig{});
  EXPECT_DEATH(sim.allocator().DominantShare(&other.batch_framework()),
               "unregistered framework");
  EXPECT_DEATH(sim.allocator().OnResourcesAllocated(&other.batch_framework(),
                                                    Resources{1.0, 1.0}),
               "unregistered framework");
  EXPECT_DEATH(sim.allocator().OnResourcesFreed(&other.batch_framework(),
                                                Resources{1.0, 1.0}),
               "unregistered framework");
}

}  // namespace
}  // namespace omega
