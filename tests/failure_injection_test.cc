// Machine failure injection and heterogeneous cells — the two simplifications
// the paper's simulators made ("does not model machine failures"; lightweight
// machines are homogeneous) that this implementation can lift.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "src/omega/omega_scheduler.h"
#include "src/workload/cluster_config.h"

namespace omega {
namespace {

TEST(HeterogeneityTest, HomogeneousByDefault) {
  const auto caps = BuildMachineCapacities(TestCluster(10));
  ASSERT_EQ(caps.size(), 10u);
  for (const Resources& c : caps) {
    EXPECT_EQ(c, TestCluster().machine_capacity);
  }
}

TEST(HeterogeneityTest, ClassesInterleavedByFraction) {
  ClusterConfig cfg = TestCluster(1000);
  cfg.machine_classes = {
      {Resources{4.0, 16.0}, 0.6},
      {Resources{8.0, 32.0}, 0.3},
      {Resources{16.0, 64.0}, 0.1},
  };
  const auto caps = BuildMachineCapacities(cfg);
  int small = 0;
  int medium = 0;
  int large = 0;
  for (const Resources& c : caps) {
    if (c.cpus == 4.0) {
      ++small;
    } else if (c.cpus == 8.0) {
      ++medium;
    } else {
      ++large;
    }
  }
  EXPECT_NEAR(small, 600, 30);
  EXPECT_NEAR(medium, 300, 30);
  EXPECT_NEAR(large, 100, 30);
  // Interleaved, not blocked: the first 20 machines already mix classes.
  std::set<double> first_20;
  for (int i = 0; i < 20; ++i) {
    first_20.insert(caps[i].cpus);
  }
  EXPECT_GE(first_20.size(), 2u);
}

TEST(HeterogeneityTest, CellTotalsReflectMixedCapacities) {
  CellState cell({Resources{4.0, 16.0}, Resources{8.0, 32.0}});
  EXPECT_EQ(cell.TotalCapacity(), (Resources{12.0, 48.0}));
  EXPECT_EQ(cell.machine(1).capacity, (Resources{8.0, 32.0}));
}

TEST(HeterogeneityTest, SimulationRunsOnMixedCell) {
  ClusterConfig cfg = TestCluster(64);
  cfg.machine_classes = {
      {Resources{4.0, 16.0}, 0.7},
      {Resources{8.0, 32.0}, 0.3},
  };
  SimOptions opts;
  opts.horizon = Duration::FromHours(2);
  opts.seed = 11;
  OmegaSimulation sim(cfg, opts, SchedulerConfig{}, SchedulerConfig{});
  sim.Run();
  EXPECT_GT(sim.batch_scheduler(0).metrics().JobsScheduled(JobType::kBatch), 50);
  EXPECT_TRUE(sim.cell().CheckInvariants());
}

SimOptions FailureOpts(uint64_t seed, double rate_per_day) {
  SimOptions o;
  o.horizon = Duration::FromHours(6);
  o.seed = seed;
  o.track_running_tasks = true;
  o.machine_failure_rate_per_day = rate_per_day;
  o.machine_repair_time = Duration::FromMinutes(30);
  return o;
}

TEST(FailureInjectionTest, FailuresOccurAtConfiguredRate) {
  OmegaSimulation sim(TestCluster(64), FailureOpts(1, 1.0), SchedulerConfig{},
                      SchedulerConfig{});
  sim.Run();
  // 64 machines * 1/day * 0.25 days = ~16 expected failures.
  EXPECT_GT(sim.MachineFailures(), 4);
  EXPECT_LT(sim.MachineFailures(), 48);
  EXPECT_TRUE(sim.cell().CheckInvariants());
}

TEST(FailureInjectionTest, NoFailuresWhenDisabled) {
  SimOptions opts = FailureOpts(2, 0.0);
  OmegaSimulation sim(TestCluster(64), opts, SchedulerConfig{}, SchedulerConfig{});
  sim.Run();
  EXPECT_EQ(sim.MachineFailures(), 0);
  EXPECT_EQ(sim.TasksKilledByFailures(), 0);
}

TEST(FailureInjectionTest, FailuresKillRunningTasks) {
  // A busy cell: failures should land on occupied machines.
  ClusterConfig cfg = TestCluster(32);
  cfg.initial_utilization = 0.6;
  OmegaSimulation sim(cfg, FailureOpts(3, 4.0), SchedulerConfig{},
                      SchedulerConfig{});
  sim.Run();
  EXPECT_GT(sim.MachineFailures(), 0);
  EXPECT_GT(sim.TasksKilledByFailures(), 0);
  EXPECT_TRUE(sim.cell().CheckInvariants());
}

TEST(FailureInjectionTest, MachinesRepairAndReturn) {
  OmegaSimulation sim(TestCluster(16), FailureOpts(4, 8.0), SchedulerConfig{},
                      SchedulerConfig{});
  sim.Run();
  EXPECT_GT(sim.MachineFailures(), 0);
  // Repair time (30 min) is far shorter than the horizon: almost everything
  // failed early has been repaired; at most a handful remain down.
  EXPECT_LE(sim.MachinesDown(), 4);
  EXPECT_GE(sim.MachinesDown(), 0);
}

TEST(FailureInjectionTest, WorkloadStillSchedules) {
  OmegaSimulation sim(TestCluster(64), FailureOpts(5, 2.0), SchedulerConfig{},
                      SchedulerConfig{});
  sim.Run();
  const int64_t scheduled =
      sim.batch_scheduler(0).metrics().JobsScheduled(JobType::kBatch);
  EXPECT_GT(scheduled, 100);
}

// ---------------------------------------------------------------------------
// Tasks that outlive the horizon have no end event. Killing them — an
// initial-fill task and a cohort member, by machine failure or by preemption
// — must still cancel nothing twice and keep the registry and the cell in
// step.
// ---------------------------------------------------------------------------

class HorizonHarness final : public ClusterSimulation {
 public:
  using ClusterSimulation::ClusterSimulation;
  using ClusterSimulation::FailMachine;
  void SubmitJob(const JobPtr&) override {}
};

// Two cluster-B machines and a one-minute horizon: the long-lived standing
// population almost all ends after the run, as does the cohort started below.
HorizonHarness MakeHorizonHarness() {
  ClusterConfig cfg = ClusterB();
  cfg.num_machines = 2;
  SimOptions o;
  o.horizon = Duration::FromMinutes(1);
  o.seed = 5;
  o.track_running_tasks = true;
  o.batch_rate_multiplier = 0.0;
  o.service_rate_multiplier = 0.0;
  o.machine_repair_time = Duration::FromSeconds(30);
  return HorizonHarness(cfg, o);
}

struct TaskCensus {
  int fill_past_horizon = 0;  // initial-fill tasks with no end event
  int fill_in_horizon = 0;
  int cohort_members = 0;
};

TaskCensus Census(const HorizonHarness& sim) {
  TaskCensus census;
  for (MachineId m = 0; m < sim.cell().NumMachines(); ++m) {
    for (const RunningTask& t : sim.task_registry().TasksOn(m)) {
      if (t.cohort != CohortStore::kNoCohort) {
        ++census.cohort_members;
      } else if (t.end_event == kInvalidEventId) {
        ++census.fill_past_horizon;
      } else {
        ++census.fill_in_horizon;
      }
    }
  }
  return census;
}

// Resources held by registered tasks must equal each live machine's
// allocation (a down machine holds its downtime reservation instead).
void ExpectRegistryMatchesCell(const HorizonHarness& sim) {
  for (MachineId m = 0; m < sim.cell().NumMachines(); ++m) {
    if (sim.MachineIsDown(m)) {
      EXPECT_EQ(sim.task_registry().NumRunningOn(m), 0u);
      continue;
    }
    Resources held;
    for (const RunningTask& t : sim.task_registry().TasksOn(m)) {
      held += t.resources;
    }
    EXPECT_NEAR(held.cpus, sim.cell().machine(m).allocated.cpus, 1e-9) << m;
    EXPECT_NEAR(held.mem_gb, sim.cell().machine(m).allocated.mem_gb, 1e-9) << m;
  }
  EXPECT_TRUE(sim.cell().CheckInvariants());
}

// Starts one tiny, lowest-precedence task on every machine as one cohort
// whose end (a day away) is past the horizon. Returns the callback counter.
std::shared_ptr<int> StartLongCohort(HorizonHarness& sim) {
  Job job;
  job.id = 7;
  job.num_tasks = 2;
  job.task_duration = Duration::FromDays(1);
  job.task_resources = Resources{0.01, 0.01};
  job.precedence = 0;
  std::vector<TaskClaim> claims;
  for (MachineId m = 0; m < 2; ++m) {
    EXPECT_TRUE(sim.cell().CanFit(m, job.task_resources));
    sim.cell().Allocate(m, job.task_resources);
    claims.push_back(TaskClaim{m, job.task_resources, 0});
  }
  auto ended = std::make_shared<int>(0);
  const size_t pending = sim.sim().PendingEvents();
  sim.StartTasks(job, claims, [ended](const TaskClaim&) { ++*ended; });
  EXPECT_EQ(sim.sim().PendingEvents(), pending) << "cohort end past horizon";
  return ended;
}

TEST(HorizonGuardTest, MachineFailureKillsTasksWithoutEndEvents) {
  HorizonHarness sim = MakeHorizonHarness();
  sim.PrepareRun();
  auto ended = StartLongCohort(sim);
  const TaskCensus before = Census(sim);
  ASSERT_GT(before.fill_past_horizon, 0);
  ASSERT_EQ(before.cohort_members, 2);
  ExpectRegistryMatchesCell(sim);

  // Machine 0's failure evicts one of two cohort members; machine 1's evicts
  // the last, which releases the cohort without an event to cancel.
  sim.FailMachine(0);
  EXPECT_EQ(*ended, 1);
  ExpectRegistryMatchesCell(sim);
  sim.FailMachine(1);
  EXPECT_EQ(*ended, 2);
  EXPECT_EQ(sim.task_registry().NumRunning(), 0u);
  EXPECT_EQ(sim.TasksKilledByFailures(),
            before.fill_past_horizon + before.fill_in_horizon + 2);

  // Repairs fire inside the horizon; no killed task's end may fire.
  sim.sim().RunUntil(sim.EndTime());
  EXPECT_EQ(sim.MachinesDown(), 0);
  EXPECT_EQ(*ended, 2);
  ExpectRegistryMatchesCell(sim);
  EXPECT_NEAR(sim.cell().TotalAllocated().cpus, 0.0, 1e-9);
}

TEST(HorizonGuardTest, PreemptionEvictsTasksWithoutEndEvents) {
  HorizonHarness sim = MakeHorizonHarness();
  sim.PrepareRun();
  auto ended = StartLongCohort(sim);
  const TaskCensus before = Census(sim);
  ASSERT_GT(before.fill_past_horizon, 0);
  ExpectRegistryMatchesCell(sim);

  // A near-machine-sized task that outranks everything evicts every task on
  // the machine it lands on, fill and cohort alike; the second lands on the
  // other machine.
  Job big;
  big.id = 8;
  big.num_tasks = 1;
  big.task_duration = Duration::FromDays(1);
  big.task_resources = sim.cell().machine(0).capacity - Resources{0.001, 0.001};
  big.precedence = 1000;
  Rng rng(9);
  std::set<MachineId> used;
  for (int i = 0; i < 2; ++i) {
    int evicted = 0;
    const MachineId m = sim.PreemptAndPlace(big, rng, &evicted);
    ASSERT_NE(m, kInvalidMachineId);
    EXPECT_GT(evicted, 0);
    used.insert(m);
    const std::vector<TaskClaim> claims{{m, big.task_resources, 0}};
    sim.StartTasks(big, claims);
    EXPECT_EQ(*ended, i + 1);
    ExpectRegistryMatchesCell(sim);
  }
  EXPECT_EQ(used.size(), 2u);
  EXPECT_EQ(sim.TasksPreempted(),
            before.fill_past_horizon + before.fill_in_horizon + 2);
  EXPECT_EQ(Census(sim).cohort_members, 2);  // the two big tasks

  sim.sim().RunUntil(sim.EndTime());
  EXPECT_EQ(*ended, 2);
  EXPECT_EQ(sim.task_registry().NumRunning(), 2u);
  ExpectRegistryMatchesCell(sim);
}

TEST(FailureInjectionDeathTest, RequiresRegistry) {
  SimOptions opts = FailureOpts(6, 1.0);
  opts.track_running_tasks = false;
  OmegaSimulation sim(TestCluster(16), opts, SchedulerConfig{}, SchedulerConfig{});
  EXPECT_DEATH(sim.Run(), "track_running_tasks");
}

}  // namespace
}  // namespace omega
