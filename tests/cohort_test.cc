// Cohort task-lifecycle batching (DESIGN.md §10).
//
// The hard design constraint is bit-identicality with the per-task lifecycle
// the cohorts replaced: scenario_digest_test pins whole-simulation digests
// recorded from that path, and reference_cell_test diffs CellState's batched
// and grouped mutations against a naive per-task model. The unit tests here
// cover the batched CellState mutations, the partial-cancel (tombstone)
// paths, and the TaskRegistry slab against naive reference models.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "src/cluster/cell_state.h"
#include "src/cluster/task_registry.h"
#include "src/common/random.h"
#include "src/scheduler/cluster_simulation.h"
#include "src/workload/cluster_config.h"

namespace omega {
namespace {

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

// ---------------------------------------------------------------------------
// Harness-level cohort lifecycle edge cases.
// ---------------------------------------------------------------------------

class HarnessSim final : public ClusterSimulation {
 public:
  using ClusterSimulation::ClusterSimulation;
  using ClusterSimulation::FailMachine;
  void SubmitJob(const JobPtr&) override {}
};

SimOptions TrackedOpts() {
  SimOptions o;
  o.horizon = Duration::FromHours(2);
  o.track_running_tasks = true;
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
  HarnessSim sim(TestCluster(8), TrackedOpts());
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
  HarnessSim sim(TestCluster(8), TrackedOpts());
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
  HarnessSim sim(TestCluster(8), TrackedOpts());
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

TEST(CohortLifecycleTest, FullyEvictedCohortCancelsItsEndEvent) {
  HarnessSim sim(TestCluster(8), TrackedOpts());
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

TEST(CohortLifecycleTest, OnTaskEndRunsPerMemberInClaimOrder) {
  HarnessSim sim(TestCluster(8), TrackedOpts());
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
