// Pinned whole-simulation digests for eight scenarios that cover every
// architecture and every task-lifecycle path: monolithic, Omega with three
// batch schedulers, Omega gang scheduling, Mesos, MapReduce, high-fidelity
// trace replay, machine failures, and preemption.
//
// Each run is reduced to an FNV-1a digest of its full fingerprint (cell
// state, counters and trace stream, tests/sim_fingerprint.h). The digests
// were recorded from the per-task lifecycle and per-Machine scan reference
// paths the simulator once carried beside the production paths, and the
// production paths reproduced them exactly; so a change that alters any
// placement, commit, task end or trace event in these runs fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/hifi/hifi_simulation.h"
#include "src/mapreduce/mr_scheduler.h"
#include "src/mapreduce/policy.h"
#include "src/mesos/mesos_simulation.h"
#include "src/omega/omega_scheduler.h"
#include "src/scheduler/monolithic.h"
#include "src/workload/cluster_config.h"
#include "tests/sim_fingerprint.h"

namespace omega {
namespace {

enum class Scenario {
  kMonolithic,
  kOmegaMultiScheduler,
  kOmegaGang,
  kMesos,
  kMapReduce,
  kHifiReplay,
  kMachineFailures,
  kPreemption,
};

struct DigestCase {
  Scenario scenario;
  uint64_t seed;
  uint64_t digest;
  const char* name;
};

SimOptions ScenarioOptions(uint64_t seed, double hours) {
  SimOptions o;
  o.horizon = Duration::FromHours(hours);
  o.seed = seed;
  return o;
}

// A small cell saturated with long batch work plus rare large service jobs,
// so the preempting service scheduler evicts individual batch tasks.
ClusterConfig PreemptionCluster() {
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
  return cfg;
}

// Runs one scenario with a trace recorder attached and returns its
// fingerprint; also checks the scenario exercised what it is there for.
SimFingerprint RunScenario(Scenario scenario, uint64_t seed) {
  TraceRecorder trace;
  auto finish = [&trace](ClusterSimulation& sim) {
    EXPECT_TRUE(sim.cell().CheckInvariants());
    return Fingerprint(sim, trace);
  };
  switch (scenario) {
    case Scenario::kMonolithic: {
      MonolithicSimulation sim(TestCluster(64), ScenarioOptions(seed, 3.0),
                               SchedulerConfig{});
      sim.SetTraceRecorder(&trace);
      sim.Run();
      return finish(sim);
    }
    case Scenario::kOmegaMultiScheduler: {
      OmegaSimulation sim(TestCluster(64), ScenarioOptions(seed, 3.0),
                          SchedulerConfig{}, SchedulerConfig{}, 3);
      sim.SetTraceRecorder(&trace);
      sim.Run();
      return finish(sim);
    }
    case Scenario::kOmegaGang: {
      SchedulerConfig gang;
      gang.commit_mode = CommitMode::kAllOrNothing;
      gang.conflict_mode = ConflictMode::kCoarseGrained;
      OmegaSimulation sim(TestCluster(64), ScenarioOptions(seed, 3.0), gang,
                          gang, 3);
      sim.SetTraceRecorder(&trace);
      sim.Run();
      return finish(sim);
    }
    case Scenario::kMesos: {
      MesosSimulation sim(TestCluster(64), ScenarioOptions(seed, 3.0),
                          SchedulerConfig{}, SchedulerConfig{});
      sim.SetTraceRecorder(&trace);
      sim.Run();
      return finish(sim);
    }
    case Scenario::kMapReduce: {
      ClusterConfig cfg = TestCluster(64);
      cfg.mapreduce_fraction = 0.3;
      MapReducePolicyOptions policy;
      policy.policy = MapReducePolicy::kMaxParallelism;
      MapReduceSimulation sim(cfg, ScenarioOptions(seed, 3.0),
                              SchedulerConfig{}, SchedulerConfig{}, policy);
      sim.SetTraceRecorder(&trace);
      sim.Run();
      return finish(sim);
    }
    case Scenario::kHifiReplay: {
      const ClusterConfig cfg = TestCluster(64);
      auto sim = MakeHifiSimulation(cfg, ScenarioOptions(seed, 3.0),
                                    SchedulerConfig{}, SchedulerConfig{});
      sim->SetTraceRecorder(&trace);
      sim->RunTrace(GenerateHifiTrace(cfg, Duration::FromHours(3), seed));
      return finish(*sim);
    }
    case Scenario::kMachineFailures: {
      SimOptions o = ScenarioOptions(seed, 6.0);
      o.track_running_tasks = true;
      o.machine_failure_rate_per_day = 12.0;
      o.machine_repair_time = Duration::FromMinutes(30);
      OmegaSimulation sim(TestCluster(64), o, SchedulerConfig{},
                          SchedulerConfig{});
      sim.SetTraceRecorder(&trace);
      sim.Run();
      EXPECT_GT(sim.MachineFailures(), 0);
      return finish(sim);
    }
    case Scenario::kPreemption: {
      SchedulerConfig batch;
      batch.max_attempts = 20;
      batch.no_progress_backoff = Duration::FromSeconds(5);
      SchedulerConfig service = batch;
      service.enable_preemption = true;
      SimOptions o = ScenarioOptions(seed, 6.0);
      o.track_running_tasks = true;
      OmegaSimulation sim(PreemptionCluster(), o, batch, service);
      sim.SetTraceRecorder(&trace);
      sim.Run();
      EXPECT_GT(sim.TasksPreempted(), 0);
      return finish(sim);
    }
  }
  ADD_FAILURE() << "unknown scenario";
  return {};
}

void PrintTo(const DigestCase& c, std::ostream* os) { *os << c.name; }

class ScenarioDigestTest : public ::testing::TestWithParam<DigestCase> {};

TEST_P(ScenarioDigestTest, MatchesPinnedDigest) {
  const DigestCase& c = GetParam();
  const uint64_t digest = FingerprintDigest(RunScenario(c.scenario, c.seed));
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%016" PRIx64, digest);
  EXPECT_EQ(digest, c.digest) << c.name << " digest is now " << hex;
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, ScenarioDigestTest,
    ::testing::Values(
        DigestCase{Scenario::kMonolithic, 1, 0x36a2b78169f19212ULL,
                   "Monolithic_1"},
        DigestCase{Scenario::kMonolithic, 7, 0x75a789e8b43c1ab7ULL,
                   "Monolithic_7"},
        DigestCase{Scenario::kOmegaMultiScheduler, 2, 0x959fb80d607e947fULL,
                   "OmegaMultiScheduler_2"},
        DigestCase{Scenario::kOmegaMultiScheduler, 11, 0x8c4419d0c8135467ULL,
                   "OmegaMultiScheduler_11"},
        DigestCase{Scenario::kOmegaGang, 3, 0xff45f8d57f46cd4eULL,
                   "OmegaGang_3"},
        DigestCase{Scenario::kMesos, 4, 0x23c4b53108f45a03ULL,
                   "Mesos_4"},
        DigestCase{Scenario::kMesos, 13, 0xf5a872e8300c418cULL,
                   "Mesos_13"},
        DigestCase{Scenario::kMapReduce, 5, 0x4a467b50d4d6ccaaULL,
                   "MapReduce_5"},
        DigestCase{Scenario::kHifiReplay, 6, 0x22c4e41943bee2b8ULL,
                   "HifiReplay_6"},
        DigestCase{Scenario::kMachineFailures, 8, 0x3fba1fdfee8c6b92ULL,
                   "MachineFailures_8"},
        DigestCase{Scenario::kMachineFailures, 21, 0x09b1d74c505d9e39ULL,
                   "MachineFailures_21"},
        DigestCase{Scenario::kPreemption, 9, 0x9e19fa9c6bb152aeULL,
                   "Preemption_9"}),
    [](const ::testing::TestParamInfo<DigestCase>& info) {
      return std::string(info.param.name);
    });

// The mutation hook's call order is observable: the Mesos allocator turns
// each call into an offer-slice take (TakeSlice), in that order. These runs
// commit transactions and free cohorts that MachineGrouper counts rather
// than sorts; the digests of their full hook-call sequences were recorded while
// Commit and cohort frees still grouped machines with std::sort, and must not
// move. A Mesos framework fills offer slices in machine order, so every list
// the Mesos run groups already arrives ascending: its pin guards the hook's
// call count and sequence. The Omega run's transactions arrive in placement
// order, hundreds of them counted, so its pin also fails for a
// grouper that emits first-seen rather than ascending order.
enum class HookRun { kMesos, kOmega };

struct HookOrder {
  uint64_t calls = 0;
  uint64_t digest = 0;
  int64_t large_commits = 0;  // commits whose claim list the grouper counts
};

HookOrder RecordHookOrder(HookRun run) {
  ClusterConfig cfg = TestCluster(512);
  cfg.batch.tasks_per_job =
      std::make_shared<BoundedParetoDist>(1.0, 1000.0, 0.92);
  const SimOptions o = ScenarioOptions(17, 2.0);
  std::unique_ptr<ClusterSimulation> sim;
  if (run == HookRun::kMesos) {
    sim = std::make_unique<MesosSimulation>(cfg, o, SchedulerConfig{},
                                            SchedulerConfig{});
  } else {
    sim = std::make_unique<OmegaSimulation>(cfg, o, SchedulerConfig{},
                                            SchedulerConfig{}, 3);
  }
  HookOrder out;
  Fnv1a fnv;
  // Wrap the installed hook (the Mesos allocator's; none for Omega), so the
  // run behaves exactly as without the recorder.
  CellState::MutationHook inner = sim->cell().mutation_hook();
  sim->cell().SetMutationHook([&out, &fnv, inner](MachineId m) {
    ++out.calls;
    fnv.U64(m);
    if (inner) {
      inner(m);
    }
  });
  sim->cell().SetCommitObserver(
      [&out](std::span<const TaskClaim> claims, const CommitResult&) {
        if (claims.empty()) {
          return;
        }
        const auto [lo, hi] = std::minmax_element(
            claims.begin(), claims.end(),
            [](const TaskClaim& a, const TaskClaim& b) {
              return a.machine < b.machine;
            });
        out.large_commits += MachineGrouper::Counts(
                                 claims.size(),
                                 hi->machine / 64 - lo->machine / 64 + 1)
                                 ? 1
                                 : 0;
      });
  sim->Run();
  EXPECT_TRUE(sim->cell().CheckInvariants());
  out.digest = fnv.h;
  return out;
}

TEST(MutationHookOrderTest, MesosMatchesPinnedSequence) {
  const HookOrder h = RecordHookOrder(HookRun::kMesos);
  EXPECT_GT(h.large_commits, 50);
  EXPECT_EQ(h.calls, 23354u);
  EXPECT_EQ(h.digest, 0x408c61cdc5f33fefULL);
}

TEST(MutationHookOrderTest, OmegaMatchesPinnedSequence) {
  const HookOrder h = RecordHookOrder(HookRun::kOmega);
  EXPECT_GT(h.large_commits, 50);
  EXPECT_EQ(h.calls, 58607u);
  EXPECT_EQ(h.digest, 0x950f543fbe86e2c6ULL);
}

}  // namespace
}  // namespace omega
