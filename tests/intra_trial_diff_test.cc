// Intra-trial parallelism differential tests (DESIGN.md §12).
//
// SimOptions::intra_trial_threads shards the placement scans and the Commit
// conflict pre-check across a worker pool. The hard design constraint: at
// any thread count, every simulation must produce exactly the same cell
// state, metrics, and trace event stream as the sequential run —
// parallelism is a pure wall-clock optimization with zero observable
// effect. The tests here run every architecture at 1, 2, and 8 threads and
// compare fingerprints bitwise, and re-run a small fig5 grid at 1 and 2
// threads.
#include <gtest/gtest.h>

#include "tests/bitwise_eq.h"
#include "tests/sim_fingerprint.h"

#include <memory>
#include <string>
#include <vector>

#include "bench/fig56_sweep.h"
#include "src/cluster/cell_state.h"
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

// Runs `make_and_run(options, trace)` at 1 thread (the reference), then at 2
// and 8, and asserts bitwise-identical outcomes at every thread count.
template <typename MakeAndRun>
void DiffThreadCounts(SimOptions options, MakeAndRun&& make_and_run) {
  options.intra_trial_threads = 1;
  TraceRecorder trace_seq;
  const SimFingerprint seq = make_and_run(options, trace_seq);
  for (uint32_t threads : {2u, 8u}) {
    options.intra_trial_threads = threads;
    TraceRecorder trace_par;
    const SimFingerprint par = make_and_run(options, trace_par);
    ExpectIdentical(par, seq, "threads=" + std::to_string(threads));
  }
}

SimOptions DiffRun(uint64_t seed, double hours = 2.0) {
  SimOptions o;
  o.horizon = Duration::FromHours(hours);
  o.seed = seed;
  // The production default (256) keeps typical transactions inline; lower it
  // so these workloads' multi-task commits actually take the parallel
  // pre-check branch at 2 and 8 threads.
  o.parallel_commit_min_claims = 8;
  return o;
}

TEST(IntraTrialDiffTest, MonolithicBitIdentical) {
  DiffThreadCounts(DiffRun(1), [](const SimOptions& o, TraceRecorder& t) {
    MonolithicSimulation sim(TestCluster(256), o, SchedulerConfig{});
    sim.SetTraceRecorder(&t);
    sim.Run();
    EXPECT_TRUE(sim.cell().CheckInvariants());
    return Fingerprint(sim, t);
  });
}

TEST(IntraTrialDiffTest, OmegaMultiSchedulerBitIdentical) {
  // Three schedulers commit against the shared cell: the parallel Commit
  // pre-check must accept/reject exactly the claims the sequential verdict
  // loop would, in the same order, or retries diverge immediately.
  DiffThreadCounts(DiffRun(2), [](const SimOptions& o, TraceRecorder& t) {
    OmegaSimulation sim(TestCluster(256), o, SchedulerConfig{},
                        SchedulerConfig{}, 3);
    sim.SetTraceRecorder(&t);
    sim.Run();
    EXPECT_TRUE(sim.cell().CheckInvariants());
    return Fingerprint(sim, t);
  });
}

TEST(IntraTrialDiffTest, OmegaGangSchedulingBitIdentical) {
  // All-or-nothing commits with coarse-grained detection: the highest
  // conflict pressure on the pre-check path.
  SchedulerConfig gang;
  gang.commit_mode = CommitMode::kAllOrNothing;
  gang.conflict_mode = ConflictMode::kCoarseGrained;
  DiffThreadCounts(DiffRun(3), [&gang](const SimOptions& o, TraceRecorder& t) {
    OmegaSimulation sim(TestCluster(256), o, gang, gang, 3);
    sim.SetTraceRecorder(&t);
    sim.Run();
    EXPECT_TRUE(sim.cell().CheckInvariants());
    return Fingerprint(sim, t);
  });
}

TEST(IntraTrialDiffTest, MesosFrameworksBitIdentical) {
  DiffThreadCounts(DiffRun(4), [](const SimOptions& o, TraceRecorder& t) {
    MesosSimulation sim(TestCluster(256), o, SchedulerConfig{},
                        SchedulerConfig{});
    sim.SetTraceRecorder(&t);
    sim.Run();
    EXPECT_TRUE(sim.cell().CheckInvariants());
    return Fingerprint(sim, t);
  });
}

TEST(IntraTrialDiffTest, MapReduceBitIdentical) {
  ClusterConfig cfg = TestCluster(256);
  cfg.mapreduce_fraction = 0.3;
  MapReducePolicyOptions policy;
  policy.policy = MapReducePolicy::kMaxParallelism;
  DiffThreadCounts(DiffRun(5), [&](const SimOptions& o, TraceRecorder& t) {
    MapReduceSimulation sim(cfg, o, SchedulerConfig{}, SchedulerConfig{},
                            policy);
    sim.SetTraceRecorder(&t);
    sim.Run();
    EXPECT_TRUE(sim.cell().CheckInvariants());
    return Fingerprint(sim, t);
  });
}

TEST(IntraTrialDiffTest, HifiReplayBitIdentical) {
  // The high-fidelity ScoringPlacer walks the availability index
  // sequentially, so the pool only reaches the Commit pre-check here: its
  // verdicts must match the sequential ones under the headroom policy and
  // with the index's per-claim commit path.
  const ClusterConfig cfg = TestCluster(256);
  const std::vector<Job> trace_jobs =
      GenerateHifiTrace(cfg, Duration::FromHours(2), 6);
  DiffThreadCounts(DiffRun(6), [&](const SimOptions& o, TraceRecorder& t) {
    auto sim = MakeHifiSimulation(cfg, o, SchedulerConfig{}, SchedulerConfig{});
    sim->SetTraceRecorder(&t);
    sim->RunTrace(trace_jobs);
    EXPECT_TRUE(sim->cell().CheckInvariants());
    return Fingerprint(*sim, t);
  });
}

// ---------------------------------------------------------------------------
// A small fig5 grid re-run at 1 and 2 intra-trial threads: every reported
// figure metric must match bitwise (the same property the bench golden
// checks pin in CI at OMEGA_INTRA_TRIAL_THREADS=2).
// ---------------------------------------------------------------------------

TEST(IntraTrialDiffTest, Fig5SweepBitIdenticalAcrossThreadCounts) {
  const Duration horizon = Duration::FromDays(0.004);
  SimOptions seq;
  seq.intra_trial_threads = 1;
  SimOptions par;
  par.intra_trial_threads = 2;
  SweepRunner runner_seq("test_fig5_intra_seq", kFig56BaseSeed, 1);
  const auto a = RunFig56Sweep(horizon, runner_seq, /*tjob_points=*/3, seq);
  SweepRunner runner_par("test_fig5_intra_par", kFig56BaseSeed, 1);
  const auto b = RunFig56Sweep(horizon, runner_par, /*tjob_points=*/3, par);
  ASSERT_EQ(a.size(), 27u);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arch, b[i].arch) << "trial " << i;
    EXPECT_EQ(a[i].cluster, b[i].cluster) << "trial " << i;
    EXPECT_TRUE(SameBits(a[i].t_job_secs, b[i].t_job_secs)) << "trial " << i;
    EXPECT_TRUE(SameBits(a[i].batch_wait, b[i].batch_wait)) << "trial " << i;
    EXPECT_TRUE(SameBits(a[i].service_wait, b[i].service_wait)) << "trial " << i;
    EXPECT_TRUE(SameBits(a[i].batch_busy, b[i].batch_busy)) << "trial " << i;
    EXPECT_TRUE(SameBits(a[i].batch_busy_mad, b[i].batch_busy_mad)) << "trial " << i;
    EXPECT_TRUE(SameBits(a[i].service_busy, b[i].service_busy)) << "trial " << i;
    EXPECT_TRUE(SameBits(a[i].service_busy_mad, b[i].service_busy_mad)) << "trial " << i;
    EXPECT_EQ(a[i].abandoned, b[i].abandoned) << "trial " << i;
  }
}

}  // namespace
}  // namespace omega
