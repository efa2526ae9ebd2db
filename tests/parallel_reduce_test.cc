// Unit tests for the intra-trial parallelism primitives (DESIGN.md §12):
// WorkerPool dispatch, ParallelForRanges chunking, the deterministic
// FirstMatch reduction, the no-refresh SoA scan, the parallel
// Commit pre-check, and the EpochFlagSet scratch. The reductions' contract —
// bit-identical to the sequential scan for every shard layout and thread
// count — is exercised directly here; the architecture-level differential
// runs live in intra_trial_diff_test.cc.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/cluster/cell_state.h"
#include "src/common/deterministic_reduce.h"
#include "src/common/parallel_for.h"
#include "src/common/random.h"
#include "src/common/worker_pool.h"
#include "src/mesos/mesos_simulation.h"
#include "src/scheduler/placement.h"
#include "src/workload/cluster_config.h"
#include "tests/bitwise_eq.h"

namespace omega {
namespace {

// ---------------------------------------------------------------------------
// WorkerPool
// ---------------------------------------------------------------------------

TEST(WorkerPoolTest, RunsEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.concurrency(), 4u);
  std::vector<int> hits(10000, 0);
  pool.Run(hits.size(), [&](size_t i) { hits[i] += 1; });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(WorkerPoolTest, SingleLaneRunsInline) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.concurrency(), 1u);
  std::vector<int> hits(100, 0);
  pool.Run(hits.size(), [&](size_t i) { hits[i] += 1; });
  for (int h : hits) {
    EXPECT_EQ(h, 1);
  }
}

TEST(WorkerPoolTest, ZeroMeansHardwareConcurrency) {
  WorkerPool pool(0);
  EXPECT_GE(pool.concurrency(), 1u);
  std::vector<int> hits(64, 0);
  pool.Run(hits.size(), [&](size_t i) { hits[i] += 1; });
  for (int h : hits) {
    EXPECT_EQ(h, 1);
  }
}

TEST(WorkerPoolTest, EmptyRunIsANoop) {
  WorkerPool pool(4);
  pool.Run(0, [&](size_t) { FAIL() << "fn called for empty range"; });
}

TEST(WorkerPoolTest, RethrowsFirstExceptionAndStaysUsable) {
  WorkerPool pool(4);
  EXPECT_THROW(pool.Run(1000,
                        [&](size_t i) {
                          if (i == 37) {
                            throw std::runtime_error("boom");
                          }
                        }),
               std::runtime_error);
  // The pool must drain cleanly and accept the next generation.
  std::vector<int> hits(256, 0);
  pool.Run(hits.size(), [&](size_t i) { hits[i] += 1; });
  for (int h : hits) {
    EXPECT_EQ(h, 1);
  }
}

// ---------------------------------------------------------------------------
// ParallelForRanges
// ---------------------------------------------------------------------------

TEST(ParallelForRangesTest, ChunksAreAlignedBoundedAndCoverEveryIndex) {
  const size_t n = 1000;
  const size_t grain = 64;
  std::vector<int> covered(n, 0);
  std::vector<std::pair<size_t, size_t>> chunks;
  ParallelForRanges(
      n, grain,
      [&](size_t begin, size_t end) {
        ASSERT_LT(begin, end);
        ASSERT_LE(end, n);
        ASSERT_LE(end - begin, grain);
        ASSERT_EQ(begin % grain, 0u);
        for (size_t i = begin; i < end; ++i) {
          covered[i] += 1;
        }
        chunks.emplace_back(begin, end);
      },
      /*max_threads=*/1);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(covered[i], 1) << "index " << i;
  }
  // 1000 / 64 -> 15 full chunks plus the 40-element tail.
  EXPECT_EQ(chunks.size(), 16u);
  EXPECT_EQ(chunks.back().second - chunks.back().first, n % grain);
}

TEST(ParallelForRangesTest, CoversEveryIndexMultithreaded) {
  const size_t n = 4096;
  std::vector<int> covered(n, 0);
  ParallelForRanges(
      n, 100,
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          covered[i] += 1;  // chunks are disjoint: no two threads share i
        }
      },
      /*max_threads=*/4);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(covered[i], 1) << "index " << i;
  }
}

TEST(ParallelForRangesTest, GrainZeroMeansPerIndexDispatch) {
  const size_t n = 17;
  size_t calls = 0;
  ParallelForRanges(
      n, 0,
      [&](size_t begin, size_t end) {
        EXPECT_EQ(end, begin + 1);
        ++calls;
      },
      /*max_threads=*/1);
  EXPECT_EQ(calls, n);
}

// ---------------------------------------------------------------------------
// ReduceGrain
// ---------------------------------------------------------------------------

TEST(ReduceGrainTest, EnforcesMinimumAndTargetsFourShardsPerLane) {
  // Small inputs collapse to one shard (the sequential scan).
  EXPECT_EQ(ReduceGrain(10, 8), 64u);
  EXPECT_EQ(ReduceGrain(64, 8), 64u);
  // Large inputs: ~4 shards per lane.
  EXPECT_EQ(ReduceGrain(100000, 8, 1), (100000u + 31) / 32);
  // Zero concurrency is treated as one lane.
  EXPECT_EQ(ReduceGrain(1000, 0, 1), 250u);
}

// ---------------------------------------------------------------------------
// DeterministicReducer::FirstMatch
// ---------------------------------------------------------------------------

// Sequential reference: lowest index whose flag is set, else kReduceNotFound.
size_t SequentialFirst(const std::vector<char>& flags) {
  for (size_t i = 0; i < flags.size(); ++i) {
    if (flags[i]) {
      return i;
    }
  }
  return kReduceNotFound;
}

DeterministicReducer::ScanFn FlagScan(const std::vector<char>& flags) {
  return [&flags](size_t begin, size_t end) -> size_t {
    for (size_t i = begin; i < end; ++i) {
      if (flags[i]) {
        return i;
      }
    }
    return kReduceNotFound;
  };
}

TEST(FirstMatchTest, MatchesSequentialAcrossGrainsAndThreadCounts) {
  const size_t n = 1000;
  std::vector<std::vector<char>> patterns;
  patterns.push_back(std::vector<char>(n, 0));  // no match
  for (size_t hit : {size_t{0}, size_t{1}, size_t{499}, n - 1}) {
    std::vector<char> f(n, 0);
    f[hit] = 1;
    patterns.push_back(std::move(f));
  }
  {
    std::vector<char> f(n, 0);  // several matches: lowest must win
    f[700] = f[703] = f[999] = f[64] = 1;
    patterns.push_back(std::move(f));
  }
  DeterministicReducer reducer;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    WorkerPool pool(threads);
    for (const auto& flags : patterns) {
      const size_t want = SequentialFirst(flags);
      for (size_t grain : {size_t{1}, size_t{3}, size_t{64}, size_t{333}, n}) {
        EXPECT_EQ(reducer.FirstMatch(&pool, n, grain, FlagScan(flags)), want)
            << "threads=" << threads << " grain=" << grain;
      }
      // Null pool: plain sequential fallback.
      EXPECT_EQ(reducer.FirstMatch(nullptr, n, 64, FlagScan(flags)), want);
    }
  }
}

TEST(FirstMatchTest, EmptyRangeIsNotFound) {
  DeterministicReducer reducer;
  WorkerPool pool(2);
  const std::vector<char> empty;
  EXPECT_EQ(reducer.FirstMatch(&pool, 0, 64, FlagScan(empty)),
            kReduceNotFound);
}

// ---------------------------------------------------------------------------
// EpochFlagSet
// ---------------------------------------------------------------------------

TEST(EpochFlagSetTest, InsertContainsResetAndNegativeKeys) {
  EpochFlagSet set;
  EXPECT_FALSE(set.Contains(0));
  set.Insert(3);
  set.Insert(0);
  EXPECT_TRUE(set.Contains(3));
  EXPECT_TRUE(set.Contains(0));
  EXPECT_FALSE(set.Contains(1));
  EXPECT_FALSE(set.Contains(4000));
  set.Insert(-1);  // failure_domain can be "none": never stored
  EXPECT_FALSE(set.Contains(-1));
  set.Reset();
  EXPECT_FALSE(set.Contains(3));
  EXPECT_FALSE(set.Contains(0));
  set.Insert(3);
  EXPECT_TRUE(set.Contains(3));
}

// ---------------------------------------------------------------------------
// FindFirstFitNoRefresh vs FindFirstFit
// ---------------------------------------------------------------------------

TEST(NoRefreshScanTest, MatchesRefreshingScanUnderChurn) {
  const uint32_t n = 1024;
  CellState cell(n, Resources{16.0, 64.0});
  Rng rng(99);
  const Resources small{2.0, 8.0};
  const Resources big{12.0, 48.0};
  for (int round = 0; round < 40; ++round) {
    // Deterministic churn: allocations dirty summaries (stale-high), frees
    // restore them eagerly; both states must scan identically.
    for (int k = 0; k < 200; ++k) {
      const auto m = static_cast<MachineId>(rng.NextBounded(n));
      if (cell.CanFit(m, small)) {
        cell.Allocate(m, small);
      } else if (cell.machine(m).allocated.cpus >= small.cpus) {
        cell.Free(m, small);
      }
    }
    for (const Resources& req : {small, big, Resources{17.0, 1.0}}) {
      const auto begin = static_cast<MachineId>(rng.NextBounded(n));
      // NoRefresh first (it must cope with dirty, stale-high summaries),
      // then the refreshing reference on the same state.
      const MachineId no_refresh = cell.FindFirstFitNoRefresh(begin, n, req);
      const MachineId reference = cell.FindFirstFit(begin, n, req);
      ASSERT_EQ(no_refresh, reference)
          << "round " << round << " begin " << begin;
      // And again with summaries explicitly refreshed (the sharded-scan
      // calling convention).
      cell.RefreshSummaries();
      ASSERT_EQ(cell.FindFirstFitNoRefresh(begin, n, req), reference);
    }
  }
  EXPECT_TRUE(cell.CheckInvariants());
}

// ---------------------------------------------------------------------------
// Parallel Commit pre-check differential
// ---------------------------------------------------------------------------

struct CommitSetup {
  CellState cell;
  std::vector<TaskClaim> claims;
};

// Builds a cell with deterministic pre-load, a claim set captured against a
// snapshot, and post-snapshot churn so some claims are stale (coarse-grained
// conflicts) and some machines are full (fine-grained conflicts). Several
// claims share a machine to exercise pending same-transaction accumulation.
CommitSetup MakeCommitSetup(uint32_t threads) {
  const uint32_t n = 512;
  CommitSetup s{CellState(n, Resources{16.0, 64.0}), {}};
  s.cell.SetIntraTrialParallelism(threads);
  // Below the production default of 256 claims the pre-check stays inline;
  // lower the threshold so this 96-claim transaction takes the parallel
  // branch when a pool is attached.
  s.cell.SetParallelCommitMinClaims(16);
  Rng rng(4242);
  const Resources unit{2.0, 8.0};
  for (int k = 0; k < 800; ++k) {
    const auto m = static_cast<MachineId>(rng.NextBounded(n));
    if (s.cell.CanFit(m, unit)) {
      s.cell.Allocate(m, unit);
    }
  }
  // Claims against the current snapshot; duplicates are intentional.
  for (int k = 0; k < 96; ++k) {
    const auto m = static_cast<MachineId>(rng.NextBounded(n / 4) * 4);
    s.claims.push_back(TaskClaim{m, unit, s.cell.machine(m).seqnum});
  }
  // Post-snapshot churn: bump seqnums and fill some machines.
  for (int k = 0; k < 300; ++k) {
    const auto m = static_cast<MachineId>(rng.NextBounded(n));
    if (s.cell.CanFit(m, Resources{8.0, 32.0})) {
      s.cell.Allocate(m, Resources{8.0, 32.0});
    }
  }
  return s;
}

void ExpectSameCellState(const CellState& a, const CellState& b) {
  ASSERT_EQ(a.NumMachines(), b.NumMachines());
  for (MachineId m = 0; m < a.NumMachines(); ++m) {
    ASSERT_EQ(a.machine(m).seqnum, b.machine(m).seqnum) << "machine " << m;
    ASSERT_EQ(a.machine(m).allocated.cpus, b.machine(m).allocated.cpus)
        << "machine " << m;
    ASSERT_EQ(a.machine(m).allocated.mem_gb, b.machine(m).allocated.mem_gb)
        << "machine " << m;
  }
  EXPECT_EQ(a.TotalAllocated().cpus, b.TotalAllocated().cpus);
  EXPECT_EQ(a.TotalAllocated().mem_gb, b.TotalAllocated().mem_gb);
}

TEST(ParallelCommitTest, PreCheckBitIdenticalAcrossThreadCountsAndModes) {
  for (uint32_t threads : {2u, 8u}) {
    for (ConflictMode conflict :
         {ConflictMode::kFineGrained, ConflictMode::kCoarseGrained}) {
      for (CommitMode commit :
           {CommitMode::kIncremental, CommitMode::kAllOrNothing}) {
        CommitSetup seq = MakeCommitSetup(1);
        CommitSetup par = MakeCommitSetup(threads);
        ASSERT_EQ(seq.claims.size(), par.claims.size());
        ASSERT_GE(seq.claims.size(), 16u);  // above the lowered threshold
        std::vector<TaskClaim> seq_rejected;
        std::vector<TaskClaim> par_rejected;
        const CommitResult a =
            seq.cell.Commit(seq.claims, conflict, commit, &seq_rejected);
        const CommitResult b =
            par.cell.Commit(par.claims, conflict, commit, &par_rejected);
        EXPECT_EQ(a.accepted, b.accepted);
        EXPECT_EQ(a.conflicted, b.conflicted);
        ASSERT_EQ(seq_rejected.size(), par_rejected.size());
        for (size_t i = 0; i < seq_rejected.size(); ++i) {
          EXPECT_EQ(seq_rejected[i].machine, par_rejected[i].machine);
          EXPECT_EQ(seq_rejected[i].seqnum_at_placement,
                    par_rejected[i].seqnum_at_placement);
          EXPECT_EQ(seq_rejected[i].resources, par_rejected[i].resources);
        }
        ExpectSameCellState(seq.cell, par.cell);
        EXPECT_TRUE(par.cell.CheckInvariants());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Placer-level differentials: sequential vs pooled placement on the same
// state must produce the same claims and the same RNG trajectory.
// ---------------------------------------------------------------------------

// Near-full cell with a few scattered holes: random probes are disabled so
// every placement exercises the phase-2 linear sweep.
CellState MakeNearFullCell(uint32_t threads) {
  const uint32_t n = 512;
  CellState cell(n, Resources{16.0, 64.0});
  cell.SetIntraTrialParallelism(threads);
  for (MachineId m = 0; m < n; ++m) {
    const bool hole = m == 3 || m == 200 || m == 201 || m == 340 || m == 511;
    cell.Allocate(m, hole ? Resources{8.0, 32.0} : Resources{15.0, 60.0});
  }
  return cell;
}

TEST(PlacerParallelDifferentialTest, RandomizedFirstFitSweepBitIdentical) {
  for (uint32_t threads : {2u, 8u}) {
    CellState seq_cell = MakeNearFullCell(1);
    CellState par_cell = MakeNearFullCell(threads);
    // The parallel sweep only engages under constraints (without them the
    // pruned sequential sweep is already sublinear); the job carries none,
    // so the predicate is unchanged and both arms must place identically.
    RandomizedFirstFitPlacer seq_placer(/*max_random_probes=*/0,
                                        /*respect_constraints=*/true);
    RandomizedFirstFitPlacer par_placer(/*max_random_probes=*/0,
                                        /*respect_constraints=*/true);
    Job job;
    job.task_resources = Resources{2.0, 8.0};
    job.num_tasks = 6;
    Rng seq_rng(7);
    Rng par_rng(7);
    std::vector<TaskClaim> seq_claims;
    std::vector<TaskClaim> par_claims;
    const uint32_t seq_placed =
        seq_placer.PlaceTasks(seq_cell, job, 6, seq_rng, &seq_claims);
    const uint32_t par_placed =
        par_placer.PlaceTasks(par_cell, job, 6, par_rng, &par_claims);
    EXPECT_EQ(seq_placed, par_placed);
    EXPECT_GT(par_placed, 0u);
    ASSERT_EQ(seq_claims.size(), par_claims.size());
    for (size_t i = 0; i < seq_claims.size(); ++i) {
      EXPECT_EQ(seq_claims[i].machine, par_claims[i].machine) << "claim " << i;
      EXPECT_EQ(seq_claims[i].seqnum_at_placement,
                par_claims[i].seqnum_at_placement);
    }
    // Same number of draws consumed: the streams stay in lockstep.
    EXPECT_EQ(seq_rng.Next(), par_rng.Next());
  }
}

// The regime the parallel sweep exists for: every machine passes the raw
// fit (so the block summaries cannot prune), but only a sparse subset
// satisfies the job's attribute constraint, so the scan walks a long run of
// futile raw-fit hits. The sharded FirstMatch must reject exactly the hits
// the sequential constraint re-check rejects and stop at the same machine.
TEST(PlacerParallelDifferentialTest, ConstraintSweepBitIdentical) {
  for (uint32_t threads : {2u, 8u}) {
    const uint32_t n = 2048;
    CellState seq_cell(n, Resources{16.0, 64.0});
    CellState par_cell(n, Resources{16.0, 64.0});
    par_cell.SetIntraTrialParallelism(threads);
    for (MachineId m = 0; m < n; ++m) {
      // Plenty of headroom everywhere; only every 97th machine carries the
      // attribute value the job demands (97 is coprime with shard grains).
      const std::vector<int32_t> attrs = {m % 97 == 13 ? 7 : 0};
      seq_cell.mutable_machine(m).attributes = attrs;
      par_cell.mutable_machine(m).attributes = attrs;
    }
    RandomizedFirstFitPlacer seq_placer(/*max_random_probes=*/0,
                                        /*respect_constraints=*/true);
    RandomizedFirstFitPlacer par_placer(/*max_random_probes=*/0,
                                        /*respect_constraints=*/true);
    Job job;
    job.task_resources = Resources{2.0, 8.0};
    job.num_tasks = 8;
    job.constraints.push_back(
        PlacementConstraint{/*attribute_key=*/0, /*attribute_value=*/7,
                            /*must_equal=*/true});
    Rng seq_rng(23);
    Rng par_rng(23);
    std::vector<TaskClaim> seq_claims;
    std::vector<TaskClaim> par_claims;
    const uint32_t seq_placed =
        seq_placer.PlaceTasks(seq_cell, job, 8, seq_rng, &seq_claims);
    const uint32_t par_placed =
        par_placer.PlaceTasks(par_cell, job, 8, par_rng, &par_claims);
    EXPECT_EQ(seq_placed, par_placed);
    EXPECT_GT(par_placed, 0u);
    ASSERT_EQ(seq_claims.size(), par_claims.size());
    for (size_t i = 0; i < seq_claims.size(); ++i) {
      EXPECT_EQ(seq_claims[i].machine, par_claims[i].machine) << "claim " << i;
      EXPECT_EQ(par_claims[i].machine % 97, 13u) << "claim " << i;
    }
    EXPECT_EQ(seq_rng.Next(), par_rng.Next());
  }
}

// ---------------------------------------------------------------------------
// Mesos thread-count differential: the allocator itself runs sequentially,
// but a Mesos cell with an intra-trial pool still shares the pooled cell
// paths (Commit pre-check), so a full simulation with threads must be
// bit-identical to the sequential one.
// ---------------------------------------------------------------------------

TEST(MesosDrfParallelTest, FullSimulationBitIdenticalAcrossThreads) {
  SimOptions sequential;
  sequential.horizon = Duration::FromHours(2);
  sequential.seed = 17;
  SimOptions sharded = sequential;
  sharded.intra_trial_threads = 4;
  MesosSimulation seq(TestCluster(16), sequential, SchedulerConfig{},
                      SchedulerConfig{});
  MesosSimulation par(TestCluster(16), sharded, SchedulerConfig{},
                      SchedulerConfig{});
  seq.Run();
  par.Run();
  auto scheduled = [](MesosSimulation& s) {
    return s.batch_framework().metrics().JobsScheduled(JobType::kBatch) +
           s.service_framework().metrics().JobsScheduled(JobType::kService);
  };
  EXPECT_GT(scheduled(seq), 0);
  EXPECT_EQ(scheduled(seq), scheduled(par));
  EXPECT_EQ(seq.JobsSubmittedTotal(), par.JobsSubmittedTotal());
  EXPECT_EQ(seq.TotalJobsAbandoned(), par.TotalJobsAbandoned());
  EXPECT_TRUE(SameBits(
      seq.batch_framework().metrics().MeanWait(JobType::kBatch),
      par.batch_framework().metrics().MeanWait(JobType::kBatch)));
  EXPECT_TRUE(SameBits(
      seq.service_framework().metrics().MeanWait(JobType::kService),
      par.service_framework().metrics().MeanWait(JobType::kService)));
  EXPECT_TRUE(SameBits(seq.allocator().DominantShare(&seq.batch_framework()),
                       par.allocator().DominantShare(&par.batch_framework())));
  uint64_t seq_sum = 0;
  uint64_t par_sum = 0;
  for (MachineId m = 0; m < seq.cell().NumMachines(); ++m) {
    seq_sum += seq.cell().machine(m).seqnum;
    par_sum += par.cell().machine(m).seqnum;
  }
  EXPECT_EQ(seq_sum, par_sum);
}

}  // namespace
}  // namespace omega
