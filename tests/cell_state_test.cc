#include "src/cluster/cell_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <tuple>
#include <vector>

#include "src/common/random.h"

namespace omega {
namespace {

constexpr Resources kMachine{4.0, 16.0};
constexpr Resources kTask{1.0, 2.0};

TEST(CellStateTest, ConstructionTotals) {
  CellState cell(10, kMachine);
  EXPECT_EQ(cell.NumMachines(), 10u);
  EXPECT_EQ(cell.TotalCapacity(), (Resources{40.0, 160.0}));
  EXPECT_TRUE(cell.TotalAllocated().IsZero());
  EXPECT_DOUBLE_EQ(cell.CpuUtilization(), 0.0);
}

TEST(CellStateTest, FailureDomainsGroupMachines) {
  CellState cell(10, kMachine, FullnessPolicy::kExact, 0.0,
                 /*machines_per_domain=*/4);
  EXPECT_EQ(cell.machine(0).failure_domain, 0);
  EXPECT_EQ(cell.machine(3).failure_domain, 0);
  EXPECT_EQ(cell.machine(4).failure_domain, 1);
  EXPECT_EQ(cell.machine(9).failure_domain, 2);
}

TEST(CellStateTest, AllocateFreeRoundTrip) {
  CellState cell(2, kMachine);
  cell.Allocate(0, kTask);
  EXPECT_EQ(cell.machine(0).allocated, kTask);
  EXPECT_EQ(cell.TotalAllocated(), kTask);
  EXPECT_DOUBLE_EQ(cell.CpuUtilization(), 1.0 / 8.0);
  cell.Free(0, kTask);
  EXPECT_TRUE(cell.TotalAllocated().IsZero());
  EXPECT_TRUE(cell.CheckInvariants());
}

TEST(CellStateTest, SeqnumBumpsOnEveryChange) {
  CellState cell(1, kMachine);
  const uint64_t s0 = cell.machine(0).seqnum;
  cell.Allocate(0, kTask);
  EXPECT_EQ(cell.machine(0).seqnum, s0 + 1);
  cell.Free(0, kTask);
  EXPECT_EQ(cell.machine(0).seqnum, s0 + 2);
}

TEST(CellStateDeathTest, OvercommitAborts) {
  CellState cell(1, kMachine);
  cell.Allocate(0, Resources{4.0, 16.0});
  EXPECT_DEATH(cell.Allocate(0, kTask), "overcommit");
}

TEST(CellStateDeathTest, NegativeFreeAborts) {
  CellState cell(1, kMachine);
  EXPECT_DEATH(cell.Free(0, kTask), "negative allocation");
}

TEST(CellStateTest, CanFitExactPolicy) {
  CellState cell(1, kMachine);
  EXPECT_TRUE(cell.CanFit(0, Resources{4.0, 16.0}));
  EXPECT_FALSE(cell.CanFit(0, Resources{4.5, 1.0}));
  cell.Allocate(0, Resources{3.5, 1.0});
  EXPECT_TRUE(cell.CanFit(0, Resources{0.5, 1.0}));
  EXPECT_FALSE(cell.CanFit(0, Resources{0.6, 1.0}));
}

TEST(CellStateTest, HeadroomPolicyIsStricter) {
  CellState exact(1, kMachine, FullnessPolicy::kExact);
  CellState headroom(1, kMachine, FullnessPolicy::kHeadroom, 0.1);
  // 3.7 cpus fits exactly but violates the 10% headroom (3.6 usable).
  EXPECT_TRUE(exact.CanFit(0, Resources{3.7, 1.0}));
  EXPECT_FALSE(headroom.CanFit(0, Resources{3.7, 1.0}));
  EXPECT_TRUE(headroom.CanFit(0, Resources{3.6, 1.0}));
  EXPECT_EQ(headroom.UsableCapacity(0), (Resources{3.6, 14.4}));
}

TEST(CellStateTest, CanFitWithPendingStacks) {
  CellState cell(1, kMachine);
  EXPECT_TRUE(cell.CanFitWithPending(0, Resources{2.0, 2.0}, Resources{2.0, 2.0}));
  EXPECT_FALSE(cell.CanFitWithPending(0, Resources{2.5, 2.0}, Resources{2.0, 2.0}));
}

// --- transaction commit semantics (§3.4, §5.2) ---

TaskClaim Claim(const CellState& cell, MachineId m, const Resources& r) {
  return TaskClaim{m, r, cell.machine(m).seqnum};
}

TEST(CommitTest, CleanCommitAcceptsAll) {
  CellState cell(2, kMachine);
  std::vector<TaskClaim> claims{Claim(cell, 0, kTask), Claim(cell, 1, kTask)};
  const CommitResult r = cell.Commit(claims, ConflictMode::kFineGrained,
                                     CommitMode::kIncremental);
  EXPECT_EQ(r.accepted, 2);
  EXPECT_EQ(r.conflicted, 0);
  EXPECT_TRUE(r.AllAccepted());
  EXPECT_EQ(cell.TotalAllocated(), kTask + kTask);
}

TEST(CommitTest, FineGrainedAcceptsDespiteInterveningFit) {
  CellState cell(1, kMachine);
  std::vector<TaskClaim> claims{Claim(cell, 0, kTask)};
  // Another scheduler commits to the same machine, but room remains.
  cell.Allocate(0, kTask);
  const CommitResult r = cell.Commit(claims, ConflictMode::kFineGrained,
                                     CommitMode::kIncremental);
  EXPECT_EQ(r.accepted, 1);
  EXPECT_EQ(r.conflicted, 0);
}

TEST(CommitTest, FineGrainedRejectsOvercommit) {
  CellState cell(1, kMachine);
  std::vector<TaskClaim> claims{Claim(cell, 0, Resources{2.0, 2.0})};
  cell.Allocate(0, Resources{3.0, 2.0});  // now only 1 cpu left
  std::vector<TaskClaim> rejected;
  const CommitResult r = cell.Commit(claims, ConflictMode::kFineGrained,
                                     CommitMode::kIncremental, &rejected);
  EXPECT_EQ(r.accepted, 0);
  EXPECT_EQ(r.conflicted, 1);
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0].machine, 0u);
}

TEST(CommitTest, CoarseGrainedRejectsAnyChange) {
  CellState cell(1, kMachine);
  std::vector<TaskClaim> claims{Claim(cell, 0, kTask)};
  // An allocation that still leaves room: fine-grained would accept, coarse
  // conflicts because the sequence number moved.
  cell.Allocate(0, kTask);
  const CommitResult r = cell.Commit(claims, ConflictMode::kCoarseGrained,
                                     CommitMode::kIncremental);
  EXPECT_EQ(r.accepted, 0);
  EXPECT_EQ(r.conflicted, 1);
}

TEST(CommitTest, CoarseGrainedSpuriousConflictOnFree) {
  CellState cell(1, kMachine);
  cell.Allocate(0, kTask);
  std::vector<TaskClaim> claims{Claim(cell, 0, kTask)};
  // A *free* makes the machine emptier; coarse detection still conflicts.
  cell.Free(0, kTask);
  const CommitResult coarse = cell.Commit(claims, ConflictMode::kCoarseGrained,
                                          CommitMode::kIncremental);
  EXPECT_EQ(coarse.conflicted, 1);
}

TEST(CommitTest, IntraTransactionClaimsDoNotConflict) {
  CellState cell(1, kMachine);
  // Two tasks of the same transaction stack onto one machine; coarse-grained
  // detection must not treat the first as a conflict for the second.
  std::vector<TaskClaim> claims{Claim(cell, 0, kTask), Claim(cell, 0, kTask)};
  const CommitResult r = cell.Commit(claims, ConflictMode::kCoarseGrained,
                                     CommitMode::kIncremental);
  EXPECT_EQ(r.accepted, 2);
  EXPECT_EQ(r.conflicted, 0);
}

TEST(CommitTest, IntraTransactionOvercommitRejected) {
  CellState cell(1, kMachine);
  // Three 2-cpu tasks cannot all fit a 4-cpu machine even within one txn.
  const Resources big{2.0, 2.0};
  std::vector<TaskClaim> claims{Claim(cell, 0, big), Claim(cell, 0, big),
                                Claim(cell, 0, big)};
  const CommitResult r = cell.Commit(claims, ConflictMode::kFineGrained,
                                     CommitMode::kIncremental);
  EXPECT_EQ(r.accepted, 2);
  EXPECT_EQ(r.conflicted, 1);
  EXPECT_TRUE(cell.CheckInvariants());
}

TEST(CommitTest, AllOrNothingRejectsWholeTransaction) {
  CellState cell(2, kMachine);
  std::vector<TaskClaim> claims{Claim(cell, 0, kTask),
                                Claim(cell, 1, Resources{2.0, 2.0})};
  cell.Allocate(1, Resources{3.0, 2.0});  // machine 1 can no longer fit 2 cpus
  std::vector<TaskClaim> rejected;
  const CommitResult r = cell.Commit(claims, ConflictMode::kFineGrained,
                                     CommitMode::kAllOrNothing, &rejected);
  EXPECT_EQ(r.accepted, 0);
  EXPECT_EQ(r.conflicted, 2);
  EXPECT_EQ(rejected.size(), 2u);
  // Machine 0 must be untouched (atomicity).
  EXPECT_TRUE(cell.machine(0).allocated.IsZero());
}

TEST(CommitTest, AllOrNothingCleanCommits) {
  CellState cell(2, kMachine);
  std::vector<TaskClaim> claims{Claim(cell, 0, kTask), Claim(cell, 1, kTask)};
  const CommitResult r = cell.Commit(claims, ConflictMode::kFineGrained,
                                     CommitMode::kAllOrNothing);
  EXPECT_EQ(r.accepted, 2);
}

TEST(CommitTest, EmptyTransactionIsNoop) {
  CellState cell(1, kMachine);
  const CommitResult r = cell.Commit({}, ConflictMode::kFineGrained,
                                     CommitMode::kIncremental);
  EXPECT_EQ(r.accepted, 0);
  EXPECT_EQ(r.conflicted, 0);
}

// Property: fine-grained detection accepts a superset of coarse-grained, for
// random interleavings of claims and concurrent commits.
class ConflictModePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConflictModePropertyTest, FineAcceptsSupersetOfCoarse) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    CellState fine(8, kMachine);
    CellState coarse(8, kMachine);
    // Pre-fill both identically.
    for (int i = 0; i < 10; ++i) {
      const auto m = static_cast<MachineId>(rng.NextBounded(8));
      const Resources r{0.5 + rng.NextDouble(), 1.0};
      if (fine.CanFit(m, r)) {
        fine.Allocate(m, r);
        coarse.Allocate(m, r);
      }
    }
    // Build claims against the current snapshot.
    std::vector<TaskClaim> claims;
    for (int i = 0; i < 6; ++i) {
      const auto m = static_cast<MachineId>(rng.NextBounded(8));
      const Resources r{0.5, 1.0};
      claims.push_back(Claim(fine, m, r));
    }
    // Concurrent commits by "another scheduler".
    for (int i = 0; i < 4; ++i) {
      const auto m = static_cast<MachineId>(rng.NextBounded(8));
      const Resources r{0.5, 0.5};
      if (fine.CanFit(m, r)) {
        fine.Allocate(m, r);
        coarse.Allocate(m, r);
      }
    }
    const CommitResult rf =
        fine.Commit(claims, ConflictMode::kFineGrained, CommitMode::kIncremental);
    const CommitResult rc = coarse.Commit(claims, ConflictMode::kCoarseGrained,
                                          CommitMode::kIncremental);
    EXPECT_GE(rf.accepted, rc.accepted);
    EXPECT_TRUE(fine.CheckInvariants());
    EXPECT_TRUE(coarse.CheckInvariants());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConflictModePropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// Property: after arbitrary random operations the availability index agrees
// with a brute-force scan.
class AvailabilityIndexPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(AvailabilityIndexPropertyTest, IndexMatchesBruteForce) {
  Rng rng(GetParam());
  CellState cell(32, kMachine);
  cell.EnableAvailabilityIndex(16);
  std::vector<Resources> held(32, Resources::Zero());
  for (int op = 0; op < 500; ++op) {
    const auto m = static_cast<MachineId>(rng.NextBounded(32));
    const Resources r{0.25 + rng.NextDouble(), 0.5};
    if (rng.NextBool(0.6)) {
      if (cell.CanFit(m, r)) {
        cell.Allocate(m, r);
        held[m] += r;
      }
    } else if (!held[m].IsZero()) {
      cell.Free(m, held[m]);
      held[m] = Resources::Zero();
    }
  }
  // The index must visit every machine exactly once (zero minimum request),
  // in non-strictly increasing bucket order of effective availability
  // (min of CPU and memory headroom, in CPU units).
  std::vector<int> visits(32, 0);
  double last_bucket_key = -1.0;
  int bucket_tolerant_inversions = 0;
  const double mem_per_cpu = kMachine.mem_gb / kMachine.cpus;
  auto walk = cell.WalkByAvailability(Resources::Zero());
  for (MachineId id = walk.Next(); id != kInvalidMachineId; id = walk.Next()) {
    ++visits[id];
    const Resources avail = cell.machine(id).Available();
    const double key = std::min(avail.cpus, avail.mem_gb / mem_per_cpu);
    if (key + 0.25 < last_bucket_key) {  // allow intra-bucket disorder
      ++bucket_tolerant_inversions;
    }
    last_bucket_key = std::max(last_bucket_key, key);
  }
  // An exhausted cursor stays exhausted.
  EXPECT_EQ(walk.Next(), kInvalidMachineId);
  for (int v : visits) {
    EXPECT_EQ(v, 1);
  }
  EXPECT_EQ(bucket_tolerant_inversions, 0);
  EXPECT_TRUE(cell.CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AvailabilityIndexPropertyTest,
                         ::testing::Values(101, 202, 303, 404));

TEST(AvailabilityIndexTest, MinRequestSkipsTightMachines) {
  CellState cell(4, kMachine);
  cell.EnableAvailabilityIndex(16);
  cell.Allocate(0, Resources{3.9, 1.0});  // 0.1 cpu left
  cell.Allocate(1, Resources{2.0, 1.0});  // 2 cpus left
  std::vector<MachineId> seen;
  auto walk = cell.WalkByAvailability(Resources{1.0, 0.0});
  for (MachineId id = walk.Next(); id != kInvalidMachineId; id = walk.Next()) {
    seen.push_back(id);
  }
  // Machine 0 (0.1 cpu) is below the 1-cpu threshold bucket and not visited.
  for (MachineId id : seen) {
    EXPECT_NE(id, 0u);
  }
  // Machines 1..3 are all visited.
  EXPECT_EQ(seen.size(), 3u);
}

TEST(AvailabilityIndexTest, MemoryBoundMachinesSortTight) {
  // A machine with plenty of CPU but no memory must land in a low bucket, so
  // memory-hungry requests skip it via the effective key.
  CellState cell(3, kMachine);
  cell.EnableAvailabilityIndex(16);
  cell.Allocate(0, Resources{0.5, 15.5});  // 3.5 cpus, 0.5 GB left
  std::vector<MachineId> seen;
  // Request needing 8 GB: machine 0's bucket (effective ~0.03 cpu) is skipped.
  auto walk = cell.WalkByAvailability(Resources{0.5, 8.0});
  for (MachineId id = walk.Next(); id != kInvalidMachineId; id = walk.Next()) {
    seen.push_back(id);
  }
  for (MachineId id : seen) {
    EXPECT_NE(id, 0u);
  }
  EXPECT_EQ(seen.size(), 2u);
}

// --- block availability summaries ---

TEST(BlockSummaryTest, FreshCellAdvertisesFullCapacity) {
  CellState cell(CellState::kBlockSize * 2 + 7, kMachine);
  EXPECT_EQ(cell.NumBlocks(), 3u);
  for (MachineId m = 0; m < cell.NumMachines(); m += 13) {
    EXPECT_TRUE(cell.BlockMayFit(m, kMachine));
    EXPECT_FALSE(cell.BlockMayFit(m, Resources{kMachine.cpus + 0.5, 1.0}));
  }
}

TEST(BlockSummaryTest, SoundnessNeverRulesOutAFeasibleMachine) {
  // Whatever BlockMayFit says "no" to must truly fit nowhere in the block.
  CellState cell(CellState::kBlockSize * 3, kMachine);
  Rng rng(42);
  for (int step = 0; step < 5000; ++step) {
    const auto m = static_cast<MachineId>(rng.NextBounded(cell.NumMachines()));
    const Resources r{0.5 + rng.NextDouble(), 1.0 + 4.0 * rng.NextDouble()};
    if (rng.NextBool(0.7)) {
      if (cell.CanFit(m, r)) {
        cell.Allocate(m, r);
      }
    } else if (!cell.machine(m).allocated.IsZero()) {
      cell.Free(m, cell.machine(m).allocated);
    }
    const Resources probe{0.25 + 3.75 * rng.NextDouble(),
                          1.0 + 15.0 * rng.NextDouble()};
    const MachineId block_first =
        (m / CellState::kBlockSize) * CellState::kBlockSize;
    if (!cell.BlockMayFit(m, probe)) {
      for (MachineId i = block_first;
           i < block_first + CellState::kBlockSize && i < cell.NumMachines();
           ++i) {
        EXPECT_FALSE(cell.CanFit(i, probe)) << "machine " << i;
      }
    }
  }
  EXPECT_TRUE(cell.CheckInvariants());
}

// CheckInvariants verifies both soundness (summary dominates every machine)
// and tightness (summary achieved by some machine), so a randomized
// allocate/free/commit storm through every update path is a full regression
// of the incremental maintenance.
TEST(BlockSummaryTest, StaysExactThroughRandomizedChurn) {
  for (const FullnessPolicy policy :
       {FullnessPolicy::kExact, FullnessPolicy::kHeadroom}) {
    CellState cell(150, kMachine, policy,
                   policy == FullnessPolicy::kHeadroom ? 0.2 : 0.0);
    Rng rng(7);
    std::vector<std::pair<MachineId, Resources>> allocs;
    for (int step = 0; step < 3000; ++step) {
      const auto m = static_cast<MachineId>(rng.NextBounded(cell.NumMachines()));
      const Resources r{0.25 + rng.NextDouble(), 0.5 + 2.0 * rng.NextDouble()};
      if (rng.NextBool(0.6)) {
        if (cell.CanFit(m, r)) {
          cell.Allocate(m, r);
          allocs.emplace_back(m, r);
        }
      } else if (rng.NextBool(0.5) && !allocs.empty()) {
        const size_t pick = rng.NextBounded(allocs.size());
        cell.Free(allocs[pick].first, allocs[pick].second);
        allocs[pick] = allocs.back();
        allocs.pop_back();
      } else {
        // Commit path: accepted claims stay allocated for good, pushing the
        // cell toward the near-full regime the summary exists for.
        std::vector<TaskClaim> claims;
        for (int c = 0; c < 3; ++c) {
          const auto cm =
              static_cast<MachineId>(rng.NextBounded(cell.NumMachines()));
          claims.push_back(TaskClaim{cm, r, cell.machine(cm).seqnum});
        }
        cell.Commit(claims, ConflictMode::kFineGrained,
                    CommitMode::kIncremental);
      }
      if (step % 100 == 0) {
        // Consulting each block refreshes any dirty summary, so the
        // invariant check below exercises tightness on every block.
        for (MachineId b = 0; b < cell.NumBlocks(); ++b) {
          cell.BlockMayFit(b * CellState::kBlockSize, kTask);
        }
        ASSERT_TRUE(cell.CheckInvariants()) << "step " << step;
      }
    }
    ASSERT_TRUE(cell.CheckInvariants());
  }
}

TEST(BlockSummaryTest, NextBlockStartJumpsToBoundary) {
  EXPECT_EQ(CellState::NextBlockStart(0), CellState::kBlockSize);
  EXPECT_EQ(CellState::NextBlockStart(CellState::kBlockSize - 1),
            CellState::kBlockSize);
  EXPECT_EQ(CellState::NextBlockStart(CellState::kBlockSize),
            2 * CellState::kBlockSize);
}

// Boundary regression: cell sizes straddling the block (64) and superblock
// (64 * 64 = 4096) boundaries, so the final partial block and the final
// partial superblock are exercised through every maintenance path. 4095 ends
// one machine short of a full superblock; 4097 spills a one-machine block
// into a one-block superblock.
TEST(BlockSummaryTest, PartialTailSizesStayExactThroughChurn) {
  for (const uint32_t size : {63u, 64u, 65u, 4095u, 4097u}) {
    CellState cell(size, kMachine);
    EXPECT_EQ(cell.NumBlocks(), (size + CellState::kBlockSize - 1) /
                                    CellState::kBlockSize);
    EXPECT_EQ(cell.NumSuperblocks(),
              (cell.NumBlocks() + CellState::kSuperSize - 1) /
                  CellState::kSuperSize);
    Rng rng(size);
    std::vector<std::pair<MachineId, Resources>> allocs;
    for (int step = 0; step < 600; ++step) {
      // Bias churn toward the tail so the partial block/superblock sees the
      // most traffic.
      const auto m = static_cast<MachineId>(
          rng.NextBool(0.5) ? size - 1 - rng.NextBounded(std::min(size, 70u))
                            : rng.NextBounded(size));
      const Resources r{0.25 + rng.NextDouble(), 0.5 + 2.0 * rng.NextDouble()};
      if (rng.NextBool(0.6)) {
        if (cell.CanFit(m, r)) {
          cell.Allocate(m, r);
          allocs.emplace_back(m, r);
        }
      } else if (!allocs.empty()) {
        const size_t pick = rng.NextBounded(allocs.size());
        cell.Free(allocs[pick].first, allocs[pick].second);
        allocs[pick] = allocs.back();
        allocs.pop_back();
      }
      if (step % 50 == 0) {
        // Consult both levels (refreshing any dirty summary) so the
        // invariant check exercises tightness everywhere, including the
        // partial tails.
        for (MachineId b = 0; b < cell.NumBlocks(); ++b) {
          cell.BlockMayFit(b * CellState::kBlockSize, kTask);
        }
        for (MachineId s = 0; s < cell.NumSuperblocks(); ++s) {
          cell.SuperblockMayFit(
              s * CellState::kBlockSize * CellState::kSuperSize, kTask);
        }
        ASSERT_TRUE(cell.CheckInvariants()) << "size " << size << " step "
                                            << step;
      }
    }
    ASSERT_TRUE(cell.CheckInvariants()) << "size " << size;
  }
}

TEST(BlockSummaryTest, SuperblockSoundnessNeverRulesOutAFeasibleMachine) {
  // 4097 machines: superblock 0 is full-size, superblock 1 holds a single
  // one-machine block. Whatever SuperblockMayFit says "no" to must truly fit
  // nowhere in that superblock.
  constexpr uint32_t kSuperMachines =
      CellState::kBlockSize * CellState::kSuperSize;
  CellState cell(kSuperMachines + 1, kMachine);
  Rng rng(99);
  for (int step = 0; step < 3000; ++step) {
    const auto m = static_cast<MachineId>(rng.NextBounded(cell.NumMachines()));
    const Resources r{0.5 + rng.NextDouble(), 1.0 + 4.0 * rng.NextDouble()};
    if (rng.NextBool(0.8)) {
      if (cell.CanFit(m, r)) {
        cell.Allocate(m, r);
      }
    } else if (!cell.machine(m).allocated.IsZero()) {
      cell.Free(m, cell.machine(m).allocated);
    }
    const Resources probe{0.25 + 3.75 * rng.NextDouble(),
                          1.0 + 15.0 * rng.NextDouble()};
    const MachineId super_first = m < kSuperMachines ? 0 : kSuperMachines;
    if (!cell.SuperblockMayFit(m, probe)) {
      for (MachineId i = super_first;
           i < super_first + kSuperMachines && i < cell.NumMachines(); ++i) {
        ASSERT_FALSE(cell.CanFit(i, probe)) << "machine " << i;
      }
    }
  }
  EXPECT_TRUE(cell.CheckInvariants());
}

// --- struct-of-arrays first-fit sweep ---

TEST(SoAScanTest, FindFirstFitMatchesBruteForceAtBoundarySizes) {
  // FindFirstFit must return exactly the first machine in [begin, end) that
  // CanFit the request — across partial blocks, partial superblocks, chunk
  // tails, and stale summaries left by churn.
  for (const uint32_t size : {63u, 64u, 65u, 200u, 4095u, 4097u}) {
    CellState cell(size, kMachine);
    Rng rng(size * 31 + 1);
    std::vector<std::pair<MachineId, Resources>> allocs;
    for (int step = 0; step < 400; ++step) {
      const auto m = static_cast<MachineId>(rng.NextBounded(size));
      const Resources r{0.25 + rng.NextDouble(), 0.5 + 2.0 * rng.NextDouble()};
      if (rng.NextBool(0.7)) {
        if (cell.CanFit(m, r)) {
          cell.Allocate(m, r);
          allocs.emplace_back(m, r);
        }
      } else if (!allocs.empty()) {
        const size_t pick = rng.NextBounded(allocs.size());
        cell.Free(allocs[pick].first, allocs[pick].second);
        allocs[pick] = allocs.back();
        allocs.pop_back();
      }
      const Resources probe{0.25 + 3.75 * rng.NextDouble(),
                            0.5 + 15.5 * rng.NextDouble()};
      // Random sub-range, plus the full range every few steps.
      MachineId begin = 0;
      MachineId end = size;
      if (step % 3 != 0) {
        begin = static_cast<MachineId>(rng.NextBounded(size));
        end = begin + 1 +
              static_cast<MachineId>(rng.NextBounded(size - begin));
      }
      MachineId expected = kInvalidMachineId;
      for (MachineId i = begin; i < end; ++i) {
        if (cell.CanFit(i, probe)) {
          expected = i;
          break;
        }
      }
      ASSERT_EQ(cell.FindFirstFit(begin, end, probe), expected)
          << "size " << size << " step " << step << " range [" << begin << ", "
          << end << ")";
    }
  }
}

TEST(SoAScanTest, FindFirstFitClampsEndBeyondCell) {
  CellState cell(65, kMachine);
  // end past NumMachines must not over-read the arrays.
  EXPECT_EQ(cell.FindFirstFit(0, 1000, kTask), 0u);
  for (MachineId m = 0; m < cell.NumMachines(); ++m) {
    while (cell.CanFit(m, kTask)) {
      cell.Allocate(m, kTask);
    }
  }
  EXPECT_EQ(cell.FindFirstFit(0, 1000, kTask), kInvalidMachineId);
  EXPECT_EQ(cell.FindFirstFit(64, 65, kTask), kInvalidMachineId);
  cell.Free(64, kTask);
  EXPECT_EQ(cell.FindFirstFit(0, 1000, kTask), 64u);
  EXPECT_EQ(cell.FindFirstFit(0, 64, kTask), kInvalidMachineId);
  EXPECT_TRUE(cell.CheckInvariants());
}

TEST(SoAScanTest, HeadroomPolicyUsesUsableCapacity) {
  // Under the headroom policy the fit limit is the reduced usable capacity,
  // not raw capacity: a machine with room under kExact must be rejected once
  // headroom eats the slack — by FindFirstFit exactly as by CanFit.
  CellState cell(130, kMachine, FullnessPolicy::kHeadroom,
                 /*headroom_fraction=*/0.2);
  const Resources big{3.5, 1.0};  // fits 4.0 raw, not 3.2 usable
  EXPECT_FALSE(cell.CanFit(0, big));
  EXPECT_EQ(cell.FindFirstFit(0, cell.NumMachines(), big), kInvalidMachineId);
  const Resources ok{3.0, 1.0};
  EXPECT_EQ(cell.FindFirstFit(0, cell.NumMachines(), ok), 0u);
  cell.Allocate(0, ok);
  EXPECT_EQ(cell.FindFirstFit(0, cell.NumMachines(), ok), 1u);
  EXPECT_TRUE(cell.CheckInvariants());
}

// --- accepted-set reconstruction after partial commits ---

TEST(ReconstructAcceptedClaimsTest, RemovesRejectedInOrder) {
  const std::vector<TaskClaim> claims = {
      {0, kTask, 1}, {1, kTask, 2}, {2, kTask, 3}, {3, kTask, 4}};
  const std::vector<TaskClaim> rejected = {{1, kTask, 2}, {3, kTask, 4}};
  const auto accepted = ReconstructAcceptedClaims(claims, rejected, 2);
  ASSERT_EQ(accepted.size(), 2u);
  EXPECT_EQ(accepted[0].machine, 0u);
  EXPECT_EQ(accepted[1].machine, 2u);
}

TEST(ReconstructAcceptedClaimsTest, DuplicateIdenticalClaimsPartialRejection) {
  // Three byte-identical claims on one machine, only the last two rejected
  // (the machine had room for one). The merge drops exactly as many
  // occurrences as were rejected and keeps the rest.
  const std::vector<TaskClaim> claims = {
      {5, kTask, 7}, {5, kTask, 7}, {5, kTask, 7}};
  const std::vector<TaskClaim> rejected = {{5, kTask, 7}, {5, kTask, 7}};
  const auto accepted = ReconstructAcceptedClaims(claims, rejected, 1);
  ASSERT_EQ(accepted.size(), 1u);
  EXPECT_EQ(accepted[0].machine, 5u);
  EXPECT_EQ(accepted[0].seqnum_at_placement, 7u);
}

TEST(ReconstructAcceptedClaimsTest, SeqnumDistinguishesSameMachineClaims) {
  // Two claims on the same machine with the same resources but different
  // placement seqnums: the rejected entry must match the right one. (The
  // MapReduce scheduler's former copy of this loop ignored seqnums.)
  const std::vector<TaskClaim> claims = {{4, kTask, 10}, {4, kTask, 11}};
  const std::vector<TaskClaim> rejected = {{4, kTask, 11}};
  const auto accepted = ReconstructAcceptedClaims(claims, rejected, 1);
  ASSERT_EQ(accepted.size(), 1u);
  EXPECT_EQ(accepted[0].seqnum_at_placement, 10u);
}

TEST(ReconstructAcceptedClaimsTest, MatchesCommitOutput) {
  // End-to-end against a real partial commit: fill machine 0 behind the
  // claimant's back so its claim conflicts, then reconstruct.
  CellState cell(2, kMachine);
  std::vector<TaskClaim> claims;
  claims.push_back({0, Resources{3.0, 3.0}, cell.machine(0).seqnum});
  claims.push_back({1, Resources{3.0, 3.0}, cell.machine(1).seqnum});
  cell.Allocate(0, Resources{2.0, 2.0});  // competing commit wins machine 0
  std::vector<TaskClaim> rejected;
  const CommitResult result = cell.Commit(claims, ConflictMode::kFineGrained,
                                          CommitMode::kIncremental, &rejected);
  ASSERT_EQ(result.accepted, 1);
  ASSERT_EQ(result.conflicted, 1);
  const auto accepted = ReconstructAcceptedClaims(claims, rejected, result.accepted);
  ASSERT_EQ(accepted.size(), 1u);
  EXPECT_EQ(accepted[0].machine, 1u);
}

using ReconstructAcceptedClaimsDeathTest = ::testing::Test;

TEST(ReconstructAcceptedClaimsDeathTest, RejectedOrderMismatchAborts) {
  // `rejected` out of claim order is a contract violation (Commit emits
  // rejections in order): the merge cannot match the first rejected entry and
  // must abort rather than silently start the wrong tasks.
  const std::vector<TaskClaim> claims = {{0, kTask, 1}, {1, kTask, 2}};
  const std::vector<TaskClaim> out_of_order = {{1, kTask, 2}, {0, kTask, 1}};
  EXPECT_DEATH(ReconstructAcceptedClaims(claims, out_of_order, 0),
               "reject_idx == rejected.size");
}

TEST(ReconstructAcceptedClaimsDeathTest, WrongAcceptedCountAborts) {
  const std::vector<TaskClaim> claims = {{0, kTask, 1}, {1, kTask, 2}};
  const std::vector<TaskClaim> rejected = {{0, kTask, 1}};
  EXPECT_DEATH(ReconstructAcceptedClaims(claims, rejected, 2),
               "accepted.size");
}

// MachineGrouper against std::sort plus run-length encoding, the order
// Commit and FreeCohort must reproduce. One grouper serves every list, so
// its dense scratch is reused across lists of every size and span: a count
// or touched bit left behind by one list would corrupt a later one.
std::vector<MachineRun> SortedRuns(std::vector<MachineId> ids) {
  std::sort(ids.begin(), ids.end());
  std::vector<MachineRun> runs;
  for (size_t i = 0; i < ids.size();) {
    size_t j = i + 1;
    while (j < ids.size() && ids[j] == ids[i]) {
      ++j;
    }
    runs.push_back(MachineRun{ids[i], static_cast<uint32_t>(j - i)});
    i = j;
  }
  return runs;
}

::testing::AssertionResult SameRuns(std::span<const MachineRun> got,
                                    const std::vector<MachineRun>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " runs, want " << want.size();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].machine != want[i].machine || got[i].count != want[i].count) {
      return ::testing::AssertionFailure()
             << "run " << i << ": (" << got[i].machine << ", " << got[i].count
             << "), want (" << want[i].machine << ", " << want[i].count << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(MachineGrouperTest, MatchesSortOnRandomLists) {
  constexpr MachineId kLargest = 99'999;  // a 100k-machine cell's last id
  constexpr size_t kShort = MachineGrouper::kAlwaysSort;
  MachineGrouper grouper;
  Rng rng(2024);
  int counted = 0;
  int long_sorted = 0;  // longer than kShort, sorted for its wide span
  for (int trial = 0; trial < 3000; ++trial) {
    // Lengths straddle the always-sort bound, with a tail up to 3,000
    // claims; spans decide between sorting and counting above it.
    size_t n = 0;
    switch (rng.NextBounded(4)) {
      case 0: n = rng.NextBounded(kShort + 1); break;
      case 1: n = kShort - 2 + rng.NextBounded(5); break;
      case 2: n = rng.NextBounded(300); break;
      default: n = rng.NextBounded(3001); break;
    }
    // Spans from a few machines (heavy duplication) up to the whole
    // 100k-machine id space, anchored anywhere in it.
    const uint64_t span = uint64_t{1} << rng.NextBounded(18);
    const uint64_t base = rng.NextBounded(kLargest + 1);
    std::vector<MachineId> ids;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t pick = rng.NextBounded(8);
      if (pick == 0) {
        ids.push_back(0);
      } else if (pick == 1) {
        ids.push_back(kLargest);
      } else if (pick == 2 && !ids.empty()) {
        ids.push_back(ids[rng.NextBounded(ids.size())]);
      } else {
        ids.push_back(static_cast<MachineId>((base + rng.NextBounded(span)) %
                                             (kLargest + 1)));
      }
    }
    if (!ids.empty()) {
      const auto [lo, hi] = std::minmax_element(ids.begin(), ids.end());
      const bool counts = MachineGrouper::Counts(n, *hi / 64 - *lo / 64 + 1);
      counted += counts ? 1 : 0;
      long_sorted += !counts && n > kShort ? 1 : 0;
    }
    const std::vector<MachineRun> want = SortedRuns(ids);
    ASSERT_TRUE(SameRuns(grouper.Group(ids), want))
        << "trial " << trial << " n=" << n;
  }
  EXPECT_GT(counted, 1000);
  EXPECT_GT(long_sorted, 100);
}

TEST(MachineGrouperTest, EdgeLists) {
  MachineGrouper grouper;
  const std::vector<std::vector<MachineId>> lists = {
      {},
      {0},
      {99'999},
      std::vector<MachineId>(MachineGrouper::kAlwaysSort, 7),
      std::vector<MachineId>(MachineGrouper::kAlwaysSort + 1, 7),
      std::vector<MachineId>(3000, 0),
      // Descending, straddling 64-id word boundaries; counted.
      [] {
        std::vector<MachineId> v;
        for (MachineId m = 200; m-- > 0;) {
          v.push_back(m);
        }
        return v;
      }(),
      // Both ends of the id space in one list, too short to count over
      // that span; and one long enough to count over it.
      [] {
        std::vector<MachineId> v;
        for (int i = 0; i < 40; ++i) {
          v.push_back(i % 2 == 0 ? 99'999 : 0);
        }
        return v;
      }(),
      [] {
        std::vector<MachineId> v;
        for (int i = 0; i < 800; ++i) {
          v.push_back(i % 2 == 0 ? 99'999 : 0);
        }
        return v;
      }(),
  };
  for (size_t i = 0; i < lists.size(); ++i) {
    std::vector<MachineId> ids = lists[i];  // Group may reorder its input
    EXPECT_TRUE(SameRuns(grouper.Group(ids), SortedRuns(lists[i])))
        << "list " << i;
  }
}

// The sort/count choice at the edges EdgeLists exercises: every short list
// sorts, a long list counts over a narrow span, and a wide span needs a
// longer list before counting pays.
TEST(MachineGrouperTest, CountsWeighsLengthAgainstSpan) {
  EXPECT_FALSE(MachineGrouper::Counts(MachineGrouper::kAlwaysSort, 1));
  EXPECT_TRUE(MachineGrouper::Counts(MachineGrouper::kAlwaysSort + 1, 1));
  EXPECT_TRUE(MachineGrouper::Counts(200, 4));
  EXPECT_FALSE(MachineGrouper::Counts(40, 1563));
  EXPECT_TRUE(MachineGrouper::Counts(800, 1563));
  // A 12k-machine cell spans 188 words: counting starts at 24 ids.
  EXPECT_FALSE(MachineGrouper::Counts(23, 188));
  EXPECT_TRUE(MachineGrouper::Counts(24, 188));
}

}  // namespace
}  // namespace omega
