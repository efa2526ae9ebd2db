// Differential property test of CellState against the naive ReferenceCell
// model in tests/reference_cell.h (placement_test diffs the placer against
// ReferenceFirstFit from the same header).
//
// Seeded random streams of single and batched allocations and frees and of
// Commits in all four conflict x commit modes, with uniform (cohort-shaped)
// and mixed-resource transactions, are driven through CellState and
// ReferenceCell side by side, with the availability index on and off and
// under both fullness policies. After every operation the two must agree
// bitwise on every machine's allocation and sequence number, on the totals,
// and on each Commit's result and rejected claims.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "src/cluster/cell_state.h"
#include "src/common/random.h"
#include "tests/bitwise_eq.h"
#include "tests/reference_cell.h"

namespace omega {
namespace {

struct CellCase {
  uint64_t seed;
  bool index;
  FullnessPolicy fullness;
};

void PrintTo(const CellCase& c, std::ostream* os) {
  *os << "seed=" << c.seed << " index=" << c.index << " headroom="
      << (c.fullness == FullnessPolicy::kHeadroom);
}

// 64-machine blocks: 150 machines span three blocks, the last one partial.
constexpr uint32_t kCellMachines = 150;

std::vector<Resources> MixedCapacities() {
  std::vector<Resources> caps;
  for (uint32_t m = 0; m < kCellMachines; ++m) {
    caps.push_back(m % 3 == 0 ? Resources{16.0, 64.0} : Resources{8.0, 24.0});
  }
  return caps;
}

// Task shapes with inexact binary fractions, so any reordering of the
// floating-point sums would show up in the low bits.
Resources RandomShape(Rng& rng) {
  return Resources{0.1 + 0.1 * static_cast<double>(rng.NextBounded(9)),
                   0.3 + 0.7 * static_cast<double>(rng.NextBounded(6))};
}

struct Live {
  MachineId machine;
  Resources per_task;
  uint32_t count;
};

::testing::AssertionResult SameState(const CellState& cell,
                                     const ReferenceCell& ref) {
  for (MachineId m = 0; m < cell.NumMachines(); ++m) {
    const Machine& a = cell.machine(m);
    const Machine& b = ref.machine(m);
    if (!SameBits(a.allocated.cpus, b.allocated.cpus) ||
        !SameBits(a.allocated.mem_gb, b.allocated.mem_gb) ||
        a.seqnum != b.seqnum) {
      return ::testing::AssertionFailure()
             << "machine " << m << ": allocated " << a.allocated << " vs "
             << b.allocated << ", seqnum " << a.seqnum << " vs " << b.seqnum;
    }
  }
  if (!SameBits(cell.TotalAllocated().cpus, ref.TotalAllocated().cpus) ||
      !SameBits(cell.TotalAllocated().mem_gb, ref.TotalAllocated().mem_gb)) {
    return ::testing::AssertionFailure()
           << "totals " << cell.TotalAllocated() << " vs "
           << ref.TotalAllocated();
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameClaims(const std::vector<TaskClaim>& a,
                                      const std::vector<TaskClaim>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << a.size() << " claims vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].machine != b[i].machine ||
        a[i].seqnum_at_placement != b[i].seqnum_at_placement ||
        !SameBits(a[i].resources.cpus, b[i].resources.cpus) ||
        !SameBits(a[i].resources.mem_gb, b[i].resources.mem_gb)) {
      return ::testing::AssertionFailure() << "claims diverge at " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

class CellStateReferenceTest : public ::testing::TestWithParam<CellCase> {};

TEST_P(CellStateReferenceTest, RandomOpStreamsMatchReference) {
  const CellCase& c = GetParam();
  const double headroom =
      c.fullness == FullnessPolicy::kHeadroom ? 0.05 : 0.0;
  CellState cell(MixedCapacities(), c.fullness, headroom);
  ReferenceCell ref(MixedCapacities(), c.fullness, headroom);
  if (c.index) {
    cell.EnableAvailabilityIndex(16);
  }
  Rng rng(c.seed);
  std::vector<Live> live;
  int commits = 0;
  int conflicted = 0;
  for (int step = 0; step < 1500; ++step) {
    const uint64_t op = rng.NextBounded(10);
    if (op < 2) {
      // Single or batched allocation of a shape that fits.
      const auto m = static_cast<MachineId>(rng.NextBounded(kCellMachines));
      const Resources r = RandomShape(rng);
      const auto count = static_cast<uint32_t>(1 + rng.NextBounded(5));
      if (!cell.CanFit(m, r * static_cast<double>(count))) {
        continue;
      }
      if (count == 1 && rng.NextBool(0.5)) {
        cell.Allocate(m, r);
      } else {
        cell.AllocateBatch(m, r, count);
      }
      for (uint32_t i = 0; i < count; ++i) {
        ref.Allocate(m, r);
      }
      live.push_back(Live{m, r, count});
    } else if (op < 5 && !live.empty()) {
      // Free a live allocation: single frees, or one batched free.
      const size_t pick = rng.NextBounded(live.size());
      const Live l = live[pick];
      if (rng.NextBool(0.5)) {
        cell.FreeBatch(l.machine, l.per_task, l.count);
      } else {
        for (uint32_t i = 0; i < l.count; ++i) {
          cell.Free(l.machine, l.per_task);
        }
      }
      for (uint32_t i = 0; i < l.count; ++i) {
        ref.Free(l.machine, l.per_task);
      }
      live[pick] = live.back();
      live.pop_back();
    } else {
      // A transaction: uniform or mixed claims, stacked on a few machines,
      // with fresh or stale sequence numbers, in one of the four modes.
      const auto conflict = rng.NextBool(0.5) ? ConflictMode::kFineGrained
                                              : ConflictMode::kCoarseGrained;
      const auto commit = rng.NextBool(0.5) ? CommitMode::kIncremental
                                            : CommitMode::kAllOrNothing;
      const bool uniform = rng.NextBool(0.6);
      const Resources shape = RandomShape(rng);
      const auto first = static_cast<MachineId>(rng.NextBounded(kCellMachines));
      std::vector<TaskClaim> claims;
      const auto n = 1 + rng.NextBounded(24);
      for (uint64_t i = 0; i < n; ++i) {
        const auto m = static_cast<MachineId>(
            (first + rng.NextBounded(6)) % kCellMachines);
        uint64_t seq = cell.machine(m).seqnum;
        const uint64_t stale = rng.NextBounded(8);
        if (stale == 0) {
          ++seq;
        } else if (stale == 1 && seq > 0) {
          --seq;
        }
        claims.push_back(
            TaskClaim{m, uniform ? shape : RandomShape(rng), seq});
      }
      std::vector<TaskClaim> cell_rejected;
      std::vector<TaskClaim> ref_rejected;
      const CommitResult a =
          cell.Commit(claims, conflict, commit, &cell_rejected);
      const CommitResult b =
          ref.Commit(claims, conflict, commit, &ref_rejected);
      ASSERT_EQ(a.accepted, b.accepted) << "step " << step;
      ASSERT_EQ(a.conflicted, b.conflicted) << "step " << step;
      ASSERT_TRUE(SameClaims(cell_rejected, ref_rejected)) << "step " << step;
      ++commits;
      conflicted += a.conflicted > 0 ? 1 : 0;
      for (const TaskClaim& claim :
           ReconstructAcceptedClaims(claims, cell_rejected, a.accepted)) {
        live.push_back(Live{claim.machine, claim.resources, 1});
      }
    }
    ASSERT_TRUE(SameState(cell, ref)) << "step " << step;
    ASSERT_TRUE(cell.CheckInvariants()) << "step " << step;
  }
  // The stream must have exercised both verdicts.
  EXPECT_GT(commits, 100);
  EXPECT_GT(conflicted, 10);
  EXPECT_LT(conflicted, commits);
  // Drain: every live allocation frees back to an empty cell in both.
  for (const Live& l : live) {
    cell.FreeBatch(l.machine, l.per_task, l.count);
    for (uint32_t i = 0; i < l.count; ++i) {
      ref.Free(l.machine, l.per_task);
    }
  }
  EXPECT_TRUE(SameState(cell, ref));
}

std::vector<CellCase> CellCases() {
  std::vector<CellCase> cases;
  uint64_t seed = 101;
  for (const bool index : {false, true}) {
    for (const FullnessPolicy fullness :
         {FullnessPolicy::kExact, FullnessPolicy::kHeadroom}) {
      for (int i = 0; i < 4; ++i) {
        cases.push_back(CellCase{seed++, index, fullness});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Streams, CellStateReferenceTest,
                         ::testing::ValuesIn(CellCases()));

// Large uniform transactions, the shape Omega batch jobs commit: 1 to 3,000
// identical claims spread over a 12k- or 100k-machine cell, both sorted and
// counted by MachineGrouper, then freed as cohorts. Besides state and
// verdicts, the mutation hook's call order must be the one the sorted
// grouping gives: one call per distinct machine in ascending order for the
// grouped paths, and with the availability index one call per claim in the
// reference's per-task order.
struct LargeCase {
  uint32_t machines;
  bool index;
};

void PrintTo(const LargeCase& c, std::ostream* os) {
  *os << "machines=" << c.machines << " index=" << c.index;
}

std::vector<MachineId> SortedUnique(std::vector<MachineId> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

class LargeUniformTxnTest : public ::testing::TestWithParam<LargeCase> {};

TEST_P(LargeUniformTxnTest, MatchesReferenceAndSortedHookOrder) {
  const LargeCase param = GetParam();
  std::vector<Resources> caps;
  for (uint32_t m = 0; m < param.machines; ++m) {
    caps.push_back(m % 3 == 0 ? Resources{16.0, 64.0} : Resources{8.0, 24.0});
  }
  CellState cell(caps);
  ReferenceCell ref(caps);
  if (param.index) {
    cell.EnableAvailabilityIndex();
  }
  std::vector<MachineId> hook_calls;
  cell.SetMutationHook([&hook_calls](MachineId m) { hook_calls.push_back(m); });
  std::vector<MachineId> ref_log;
  ref.mutation_log = &ref_log;
  auto expected_calls = [&param, &ref_log] {
    return param.index ? ref_log : SortedUnique(ref_log);
  };
  Rng rng(param.machines + (param.index ? 1 : 0));
  const std::vector<uint64_t> sizes = {1,  2,  16,  17,  31,   32,   33,
                                       64, 65, 500, 999, 2048, 3000, 3000};
  std::vector<std::vector<TaskClaim>> cohorts;
  std::vector<Resources> cohort_shapes;
  int conflicted = 0;
  for (int step = 0; step < 96; ++step) {
    const uint64_t n = step < static_cast<int>(sizes.size())
                           ? sizes[step]
                           : 1 + rng.NextBounded(3000);
    // Narrow spans stack many claims per machine (and overfill some, so
    // fine-grained conflicts occur); wide ones spread over the whole cell.
    const uint64_t span =
        1 + rng.NextBounded(rng.NextBool(0.5) ? 400 : param.machines);
    const uint64_t base = rng.NextBounded(param.machines);
    const Resources shape = RandomShape(rng);
    std::vector<TaskClaim> claims;
    for (uint64_t i = 0; i < n; ++i) {
      const auto m = static_cast<MachineId>((base + rng.NextBounded(span)) %
                                            param.machines);
      uint64_t seq = cell.machine(m).seqnum;
      if (rng.NextBounded(64) == 0) {
        ++seq;  // stale under coarse-grained detection
      }
      claims.push_back(TaskClaim{m, shape, seq});
    }
    const auto conflict = rng.NextBool(0.5) ? ConflictMode::kFineGrained
                                            : ConflictMode::kCoarseGrained;
    const auto commit = rng.NextBool(0.8) ? CommitMode::kIncremental
                                          : CommitMode::kAllOrNothing;
    std::vector<TaskClaim> cell_rejected;
    std::vector<TaskClaim> ref_rejected;
    hook_calls.clear();
    ref_log.clear();
    const CommitResult a =
        cell.Commit(claims, conflict, commit, &cell_rejected);
    const CommitResult b = ref.Commit(claims, conflict, commit, &ref_rejected);
    ASSERT_EQ(a.accepted, b.accepted) << "step " << step;
    ASSERT_EQ(a.conflicted, b.conflicted) << "step " << step;
    ASSERT_TRUE(SameClaims(cell_rejected, ref_rejected)) << "step " << step;
    ASSERT_TRUE(SameState(cell, ref)) << "step " << step;
    conflicted += a.conflicted > 0 ? 1 : 0;
    std::vector<TaskClaim> accepted =
        ReconstructAcceptedClaims(claims, cell_rejected, a.accepted);
    ASSERT_EQ(hook_calls, expected_calls())
        << "commit hook order, step " << step;
    if (!accepted.empty()) {
      cohorts.push_back(std::move(accepted));
      cohort_shapes.push_back(shape);
    }
    // Free a random live cohort now and then, as its shared end event would.
    if (!cohorts.empty() && rng.NextBool(0.5)) {
      const size_t pick = rng.NextBounded(cohorts.size());
      hook_calls.clear();
      ref_log.clear();
      cell.FreeCohort(cohorts[pick], cohort_shapes[pick]);
      for (const TaskClaim& c : cohorts[pick]) {
        ref.Free(c.machine, c.resources);
      }
      ASSERT_TRUE(SameState(cell, ref)) << "free, step " << step;
      ASSERT_EQ(hook_calls, expected_calls())
          << "free hook order, step " << step;
      cohorts[pick] = std::move(cohorts.back());
      cohorts.pop_back();
      cohort_shapes[pick] = cohort_shapes.back();
      cohort_shapes.pop_back();
    }
    ASSERT_TRUE(cell.CheckInvariants()) << "step " << step;
  }
  EXPECT_GT(conflicted, 5);
  for (size_t i = 0; i < cohorts.size(); ++i) {
    cell.FreeCohort(cohorts[i], cohort_shapes[i]);
    for (const TaskClaim& c : cohorts[i]) {
      ref.Free(c.machine, c.resources);
    }
  }
  EXPECT_TRUE(SameState(cell, ref));
}

INSTANTIATE_TEST_SUITE_P(Cells, LargeUniformTxnTest,
                         ::testing::Values(LargeCase{12000, false},
                                           LargeCase{12000, true},
                                           LargeCase{100000, false}));

}  // namespace
}  // namespace omega
