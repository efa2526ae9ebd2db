// Differential test: the production ScoringPlacer's availability-index path
// walks the availability order once per PlaceTasks call and never re-tests a
// machine an earlier task of the call found infeasible. The reference below
// is the naive algorithm it replaced — restart the bucket walk from the
// tightest bucket for every task and test every machine again. The two must
// produce bit-identical claims (machine, resources, seqnum_at_placement) on
// any cell, because infeasibility is monotone within a call: the cell is
// const, constraints are fixed and pending claims only grow.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/cluster/cell_state.h"
#include "src/common/random.h"
#include "src/hifi/scoring_placer.h"
#include "src/workload/cluster_config.h"
#include "tests/bitwise_eq.h"

namespace omega {
namespace {

// The per-task-restart scoring placer (index path only), kept here as the
// reference the production walk is diffed against.
class ReferenceScoringPlacer final : public TaskPlacer {
 public:
  explicit ReferenceScoringPlacer(ScoringPlacerOptions options)
      : options_(options) {}

  uint32_t PlaceTasks(const CellState& cell, const Job& job, uint32_t count,
                      Rng& /*rng*/, std::vector<TaskClaim>* claims) override {
    PendingClaims pending;
    pending.Reset(cell.NumMachines());
    EpochFlagSet domains_used;
    domains_used.Reset();
    uint32_t placed = 0;
    for (uint32_t t = 0; t < count; ++t) {
      MachineId best = kInvalidMachineId;
      double best_score = -1.0;
      auto consider = [&](MachineId m) -> bool {
        const Machine& machine = cell.machine(m);
        if (!MachineSatisfiesConstraints(machine, job)) {
          return false;
        }
        const Resources extra = pending.On(m);
        if (!cell.CanFitWithPending(m, job.task_resources, extra)) {
          return false;
        }
        const Resources after = machine.allocated + extra + job.task_resources;
        const Resources usable = cell.UsableCapacity(m);
        const double fit = std::max(
            usable.cpus > 0.0 ? after.cpus / usable.cpus : 0.0,
            usable.mem_gb > 0.0 ? after.mem_gb / usable.mem_gb : 0.0);
        const double spread =
            domains_used.Contains(machine.failure_domain) ? 0.0 : 1.0;
        const double score =
            options_.best_fit_weight * fit + options_.spreading_weight * spread;
        if (score > best_score) {
          best_score = score;
          best = m;
        }
        return true;
      };
      uint32_t feasible = 0;
      uint32_t visited = 0;
      const uint32_t max_feasible = std::max(1u, options_.candidate_sample / 8);
      const uint32_t max_visited = options_.candidate_sample * 4;
      auto walk = cell.WalkByAvailability(job.task_resources);
      for (MachineId m = walk.Next(); m != kInvalidMachineId; m = walk.Next()) {
        ++visited;
        if (consider(m)) {
          ++feasible;
        }
        if (feasible >= max_feasible) {
          break;
        }
        if (feasible > 0 && visited >= max_visited) {
          break;
        }
      }
      if (best == kInvalidMachineId) {
        break;
      }
      claims->push_back(
          TaskClaim{best, job.task_resources, cell.machine(best).seqnum});
      pending.Add(best, job.task_resources);
      domains_used.Insert(cell.machine(best).failure_domain);
      ++placed;
    }
    return placed;
  }

 private:
  ScoringPlacerOptions options_;
};

void ExpectSameClaims(const std::vector<TaskClaim>& got,
                      const std::vector<TaskClaim>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].machine, want[i].machine) << "claim " << i;
    EXPECT_TRUE(SameBits(got[i].resources.cpus, want[i].resources.cpus));
    EXPECT_TRUE(SameBits(got[i].resources.mem_gb, want[i].resources.mem_gb));
    EXPECT_EQ(got[i].seqnum_at_placement, want[i].seqnum_at_placement)
        << "claim " << i;
  }
}

constexpr int32_t kAttributeKeys = 4;
constexpr int32_t kAttributeValues = 3;

CellState MakeCell(Rng& rng, bool heterogeneous, FullnessPolicy fullness) {
  ClusterConfig config;
  config.num_machines = 40 + static_cast<uint32_t>(rng.NextBounded(600));
  config.machine_capacity = Resources{4.0, 16.0};
  if (heterogeneous) {
    config.machine_classes = {{Resources{4.0, 16.0}, 0.5},
                              {Resources{8.0, 16.0}, 0.25},
                              {Resources{2.0, 24.0}, 0.15},
                              {Resources{16.0, 64.0}, 0.1}};
  }
  const double headroom =
      fullness == FullnessPolicy::kHeadroom ? rng.NextRange(0.01, 0.1) : 0.0;
  const auto per_domain = static_cast<uint32_t>(2 + rng.NextBounded(40));
  CellState cell(BuildMachineCapacities(config), fullness, headroom,
                 per_domain);
  for (MachineId m = 0; m < cell.NumMachines(); ++m) {
    std::vector<int32_t> attributes(kAttributeKeys);
    for (int32_t& a : attributes) {
      a = static_cast<int32_t>(rng.NextBounded(kAttributeValues));
    }
    cell.mutable_machine(m).attributes = std::move(attributes);
  }
  cell.EnableAvailabilityIndex(rng.NextBool(0.5) ? 64 : 16);
  return cell;
}

// Allocates random tasks until roughly `target` of the cell's CPUs are used;
// a high target leaves most machines nearly full.
void Fill(CellState& cell, Rng& rng, double target) {
  const double goal = cell.TotalCapacity().cpus * target;
  for (int misses = 0; cell.TotalAllocated().cpus < goal && misses < 2000;) {
    const auto m = static_cast<MachineId>(rng.NextBounded(cell.NumMachines()));
    const Resources r{rng.NextRange(0.05, 2.0), rng.NextRange(0.1, 8.0)};
    if (cell.CanFit(m, r)) {
      cell.Allocate(m, r);
    } else {
      ++misses;
    }
  }
}

Job RandomJob(Rng& rng) {
  Job job;
  // Skewed toward small jobs, with a long tail up to 512 tasks.
  const uint32_t scale = 1u << rng.NextBounded(10);
  job.num_tasks = 1 + static_cast<uint32_t>(rng.NextBounded(scale));
  job.task_resources = Resources{rng.NextRange(0.01, 1.5),
                                 rng.NextRange(0.01, 6.0)};
  const auto num_constraints = static_cast<int>(rng.NextBounded(3));
  for (int c = 0; c < num_constraints; ++c) {
    job.constraints.push_back(PlacementConstraint{
        static_cast<int32_t>(rng.NextBounded(kAttributeKeys)),
        static_cast<int32_t>(rng.NextBounded(kAttributeValues)),
        rng.NextBool(0.6)});
  }
  return job;
}

struct DiffCase {
  FullnessPolicy fullness;
  bool heterogeneous;
  uint32_t candidate_sample;
};

class ScoringPlacerDiffTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(ScoringPlacerDiffTest, WalkOnceMatchesPerTaskRestart) {
  const DiffCase param = GetParam();
  ScoringPlacerOptions options;
  options.candidate_sample = param.candidate_sample;
  // One production instance across every call, so stale walk scratch from a
  // previous call would show up as a mismatch.
  ScoringPlacer production(options);
  ReferenceScoringPlacer reference(options);
  Rng rng(0x5c0e + 1000 * param.candidate_sample +
          (param.heterogeneous ? 7 : 0) +
          (param.fullness == FullnessPolicy::kHeadroom ? 13 : 0));
  int64_t placed_total = 0;
  int64_t partial_jobs = 0;
  for (int round = 0; round < 30; ++round) {
    CellState cell = MakeCell(rng, param.heterogeneous, param.fullness);
    Fill(cell, rng, rng.NextRange(0.5, 0.99));
    for (int j = 0; j < 40; ++j) {
      const Job job = RandomJob(rng);
      std::vector<TaskClaim> got;
      std::vector<TaskClaim> want;
      Rng rng_got(round * 100 + j);
      Rng rng_want(round * 100 + j);
      const uint32_t n_got =
          production.PlaceTasks(cell, job, job.num_tasks, rng_got, &got);
      const uint32_t n_want =
          reference.PlaceTasks(cell, job, job.num_tasks, rng_want, &want);
      ASSERT_EQ(n_got, n_want) << "round " << round << " job " << j;
      ExpectSameClaims(got, want);
      ASSERT_EQ(rng_got.Next(), rng_want.Next());  // no extra draws
      placed_total += n_got;
      partial_jobs += n_got < job.num_tasks ? 1 : 0;
      // Commit so the cell (and its bucket order) evolves between jobs.
      cell.Commit(got, ConflictMode::kFineGrained, CommitMode::kIncremental);
    }
    ASSERT_TRUE(cell.CheckInvariants());
  }
  // The sweep must exercise both placements and exhausted walks.
  EXPECT_GT(placed_total, 0);
  EXPECT_GT(partial_jobs, 0);
}

std::vector<DiffCase> AllCases() {
  std::vector<DiffCase> cases;
  for (const FullnessPolicy fullness :
       {FullnessPolicy::kExact, FullnessPolicy::kHeadroom}) {
    for (const bool heterogeneous : {false, true}) {
      for (const uint32_t sample : {1u, 4u, 8u, 64u}) {
        cases.push_back(DiffCase{fullness, heterogeneous, sample});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Cells, ScoringPlacerDiffTest, ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      return std::string(info.param.fullness == FullnessPolicy::kExact
                             ? "Exact"
                             : "Headroom") +
             (info.param.heterogeneous ? "Hetero" : "Homo") + "Sample" +
             std::to_string(info.param.candidate_sample);
    });

TEST(ScoringPlacerDiffTargetedTest, ManyTaskJobPassesFilledMachines) {
  // A near-full cell where every machine has room for exactly one more task:
  // each task fills the tightest machine, and every later task's walk must
  // get past all of the machines earlier tasks filled. The job asks for more
  // tasks than there are slots, so the last walk runs off the end.
  constexpr uint32_t kMachines = 300;
  CellState cell(kMachines, Resources{4.0, 16.0}, FullnessPolicy::kHeadroom,
                 0.04, 10);
  cell.EnableAvailabilityIndex();
  for (MachineId m = 0; m < kMachines; ++m) {
    // 3.84 usable cpus; leave 1.0 to 1.5 of them free (more on later ids).
    const double free_cpus = 1.0 + 0.5 * m / kMachines;
    cell.Allocate(m, Resources{3.84 - free_cpus, 4.0});
  }
  Job job;
  job.num_tasks = 400;
  job.task_resources = Resources{1.0, 1.0};
  ScoringPlacer production;
  ReferenceScoringPlacer reference{ScoringPlacerOptions{}};
  std::vector<TaskClaim> got;
  std::vector<TaskClaim> want;
  Rng rng_got(1);
  Rng rng_want(1);
  const uint32_t n_got =
      production.PlaceTasks(cell, job, job.num_tasks, rng_got, &got);
  const uint32_t n_want =
      reference.PlaceTasks(cell, job, job.num_tasks, rng_want, &want);
  EXPECT_EQ(n_got, kMachines);
  EXPECT_EQ(n_want, kMachines);
  ExpectSameClaims(got, want);
  std::vector<MachineId> machines;
  for (const TaskClaim& c : got) {
    machines.push_back(c.machine);
  }
  std::sort(machines.begin(), machines.end());
  EXPECT_EQ(std::unique(machines.begin(), machines.end()), machines.end())
      << "a machine with room for one task was claimed twice";
}

}  // namespace
}  // namespace omega
