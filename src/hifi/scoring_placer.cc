#include "src/hifi/scoring_placer.h"

#include <algorithm>

#include "src/common/logging.h"

namespace omega {

ScoringPlacer::ScoringPlacer(ScoringPlacerOptions options) : options_(options) {}

uint32_t ScoringPlacer::PlaceTasks(const CellState& cell, const Job& job,
                                   uint32_t count, Rng& /*rng*/,
                                   std::vector<TaskClaim>* claims) {
  OMEGA_CHECK(cell.HasAvailabilityIndex())
      << "ScoringPlacer walks the availability index; enable it on the cell";
  if (cell.NumMachines() == 0 || count == 0) {
    return 0;
  }
  // Infeasibility is monotone across the call only for non-negative
  // requests (the trace reader rejects anything else).
  OMEGA_CHECK(job.task_resources.cpus >= 0.0 &&
              job.task_resources.mem_gb >= 0.0);
  PendingClaims& pending = pending_scratch_;
  pending.Reset(cell.NumMachines());
  EpochFlagSet& domains_used = domains_scratch_;
  domains_used.Reset();
  uint32_t placed = 0;

  // Availability-index walk shared by all tasks of this call: positions are
  // materialised into walk_ as the walk first reaches them, and walk_head
  // plus the next links skip positions found infeasible.
  CellState::AvailabilityCursor walk =
      cell.WalkByAvailability(job.task_resources);
  walk_.clear();
  uint32_t walk_head = 0;

  for (uint32_t t = 0; t < count; ++t) {
    MachineId best = kInvalidMachineId;
    double best_score = -1.0;

    // Scores machine `m` if it is feasible for this task and keeps the best
    // so far; returns whether it was feasible.
    auto consider = [&](MachineId m) -> bool {
      const Machine& machine = cell.machine(m);
      if (!MachineSatisfiesConstraints(machine, job)) {
        return false;
      }
      const Resources extra = pending.On(m);
      if (!cell.CanFitWithPending(m, job.task_resources, extra)) {
        return false;
      }
      // Best-fit term: utilization of the machine after placement, in the
      // dominant dimension. Scoring the fullest feasible machine packs tightly
      // and leaves large holes for big tasks.
      const Resources after = machine.allocated + extra + job.task_resources;
      const Resources usable = cell.UsableCapacity(m);
      const double fit = std::max(
          usable.cpus > 0.0 ? after.cpus / usable.cpus : 0.0,
          usable.mem_gb > 0.0 ? after.mem_gb / usable.mem_gb : 0.0);
      // Spreading term: reward failure domains this job does not occupy yet.
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

    // Global best-fit via the availability index: visit machines from the
    // tightest feasible bucket upward; the first feasible candidates are the
    // globally best-packing choices, which is exactly why careful placement
    // algorithms concentrate onto the same machines and conflict (§5).
    // Bucket order is meaningful, so the walk is sequential.
    //
    // One walk serves every task of the call (DESIGN.md §7). The cell is
    // const, the constraints are fixed and pending claims only grow, so a
    // machine that fails consider() for one task fails it for every later
    // task: it is unlinked from the live list and never tested again. A
    // skipped position still counts as visited (visited == position + 1),
    // so each stop rule below decides exactly as a walk that re-tests it.
    uint32_t feasible = 0;
    const uint32_t max_feasible = std::max(1u, options_.candidate_sample / 8);
    const uint32_t max_visited = options_.candidate_sample * 4;
    uint32_t prev = kWalkHead;  // last live position of this task's walk
    for (uint32_t p = walk_head;; p = walk_[p].next) {
      // Past the visit budget, keep walking only until something feasible
      // turns up (memory-bound or constrained tasks may need to reach
      // looser buckets); a full walk happens only when nothing fits at all.
      if (feasible > 0 && p >= max_visited) {
        break;
      }
      if (p == walk_.size()) {
        const MachineId m = walk.Next();
        if (m == kInvalidMachineId) {
          break;
        }
        walk_.push_back(WalkSlot{m, p + 1});
      }
      if (consider(walk_[p].machine)) {
        if (++feasible >= max_feasible) {
          break;  // enough tight candidates scored
        }
        prev = p;
      } else if (prev == kWalkHead) {
        walk_head = walk_[p].next;  // unlink the dead position
      } else {
        walk_[prev].next = walk_[p].next;
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

}  // namespace omega
