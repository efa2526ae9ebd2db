// Constraint-aware scoring placement ("Google algorithm" stand-in, §5).
//
// SUBSTITUTION NOTE (DESIGN.md §2): the paper's high-fidelity simulator reuses
// Google's production scheduling code, which is proprietary. This placer
// reproduces its observable properties that matter to the §5 experiments:
//  - it respects task placement constraints (machines are filtered by the
//    job's attribute predicates), so picky jobs are genuinely hard to place;
//  - it makes *careful* placements by scoring candidates: best-fit packing
//    plus failure-domain spreading, which concentrates many schedulers'
//    choices onto the same attractive machines and thereby produces the
//    higher conflict rates the paper reports for the high-fidelity simulator;
//  - its cost is modeled by the same t_job + t_task * tasks linear model.
#pragma once

#include "src/scheduler/placement.h"

namespace omega {

struct ScoringPlacerOptions {
  // Sizes the availability walk's budget per task: a task stops after
  // scoring max(1, candidate_sample / 8) feasible machines, or at the first
  // feasible machine once candidate_sample * 4 walk positions are behind it,
  // which keeps placement cost bounded on large cells (DESIGN.md §7).
  uint32_t candidate_sample = 64;
  // Weight of the best-fit packing term (prefer fuller machines).
  double best_fit_weight = 1.0;
  // Weight of the failure-domain spreading term (prefer domains the job does
  // not use yet, to resist coordinated failures).
  double spreading_weight = 0.25;
};

class ScoringPlacer final : public TaskPlacer {
 public:
  explicit ScoringPlacer(ScoringPlacerOptions options = {});

  // CHECK-fails unless the cell carries an availability index
  // (CellState::EnableAvailabilityIndex): placement walks it. Draws nothing
  // from `rng`.
  uint32_t PlaceTasks(const CellState& cell, const Job& job, uint32_t count,
                      Rng& rng, std::vector<TaskClaim>* claims) override;

 private:
  ScoringPlacerOptions options_;
  PendingClaims pending_scratch_;
  // Failure domains the current job already occupies — dense epoch-stamped
  // scratch (domains are small dense ints), replacing the former
  // unordered_set so the scoring hot path does no hashing.
  EpochFlagSet domains_scratch_;
  // Availability-index walk of the current call, in walk order: each
  // position's machine and the next position still worth visiting (dead
  // positions are unlinked). At most one slot per machine.
  struct WalkSlot {
    MachineId machine;
    uint32_t next;
  };
  static constexpr uint32_t kWalkHead = ~0u;
  std::vector<WalkSlot> walk_;
};

}  // namespace omega

