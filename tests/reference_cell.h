// Naive reference models of the cell state and of randomized first fit, for
// differential tests.
//
// ReferenceCell is the simplest model of CellState's observable behaviour: a
// std::vector<Machine>, per-task Allocate/Free, and a per-claim three-phase
// Commit. It has no struct-of-arrays mirrors, no block summaries, no batched
// mutations, no grouped commit and no availability index. Every production
// shortcut must leave allocations, sequence numbers, totals, commit results
// and rejected claims bit-identical to this model.
//
// ReferenceFirstFit is randomized first fit without any pruning: random
// probes, then a plain wrapped linear scan from a random offset. It consumes
// the RNG exactly as RandomizedFirstFitPlacer does, so the two must return
// the same claims and leave the RNG in the same state.
#pragma once

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "src/cluster/cell_state.h"
#include "src/cluster/machine.h"
#include "src/cluster/resources.h"
#include "src/common/random.h"
#include "src/scheduler/placement.h"
#include "src/workload/job.h"

namespace omega {

class ReferenceCell {
 public:
  ReferenceCell(const std::vector<Resources>& capacities,
                FullnessPolicy fullness = FullnessPolicy::kExact,
                double headroom_fraction = 0.0)
      : fullness_(fullness), headroom_fraction_(headroom_fraction) {
    machines_.resize(capacities.size());
    for (size_t i = 0; i < capacities.size(); ++i) {
      machines_[i].id = static_cast<MachineId>(i);
      machines_[i].capacity = capacities[i];
    }
  }

  const Machine& machine(MachineId id) const { return machines_[id]; }
  uint32_t NumMachines() const {
    return static_cast<uint32_t>(machines_.size());
  }
  Resources TotalAllocated() const { return total_allocated_; }

  Resources UsableCapacity(MachineId id) const {
    const Resources& cap = machines_[id].capacity;
    return fullness_ == FullnessPolicy::kExact
               ? cap
               : cap * (1.0 - headroom_fraction_);
  }

  bool CanFitWithPending(MachineId id, const Resources& request,
                         const Resources& extra) const {
    return (machines_[id].allocated + extra + request)
        .FitsIn(UsableCapacity(id));
  }

  // When set, every per-task Allocate and Free appends its machine id, the
  // order a per-task cell would call its mutation hook in.
  std::vector<MachineId>* mutation_log = nullptr;

  void Allocate(MachineId id, const Resources& request) {
    if (mutation_log != nullptr) {
      mutation_log->push_back(id);
    }
    Machine& m = machines_[id];
    ASSERT_TRUE((m.allocated + request).FitsIn(m.capacity));
    m.allocated += request;
    ++m.seqnum;
    total_allocated_ += request;
  }

  void Free(MachineId id, const Resources& request) {
    if (mutation_log != nullptr) {
      mutation_log->push_back(id);
    }
    Machine& m = machines_[id];
    m.allocated -= request;
    ASSERT_FALSE(m.allocated.IsNegative());
    m.allocated = m.allocated.ClampNonNegative();
    ++m.seqnum;
    total_allocated_ -= request;
    total_allocated_ = total_allocated_.ClampNonNegative();
  }

  // Phase 1 decides each claim in claim order against the current state plus
  // the earlier accepted claims of this transaction on the same machine;
  // phase 2 applies all-or-nothing semantics; phase 3 allocates the accepted
  // claims one by one in claim order and reports the rest in `rejected`.
  CommitResult Commit(std::span<const TaskClaim> claims,
                      ConflictMode conflict_mode, CommitMode commit_mode,
                      std::vector<TaskClaim>* rejected) {
    CommitResult result;
    std::vector<Resources> pending(machines_.size(), Resources::Zero());
    std::vector<bool> accept(claims.size(), false);
    bool any_conflict = false;
    for (size_t i = 0; i < claims.size(); ++i) {
      const TaskClaim& c = claims[i];
      bool ok = CanFitWithPending(c.machine, c.resources, pending[c.machine]);
      if (conflict_mode == ConflictMode::kCoarseGrained &&
          machines_[c.machine].seqnum != c.seqnum_at_placement) {
        ok = false;
      }
      accept[i] = ok;
      if (ok) {
        pending[c.machine] += c.resources;
      } else {
        any_conflict = true;
      }
    }
    if (commit_mode == CommitMode::kAllOrNothing && any_conflict) {
      accept.assign(claims.size(), false);
    }
    for (size_t i = 0; i < claims.size(); ++i) {
      if (accept[i]) {
        Allocate(claims[i].machine, claims[i].resources);
        ++result.accepted;
      } else {
        ++result.conflicted;
        rejected->push_back(claims[i]);
      }
    }
    return result;
  }

 private:
  std::vector<Machine> machines_;
  Resources total_allocated_ = Resources::Zero();
  FullnessPolicy fullness_;
  double headroom_fraction_;
};

// Randomized first fit over `range` of `cell` with no pruning of any kind;
// see the file comment.
inline uint32_t ReferenceFirstFit(const CellState& cell, const Job& job,
                                  uint32_t count, Rng& rng,
                                  std::vector<TaskClaim>* claims,
                                  uint32_t max_random_probes = 32,
                                  MachineRange range = {}) {
  const uint32_t num_machines = range.SizeIn(cell.NumMachines());
  if (num_machines == 0 || count == 0) {
    return 0;
  }
  auto fits = [&](MachineId m, const PendingClaims& pending) {
    return cell.CanFitWithPending(m, job.task_resources, pending.On(m));
  };
  PendingClaims pending;
  uint32_t placed = 0;
  for (uint32_t t = 0; t < count; ++t) {
    MachineId chosen = kInvalidMachineId;
    for (uint32_t probe = 0; probe < max_random_probes; ++probe) {
      const MachineId m =
          range.Nth(static_cast<uint32_t>(rng.NextBounded(num_machines)));
      if (fits(m, pending)) {
        chosen = m;
        break;
      }
    }
    if (chosen == kInvalidMachineId) {
      const auto start = static_cast<uint32_t>(rng.NextBounded(num_machines));
      for (uint32_t i = 0; i < num_machines; ++i) {
        const MachineId m = range.Nth((start + i) % num_machines);
        if (fits(m, pending)) {
          chosen = m;
          break;
        }
      }
    }
    if (chosen == kInvalidMachineId) {
      break;
    }
    claims->push_back(
        TaskClaim{chosen, job.task_resources, cell.machine(chosen).seqnum});
    pending.Add(chosen, job.task_resources);
    ++placed;
  }
  return placed;
}

}  // namespace omega
