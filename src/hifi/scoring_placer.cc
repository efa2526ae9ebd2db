#include "src/hifi/scoring_placer.h"

#include <algorithm>
#include <optional>

#include "src/common/logging.h"

namespace omega {

ScoringPlacer::ScoringPlacer(ScoringPlacerOptions options) : options_(options) {}

uint32_t ScoringPlacer::PlaceTasks(const CellState& cell, const Job& job,
                                   uint32_t count, Rng& rng,
                                   std::vector<TaskClaim>* claims) {
  const uint32_t num_machines = cell.NumMachines();
  if (num_machines == 0 || count == 0) {
    return 0;
  }
  PendingClaims& pending = pending_scratch_;
  pending.Reset(cell.NumMachines());
  EpochFlagSet& domains_used = domains_scratch_;
  domains_used.Reset();
  WorkerPool* pool = cell.intra_trial_pool();
  uint32_t placed = 0;

  // Availability-index walk shared by all tasks of this call: positions are
  // materialised into walk_ as the walk first reaches them, and walk_head
  // plus the next links skip positions found infeasible.
  std::optional<CellState::AvailabilityCursor> walk;
  uint32_t walk_head = 0;
  if (cell.HasAvailabilityIndex()) {
    // Infeasibility is monotone across the call only for non-negative
    // requests (the trace reader rejects anything else).
    OMEGA_CHECK(job.task_resources.cpus >= 0.0 &&
                job.task_resources.mem_gb >= 0.0);
    walk.emplace(cell.WalkByAvailability(job.task_resources));
    walk_.clear();
  }

  for (uint32_t t = 0; t < count; ++t) {
    MachineId best = kInvalidMachineId;
    double best_score = -1.0;

    // Feasibility + score of one candidate, side-effect-free: every input it
    // reads (machine state, pending claims, domains used) is only mutated on
    // this thread between scans, so pool workers may evaluate it concurrently
    // for distinct machines.
    auto score_of = [&](MachineId m, double* score) -> bool {
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
      *score =
          options_.best_fit_weight * fit + options_.spreading_weight * spread;
      return true;
    };
    // Sample candidates; fall back to a full scan if sampling finds nothing
    // (constrained jobs on a nearly full cell).
    auto consider = [&](MachineId m) -> bool {
      double score = 0.0;
      if (!score_of(m, &score)) {
        return false;
      }
      if (score > best_score) {
        best_score = score;
        best = m;
      }
      return true;
    };

    if (walk) {
      // Global best-fit via the availability index: visit machines from the
      // tightest feasible bucket upward; the first feasible candidates are the
      // globally best-packing choices, which is exactly why careful placement
      // algorithms concentrate onto the same machines and conflict (§5).
      // Bucket order is meaningful, so this path stays sequential.
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
          const MachineId m = walk->Next();
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
    } else {
      const uint32_t samples = std::min(options_.candidate_sample, num_machines);
      if (pool != nullptr) {
        // Sharded sampling (DESIGN.md §12): draw the sample ids up front —
        // the same draws, in the same order, as the sequential loop — then
        // reduce with a deterministic ArgBest over sample positions. Shard
        // scans apply the sequential update rule exactly (strictly greater
        // than a running best initialized to -1.0, so a hypothetical score
        // <= -1.0 never wins in either path), and the ordered merge resolves
        // ties to the lowest sample position, which is the candidate the
        // sequential loop would have kept.
        sample_scratch_.clear();
        for (uint32_t i = 0; i < samples; ++i) {
          sample_scratch_.push_back(
              static_cast<MachineId>(rng.NextBounded(num_machines)));
        }
        const auto sampled_best = reducer_.ArgBest(
            pool, samples, ReduceGrain(samples, pool->concurrency()),
            [&](size_t b, size_t e) {
              DeterministicReducer::Best local;
              double local_score = -1.0;
              for (size_t i = b; i < e; ++i) {
                double score = 0.0;
                if (!score_of(sample_scratch_[i], &score)) {
                  continue;
                }
                if (score > local_score) {
                  local_score = score;
                  local.index = i;
                  local.score = score;
                }
              }
              return local;
            });
        if (sampled_best.index != kReduceNotFound) {
          best = sample_scratch_[sampled_best.index];
          best_score = sampled_best.score;
        }
      } else {
        for (uint32_t i = 0; i < samples; ++i) {
          consider(static_cast<MachineId>(rng.NextBounded(num_machines)));
        }
      }
      if (best == kInvalidMachineId) {
        const auto start = static_cast<MachineId>(rng.NextBounded(num_machines));
        if (pool != nullptr && cell.soa_scan()) {
          // Sharded full scan (DESIGN.md §12): the sequential SoA sweep below
          // is a *first-fit* search (its loop stops at the first machine
          // consider() scores), so the parallel form is a FirstMatch over the
          // feasibility predicate in the same wrapped order, followed by one
          // sequential consider() on the winner to compute its score on this
          // thread (weights are non-negative, so a feasible machine always
          // scores >= 0 > -1.0 and is selected, exactly like the reference).
          // Summaries are refreshed up front so workers scan with full
          // pruning without writing anything.
          cell.RefreshSummaries();
          auto scan_span = [&](MachineId from, MachineId to) -> size_t {
            while (from < to) {
              const MachineId hit =
                  cell.FindFirstFitNoRefresh(from, to, job.task_resources);
              if (hit == kInvalidMachineId) {
                return kReduceNotFound;
              }
              double score = 0.0;
              if (score_of(hit, &score)) {
                return hit;
              }
              from = hit + 1;
            }
            return kReduceNotFound;
          };
          auto sweep = [&](MachineId seg_begin, MachineId seg_end) -> size_t {
            const size_t seg_n = seg_end - seg_begin;
            if (seg_n == 0) {
              return kReduceNotFound;
            }
            const size_t grain = ReduceGrain(seg_n, pool->concurrency());
            return reducer_.FirstMatch(
                pool, seg_n, grain, [&](size_t b, size_t e) {
                  return scan_span(seg_begin + static_cast<MachineId>(b),
                                   seg_begin + static_cast<MachineId>(e));
                });
          };
          size_t hit = sweep(start, num_machines);
          if (hit == kReduceNotFound) {
            hit = sweep(0, start);
          }
          if (hit != kReduceNotFound) {
            consider(static_cast<MachineId>(hit));
          }
        } else if (cell.soa_scan()) {
          // The reference loop below stops at the first machine consider()
          // scores (its loop condition), so this is a first-fit search: sweep
          // each ascending segment with the SoA core, re-checking candidates
          // with consider() (constraints + pending). Machines the sweep skips
          // fail CanFit outright, and consider() is side-effect-free on them,
          // so the chosen machine — and the absence of RNG draws — match the
          // reference exactly.
          auto sweep = [&](MachineId from, MachineId to) {
            while (from < to && best == kInvalidMachineId) {
              const MachineId hit =
                  cell.FindFirstFit(from, to, job.task_resources);
              if (hit == kInvalidMachineId) {
                return;
              }
              consider(hit);
              from = hit + 1;
            }
          };
          sweep(start, num_machines);
          if (best == kInvalidMachineId) {
            sweep(0, start);
          }
        } else {
          for (uint32_t i = 0; i < num_machines && best == kInvalidMachineId;
               ++i) {
            consider((start + i) % num_machines);
          }
        }
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
