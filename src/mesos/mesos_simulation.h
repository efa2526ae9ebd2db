// Two-level scheduling modeled on Mesos (§3.3, §4.2).
//
// A centralized resource allocator dynamically partitions the cluster by
// making resource offers to scheduler frameworks. Only one framework sees a
// given resource at a time — it effectively holds a lock on the offered
// resources for the duration of its scheduling attempt, so concurrency
// control is pessimistic. The allocator aims at dominant resource fairness
// (DRF) by offering all available resources to the framework furthest below
// its dominant share.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <map>
#include <vector>

#include "src/mesos/offer.h"
#include "src/scheduler/cluster_simulation.h"
#include "src/scheduler/config.h"
#include "src/scheduler/metrics.h"

namespace omega {

class MesosSimulation;

// A scheduler framework: receives offers, schedules its queued jobs onto the
// offered resources, and returns what it does not use.
//
// With `config.commit_mode == kAllOrNothing` the framework gang-schedules by
// *hoarding* (§3.3): accepted resources are held idle until the whole job has
// been placed, only then do its tasks start. Hoarding wastes the held
// resources in the meantime and can deadlock against another hoarding
// framework; the attempt limit eventually breaks the deadlock by abandoning
// the job and releasing its hoard.
class MesosFramework {
 public:
  MesosFramework(MesosSimulation& sim, SchedulerConfig config, JobType type);

  void Submit(const JobPtr& job);

  // Allocator delivers an offer; the framework starts a scheduling attempt
  // for its head job. Must only be called when IsPending().
  void HandleOffer(ResourceOffer offer);

  // Pending = has queued work and is able to receive an offer.
  bool IsPending() const { return !busy_ && !queue_.empty(); }
  bool busy() const { return busy_; }
  JobType type() const { return type_; }
  const std::string& name() const { return config_.name; }
  SchedulerMetrics& metrics() { return metrics_; }
  const SchedulerMetrics& metrics() const { return metrics_; }
  size_t QueueDepth() const { return queue_.size(); }

  // Resources currently hoarded for incomplete gang-scheduled jobs.
  Resources HoardedResources() const;

 private:
  void FinishAttempt(const JobPtr& job, ResourceOffer offer,
                     std::vector<TaskClaim> claims);
  void ReleaseHoard(const JobPtr& job);
  // Trace track for this framework, registered lazily under config_.name.
  uint16_t TraceTrack();

  MesosSimulation& sim_;
  SchedulerConfig config_;
  JobType type_;
  SchedulerMetrics metrics_;
  std::deque<JobPtr> queue_;
  bool busy_ = false;
  int32_t trace_track_ = -1;  // lazily registered; -1 = not yet
  // Gang scheduling by hoarding: claims held per incomplete job. Ordered
  // by JobId so HoardedResources() sums in a deterministic order (the
  // floating-point total feeds reported metrics; see det-unordered-iter
  // in DESIGN.md §9).
  std::map<JobId, std::vector<TaskClaim>> hoards_;
};

// The centralized resource allocator. Decision time is modeled as 1 ms (§4.2:
// "The DRF algorithm ... is quite fast"); successive allocation rounds are
// additionally paced by `min_round_interval`, matching Mesos's batched
// allocation cycle (and bounding simulation cost on large cells).
//
// Offers are locked lazily (DESIGN.md §7). A round with no implicit lock
// outstanding takes it: its offer covers every unoffered machine, but a
// machine's slice is only written to `offered_` when a task fits on it, when
// the machine already has a non-zero `offered_` entry, or just before the
// machine changes (the cell's mutation hook). A round that starts while the
// lock is held offers only the dirty machines, those changed since: every
// other machine is saturated. That offer is deferred the same way: slices
// become explicit when pulled or before their machine changes, and the rest
// replay the eager return arithmetic when the offer comes back. OfferedOn and
// TotalOffered add the implicit shares on the fly, so every observable value
// matches offering all machines eagerly.
class MesosAllocator {
 public:
  explicit MesosAllocator(MesosSimulation& sim,
                          Duration decision_time = Duration::FromMillis(1),
                          Duration min_round_interval = Duration::FromMillis(100));

  void RegisterFramework(MesosFramework* framework);

  // Wakes the allocator: if any framework is pending and unoffered resources
  // exist, schedule an allocation round.
  void Trigger();

  // Pulls the next slice of `offer` on which `task` fits, in machine order,
  // and appends it to offer.slices; false once no such slice remains. Only
  // valid during the framework's HandleOffer.
  bool Pull(ResourceOffer& offer, const Resources& task);

  // Framework bookkeeping for DRF and offer locking.
  void OnResourcesAllocated(const MesosFramework* framework, const Resources& r);
  void OnResourcesFreed(const MesosFramework* framework, const Resources& r);
  void ReturnOffer(const ResourceOffer& offer);

  // Unlocks the offered share consumed by committed claims (the machine's
  // availability already dropped by the same amount, so leaving it in
  // `offered_` would double-count it as locked forever).
  void OnOfferResourcesUsed(const std::vector<TaskClaim>& claims);

  // Offered (locked) resources on `machine`.
  Resources OfferedOn(MachineId machine) const;
  Resources TotalOffered() const;
  double DominantShare(const MesosFramework* framework) const;

 private:
  void RunAllocationRound();
  // DRF argmin: the pending framework with the lowest dominant share,
  // earliest registration order on ties.
  MesosFramework* PickFramework();
  // Position of `framework` in registration order; CHECK-fails if it was
  // never registered.
  size_t IndexOf(const MesosFramework* framework) const;

  // The eager offer's slice on `machine`: its available resources not yet
  // offered explicitly.
  Resources Unoffered(MachineId machine) const;
  bool IsExplicit(MachineId machine) const;
  void MarkDirty(MachineId machine);
  void ClearDirty(MachineId machine);
  // Locks explicit `machine`'s unoffered share, if non-zero, and appends it
  // to `slices`.
  void TakeSlice(MachineId machine, std::vector<OfferSlice>& slices);
  // Releases `r` of `machine`'s offered_ entry (a used claim or a returned
  // slice). With no lock held, an explicit machine whose entry drops to zero
  // stops being explicit.
  void Unlock(MachineId machine, const Resources& r);
  // Makes `machine`'s implicitly locked slice explicit, on behalf of the lock
  // holder; a no-op if the lock is not held or the machine is explicit.
  void Materialize(MachineId machine);
  // Makes `machine`'s deferred slice explicit, on behalf of the deferred
  // offer; a no-op if it has none.
  void MaterializeDeferred(MachineId machine);
  // Returns the deferred offer's slices.
  void ReleaseDeferred();
  // The cell's mutation hook.
  void BeforeMachineChange(MachineId machine);

  MesosSimulation& sim_;
  Duration decision_time_;
  Duration min_round_interval_;
  std::vector<MesosFramework*> frameworks_;
  std::vector<Resources> allocated_;  // per framework, for DRF
  std::vector<Resources> offered_;    // per machine, explicitly locked
  // Bitmaps over machines. Explicit machines hold their locked share in
  // offered_; while the implicit lock is held it covers every other machine,
  // whose offered_ entry is zero. Dirty machines are the explicit ones whose
  // unoffered share may be non-zero (it grows only when the machine changes
  // or its offered_ entry drops): rounds under the lock, and the holder's
  // offer past its last pull, visit only those, in id order.
  std::vector<uint64_t> explicit_bits_;
  std::vector<uint64_t> dirty_bits_;
  size_t num_dirty_ = 0;
  // Per 64-machine block, when valid: an upper bound on the unoffered share
  // of its dirty machines, left by a deferred offer's pull that walked the
  // whole block without a fit. Any change that could raise one invalidates
  // it, so later pulls skip blocks no task fits.
  std::vector<Resources> dirty_bound_;
  std::vector<uint8_t> dirty_bound_valid_;
  // The implicit lock: its epoch (an offer holds it iff offer.lazy equals
  // it), the holder's pull cursor, and the holder's explicit slices that no
  // task fits (kept here rather than in its offer, which lists only the
  // slices it pulled).
  uint64_t epoch_ = 0;  // last epoch handed out, to a lock or deferred offer
  uint64_t lock_epoch_ = 0;
  bool lock_held_ = false;
  MachineId lock_cursor_ = 0;
  std::vector<OfferSlice> lock_slices_;
  // The deferred offer: a round made while the lock is held offers the dirty
  // machines, and each keeps its eager slice only virtually (offered_ + its
  // unoffered share) until the framework pulls it, the machine changes, or
  // the offer returns. Its epoch (0: none), its machines, the framework's
  // pull cursor, and the slices made explicit on its behalf. Stable machines
  // are those whose offered_ entry survives an eager offer-and-return round
  // trip unchanged, so returning a deferred slice there is free.
  uint64_t deferred_epoch_ = 0;
  std::vector<uint64_t> deferred_bits_;
  MachineId deferred_cursor_ = 0;
  std::vector<OfferSlice> deferred_slices_;
  std::vector<uint64_t> stable_bits_;
  bool round_scheduled_ = false;
  SimTime last_round_;
};

class MesosSimulation : public ClusterSimulation {
 public:
  MesosSimulation(const ClusterConfig& config, const SimOptions& options,
                  const SchedulerConfig& batch_config,
                  const SchedulerConfig& service_config);

  void SubmitJob(const JobPtr& job) override;

  MesosFramework& batch_framework() { return *batch_; }
  MesosFramework& service_framework() { return *service_; }
  MesosAllocator& allocator() { return allocator_; }

  int64_t TotalJobsAbandoned() const {
    return batch_->metrics().JobsAbandonedTotal() +
           service_->metrics().JobsAbandonedTotal();
  }

 protected:
  void OnTaskFreed() override { allocator_.Trigger(); }

 private:
  friend class MesosFramework;
  friend class MesosAllocator;

  MesosAllocator allocator_;
  std::unique_ptr<MesosFramework> batch_;
  std::unique_ptr<MesosFramework> service_;
};

}  // namespace omega

