#include "src/mesos/mesos_simulation.h"

#include <algorithm>
#include <bit>

#include "src/common/logging.h"

namespace omega {

// ---------------------------------------------------------------------------
// MesosFramework

MesosFramework::MesosFramework(MesosSimulation& sim, SchedulerConfig config,
                               JobType type)
    : sim_(sim), config_(std::move(config)), type_(type) {}

void MesosFramework::Submit(const JobPtr& job) {
  queue_.push_back(job);
  sim_.allocator().Trigger();
}

uint16_t MesosFramework::TraceTrack() {
  if (trace_track_ < 0) {
    TraceRecorder* trace = sim_.trace();
    // The cell's trace scope keeps same-named frameworks in different cells
    // on distinct Perfetto tracks (empty for single-cell runs).
    trace_track_ =
        trace ? trace->RegisterTrack(sim_.trace_scope() + config_.name) : 0;
  }
  return static_cast<uint16_t>(trace_track_);
}

void MesosFramework::HandleOffer(ResourceOffer offer) {
  OMEGA_CHECK(!busy_);
  OMEGA_CHECK(!queue_.empty());
  JobPtr job = std::move(queue_.front());
  queue_.pop_front();
  busy_ = true;

  const SimTime now = sim_.sim().Now();
  if (!job->first_attempt_time.has_value()) {
    job->first_attempt_time = now;
    metrics_.RecordJobWait(job->type, now - job->submit_time);
  }
  ++job->scheduling_attempts;

  const uint32_t remaining = job->TasksRemaining();
  Duration decision = config_.TimesFor(job->type).ForTasks(remaining);
  if (decision.micros() <= 0) {
    decision = Duration(1);
  }
  metrics_.AddBusyInterval(now, now + decision);
  if (TraceRecorder* trace = sim_.trace()) {
    trace->AttemptBegin(now, TraceTrack(), job->id, job->scheduling_attempts,
                        remaining);
  }

  // The framework only sees the offered resources — not the whole cell
  // ("restricted visibility", §3.3/§3.4). Place tasks greedily onto offer
  // slices in machine order, pulling lazily offered ones until the job is
  // placed; the claims are guaranteed to commit because the resources are
  // locked for this framework while the offer is outstanding.
  std::vector<TaskClaim> claims;
  claims.reserve(std::min<uint32_t>(remaining, 1024));
  uint32_t placed = 0;
  for (size_t i = 0; placed < remaining; ++i) {
    if (i == offer.slices.size() &&
        !sim_.allocator().Pull(offer, job->task_resources)) {
      break;
    }
    OfferSlice& slice = offer.slices[i];
    while (placed < remaining && job->task_resources.FitsIn(slice.resources)) {
      slice.resources -= job->task_resources;
      claims.push_back(TaskClaim{slice.machine, job->task_resources, 0});
      ++placed;
    }
  }

  sim_.sim().ScheduleAfter(decision, [this, job, offer = std::move(offer),
                                      claims = std::move(claims)]() mutable {
    FinishAttempt(job, std::move(offer), std::move(claims));
  });
}

void MesosFramework::FinishAttempt(const JobPtr& job, ResourceOffer offer,
                                   std::vector<TaskClaim> claims) {
  // Commit the placed tasks. Offer-locked resources commit cleanly under
  // pessimistic concurrency, with one exception: a machine that failed while
  // the offer was outstanding. The downtime reservation consumes the offered
  // headroom, so the tasks placed there reject — they are lost, exactly like
  // tasks launched onto a dead slave in the real system. Any rejection on a
  // healthy machine would be a genuine offer-lifecycle bug.
  std::vector<TaskClaim> rejected;
  const CommitResult result =
      sim_.cell().Commit(claims, ConflictMode::kFineGrained,
                         CommitMode::kIncremental, &rejected);
  for (const TaskClaim& loss : rejected) {
    OMEGA_CHECK(sim_.MachineIsDown(loss.machine))
        << "offer-locked resources must commit cleanly";
  }
  if (!claims.empty()) {
    // The locked share of a failed machine is spent either way, so debit the
    // offer ledger for the full claim set before dropping the losses.
    sim_.allocator().OnOfferResourcesUsed(claims);
    if (!rejected.empty()) {
      claims = ReconstructAcceptedClaims(claims, rejected, result.accepted);
    }
  }
  metrics_.RecordTransaction(result.accepted, 0);
  if (TraceRecorder* trace = sim_.trace()) {
    const SimTime when = sim_.sim().Now();
    if (!claims.empty()) {
      trace->TxnCommit(when, TraceTrack(), job->id, result.accepted, 0);
    }
    trace->AttemptEnd(when, TraceTrack(), job->id, result.accepted,
                      /*had_conflict=*/false);
  }

  Resources used;
  for (const TaskClaim& c : claims) {
    used += c.resources;
  }
  const bool gang_by_hoarding = config_.commit_mode == CommitMode::kAllOrNothing;
  const bool completes_job =
      job->TasksRemaining() == static_cast<uint32_t>(result.accepted);
  if (!claims.empty()) {
    sim_.allocator().OnResourcesAllocated(this, used);
    if (gang_by_hoarding && !completes_job) {
      // Hoard: the resources stay allocated (and thus idle) until the whole
      // job can start together.
      auto& hoard = hoards_[job->id];
      hoard.insert(hoard.end(), claims.begin(), claims.end());
    } else {
      if (gang_by_hoarding) {
        // The gang is complete: release nothing, start the hoarded tasks
        // alongside this final batch of claims.
        auto it = hoards_.find(job->id);
        if (it != hoards_.end()) {
          claims.insert(claims.end(), it->second.begin(), it->second.end());
          hoards_.erase(it);
        }
      }
      sim_.StartTasks(*job, claims, [this](const TaskClaim& claim) {
        sim_.allocator().OnResourcesFreed(this, claim.resources);
      });
    }
  }

  // Return the unused remainder of the offer to the allocator (§4.2:
  // "Resources not used at the end of scheduling a job are returned").
  // `offer.slices` was decremented in place while placing tasks, so it now
  // holds exactly the unused portions.
  sim_.allocator().ReturnOffer(offer);

  job->tasks_scheduled += static_cast<uint32_t>(result.accepted);
  busy_ = false;

  const SimTime now = sim_.sim().Now();
  if (job->FullyScheduled()) {
    metrics_.RecordJobScheduled(now, job->type, job->scheduling_attempts,
                                job->conflicted_attempts);
    sim_.OnJobFullyScheduled(job);
  } else if (job->scheduling_attempts >= config_.max_attempts) {
    job->abandoned = true;
    metrics_.RecordJobAbandoned(job->type);
    ReleaseHoard(job);  // break any hoarding deadlock
    sim_.OnJobAbandoned(job);
  } else {
    // Keep trying: the job returns to the head of the queue and waits for the
    // next offer (§4.2: "It nonetheless keeps trying").
    queue_.push_front(job);
  }
  sim_.allocator().Trigger();
}

void MesosFramework::ReleaseHoard(const JobPtr& job) {
  auto it = hoards_.find(job->id);
  if (it == hoards_.end()) {
    return;
  }
  for (const TaskClaim& claim : it->second) {
    sim_.cell().Free(claim.machine, claim.resources);
    sim_.allocator().OnResourcesFreed(this, claim.resources);
  }
  // The placed-task count no longer reflects running tasks; reset so the
  // abandoned job's accounting stays consistent.
  job->tasks_scheduled -= static_cast<uint32_t>(it->second.size());
  hoards_.erase(it);
}

Resources MesosFramework::HoardedResources() const {
  Resources total;
  for (const auto& [id, claims] : hoards_) {
    for (const TaskClaim& claim : claims) {
      total += claim.resources;
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// MesosAllocator

namespace {

bool TestBit(const std::vector<uint64_t>& bits, MachineId m) {
  return (bits[m / 64] >> (m % 64) & 1) != 0;
}
void SetBit(std::vector<uint64_t>& bits, MachineId m) {
  bits[m / 64] |= uint64_t{1} << (m % 64);
}
void ClearBit(std::vector<uint64_t>& bits, MachineId m) {
  bits[m / 64] &= ~(uint64_t{1} << (m % 64));
}
// First set bit at or after `from`, or an id >= the bitmap's size if none.
MachineId NextSetBit(const std::vector<uint64_t>& bits, MachineId from) {
  size_t w = from / 64;
  if (w >= bits.size()) {
    return from;
  }
  uint64_t word = bits[w] & (~uint64_t{0} << (from % 64));
  while (word == 0) {
    if (++w == bits.size()) {
      return static_cast<MachineId>(w * 64);
    }
    word = bits[w];
  }
  return static_cast<MachineId>(w * 64 + std::countr_zero(word));
}
// Calls f(id) for every set bit of `word`, whose bit 0 is machine `base`,
// in id order.
template <typename F>
void ForEachSetBit(uint64_t word, MachineId base, F&& f) {
  for (; word != 0; word &= word - 1) {
    f(base + static_cast<MachineId>(std::countr_zero(word)));
  }
}

}  // namespace

MesosAllocator::MesosAllocator(MesosSimulation& sim, Duration decision_time,
                               Duration min_round_interval)
    : sim_(sim),
      decision_time_(decision_time),
      min_round_interval_(min_round_interval) {
  const uint32_t n = sim_.cell().NumMachines();
  offered_.assign(n, Resources::Zero());
  explicit_bits_.assign((n + 63) / 64, 0);
  dirty_bits_.assign((n + 63) / 64, 0);
  dirty_bound_.assign((n + 63) / 64, Resources::Zero());
  dirty_bound_valid_.assign((n + 63) / 64, 0);
  deferred_bits_.assign((n + 63) / 64, 0);
  stable_bits_.assign((n + 63) / 64, 0);
  sim_.cell().SetMutationHook([this](MachineId m) { BeforeMachineChange(m); });
}

void MesosAllocator::RegisterFramework(MesosFramework* framework) {
  frameworks_.push_back(framework);
  allocated_.push_back(Resources::Zero());
}

size_t MesosAllocator::IndexOf(const MesosFramework* framework) const {
  for (size_t i = 0; i < frameworks_.size(); ++i) {
    if (frameworks_[i] == framework) {
      return i;
    }
  }
  OMEGA_CHECK(false) << "unregistered framework";
  return 0;
}

double MesosAllocator::DominantShare(const MesosFramework* framework) const {
  return allocated_[IndexOf(framework)].DominantShare(
      sim_.cell().TotalCapacity());
}

MesosFramework* MesosAllocator::PickFramework() {
  const Resources capacity = sim_.cell().TotalCapacity();
  MesosFramework* best = nullptr;
  double best_share = 0.0;
  for (size_t i = 0; i < frameworks_.size(); ++i) {
    if (!frameworks_[i]->IsPending()) {
      continue;
    }
    const double share = allocated_[i].DominantShare(capacity);
    if (best == nullptr || share < best_share) {
      best = frameworks_[i];
      best_share = share;
    }
  }
  return best;
}

void MesosAllocator::Trigger() {
  if (round_scheduled_) {
    return;
  }
  if (PickFramework() == nullptr) {
    return;
  }
  round_scheduled_ = true;
  const SimTime now = sim_.sim().Now();
  SimTime when = now + decision_time_;
  const SimTime paced = last_round_ + min_round_interval_;
  if (paced > when) {
    when = paced;
  }
  sim_.sim().ScheduleAt(when, [this] {
    round_scheduled_ = false;
    last_round_ = sim_.sim().Now();
    RunAllocationRound();
  });
}

Resources MesosAllocator::Unoffered(MachineId machine) const {
  return (sim_.cell().machine(machine).Available() - offered_[machine])
      .ClampNonNegative();
}

bool MesosAllocator::IsExplicit(MachineId machine) const {
  return TestBit(explicit_bits_, machine);
}

void MesosAllocator::MarkDirty(MachineId machine) {
  dirty_bound_valid_[machine / 64] = 0;
  if (!TestBit(dirty_bits_, machine)) {
    SetBit(dirty_bits_, machine);
    ++num_dirty_;
  }
}

void MesosAllocator::ClearDirty(MachineId machine) {
  if (TestBit(dirty_bits_, machine)) {
    ClearBit(dirty_bits_, machine);
    --num_dirty_;
  }
}

void MesosAllocator::TakeSlice(MachineId machine,
                               std::vector<OfferSlice>& slices) {
  MaterializeDeferred(machine);
  const Resources slice = Unoffered(machine);
  if (slice.IsZero()) {
    ClearDirty(machine);
    return;
  }
  // The machine stays dirty: a later visit finds the rest zero and clears it.
  offered_[machine] += slice;
  ClearBit(stable_bits_, machine);
  slices.push_back(OfferSlice{machine, slice});
}

void MesosAllocator::Unlock(MachineId machine, const Resources& r) {
  Materialize(machine);
  MaterializeDeferred(machine);
  offered_[machine] -= r;
  offered_[machine] = offered_[machine].ClampNonNegative();
  ClearBit(stable_bits_, machine);
  if (!IsExplicit(machine)) {
    return;
  }
  if (!lock_held_ && offered_[machine] == Resources::Zero()) {
    // With no lock held a zero entry is exactly what the next lock covers.
    ClearBit(explicit_bits_, machine);
    ClearDirty(machine);
  } else {
    MarkDirty(machine);
  }
}

void MesosAllocator::Materialize(MachineId machine) {
  if (!lock_held_ || IsExplicit(machine)) {
    return;
  }
  // The machine is unchanged since the lock was taken and its offered_ entry
  // is zero, so this takes exactly the slice the eager offer locked then.
  SetBit(explicit_bits_, machine);
  TakeSlice(machine, lock_slices_);
}

void MesosAllocator::MaterializeDeferred(MachineId machine) {
  if (deferred_epoch_ == 0 || !TestBit(deferred_bits_, machine)) {
    return;
  }
  // Unchanged since the deferred offer was made, so this takes exactly the
  // slice the eager offer locked then.
  ClearBit(deferred_bits_, machine);
  TakeSlice(machine, deferred_slices_);
}

void MesosAllocator::BeforeMachineChange(MachineId machine) {
  Materialize(machine);
  MaterializeDeferred(machine);
  ClearBit(stable_bits_, machine);
  if (IsExplicit(machine)) {
    MarkDirty(machine);
  }
}

void MesosAllocator::ReleaseDeferred() {
  deferred_epoch_ = 0;
  for (const OfferSlice& slice : deferred_slices_) {
    Unlock(slice.machine, slice.resources);
  }
  deferred_slices_.clear();
  // The untouched slices return as the eager offer's would: each machine's
  // entry goes through (o + s) - s, clamped. A machine whose entry survives
  // that round trip unchanged is stable, and skips it until it next changes.
  for (size_t w = 0; w < deferred_bits_.size(); ++w) {
    ForEachSetBit(
        deferred_bits_[w] & ~stable_bits_[w], static_cast<MachineId>(w * 64),
        [&](MachineId m) {
          const Resources slice = Unoffered(m);
          if (slice.IsZero()) {
            return;
          }
          Resources offered = offered_[m];
          offered += slice;
          offered -= slice;
          offered = offered.ClampNonNegative();
          if (offered == offered_[m]) {
            SetBit(stable_bits_, m);
          } else {
            dirty_bound_valid_[m / 64] = 0;
          }
          offered_[m] = offered;
          if (!lock_held_ && offered == Resources::Zero()) {
            ClearBit(explicit_bits_, m);
            ClearDirty(m);
          }
        });
    deferred_bits_[w] = 0;
  }
}

bool MesosAllocator::Pull(ResourceOffer& offer, const Resources& task) {
  static_assert(CellState::kBlockSize == 64, "one bitmap word per block");
  const CellState& cell = sim_.cell();
  const uint32_t n = cell.NumMachines();
  // Under exact fullness a block's availability summary bounds every slice
  // in the block (a slice never exceeds its machine's availability).
  const bool prune = cell.fullness_policy() == FullnessPolicy::kExact;
  if (offer.lazy != 0 && offer.lazy == deferred_epoch_) {
    while (deferred_cursor_ < n) {
      const MachineId m = NextSetBit(deferred_bits_, deferred_cursor_);
      if (m >= n) {
        break;
      }
      const size_t block = m / 64;
      const bool whole_block = deferred_cursor_ <= block * 64;
      if (whole_block && ((dirty_bound_valid_[block] != 0 &&
                           !task.FitsIn(dirty_bound_[block])) ||
                          (prune && !cell.BlockMayFit(m, task)))) {
        deferred_cursor_ = CellState::NextBlockStart(m);
        continue;
      }
      // Walk the rest of the block; a whole block walked without a fit
      // leaves its bound behind for later rounds.
      Resources bound;
      uint64_t bits = deferred_bits_[block] & (~uint64_t{0} << (m % 64));
      for (; bits != 0; bits &= bits - 1) {
        const MachineId d = static_cast<MachineId>(
            block * 64 + std::countr_zero(bits));
        const Resources slice = Unoffered(d);
        if (!slice.IsZero() && task.FitsIn(slice)) {
          deferred_cursor_ = d + 1;
          ClearBit(deferred_bits_, d);
          TakeSlice(d, offer.slices);
          return true;
        }
        bound.cpus = std::max(bound.cpus, slice.cpus);
        bound.mem_gb = std::max(bound.mem_gb, slice.mem_gb);
      }
      if (whole_block) {
        dirty_bound_[block] = bound;
        dirty_bound_valid_[block] = 1;
      }
      deferred_cursor_ = CellState::NextBlockStart(m);
    }
    deferred_cursor_ = n;
    return false;
  }
  if (!lock_held_ || offer.lazy != lock_epoch_) {
    return false;
  }
  while (lock_cursor_ < n) {
    const MachineId m = lock_cursor_;
    if (prune && m % 64 == 0 && !cell.BlockMayFit(m, task)) {
      // No task fits anywhere in the block: only its dirty explicit machines
      // take their slices, as the eager offer did.
      ForEachSetBit(dirty_bits_[m / 64], m,
                    [&](MachineId d) { TakeSlice(d, lock_slices_); });
      lock_cursor_ = CellState::NextBlockStart(m);
      continue;
    }
    ++lock_cursor_;
    MaterializeDeferred(m);
    const Resources slice = Unoffered(m);
    if (slice.IsZero()) {
      continue;
    }
    if (task.FitsIn(slice)) {
      SetBit(explicit_bits_, m);
      TakeSlice(m, offer.slices);
      return true;
    }
    // A slice no task fits stays under the lock unless its machine is
    // already explicit.
    if (IsExplicit(m)) {
      TakeSlice(m, lock_slices_);
    }
  }
  return false;
}

void MesosAllocator::RunAllocationRound() {
  MesosFramework* framework = PickFramework();
  if (framework == nullptr) {
    return;
  }
  // The simple allocator offers every machine's unused and unoffered
  // resources (§3.3 fn 3).
  ResourceOffer offer;
  if (lock_held_) {
    // Every machine the lock covers is saturated, and so is every explicit
    // machine that is not dirty. The offer is the dirty machines; it defers
    // them all and the framework pulls the ones it uses.
    // The lock holder and this offer are busy, so with MesosSimulation's
    // two frameworks no other round runs until one of them returns.
    OMEGA_CHECK(deferred_epoch_ == 0) << "one deferred offer at a time";
    const uint32_t n = sim_.cell().NumMachines();
    MachineId first = NextSetBit(dirty_bits_, 0);
    while (first < n && Unoffered(first).IsZero()) {
      ClearDirty(first);
      first = NextSetBit(dirty_bits_, first + 1);
    }
    if (first >= n) {
      // Nothing to offer right now; a task finish or offer return re-triggers.
      return;
    }
    deferred_bits_ = dirty_bits_;
    deferred_epoch_ = ++epoch_;
    deferred_cursor_ = first;
    offer.lazy = deferred_epoch_;
    framework->HandleOffer(std::move(offer));
  } else {
    const uint32_t n = sim_.cell().NumMachines();
    MachineId first = 0;
    for (; first < n; ++first) {
      MaterializeDeferred(first);
      if (!Unoffered(first).IsZero()) {
        break;
      }
    }
    if (first == n) {
      return;  // nothing to offer, as above
    }
    // Take the implicit lock: it covers every machine that is not explicit.
    lock_epoch_ = ++epoch_;
    lock_held_ = true;
    lock_cursor_ = first;
    offer.lazy = lock_epoch_;
    framework->HandleOffer(std::move(offer));
    // Dirty explicit machines past the framework's last pull take their
    // slices now, as the eager offer did.
    for (size_t w = lock_cursor_ / 64;
         num_dirty_ != 0 && w < dirty_bits_.size(); ++w) {
      uint64_t word = dirty_bits_[w];
      if (w == lock_cursor_ / 64) {
        word &= ~uint64_t{0} << (lock_cursor_ % 64);
      }
      ForEachSetBit(word, static_cast<MachineId>(w * 64),
                    [&](MachineId m) { TakeSlice(m, lock_slices_); });
    }
  }
  // Other frameworks may still be pending; try to offer whatever remains.
  Trigger();
}

void MesosAllocator::OnResourcesAllocated(const MesosFramework* framework,
                                          const Resources& r) {
  allocated_[IndexOf(framework)] += r;
}

void MesosAllocator::OnResourcesFreed(const MesosFramework* framework,
                                      const Resources& r) {
  Resources& allocated = allocated_[IndexOf(framework)];
  allocated -= r;
  allocated = allocated.ClampNonNegative();
  Trigger();
}

void MesosAllocator::OnOfferResourcesUsed(const std::vector<TaskClaim>& claims) {
  for (const TaskClaim& claim : claims) {
    Unlock(claim.machine, claim.resources);
  }
}

void MesosAllocator::ReturnOffer(const ResourceOffer& offer) {
  if (offer.lazy != 0 && offer.lazy == deferred_epoch_) {
    ReleaseDeferred();
  }
  if (lock_held_ && offer.lazy == lock_epoch_) {
    // Every slice still under the lock returns 0 + s - s == 0 exactly, so
    // releasing it needs no per-machine work. Releasing it first lets the
    // explicit slices that return to zero fall back out of the explicit set.
    lock_held_ = false;
    for (const OfferSlice& slice : lock_slices_) {
      Unlock(slice.machine, slice.resources);
    }
    lock_slices_.clear();
  }
  for (const OfferSlice& slice : offer.slices) {
    Unlock(slice.machine, slice.resources);
  }
}

Resources MesosAllocator::OfferedOn(MachineId machine) const {
  const bool implicit = lock_held_ && !IsExplicit(machine);
  const bool deferred =
      deferred_epoch_ != 0 && TestBit(deferred_bits_, machine);
  if (!implicit && !deferred) {
    return offered_[machine];
  }
  const Resources slice = Unoffered(machine);
  return slice.IsZero() ? offered_[machine] : offered_[machine] + slice;
}

Resources MesosAllocator::TotalOffered() const {
  Resources sum;
  for (MachineId m = 0; m < sim_.cell().NumMachines(); ++m) {
    sum += OfferedOn(m);
  }
  return sum;
}

// ---------------------------------------------------------------------------
// MesosSimulation

MesosSimulation::MesosSimulation(const ClusterConfig& config,
                                 const SimOptions& options,
                                 const SchedulerConfig& batch_config,
                                 const SchedulerConfig& service_config)
    : ClusterSimulation(config, options), allocator_(*this) {
  batch_ = std::make_unique<MesosFramework>(*this, batch_config, JobType::kBatch);
  service_ =
      std::make_unique<MesosFramework>(*this, service_config, JobType::kService);
  allocator_.RegisterFramework(batch_.get());
  allocator_.RegisterFramework(service_.get());
}

void MesosSimulation::SubmitJob(const JobPtr& job) {
  if (job->type == JobType::kBatch) {
    batch_->Submit(job);
  } else {
    service_->Submit(job);
  }
}

}  // namespace omega
