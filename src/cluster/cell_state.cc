#include "src/cluster/cell_state.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "src/common/logging.h"

namespace omega {

CellState::CellState(uint32_t num_machines, const Resources& machine_capacity,
                     FullnessPolicy fullness, double headroom_fraction,
                     uint32_t machines_per_domain)
    : CellState(std::vector<Resources>(num_machines, machine_capacity), fullness,
                headroom_fraction, machines_per_domain) {}

CellState::CellState(std::vector<Resources> machine_capacities,
                     FullnessPolicy fullness, double headroom_fraction,
                     uint32_t machines_per_domain)
    : fullness_(fullness), headroom_fraction_(headroom_fraction) {
  OMEGA_CHECK(!machine_capacities.empty());
  OMEGA_CHECK(machines_per_domain > 0);
  OMEGA_CHECK(headroom_fraction >= 0.0 && headroom_fraction < 1.0);
  machines_.resize(machine_capacities.size());
  total_allocated_ = Resources::Zero();
  for (uint32_t i = 0; i < machine_capacities.size(); ++i) {
    machines_[i].id = i;
    machines_[i].capacity = machine_capacities[i];
    machines_[i].failure_domain = static_cast<int32_t>(i / machines_per_domain);
    total_capacity_ += machine_capacities[i];
  }
  InitSoA();
  const size_t num_blocks = (machines_.size() + kBlockSize - 1) / kBlockSize;
  block_max_cpu_.resize(num_blocks);
  block_max_mem_.resize(num_blocks);
  block_dirty_.assign(num_blocks, 0);
  for (size_t b = 0; b < num_blocks; ++b) {
    RecomputeBlock(b);
  }
  const size_t num_supers = (num_blocks + kSuperSize - 1) / kSuperSize;
  super_max_cpu_.resize(num_supers);
  super_max_mem_.resize(num_supers);
  super_dirty_.assign(num_supers, 0);
  for (size_t s = 0; s < num_supers; ++s) {
    RecomputeSuper(s);
  }
}

void CellState::InitSoA() {
  const size_t n = machines_.size();
  soa_alloc_cpu_.assign(n, 0.0);
  soa_alloc_mem_.assign(n, 0.0);
  soa_fit_cpu_.resize(n);
  soa_fit_mem_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    // Precompute the fit limit so the scan predicate is a pure compare:
    // `alloc + request <= usable + epsilon` is componentwise exactly the
    // FitsIn test CanFit evaluates (with zero pending, x + 0.0 == x bitwise
    // for the values that occur here).
    const Resources usable = UsableCapacity(static_cast<MachineId>(i));
    soa_fit_cpu_[i] = usable.cpus + kResourceEpsilon;
    soa_fit_mem_[i] = usable.mem_gb + kResourceEpsilon;
  }
}

void CellState::RecomputeBlock(size_t block) const {
  const size_t begin = block * kBlockSize;
  const size_t end = std::min(begin + kBlockSize, machines_.size());
  Resources max_avail = Resources::Zero();
  for (size_t m = begin; m < end; ++m) {
    const Resources avail = UsableAvail(static_cast<MachineId>(m));
    max_avail.cpus = std::max(max_avail.cpus, avail.cpus);
    max_avail.mem_gb = std::max(max_avail.mem_gb, avail.mem_gb);
  }
  block_max_cpu_[block] = max_avail.cpus;
  block_max_mem_[block] = max_avail.mem_gb;
  block_dirty_[block] = 0;
}

void CellState::RecomputeSuper(size_t super) const {
  const size_t begin = super * kSuperSize;
  const size_t end = std::min(begin + kSuperSize, block_max_cpu_.size());
  double max_cpu = 0.0;
  double max_mem = 0.0;
  for (size_t b = begin; b < end; ++b) {
    if (block_dirty_[b] != 0) {
      RecomputeBlock(b);
    }
    max_cpu = std::max(max_cpu, block_max_cpu_[b]);
    max_mem = std::max(max_mem, block_max_mem_[b]);
  }
  super_max_cpu_[super] = max_cpu;
  super_max_mem_[super] = max_mem;
  super_dirty_[super] = 0;
}

void CellState::BlockAfterShrink(MachineId id) {
  // A shrink can only lower the maxima, so the stored values stay sound
  // (stale-high) upper bounds; just mark both levels stale and let the next
  // summary consult re-summarize them. Two byte stores keep the allocation
  // fast path free of summary-array traffic.
  const size_t block = id / kBlockSize;
  block_dirty_[block] = 1;
  super_dirty_[block / kSuperSize] = 1;
}

void CellState::BlockAfterGrow(MachineId id) {
  // Raising the maxima keeps a clean summary exact and a dirty summary's
  // upper bound sound; either way it is correct (and branch-free) — at both
  // levels.
  const size_t block = id / kBlockSize;
  const Resources avail = UsableAvail(id);
  block_max_cpu_[block] = std::max(block_max_cpu_[block], avail.cpus);
  block_max_mem_[block] = std::max(block_max_mem_[block], avail.mem_gb);
  const size_t super = block / kSuperSize;
  super_max_cpu_[super] = std::max(super_max_cpu_[super], avail.cpus);
  super_max_mem_[super] = std::max(super_max_mem_[super], avail.mem_gb);
}

MachineId CellState::ScanFit(MachineId from, MachineId to,
                             const Resources& request) const {
  const double* __restrict acpu = soa_alloc_cpu_.data();
  const double* __restrict amem = soa_alloc_mem_.data();
  const double* __restrict fcpu = soa_fit_cpu_.data();
  const double* __restrict fmem = soa_fit_mem_.data();
  const double rc = request.cpus;
  const double rm = request.mem_gb;
  // Branchless 8-wide chunks first: an early-exit loop defeats
  // auto-vectorization, so accumulate a chunk-level "any machine fits" mask
  // and only drop to the scalar rescan once a chunk reports a hit. The
  // predicate is componentwise exactly CanFit's FitsIn test (see InitSoA).
  constexpr uint32_t kChunk = 8;
  uint32_t i = from;
  for (; i + kChunk <= to; i += kChunk) {
    uint32_t any = 0;
    for (uint32_t k = 0; k < kChunk; ++k) {
      any += static_cast<uint32_t>(acpu[i + k] + rc <= fcpu[i + k]) &
             static_cast<uint32_t>(amem[i + k] + rm <= fmem[i + k]);
    }
    if (any != 0) {
      break;
    }
  }
  for (; i < to; ++i) {
    if (acpu[i] + rc <= fcpu[i] && amem[i] + rm <= fmem[i]) {
      return i;
    }
  }
  return kInvalidMachineId;
}

MachineId CellState::FindFirstFit(MachineId begin, MachineId end,
                                  const Resources& request) const {
  const auto num = static_cast<MachineId>(machines_.size());
  MachineId id = begin;
  const MachineId limit = std::min(end, num);
  constexpr uint32_t kSuperMachines = kBlockSize * kSuperSize;
  while (id < limit) {
    // Prune a whole superblock, then a whole block, before touching machines.
    // Both prunes are conservative (stale-high summaries are refreshed before
    // the compare), so no feasible machine is ever skipped.
    if (!SuperblockMayFit(id, request)) {
      id = (id / kSuperMachines + 1) * kSuperMachines;
      continue;
    }
    if (!BlockMayFit(id, request)) {
      id = NextBlockStart(id);
      continue;
    }
    const MachineId block_end =
        std::min(limit, static_cast<MachineId>(NextBlockStart(id)));
    const MachineId hit = ScanFit(id, block_end, request);
    if (hit != kInvalidMachineId) {
      return hit;
    }
    id = block_end;
  }
  return kInvalidMachineId;
}

void CellState::Allocate(MachineId id, const Resources& request_ref) {
  if (mutation_hook_) {
    mutation_hook_(id);
  }
  // Copy first: callers may pass a reference into this very machine (e.g.
  // Free(m, cell.machine(m).allocated)), which the updates below would alias.
  const Resources request = request_ref;
  Machine& m = machines_[id];
  OMEGA_CHECK((m.allocated + request).FitsIn(m.capacity))
      << "overcommit on machine " << id << ": allocated=" << m.allocated
      << " request=" << request << " capacity=" << m.capacity;
  const size_t old_bucket = HasAvailabilityIndex() ? BucketFor(id) : 0;
  m.allocated += request;
  ++m.seqnum;
  total_allocated_ += request;
  SyncSoA(id);
  BlockAfterShrink(id);
  if (HasAvailabilityIndex()) {
    IndexUpdate(id, old_bucket);
  }
}

void CellState::Free(MachineId id, const Resources& request_ref) {
  if (mutation_hook_) {
    mutation_hook_(id);
  }
  const Resources request = request_ref;  // see Allocate: aliasing hazard
  Machine& m = machines_[id];
  const size_t old_bucket = HasAvailabilityIndex() ? BucketFor(id) : 0;
  m.allocated -= request;
  OMEGA_CHECK(!m.allocated.IsNegative())
      << "negative allocation on machine " << id << " after freeing " << request;
  m.allocated = m.allocated.ClampNonNegative();
  ++m.seqnum;
  total_allocated_ -= request;
  total_allocated_ = total_allocated_.ClampNonNegative();
  SyncSoA(id);
  BlockAfterGrow(id);
  if (HasAvailabilityIndex()) {
    IndexUpdate(id, old_bucket);
  }
}

void CellState::AllocateBatch(MachineId id, const Resources& per_task,
                              uint32_t count) {
  if (count == 0) {
    return;
  }
  if (HasAvailabilityIndex()) {
    // Bucket transitions are order-sensitive (swap-remove permutes bucket
    // lists, and WalkByAvailability exposes that order), so replay the exact
    // per-task sequence instead of batching.
    for (uint32_t i = 0; i < count; ++i) {
      Allocate(id, per_task);
    }
    return;
  }
  if (mutation_hook_) {
    mutation_hook_(id);
  }
  const Resources request = per_task;  // see Allocate: aliasing hazard
  Machine& m = machines_[id];
  // Replay the per-task additions (FP addition is not associative, and the
  // per-task path is the reference), but check capacity once at the end —
  // sound because allocation only grows across the batch — and fold the
  // seqnum and block-summary maintenance into one step each.
  for (uint32_t i = 0; i < count; ++i) {
    m.allocated += request;
    total_allocated_ += request;
  }
  OMEGA_CHECK(m.allocated.FitsIn(m.capacity))
      << "overcommit on machine " << id << ": allocated=" << m.allocated
      << " batch=" << request << " x" << count << " capacity=" << m.capacity;
  m.seqnum += count;
  SyncSoA(id);
  BlockAfterShrink(id);
}

void CellState::FreeBatch(MachineId id, const Resources& per_task,
                          uint32_t count) {
  if (count == 0) {
    return;
  }
  if (HasAvailabilityIndex()) {
    for (uint32_t i = 0; i < count; ++i) {  // see AllocateBatch
      Free(id, per_task);
    }
    return;
  }
  if (mutation_hook_) {
    mutation_hook_(id);
  }
  const Resources request = per_task;  // see Allocate: aliasing hazard
  Machine& m = machines_[id];
  // The per-task clamps are part of the reference arithmetic (a clamp midway
  // through the batch changes the values every later step sees), so they
  // stay in the loop; only seqnum and summary maintenance are batched.
  for (uint32_t i = 0; i < count; ++i) {
    m.allocated -= request;
    OMEGA_CHECK(!m.allocated.IsNegative())
        << "negative allocation on machine " << id << " after freeing "
        << request;
    m.allocated = m.allocated.ClampNonNegative();
    total_allocated_ -= request;
    total_allocated_ = total_allocated_.ClampNonNegative();
  }
  m.seqnum += count;
  SyncSoA(id);
  BlockAfterGrow(id);
}

void CellState::EnableAvailabilityIndex(uint32_t num_buckets) {
  OMEGA_CHECK(num_buckets > 0);
  double max_cpus = 0.0;
  double max_mem = 0.0;
  for (const Machine& m : machines_) {
    max_cpus = std::max(max_cpus, m.capacity.cpus);
    max_mem = std::max(max_mem, m.capacity.mem_gb);
  }
  OMEGA_CHECK(max_cpus > 0.0);
  mem_per_cpu_ = max_mem > 0.0 ? max_mem / max_cpus : 1.0;
  bucket_scale_ = static_cast<double>(num_buckets) / max_cpus;
  buckets_.assign(num_buckets + 1, {});
  bucket_of_.assign(machines_.size(), 0);
  pos_in_bucket_.assign(machines_.size(), 0);
  for (const Machine& m : machines_) {
    IndexInsert(m.id);
  }
}

double CellState::EffectiveKey(const Resources& r) const {
  const double mem_in_cpu_units =
      mem_per_cpu_ > 0.0 ? r.mem_gb / mem_per_cpu_ : 0.0;
  // For a *request*, the binding dimension is the larger requirement; for an
  // *availability*, callers want the smaller headroom — BucketFor handles the
  // min side directly.
  return std::max(r.cpus, mem_in_cpu_units);
}

size_t CellState::BucketFor(MachineId id) const {
  const Resources available = machines_[id].Available();
  const double mem_in_cpu_units =
      mem_per_cpu_ > 0.0 ? available.mem_gb / mem_per_cpu_ : available.cpus;
  const double effective = std::min(available.cpus, mem_in_cpu_units);
  const auto bucket = static_cast<int64_t>(effective * bucket_scale_);
  return static_cast<size_t>(
      std::clamp<int64_t>(bucket, 0, static_cast<int64_t>(buckets_.size()) - 1));
}

void CellState::IndexInsert(MachineId id) {
  const size_t bucket = BucketFor(id);
  bucket_of_[id] = static_cast<uint32_t>(bucket);
  pos_in_bucket_[id] = static_cast<uint32_t>(buckets_[bucket].size());
  buckets_[bucket].push_back(id);
}

void CellState::IndexRemove(MachineId id) {
  const size_t bucket = bucket_of_[id];
  const size_t pos = pos_in_bucket_[id];
  std::vector<MachineId>& list = buckets_[bucket];
  const MachineId moved = list.back();
  list[pos] = moved;
  pos_in_bucket_[moved] = static_cast<uint32_t>(pos);
  list.pop_back();
}

void CellState::IndexUpdate(MachineId id, size_t old_bucket) {
  const size_t new_bucket = BucketFor(id);
  if (new_bucket == old_bucket) {
    return;
  }
  IndexRemove(id);
  IndexInsert(id);
}

CellState::AvailabilityCursor CellState::WalkByAvailability(
    const Resources& min_request) const {
  OMEGA_CHECK(HasAvailabilityIndex());
  // Under the headroom policy a machine must keep headroom_fraction of its
  // capacity free *beyond* the request, so the walk starts that much higher
  // (best-fit packing piles machines up exactly there).
  const double max_cpus =
      static_cast<double>(buckets_.size() - 1) / bucket_scale_;
  const double headroom_key =
      fullness_ == FullnessPolicy::kHeadroom ? headroom_fraction_ * max_cpus : 0.0;
  const double min_key = EffectiveKey(min_request) + headroom_key;
  const auto start = static_cast<size_t>(
      std::clamp<int64_t>(static_cast<int64_t>(min_key * bucket_scale_), 0,
                          static_cast<int64_t>(buckets_.size()) - 1));
  return AvailabilityCursor(&buckets_, start);
}

std::vector<TaskClaim> ReconstructAcceptedClaims(
    std::span<const TaskClaim> claims, std::span<const TaskClaim> rejected,
    int expected_accepted) {
  std::vector<TaskClaim> accepted;
  accepted.reserve(claims.size() - rejected.size());
  size_t reject_idx = 0;
  for (const TaskClaim& claim : claims) {
    if (reject_idx < rejected.size() &&
        claim.machine == rejected[reject_idx].machine &&
        claim.seqnum_at_placement == rejected[reject_idx].seqnum_at_placement &&
        claim.resources == rejected[reject_idx].resources) {
      ++reject_idx;
      continue;
    }
    accepted.push_back(claim);
  }
  OMEGA_CHECK(reject_idx == rejected.size());
  OMEGA_CHECK(accepted.size() == static_cast<size_t>(expected_accepted));
  return accepted;
}

CommitResult CellState::Commit(std::span<const TaskClaim> claims,
                               ConflictMode conflict_mode, CommitMode commit_mode,
                               std::vector<TaskClaim>* rejected) {
  CommitResult result;
  if (claims.empty()) {
    return result;
  }

  // Phase 1: decide acceptance per claim against the current state, tracking
  // pending same-transaction allocations so intra-transaction claims stack
  // correctly and never count as conflicts against each other. The pending
  // sums live in a dense epoch-stamped per-machine scratch (see the member
  // comment); the arithmetic is the same per-claim accumulation as before.
  accept_scratch_.assign(claims.size(), 0);
  std::vector<char>& accept = accept_scratch_;
  if (pending_stamp_.size() != machines_.size()) {
    pending_stamp_.assign(machines_.size(), 0u);
    pending_amount_.resize(machines_.size());
    pending_epoch_ = 0;
  }
  if (++pending_epoch_ == 0) {  // epoch wrapped: stale stamps could collide
    std::fill(pending_stamp_.begin(), pending_stamp_.end(), 0u);
    pending_epoch_ = 1;
  }
  const uint32_t epoch = pending_epoch_;
  auto pending_on = [&](MachineId id) {
    return pending_stamp_[id] == epoch ? pending_amount_[id]
                                       : Resources::Zero();
  };

  bool uniform_resources = true;
  for (size_t i = 1; i < claims.size(); ++i) {
    // Order-free (== only), so it hoists out of the verdict loop unchanged.
    uniform_resources =
        uniform_resources && claims[i].resources == claims[0].resources;
  }

  for (size_t i = 0; i < claims.size(); ++i) {
    const TaskClaim& claim = claims[i];
    const Machine& m = machines_[claim.machine];
    bool ok = false;
    switch (conflict_mode) {
      case ConflictMode::kFineGrained: {
        // Conflict only if the claim no longer fits given what has been
        // committed since placement (plus pending claims from this txn).
        ok = CanFitWithPending(claim.machine, claim.resources,
                               pending_on(claim.machine));
        break;
      }
      case ConflictMode::kCoarseGrained: {
        // Conflict if the machine changed at all since the scheduler's local
        // copy was synced — even if the change was a *free* that still
        // leaves room (a spurious conflict, §5.2).
        ok = m.seqnum == claim.seqnum_at_placement;
        if (ok) {
          // Unchanged machine: the placement was computed against exactly
          // this state, so the claim must still fit (pending claims
          // included, since the scheduler placed them against its local
          // copy too).
          ok = CanFitWithPending(claim.machine, claim.resources,
                                 pending_on(claim.machine));
        }
        break;
      }
    }
    accept[i] = ok ? 1 : 0;
    if (ok) {
      if (pending_stamp_[claim.machine] != epoch) {
        pending_stamp_[claim.machine] = epoch;
        pending_amount_[claim.machine] = Resources::Zero();
      }
      pending_amount_[claim.machine] += claim.resources;
    }
  }

  // Phase 2: apply semantics. All-or-nothing rejects everything if any claim
  // conflicted (gang scheduling, §3.4).
  bool any_conflict = false;
  for (char a : accept) {
    if (a == 0) {
      any_conflict = true;
      break;
    }
  }
  if (commit_mode == CommitMode::kAllOrNothing && any_conflict) {
    result.accepted = 0;
    result.conflicted = static_cast<int>(claims.size());
    if (rejected != nullptr) {
      rejected->assign(claims.begin(), claims.end());
    }
    if (commit_observer_) {
      commit_observer_(claims, result);
    }
    return result;
  }

  // Phase 3: apply accepted claims atomically. When every claim carries the
  // same resources (the workload model's §2.1 cohort property) the accepted
  // set is applied grouped per machine — one batched mutation per distinct
  // machine instead of one Allocate per claim. Grouping reorders the
  // application across machines, which is state-identical here because
  // identical per-task resources make the floating-point sums order-free
  // (DESIGN.md §10); mixed-resource transactions and the order-sensitive
  // availability index keep the per-claim path.
  if (uniform_resources && !HasAvailabilityIndex()) {
    group_ids_.clear();
    for (size_t i = 0; i < claims.size(); ++i) {
      if (accept[i] != 0) {
        group_ids_.push_back(claims[i].machine);
        ++result.accepted;
      } else {
        ++result.conflicted;
        if (rejected != nullptr) {
          rejected->push_back(claims[i]);
        }
      }
    }
    for (const MachineRun& run : grouper_.Group(group_ids_)) {
      AllocateBatch(run.machine, claims[0].resources, run.count);
    }
  } else {
    for (size_t i = 0; i < claims.size(); ++i) {
      if (accept[i] != 0) {
        Allocate(claims[i].machine, claims[i].resources);
        ++result.accepted;
      } else {
        ++result.conflicted;
        if (rejected != nullptr) {
          rejected->push_back(claims[i]);
        }
      }
    }
  }
  if (commit_observer_) {
    commit_observer_(claims, result);
  }
  return result;
}

void CellState::FreeCohort(std::span<const TaskClaim> members,
                           const Resources& per_task) {
  if (HasAvailabilityIndex()) {
    // Bucket-list permutations are order-sensitive; replay per-member frees
    // in member order.
    for (const TaskClaim& claim : members) {
      Free(claim.machine, claim.resources);
    }
    return;
  }
  // Grouping reorders frees across machines, which is state-identical
  // because members share per-task resources (DESIGN.md §10).
  group_ids_.clear();
  for (const TaskClaim& claim : members) {
    group_ids_.push_back(claim.machine);
  }
  for (const MachineRun& run : grouper_.Group(group_ids_)) {
    FreeBatch(run.machine, per_task, run.count);
  }
}

std::span<const MachineRun> MachineGrouper::Group(std::span<MachineId> ids) {
  runs_.clear();
  if (ids.size() > kAlwaysSort) {
    const auto [lo, hi] = std::minmax_element(ids.begin(), ids.end());
    if (Counts(ids.size(), *hi / 64 - *lo / 64 + 1)) {
      CountRuns(ids, *lo, *hi);
      return runs_;
    }
  }
  std::sort(ids.begin(), ids.end());
  for (size_t i = 0; i < ids.size();) {
    size_t j = i + 1;
    while (j < ids.size() && ids[j] == ids[i]) {
      ++j;
    }
    runs_.push_back(MachineRun{ids[i], static_cast<uint32_t>(j - i)});
    i = j;
  }
  return runs_;
}

void MachineGrouper::CountRuns(std::span<const MachineId> ids, MachineId lo,
                               MachineId hi) {
  if (hi >= count_.size()) {
    count_.resize(static_cast<size_t>(hi) + 1, 0);
    touched_.resize(hi / 64 + 1, 0);
  }
  for (const MachineId id : ids) {
    ++count_[id];
    touched_[id / 64] |= uint64_t{1} << (id % 64);
  }
  // Ascending read-back; every touched word and count is re-zeroed on the
  // way.
  for (size_t w = lo / 64; w <= hi / 64; ++w) {
    if (touched_[w] == 0) {
      continue;
    }
    for (uint64_t bits = std::exchange(touched_[w], 0); bits != 0;
         bits &= bits - 1) {
      const auto id = static_cast<MachineId>(
          w * 64 + static_cast<size_t>(std::countr_zero(bits)));
      runs_.push_back(MachineRun{id, std::exchange(count_[id], 0)});
    }
  }
}

double CellState::CpuUtilization() const {
  return total_capacity_.cpus > 0.0 ? total_allocated_.cpus / total_capacity_.cpus
                                    : 0.0;
}

double CellState::MemUtilization() const {
  return total_capacity_.mem_gb > 0.0
             ? total_allocated_.mem_gb / total_capacity_.mem_gb
             : 0.0;
}

double CellState::MaxUtilization() const {
  return std::max(CpuUtilization(), MemUtilization());
}

bool CellState::CheckInvariants() const {
  Resources sum;
  for (const Machine& m : machines_) {
    if (m.allocated.IsNegative()) {
      return false;
    }
    if (!m.allocated.FitsIn(m.capacity)) {
      return false;
    }
    sum += m.allocated;
    // The SoA mirrors must be bitwise-equal to the Machine structs (they are
    // maintained by plain assignment, so any divergence is a missed sync) ...
    if (soa_alloc_cpu_[m.id] != m.allocated.cpus ||
        soa_alloc_mem_[m.id] != m.allocated.mem_gb ||
        soa_fit_cpu_[m.id] != UsableCapacity(m.id).cpus + kResourceEpsilon ||
        soa_fit_mem_[m.id] != UsableCapacity(m.id).mem_gb + kResourceEpsilon) {
      return false;
    }
    // ... and the block summary must dominate every machine's usable
    // availability (soundness: BlockMayFit may never rule out a feasible
    // machine) ...
    const Resources avail = UsableAvail(m.id);
    const size_t block = m.id / kBlockSize;
    if (avail.cpus > block_max_cpu_[block] + kResourceEpsilon ||
        avail.mem_gb > block_max_mem_[block] + kResourceEpsilon) {
      return false;
    }
    // ... as must the superblock summary, one level up.
    const size_t super = block / kSuperSize;
    if (avail.cpus > super_max_cpu_[super] + kResourceEpsilon ||
        avail.mem_gb > super_max_mem_[super] + kResourceEpsilon) {
      return false;
    }
  }
  // ... and clean blocks must additionally stay tight: their summary must be
  // achieved by some machine per dimension, or pruning quietly degrades.
  // (Dirty blocks are allowed to be stale-high until their next consult.)
  for (size_t b = 0; b < block_max_cpu_.size(); ++b) {
    if (block_dirty_[b] != 0) {
      continue;
    }
    const size_t begin = b * kBlockSize;
    const size_t end = std::min(begin + kBlockSize, machines_.size());
    Resources max_avail = Resources::Zero();
    for (size_t m = begin; m < end; ++m) {
      const Resources avail = UsableAvail(static_cast<MachineId>(m));
      max_avail.cpus = std::max(max_avail.cpus, avail.cpus);
      max_avail.mem_gb = std::max(max_avail.mem_gb, avail.mem_gb);
    }
    if (std::abs(block_max_cpu_[b] - max_avail.cpus) > 1e-6 ||
        std::abs(block_max_mem_[b] - max_avail.mem_gb) > 1e-6) {
      return false;
    }
  }
  // Clean superblocks: every constituent block must be clean (a shrink marks
  // both levels, and only RecomputeSuper — which refreshes its blocks —
  // clears the super bit), and the stored value must equal the exact maximum
  // over the stored block values (grow raises both levels consistently).
  for (size_t s = 0; s < super_max_cpu_.size(); ++s) {
    if (super_dirty_[s] != 0) {
      continue;
    }
    const size_t begin = s * kSuperSize;
    const size_t end = std::min(begin + kSuperSize, block_max_cpu_.size());
    double max_cpu = 0.0;
    double max_mem = 0.0;
    for (size_t b = begin; b < end; ++b) {
      if (block_dirty_[b] != 0) {
        return false;
      }
      max_cpu = std::max(max_cpu, block_max_cpu_[b]);
      max_mem = std::max(max_mem, block_max_mem_[b]);
    }
    if (super_max_cpu_[s] != max_cpu || super_max_mem_[s] != max_mem) {
      return false;
    }
  }
  const Resources diff = sum - total_allocated_;
  return std::abs(diff.cpus) < 1e-3 && std::abs(diff.mem_gb) < 1e-3;
}

}  // namespace omega
