// The shared cell state: the master copy of all resource allocations (§3.4).
//
// CellState is the "persistent data store with validation code" at the heart
// of the Omega architecture. Schedulers place tasks against a (logical) local
// copy and then commit claims in an atomic transaction; the commit applies
// optimistic concurrency control with either fine-grained (per-machine
// resource re-check) or coarse-grained (sequence number) conflict detection,
// and either incremental or all-or-nothing (gang) acceptance semantics (§5.2).
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/cluster/machine.h"
#include "src/cluster/resources.h"

namespace omega {

// How the validation code decides whether a machine can accept a new claim.
// The lightweight simulator uses exact capacity (kExact); the high-fidelity
// simulator models the production scheduler's stricter notion of fullness by
// reserving a headroom fraction of every machine (kHeadroom), which makes
// machines fill "earlier" and produces more conflicts (§5, simulator deltas).
enum class FullnessPolicy {
  kExact,
  kHeadroom,
};

// Conflict detection granularity for transaction commit (§5.2).
enum class ConflictMode {
  kFineGrained,   // conflict only if the claim no longer fits
  kCoarseGrained, // conflict if the machine changed at all since placement
};

// Transaction acceptance semantics (§3.4, §5.2).
enum class CommitMode {
  kIncremental,   // accept all but the conflicting claims
  kAllOrNothing,  // gang scheduling: reject the whole transaction on conflict
};

// One task's claim on one machine, captured at placement time.
struct TaskClaim {
  MachineId machine = kInvalidMachineId;
  Resources resources;
  // Machine sequence number observed when the placing scheduler synced its
  // local copy of cell state.
  uint64_t seqnum_at_placement = 0;
};

// Result of committing a transaction.
struct CommitResult {
  int accepted = 0;
  int conflicted = 0;

  bool AllAccepted() const { return conflicted == 0; }
};

// Reconstructs the accepted subset of `claims` after a Commit that rejected
// some of them. Commit reports rejected claims in claim order, so a single
// forward merge suffices; entries are matched on (machine,
// seqnum_at_placement, resources), which also handles duplicate identical
// claims with partial rejection (the first matching occurrences are dropped).
// CHECK-fails if `rejected` is not an in-order subsequence of `claims` or the
// result does not hold exactly `expected_accepted` claims.
std::vector<TaskClaim> ReconstructAcceptedClaims(
    std::span<const TaskClaim> claims, std::span<const TaskClaim> rejected,
    int expected_accepted);

// `count` ids equal to `machine`: one entry of a grouped id list.
struct MachineRun {
  MachineId machine;
  uint32_t count;
};

// Groups a list of machine ids into (machine, count) runs in ascending
// machine order: the same runs, in the same order, as std::sort followed by
// run-length encoding. CellState::Commit and CellState::FreeCohort are its
// users. The order is observable (the mutation hook sees one call per run,
// and the Mesos allocator's lock order follows it), so it is ascending, not
// first-seen. A list is either sorted in place (so `ids` may come back
// reordered) or counted into a dense per-machine array with a bitmap of
// touched ids, then read back one 64-id word at a time from its smallest id
// to its largest: O(n + span / 64) with no sort. Counting pays per word of
// span, sorting per comparison, so Counts() picks by both the length and the
// span (DESIGN.md §10). The scratch grows to the largest id seen and is left
// zeroed between calls, so a warm grouper allocates nothing. The returned
// span is valid until the next Group call.
class MachineGrouper {
 public:
  // Lists this short are always sorted: std::sort is a plain insertion sort
  // up to 16 elements (libstdc++'s threshold), and counting never beat it
  // there, even over a 47-word span.
  static constexpr size_t kAlwaysSort = 16;

  // Whether Group counts, rather than sorts, `n` ids whose read-back covers
  // `words` 64-id words. Measured (EXPERIMENTS.md, "Choosing between sort
  // and count"): one comparison of a sort costs about two words of
  // read-back, so counting wins once 2 * n * floor(log2(n)) exceeds the words.
  static bool Counts(size_t n, size_t words) {
    return n > kAlwaysSort &&
           2 * n * static_cast<size_t>(std::bit_width(n) - 1) > words;
  }

  std::span<const MachineRun> Group(std::span<MachineId> ids);

 private:
  // The counting path: appends the runs of `ids`, whose extremes are `lo`
  // and `hi`, to runs_.
  void CountRuns(std::span<const MachineId> ids, MachineId lo, MachineId hi);

  std::vector<uint32_t> count_;    // per machine id; all zero between calls
  std::vector<uint64_t> touched_;  // one bit per machine id; likewise
  std::vector<MachineRun> runs_;
};

class CellState {
 public:
  // Builds a homogeneous cell of `num_machines` machines with the given
  // per-machine capacity. Failure domains group `machines_per_domain`
  // consecutive machines (racks).
  CellState(uint32_t num_machines, const Resources& machine_capacity,
            FullnessPolicy fullness = FullnessPolicy::kExact,
            double headroom_fraction = 0.0, uint32_t machines_per_domain = 40);

  // Builds a heterogeneous cell with the given per-machine capacities (the
  // high-fidelity simulator's "machines: actual data", Table 2).
  CellState(std::vector<Resources> machine_capacities,
            FullnessPolicy fullness = FullnessPolicy::kExact,
            double headroom_fraction = 0.0, uint32_t machines_per_domain = 40);

  uint32_t NumMachines() const { return static_cast<uint32_t>(machines_.size()); }
  const Machine& machine(MachineId id) const { return machines_[id]; }
  Machine& mutable_machine(MachineId id) { return machines_[id]; }

  FullnessPolicy fullness_policy() const { return fullness_; }
  double headroom_fraction() const { return headroom_fraction_; }

  // Effective capacity a claim may use on `id` under the fullness policy.
  // Inline, like CanFitWithPending: both run on every placement probe.
  Resources UsableCapacity(MachineId id) const {
    const Machine& m = machines_[id];
    if (fullness_ == FullnessPolicy::kExact) {
      return m.capacity;
    }
    return m.capacity * (1.0 - headroom_fraction_);
  }

  // Validation predicate: can `request` be placed on machine `id` right now?
  bool CanFit(MachineId id, const Resources& request) const {
    return CanFitWithPending(id, request, Resources::Zero());
  }

  // As CanFit, but with `extra` already hypothetically allocated (pending
  // same-transaction claims on the same machine).
  bool CanFitWithPending(MachineId id, const Resources& request,
                         const Resources& extra) const {
    const Resources used = machines_[id].allocated + extra + request;
    return used.FitsIn(UsableCapacity(id));
  }

  // Immediately allocates/frees (bumping the machine's sequence number).
  // Allocate CHECK-fails if the claim does not fit; Free CHECK-fails if it
  // would drive the allocation negative.
  void Allocate(MachineId id, const Resources& request);
  void Free(MachineId id, const Resources& request);

  // Applies `count` identical allocations (frees) on machine `id` as one
  // batched mutation: the floating-point arithmetic is replayed per task so
  // the resulting state is bit-identical to `count` single calls, but the
  // sequence number advances once by `+count`, the capacity check runs once
  // (sound: allocation grows monotonically across the batch), and the block
  // summary is maintained once per batch instead of per task. With the
  // availability index enabled, bucket-list order is observable through
  // WalkByAvailability, so both fall back to the per-task sequence — state
  // stays bit-identical there too, just without the batching win. See
  // DESIGN.md §10.
  void AllocateBatch(MachineId id, const Resources& per_task, uint32_t count);
  void FreeBatch(MachineId id, const Resources& per_task, uint32_t count);

  // Atomically commits a set of claims placed against an earlier snapshot.
  // Accepted claims are allocated; conflicting claims (per `conflict_mode`,
  // `commit_mode`) are reported in `rejected` if non-null. Claims within one
  // transaction never conflict with each other on sequence numbers. When
  // every claim carries identical resources (the §2.1 cohort property the
  // workload model guarantees) and no availability index is attached,
  // accepted claims are applied grouped per machine, one AllocateBatch per
  // distinct machine in ascending machine order (MachineGrouper); otherwise
  // one Allocate per claim in claim order. The resulting state is
  // bit-identical to the per-claim reference in tests/reference_cell.h
  // (DESIGN.md §10).
  CommitResult Commit(std::span<const TaskClaim> claims, ConflictMode conflict_mode,
                      CommitMode commit_mode,
                      std::vector<TaskClaim>* rejected = nullptr);

  // Frees a finished cohort (one committed placement batch whose members all
  // carry `per_task` resources): one FreeBatch per distinct machine in
  // ascending machine order, or, with the availability index attached, one
  // Free per member in member order (bucket-list order is observable there).
  // Bit-identical to freeing member by member (DESIGN.md §10).
  void FreeCohort(std::span<const TaskClaim> members,
                  const Resources& per_task);

  // Observer invoked after every non-empty Commit with the transaction's
  // claims and outcome — the state-store-side tracing seam (every writer
  // passes through here: monolithic, Mesos frameworks, Omega schedulers).
  // Null by default; the observer must not mutate cell state.
  using CommitObserver =
      std::function<void(std::span<const TaskClaim>, const CommitResult&)>;
  void SetCommitObserver(CommitObserver observer) {
    commit_observer_ = std::move(observer);
  }
  const CommitObserver& commit_observer() const { return commit_observer_; }

  // Hook invoked with a machine id just before that machine's allocation
  // changes (Allocate, Free and their batched forms, so every Commit too),
  // while the machine still holds its old state. Null by default; the Mesos
  // allocator uses it to make an implicitly locked offer slice explicit
  // before the machine changes (DESIGN.md §7). The hook must not mutate cell
  // state.
  using MutationHook = std::function<void(MachineId)>;
  void SetMutationHook(MutationHook hook) { mutation_hook_ = std::move(hook); }
  const MutationHook& mutation_hook() const { return mutation_hook_; }

  Resources TotalCapacity() const { return total_capacity_; }
  Resources TotalAllocated() const { return total_allocated_; }
  Resources TotalAvailable() const { return total_capacity_ - total_allocated_; }

  double CpuUtilization() const;
  double MemUtilization() const;
  // max(cpu, mem) utilization — the "overall cluster utilization" the
  // MapReduce global-cap policy thresholds on (§6.1).
  double MaxUtilization() const;

  // Verifies internal consistency (per-machine sums vs. totals, block
  // summaries vs. per-machine availability); used by tests and debug builds.
  // Returns true when consistent.
  bool CheckInvariants() const;

  // --- block / superblock availability summaries ---
  //
  // Machines are grouped into fixed blocks of kBlockSize consecutive ids, and
  // every block carries the componentwise maximum of its machines' usable
  // availability (UsableCapacity - allocated, clamped at zero). Placement
  // scans use BlockMayFit to skip whole blocks that cannot fit a request in
  // at least one resource dimension — which is what keeps randomized first
  // fit's linear fallback cheap in the near-full regime the paper's
  // experiments deliberately drive into (§4, §5). Blocks are further grouped
  // into superblocks of kSuperSize consecutive blocks (kBlockSize *
  // kSuperSize = 4096 machines) carrying the same kind of summary one level
  // up, so a mega-cell no-fit scan is ~O(cell / 4096) superblock consults
  // instead of O(cell / 64) block consults (DESIGN.md §11).
  //
  // Maintenance is incremental and lazy, tuned to the traffic mix: frees
  // raise the stored maxima in O(1); an allocation just marks its block and
  // superblock dirty with byte stores (allocations vastly outnumber fallback
  // scans, so doing any more work here would cost more than pruning saves);
  // a dirty summary is re-summarized on first consult. Between recomputes a
  // dirty summary's stored value is stale-high — a sound upper bound — so
  // pruning never wrongly rules a block out, it just prunes less until
  // refreshed. Because a pending (uncommitted) claim only shrinks
  // availability further, a block ruled out by the summary can never hide a
  // machine a CanFitWithPending scan would have accepted: skipping is
  // strictly conservative at both levels.

  static constexpr uint32_t kBlockSize = 64;
  // Blocks per superblock (so kBlockSize * kSuperSize machines each).
  static constexpr uint32_t kSuperSize = 64;

  uint32_t NumBlocks() const { return static_cast<uint32_t>(block_max_cpu_.size()); }
  uint32_t NumSuperblocks() const {
    return static_cast<uint32_t>(super_max_cpu_.size());
  }

  // True unless no machine in the block containing `id` can fit `request`
  // (i.e. false means every machine in the block fails CanFit for `request`).
  // Refreshes the block's summary if it is stale.
  bool BlockMayFit(MachineId id, const Resources& request) const {
    const size_t block = id / kBlockSize;
    if (block_dirty_[block] != 0) {
      RecomputeBlock(block);
    }
    return request.cpus <= block_max_cpu_[block] + kResourceEpsilon &&
           request.mem_gb <= block_max_mem_[block] + kResourceEpsilon;
  }

  // As BlockMayFit, one level up: true unless no machine in the superblock
  // containing `id` can fit `request`. Refreshes the superblock (and any
  // dirty constituent blocks) if stale.
  bool SuperblockMayFit(MachineId id, const Resources& request) const {
    const size_t super = id / (kBlockSize * kSuperSize);
    if (super_dirty_[super] != 0) {
      RecomputeSuper(super);
    }
    return request.cpus <= super_max_cpu_[super] + kResourceEpsilon &&
           request.mem_gb <= super_max_mem_[super] + kResourceEpsilon;
  }

  // First machine id after `id` that lies in the next block; placement scans
  // jump here when BlockMayFit(id, ...) is false.
  static MachineId NextBlockStart(MachineId id) {
    return (id / kBlockSize + 1) * kBlockSize;
  }

  // --- struct-of-arrays placement core (DESIGN.md §11) ---
  //
  // The per-machine allocation and fit-limit values are mirrored into
  // contiguous double arrays so the no-fit scans that dominate near-full
  // placement become branch-light linear sweeps over packed doubles (the
  // vector bin-packing layout). The mirrors are maintained unconditionally —
  // every mutation writes the machine's allocated components through — and
  // are bitwise-equal to the Machine structs by construction.

  // First machine id in [begin, end) whose current allocation can fit
  // `request` under the fullness policy, ignoring pending claims and
  // placement constraints — the same predicate as CanFit, evaluated as a
  // two-level-pruned sweep over the SoA arrays. Returns kInvalidMachineId if
  // no machine in the range fits. Callers re-check candidates with
  // constraints and pending claims: a machine this sweep skips fails those
  // stricter checks too (pending only shrinks availability), so using it as
  // a pre-filter changes no placement decision.
  MachineId FindFirstFit(MachineId begin, MachineId end,
                         const Resources& request) const;

  // --- availability index ---
  //
  // An optional bucketed index of machines by *effective* availability — the
  // binding dimension min(avail_cpu, avail_mem / mem-per-cpu-ratio), in CPU
  // units — so that best-fit placement ("tightest feasible machine first")
  // runs in O(candidates) instead of O(machines), and machines that are loose
  // in CPU but exhausted in memory sort as tight. The high-fidelity scoring
  // placer uses it; the lightweight randomized first fit does not need it.

  void EnableAvailabilityIndex(uint32_t num_buckets = 64);
  bool HasAvailabilityIndex() const { return !buckets_.empty(); }

  // Effective availability key of a request: the CPU-unit requirement in the
  // binding dimension, max(cpus, mem_gb / mem-per-cpu). It sets where the
  // walk starts and is not a feasibility bound: a machine's bucket keys on
  // the *smaller* of its two raw availabilities, the start key on the
  // *larger* requirement (plus, under kHeadroom, an offset scaled to the
  // largest machine), so a machine in a bucket below the start can still fit
  // the request — the walk just never visits it (DESIGN.md §7 gives a
  // counter-example).
  double EffectiveKey(const Resources& r) const;

  // Forward cursor over machines in order of increasing effective
  // availability (tightest bucket first), starting from the lowest bucket the
  // walk considers for `min_request`. It reads the bucket lists in place, so
  // it is valid only while the cell is not mutated.
  class AvailabilityCursor {
   public:
    // Next machine in availability order, or kInvalidMachineId at the end.
    MachineId Next() {
      while (bucket_ < buckets_->size()) {
        const std::vector<MachineId>& list = (*buckets_)[bucket_];
        if (pos_ < list.size()) {
          return list[pos_++];
        }
        ++bucket_;
        pos_ = 0;
      }
      return kInvalidMachineId;
    }

   private:
    friend class CellState;
    AvailabilityCursor(const std::vector<std::vector<MachineId>>* buckets,
                       size_t start_bucket)
        : buckets_(buckets), bucket_(start_bucket) {}

    const std::vector<std::vector<MachineId>>* buckets_;
    size_t bucket_;
    size_t pos_ = 0;
  };
  AvailabilityCursor WalkByAvailability(const Resources& min_request) const;

 private:
  size_t BucketFor(MachineId id) const;
  void IndexRemove(MachineId id);
  void IndexInsert(MachineId id);
  void IndexUpdate(MachineId id, size_t old_bucket);

  // Usable availability of `id` under the fullness policy, clamped at zero
  // componentwise (headroom can drive the raw difference negative).
  Resources UsableAvail(MachineId id) const {
    return (UsableCapacity(id) - machines_[id].allocated).ClampNonNegative();
  }
  // Recomputes a block's summary from its machines and clears its dirty bit
  // (const: the summary is a cache over machine state).
  void RecomputeBlock(size_t block) const;
  // Recomputes a superblock's summary from its (refreshed) constituent blocks
  // and clears its dirty bit.
  void RecomputeSuper(size_t super) const;
  // Marks both summary levels stale after machine `id`'s availability shrank
  // (allocation path).
  void BlockAfterShrink(MachineId id);
  // Restores both summary levels after machine `id`'s availability grew (free
  // path).
  void BlockAfterGrow(MachineId id);

  // Writes machine `id`'s allocated components through to the SoA mirrors.
  void SyncSoA(MachineId id) {
    soa_alloc_cpu_[id] = machines_[id].allocated.cpus;
    soa_alloc_mem_[id] = machines_[id].allocated.mem_gb;
  }
  // Fills the SoA fit-limit arrays from the (immutable) usable capacities;
  // called once from both constructors.
  void InitSoA();
  // Chunked kernel under FindFirstFit: first id in [from, to) — a range that
  // never crosses a block boundary — whose raw allocation fits `request`, or
  // kInvalidMachineId.
  MachineId ScanFit(MachineId from, MachineId to, const Resources& request) const;

  std::vector<Machine> machines_;
  Resources total_capacity_;
  Resources total_allocated_;
  FullnessPolicy fullness_;
  double headroom_fraction_;

  // SoA mirrors of per-machine state (always maintained, bitwise-equal to the
  // Machine structs): allocated components, and the fit limit
  // UsableCapacity + kResourceEpsilon per component — precomputed so the scan
  // predicate `alloc + request <= fit` needs no per-machine recomputation.
  // The fit arrays are fixed at construction (capacity and fullness policy
  // are immutable after construction).
  std::vector<double> soa_alloc_cpu_;
  std::vector<double> soa_alloc_mem_;
  std::vector<double> soa_fit_cpu_;
  std::vector<double> soa_fit_mem_;

  // Per-block componentwise maximum of UsableAvail over the block's machines
  // (always maintained; one entry per kBlockSize machines), split into
  // per-resource double arrays, plus the same summary one level up over
  // kSuperSize blocks. Mutable: a dirty summary is lazily recomputed on first
  // consult, including through const readers.
  mutable std::vector<double> block_max_cpu_;
  mutable std::vector<double> block_max_mem_;
  mutable std::vector<uint8_t> block_dirty_;
  mutable std::vector<double> super_max_cpu_;
  mutable std::vector<double> super_max_mem_;
  mutable std::vector<uint8_t> super_dirty_;

  CommitObserver commit_observer_;
  MutationHook mutation_hook_;
  // Commit and FreeCohort scratch, reused across transactions: the machine
  // ids to group and their grouper, the per-claim accept flags, and the
  // pending same-transaction sums as a dense epoch-stamped per-machine array
  // (an array read per claim instead of a hash lookup; a new transaction is
  // an O(1) epoch bump).
  std::vector<MachineId> group_ids_;
  MachineGrouper grouper_;
  std::vector<char> accept_scratch_;
  std::vector<Resources> pending_amount_;
  std::vector<uint32_t> pending_stamp_;
  uint32_t pending_epoch_ = 0;

  // Availability index state (empty when disabled).
  std::vector<std::vector<MachineId>> buckets_;
  std::vector<uint32_t> bucket_of_;    // per machine
  std::vector<uint32_t> pos_in_bucket_;  // per machine
  double bucket_scale_ = 0.0;          // buckets per effective cpu
  double mem_per_cpu_ = 4.0;           // GB per core, for the effective key
};

}  // namespace omega

