// Deterministic ordered map-reduce over index ranges (DESIGN.md §12).
//
// The sharded placement scan is a sequential search over machine ids of one
// shape, FirstMatch: "lowest index satisfying a predicate" (RandomizedFirstFit
// phase-2 sweep under constraints). It is order-insensitive to *evaluation*
// (each index's verdict depends only on shared read-only state) but
// order-sensitive in its *selection*. DeterministicReducer shards [0, n) into
// fixed contiguous ranges, evaluates shards concurrently on a WorkerPool, and
// merges per-shard results in ascending shard order on the calling thread.
// Because shard boundaries are a partition of the index space and the merge
// takes the first hit in index order, the reduced result is bit-identical to
// the sequential scan for every shard layout and thread count.
//
// Per-shard scratch lives in a member vector that is reused across calls, so
// steady-state reductions do not allocate.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "src/common/worker_pool.h"

namespace omega {

// Sentinel for "no index selected".
inline constexpr size_t kReduceNotFound = static_cast<size_t>(-1);

// Per-shard output view: wraps a caller-owned buffer whose slots are written
// by at most one shard invocation each (disjoint index ranges). This is the
// one sanctioned form of shared-memory *output* from shard callbacks — every
// other write to state visible across shards is a det-shard-unsafe-write
// finding (omega_lint, DESIGN.md §14). The wrapper adds no synchronization;
// the disjointness contract is the caller's. It exists to make the pattern
// explicit at the declaration and statically recognizable.
template <typename T>
class ShardSlots {
 public:
  explicit ShardSlots(std::vector<T>& buf)
      : data_(buf.data()), size_(buf.size()) {}
  ShardSlots(T* data, size_t size) : data_(data), size_(size) {}

  T& operator[](size_t i) const { return data_[i]; }
  size_t size() const { return size_; }
  T* data() const { return data_; }

 private:
  T* data_;
  size_t size_;
};

// Shard size for an n-element scan on `concurrency` lanes: ~4 shards per lane
// for load balancing, but never smaller than min_grain so per-shard dispatch
// overhead stays amortized (and small inputs fall back to one shard, i.e.
// the plain sequential scan).
inline size_t ReduceGrain(size_t n, size_t concurrency,
                          size_t min_grain = 64) {
  if (concurrency == 0) {
    concurrency = 1;
  }
  const size_t target_shards = concurrency * 4;
  return std::max(min_grain, (n + target_shards - 1) / target_shards);
}

class DeterministicReducer {
 public:
  // scan(begin, end) must return the lowest index in [begin, end) that
  // matches, or kReduceNotFound — i.e. it must be the sequential scan
  // restricted to a subrange. (Values in a different monotone index space are
  // fine as long as a hit in an earlier range never compares "later" than a
  // hit in a later range.)
  using ScanFn = std::function<size_t(size_t begin, size_t end)>;

  // Lowest matching index in [0, n), or kReduceNotFound. Shards later than
  // the earliest known hit are skipped opportunistically (a relaxed atomic
  // bound); skipped shards can never win the ordered merge, so the early
  // exit does not affect the result.
  size_t FirstMatch(WorkerPool* pool, size_t n, size_t grain,
                    const ScanFn& scan);

 private:
  std::vector<size_t> shard_hit_;
};

}  // namespace omega
