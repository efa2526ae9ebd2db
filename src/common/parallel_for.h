// Parallel execution of independent simulation runs.
//
// Experiment sweeps run many independent simulations (one per parameter
// point); each is single-threaded and deterministic, so they parallelize
// trivially across a thread pool.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace omega {

// Invokes fn(i) for i in [0, n), distributing iterations over up to
// `max_threads` worker threads (hardware concurrency if 0). Blocks until all
// iterations complete. fn must be safe to call concurrently for distinct i.
//
// If fn throws, no further iterations are started, remaining workers drain,
// and the first captured exception is rethrown on the calling thread once all
// workers have joined. Iterations already in flight still run to completion.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                 size_t max_threads = 0);

// Per-shard output view: wraps a caller-owned buffer whose slots are written
// by at most one shard invocation each (disjoint indices). This is the
// one sanctioned form of shared-memory *output* from shard callbacks — every
// other write to state visible across shards is a det-shard-unsafe-write
// finding (omega_lint, DESIGN.md §14). The wrapper adds no synchronization;
// the disjointness contract is the caller's. It exists to make the pattern
// explicit at the declaration and statically recognizable.
template <typename T>
class ShardSlots {
 public:
  explicit ShardSlots(std::vector<T>& buf) : data_(buf.data()) {}

  T& operator[](size_t i) const { return data_[i]; }

 private:
  T* data_;
};

}  // namespace omega

