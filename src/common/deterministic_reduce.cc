#include "src/common/deterministic_reduce.h"

#include <atomic>

namespace omega {

size_t DeterministicReducer::FirstMatch(WorkerPool* pool, size_t n,
                                        size_t grain, const ScanFn& scan) {
  if (n == 0) {
    return kReduceNotFound;
  }
  if (grain == 0) {
    grain = 1;
  }
  const size_t num_shards = (n + grain - 1) / grain;
  if (pool == nullptr || pool->concurrency() <= 1 || num_shards <= 1) {
    return scan(0, n);
  }
  shard_hit_.assign(num_shards, kReduceNotFound);
  // Lowest shard index known to contain a hit. Relaxed: a stale read only
  // costs a redundant shard scan, never a wrong merge result.
  std::atomic<size_t> bound{num_shards};
  pool->Run(num_shards, [&](size_t s) {
    if (s > bound.load(std::memory_order_relaxed)) {
      return;
    }
    const size_t begin = s * grain;
    const size_t hit = scan(begin, std::min(n, begin + grain));
    shard_hit_[s] = hit;
    if (hit != kReduceNotFound) {
      size_t cur = bound.load(std::memory_order_relaxed);
      while (s < cur && !bound.compare_exchange_weak(
                            cur, s, std::memory_order_relaxed)) {
      }
    }
  });
  for (size_t s = 0; s < num_shards; ++s) {
    if (shard_hit_[s] != kReduceNotFound) {
      return shard_hit_[s];
    }
  }
  return kReduceNotFound;
}

}  // namespace omega
