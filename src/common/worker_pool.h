// Persistent worker pool for intra-trial parallelism (DESIGN.md §12).
//
// ParallelFor spawns fresh threads per call, which is fine for coarse work
// (one simulation trial per iteration) but far too expensive for the
// per-decision hot paths inside a trial: a mega-cell trial issues millions of
// placement scans, each a few microseconds. WorkerPool keeps its threads
// alive across calls and dispatches "generations" of work through a
// mutex/condition-variable handshake plus one atomic shard counter, so a
// dispatch costs a wakeup instead of a thread spawn.
//
// Determinism contract: the pool itself promises nothing about which thread
// runs which index or in what order — callers that need deterministic results
// must combine per-shard outputs with an ordered reduction (see
// deterministic_reduce.h). All raw concurrency primitives live in this file
// and its .cc; simulator layers above src/common must go through WorkerPool /
// ParallelFor / DeterministicReducer (enforced by the det-parallel-reduce
// lint rule).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace omega {

class WorkerPool {
 public:
  // Total concurrency `num_threads` (0 = hardware concurrency, clamped to at
  // least 1). The pool spawns num_threads - 1 workers; the caller of Run()
  // participates as the remaining lane, so WorkerPool(1) spawns no threads
  // and Run() degenerates to a plain sequential loop.
  explicit WorkerPool(size_t num_threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Caller lane plus resident workers.
  size_t concurrency() const { return workers_.size() + 1; }

  // Invokes fn(i) for i in [0, n) across the pool and the calling thread,
  // blocking until every index has completed. Indices are claimed dynamically
  // from a shared counter, so assignment to threads is nondeterministic; fn
  // must be safe to call concurrently for distinct i. Writes made by fn
  // happen-before Run() returns (the completion handshake goes through a
  // mutex), so the caller may read shard outputs without further fences.
  //
  // If fn throws, no further indices are started and the first captured
  // exception is rethrown on the calling thread after the generation drains.
  // Run() is not reentrant and must only be called from one thread at a time
  // (in the simulator: the single event-loop thread).
  void Run(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();
  // Claims and runs indices until the counter is exhausted; records the first
  // exception and poisons the counter to stop further claims.
  void Drain(const std::function<void(size_t)>& fn, size_t n);

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // signals workers: new generation/shutdown
  std::condition_variable done_cv_;  // signals caller: generation drained
  uint64_t generation_ = 0;          // guarded by mu_
  size_t active_ = 0;                // workers not yet done with generation_
  bool shutdown_ = false;            // guarded by mu_
  const std::function<void(size_t)>* fn_ = nullptr;  // valid while active_ > 0
  size_t n_ = 0;
  std::atomic<size_t> next_{0};
  std::exception_ptr first_error_;  // guarded by mu_
};

}  // namespace omega
