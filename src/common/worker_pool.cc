#include "src/common/worker_pool.h"

#include <algorithm>

namespace omega {

WorkerPool::WorkerPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads - 1);
  for (size_t t = 0; t + 1 < num_threads; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void WorkerPool::Drain(const std::function<void(size_t)>& fn, size_t n) {
  for (;;) {
    const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) {
      return;
    }
    try {
      fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (first_error_ == nullptr) {
        first_error_ = std::current_exception();
      }
      // Poison the counter so no further indices are handed out. Indices
      // already claimed by other lanes still run to completion.
      next_.store(n, std::memory_order_relaxed);
      return;
    }
  }
}

void WorkerPool::Run(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (workers_.empty()) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    n_ = n;
    next_.store(0, std::memory_order_relaxed);
    first_error_ = nullptr;
    active_ = workers_.size();
    ++generation_;
  }
  work_cv_.notify_all();
  Drain(fn, n);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Every worker checks in once per generation (even if it wakes after the
    // counter is exhausted), so fn stays alive until all lanes are out of it.
    done_cv_.wait(lock, [this] { return active_ == 0; });
    fn_ = nullptr;
    error = first_error_;
    first_error_ = nullptr;
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

void WorkerPool::WorkerLoop() {
  uint64_t seen = 0;
  for (;;) {
    const std::function<void(size_t)>* fn = nullptr;
    size_t n = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) {
        return;
      }
      seen = generation_;
      fn = fn_;
      n = n_;
    }
    Drain(*fn, n);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--active_ == 0) {
        done_cv_.notify_all();
      }
    }
  }
}

}  // namespace omega
