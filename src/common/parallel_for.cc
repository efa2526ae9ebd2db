#include "src/common/parallel_for.h"

#include <algorithm>
#include <exception>
#include <mutex>

namespace omega {

void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                 size_t max_threads) {
  if (n == 0) {
    return;
  }
  size_t num_threads = max_threads;
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  num_threads = std::min(num_threads, n);
  if (num_threads == 1) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  std::atomic<size_t> next{0};
  // An exception escaping a worker thread would call std::terminate; capture
  // the first one instead, stop handing out work, and rethrow after the join.
  std::atomic<bool> abort{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::vector<std::thread> workers;
  workers.reserve(num_threads);
  for (size_t t = 0; t < num_threads; ++t) {
    workers.emplace_back([&] {
      while (!abort.load(std::memory_order_relaxed)) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) {
          return;
        }
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (first_error == nullptr) {
            first_error = std::current_exception();
          }
          abort.store(true, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  if (first_error != nullptr) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace omega
