// src/common/ is the sanctioned home of the parallelism wrappers
// (ParallelFor / ParallelForRanges): primitives allowed.
#include <atomic>
#include <mutex>
#include <thread>

namespace fx {

std::mutex g_mu;
std::atomic<int> g_next{0};

void Spin() {
  std::thread t([] {});
  t.join();
}

}  // namespace fx
