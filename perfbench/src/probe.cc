#include "probe.h"

#include <sys/time.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <ctime>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

// 64 KiB: larger than L1, well inside L2, so a warmed-up chase measures the
// core's private-cache latency, which co-tenants sharing the core disturb.
constexpr size_t kCycleEntries = (64 * 1024) / sizeof(uint32_t);
constexpr long kIntervalUs = 20000;

// Written by Start before the timer is armed, then read only by the handler.
std::vector<uint32_t>* g_cycle = nullptr;
std::atomic<int64_t> g_steps{0};
std::atomic<int64_t> g_ns{0};
volatile uint32_t g_sink = 0;
struct sigaction g_previous{};
bool g_running = false;

static_assert(std::atomic<int64_t>::is_always_lock_free,
              "the signal handler needs lock-free counters");

int64_t MonotonicNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);  // async-signal-safe
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void OnAlarm(int /*signo*/) {
  const int saved_errno = errno;
  const uint32_t* next = g_cycle->data();
  uint32_t pos = 0;
  // One untimed pass loads the cycle into the cache whatever ran before;
  // the second pass is the reading.
  for (size_t i = 0; i < kCycleEntries; ++i) {
    pos = next[pos];
  }
  const int64_t start = MonotonicNs();
  for (size_t i = 0; i < kCycleEntries; ++i) {
    pos = next[pos];
  }
  const int64_t end = MonotonicNs();
  g_sink = pos;
  g_ns.fetch_add(end - start, std::memory_order_relaxed);
  g_steps.fetch_add(static_cast<int64_t>(kCycleEntries), std::memory_order_relaxed);
  errno = saved_errno;
}

// One cycle through every entry (Sattolo's shuffle), from a fixed xorshift
// seed, so every run chases the same pattern.
std::vector<uint32_t>* BuildCycle() {
  auto* cycle = new std::vector<uint32_t>(kCycleEntries);
  for (size_t i = 0; i < kCycleEntries; ++i) {
    (*cycle)[i] = static_cast<uint32_t>(i);
  }
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (size_t i = kCycleEntries - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap((*cycle)[i], (*cycle)[x % i]);
  }
  return cycle;
}

}  // namespace

bool HostSpeedProbe::Start() {
  if (g_running) {
    return true;
  }
  if (g_cycle == nullptr) {
    g_cycle = BuildCycle();  // lives for the process
  }
  struct sigaction action{};
  action.sa_handler = OnAlarm;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;  // file I/O in a trial must not see EINTR
  if (sigaction(SIGALRM, &action, &g_previous) != 0) {
    return false;
  }
  itimerval timer{};
  timer.it_interval.tv_usec = kIntervalUs;
  timer.it_value.tv_usec = kIntervalUs;
  if (setitimer(ITIMER_REAL, &timer, nullptr) != 0) {
    sigaction(SIGALRM, &g_previous, nullptr);
    return false;
  }
  g_running = true;
  return true;
}

void HostSpeedProbe::Stop() {
  if (!g_running) {
    return;
  }
  itimerval off{};
  setitimer(ITIMER_REAL, &off, nullptr);
  sigaction(SIGALRM, &g_previous, nullptr);
  g_running = false;
}

HostSpeedProbe::Reading HostSpeedProbe::Now() {
  // A probe landing between the two loads skews this reading by one probe
  // out of the hundreds a trial spans.
  Reading r;
  r.steps = g_steps.load(std::memory_order_relaxed);
  r.ns = g_ns.load(std::memory_order_relaxed);
  return r;
}

double HostSpeedProbe::NsPerStep(const Reading& from, const Reading& to) {
  const int64_t steps = to.steps - from.steps;
  return steps > 0 ? static_cast<double>(to.ns - from.ns) / static_cast<double>(steps)
                   : 0.0;
}

}  // namespace perfbench
