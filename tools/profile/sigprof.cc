// A SIGPROF sampling profiler for unmodified, optimised binaries.
//
// Built as a shared library and loaded with LD_PRELOAD, it arms an
// ITIMER_PROF interval timer when the process starts. Each SIGPROF records
// the interrupted program counter into a fixed array (no allocation, no
// locks: the handler is async-signal-safe). At normal process exit it writes
// the executable mappings from /proc/self/maps and a count per distinct
// program counter to `<OMEGA_PROF_OUT>.<pid>`; tools/profile/resolve.py maps
// them to functions with nm (and source lines with addr2line).
//
// Unlike a -pg build, the profiled code is the code that ships: no mcount
// call per function entry inflating call-heavy functions, and no re-inlining
// that moves costs between functions.
//
// The timer asks for kHz samples per CPU-second. The kernel fires CPU-time
// timers from its scheduler tick, so the rate actually reached is at most
// the tick rate (CONFIG_HZ, often 250): asking for more changes nothing.
// The file records the process's CPU seconds, and the resolver prints the
// rate reached. OMEGA_PROF_OUT sets the output path prefix (default
// "omega_prof").
//
// Usage: OMEGA_PROF_OUT=/tmp/p LD_PRELOAD=libomega_sigprof.so ./binary ...
// Sanitizer runtimes refuse to run under a foreign preload, so profile
// Release or RelWithDebInfo builds only.
#include <signal.h>
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>  // omega-lint: allow(det-parallel-reduce)
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace {

constexpr int kHz = 1000;
// 2^21 samples is ~35 CPU-minutes at kHz. The array lives in .bss, so only
// the pages samples reach are ever touched.
constexpr size_t kMaxSamples = size_t{1} << 21;
uintptr_t g_samples[kMaxSamples];
// The profiler's own state, not simulator state: sample slots are claimed by
// whichever thread the timer interrupts.
std::atomic<size_t> g_next{0};    // omega-lint: allow(det-parallel-reduce)
std::atomic<bool> g_armed{false};  // omega-lint: allow(det-parallel-reduce)

uintptr_t InterruptedPc(void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  return static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<uintptr_t>(uc->uc_mcontext.pc);
#else
#error "sigprof: unsupported architecture"
#endif
}

void OnSigprof(int /*signo*/, siginfo_t* /*info*/, void* context) {
  const size_t slot = g_next.fetch_add(1, std::memory_order_relaxed);
  if (slot < kMaxSamples) {
    g_samples[slot] = InterruptedPc(context);
  }
}

void SetTimer(int hz) {
  itimerval timer{};
  if (hz > 0) {
    const long period_us = 1000000L / hz;
    timer.it_interval = {period_us / 1000000L, period_us % 1000000L};
    timer.it_value = timer.it_interval;
  }
  setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((constructor)) void StartProfiling() {
  struct sigaction action {};
  action.sa_sigaction = OnSigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, nullptr) != 0) {
    std::perror("sigprof: sigaction");
    return;
  }
  SetTimer(kHz);
  g_armed.store(true);
}

// Copies the r-x mappings of /proc/self/maps to `out` as
// "map <start> <end> <file offset> <path>" lines.
void WriteMappings(std::FILE* out) {
  std::FILE* maps = std::fopen("/proc/self/maps", "r");
  if (maps == nullptr) {
    return;
  }
  char line[4096];
  while (std::fgets(line, sizeof(line), maps) != nullptr) {
    unsigned long start = 0;
    unsigned long end = 0;
    unsigned long offset = 0;
    char perms[8] = {};
    int path_at = 0;
    if (std::sscanf(line, "%lx-%lx %7s %lx %*s %*s %n", &start, &end, perms,
                    &offset, &path_at) < 4 ||
        perms[2] != 'x') {
      continue;
    }
    std::string path(line + path_at);
    while (!path.empty() && (path.back() == '\n' || path.back() == ' ')) {
      path.pop_back();
    }
    if (path.empty()) {
      path = "[anon]";
    }
    std::fprintf(out, "map %lx %lx %lx %s\n", start, end, offset, path.c_str());
  }
  std::fclose(maps);
}

__attribute__((destructor)) void StopProfiling() {
  if (!g_armed.exchange(false)) {
    return;
  }
  SetTimer(0);
  signal(SIGPROF, SIG_IGN);
  const size_t taken = g_next.load();
  const size_t kept = std::min(taken, kMaxSamples);
  std::sort(g_samples, g_samples + kept);

  const char* prefix = std::getenv("OMEGA_PROF_OUT");
  const std::string path = std::string(prefix != nullptr && *prefix != '\0'
                                           ? prefix
                                           : "omega_prof") +
                           "." + std::to_string(getpid());
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "sigprof: cannot write %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return;
  }
  // The process's CPU time, not wall-clock time: the base of the sample rate.
  timespec cpu{};
  // omega-lint: allow(det-wallclock)
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
  std::fprintf(out,
               "# omega sigprof v1\nhz %d\ncpu_s %.3f\nsamples %zu\n"
               "dropped %zu\n",
               kHz, static_cast<double>(cpu.tv_sec) + cpu.tv_nsec * 1e-9,
               kept, taken - kept);
  WriteMappings(out);
  for (size_t i = 0; i < kept;) {
    size_t j = i + 1;
    while (j < kept && g_samples[j] == g_samples[i]) {
      ++j;
    }
    std::fprintf(out, "pc %lx %zu\n", static_cast<unsigned long>(g_samples[i]),
                 j - i);
    i = j;
  }
  std::fclose(out);
}

}  // namespace
