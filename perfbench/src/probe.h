// Host-speed probe: measures how fast memory-bound code runs on this host
// right now, while a trial runs, so trial times can be scaled to a fixed
// reference speed.
//
// On a shared host, co-tenants on the same physical core slow the simulator
// by tens of percent, in phases lasting from seconds to minutes. While
// started, a 20 ms interval timer interrupts the benchmark thread and, in the
// signal handler, chases a fixed 64 KiB random pointer cycle twice: one pass
// to load it into the core's private cache, one timed pass. The timed pass's
// latency per step tracks the simulator's slowdown, and because the handler
// warms its own cycle first, the reading does not depend on what the
// simulator left in the cache. The handler touches only the probe's own
// memory, so it cannot perturb the simulation; it costs under 1% of the
// thread's time.
#pragma once

#include <cstdint>

namespace perfbench {

class HostSpeedProbe {
 public:
  // Chase time per step, in ns, that defines the reference speed. Only
  // ratios between runs matter; 4 ns keeps scaled seconds near raw seconds
  // on an uncontended 2 GHz Xeon. Scaled times are seconds at the reference
  // speed: raw seconds times kReferenceNsPerStep / (measured ns per step).
  static constexpr double kReferenceNsPerStep = 4.0;

  struct Reading {
    int64_t steps = 0;
    int64_t ns = 0;
  };

  // Builds the cycle and arms the timer. Returns false if the timer or the
  // signal handler cannot be installed.
  static bool Start();
  // Disarms the timer and restores the previous handler.
  static void Stop();

  // Cumulative steps chased and ns spent since Start.
  static Reading Now();

  // ns per step between two readings; 0 if no probe ran in between.
  static double NsPerStep(const Reading& from, const Reading& to);
};

}  // namespace perfbench
