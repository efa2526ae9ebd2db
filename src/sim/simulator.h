// Discrete-event simulator core.
//
// The simulator owns the virtual clock and the event queue. All architecture
// models (monolithic, two-level, shared-state) are built as event handlers on
// top of it. Scheduler "parallelism" is modeled logically: each scheduler has
// its own busy interval, so concurrent decision-making costs no wall-clock
// serialization yet produces exactly the interleavings the paper studies.
#pragma once

#include <functional>

#include "src/common/sim_time.h"
#include "src/sim/event_queue.h"

namespace omega {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` to run at absolute time `when` (>= Now()) on the current
  // ambient lane (see SetLane).
  EventId ScheduleAt(SimTime when, std::function<void()> fn);

  // Schedules `fn` to run `delay` after Now().
  EventId ScheduleAfter(Duration delay, std::function<void()> fn);

  // Cancels a pending event; no-op if it already fired.
  bool Cancel(EventId id) { return queue_.Cancel(id); }

  // Sets the ambient lane tagged onto subsequently scheduled events. At equal
  // times, lower lanes fire first; within a lane, insertion order. While an
  // event callback runs, the ambient lane is that event's lane (so an event's
  // follow-ups inherit its stream), restored when RunUntil returns. Lane 0 is
  // the default; single-stream users never call this. The federation's shared
  // queue is the one multi-lane user: master events on lane 0 run before any
  // cell's events at the same instant, and cells run in index order (lane
  // i + 1); federation_test's pinned digests pin that order.
  void SetLane(uint32_t lane) { lane_ = lane; }
  uint32_t lane() const { return lane_; }

  // Runs events until the queue is empty or the clock passes `end`. Events at
  // exactly `end` are executed. Returns the number of events processed.
  int64_t RunUntil(SimTime end);

  // Runs until no events remain.
  int64_t Run() { return RunUntil(SimTime::Max()); }

  size_t PendingEvents() const { return queue_.PendingCount(); }

 private:
  SimTime now_ = SimTime::Zero();
  uint32_t lane_ = 0;
  EventQueue queue_;
};

// Sets the simulator's ambient lane for the current scope and restores the
// previous lane on exit. The shared-queue federation wraps each scheduling
// site with the lane of the logical stream the event belongs to.
class ScopedLane {
 public:
  ScopedLane(Simulator& sim, uint32_t lane) : sim_(sim), prev_(sim.lane()) {
    sim_.SetLane(lane);
  }
  ~ScopedLane() { sim_.SetLane(prev_); }
  ScopedLane(const ScopedLane&) = delete;
  ScopedLane& operator=(const ScopedLane&) = delete;

 private:
  Simulator& sim_;
  uint32_t prev_;
};

}  // namespace omega

