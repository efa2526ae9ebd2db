// Whole-simulation fingerprints for the determinism tests.
//
// A fingerprint captures everything a run can observably produce: every
// machine's allocation (exact bits) and sequence number, the cell totals,
// the harness counters, and the full retained trace stream plus per-type
// trace totals. Two runs that must be bit-identical are compared field by
// field with ExpectIdentical; a run whose outcome is pinned across commits
// is reduced to one FNV-1a digest with FingerprintDigest.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/cluster/cell_state.h"
#include "src/scheduler/cluster_simulation.h"
#include "src/trace/trace_recorder.h"

namespace omega {

struct SimFingerprint {
  std::vector<uint64_t> seqnums;
  std::vector<double> allocated;  // cpus, mem per machine, exact
  double total_cpus = 0.0;
  double total_mem = 0.0;
  int64_t submitted = 0;
  int64_t preempted = 0;
  int64_t failures = 0;
  int64_t killed = 0;
  std::vector<TraceEvent> events;
  std::vector<int64_t> event_counts;
};

inline SimFingerprint Fingerprint(const ClusterSimulation& sim,
                                  const TraceRecorder& trace) {
  SimFingerprint fp;
  const CellState& cell = sim.cell();
  for (MachineId m = 0; m < cell.NumMachines(); ++m) {
    fp.seqnums.push_back(cell.machine(m).seqnum);
    fp.allocated.push_back(cell.machine(m).allocated.cpus);
    fp.allocated.push_back(cell.machine(m).allocated.mem_gb);
  }
  fp.total_cpus = cell.TotalAllocated().cpus;
  fp.total_mem = cell.TotalAllocated().mem_gb;
  fp.submitted = sim.JobsSubmittedTotal();
  fp.preempted = sim.TasksPreempted();
  fp.failures = sim.MachineFailures();
  fp.killed = sim.TasksKilledByFailures();
  trace.ForEachRetained(
      [&fp](const TraceEvent& e) { fp.events.push_back(e); });
  for (size_t t = 0; t < kNumTraceEventTypes; ++t) {
    fp.event_counts.push_back(trace.CountOf(static_cast<TraceEventType>(t)));
    fp.event_counts.push_back(trace.SumArg0(static_cast<TraceEventType>(t)));
  }
  return fp;
}

// Asserts that `got` and `want` are bitwise identical; `label` names the
// run in failure messages.
inline void ExpectIdentical(const SimFingerprint& got,
                            const SimFingerprint& want,
                            std::string_view label = {}) {
  EXPECT_EQ(got.seqnums, want.seqnums) << label;
  EXPECT_EQ(got.allocated, want.allocated) << label;  // bitwise via ==
  EXPECT_EQ(got.total_cpus, want.total_cpus) << label;
  EXPECT_EQ(got.total_mem, want.total_mem) << label;
  EXPECT_EQ(got.submitted, want.submitted) << label;
  EXPECT_EQ(got.preempted, want.preempted) << label;
  EXPECT_EQ(got.failures, want.failures) << label;
  EXPECT_EQ(got.killed, want.killed) << label;
  EXPECT_EQ(got.event_counts, want.event_counts) << label;
  ASSERT_EQ(got.events.size(), want.events.size()) << label;
  for (size_t i = 0; i < got.events.size(); ++i) {
    const TraceEvent& a = got.events[i];
    const TraceEvent& b = want.events[i];
    ASSERT_TRUE(a.time_us == b.time_us && a.type == b.type &&
                a.track == b.track && a.job == b.job &&
                a.machine == b.machine && a.seqnum == b.seqnum &&
                a.arg0 == b.arg0 && a.arg1 == b.arg1)
        << label << ": trace streams diverge at event " << i;
  }
}

// FNV-1a (64-bit): integers are fed little-end first, doubles by their bit
// patterns, strings byte by byte.
struct Fnv1a {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Byte(uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  void U64(uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      Byte(static_cast<uint8_t>(v >> (8 * byte)));
    }
  }
  void Double(double v) { U64(std::bit_cast<uint64_t>(v)); }
  void Bytes(std::string_view bytes) {
    for (const char c : bytes) {
      Byte(static_cast<uint8_t>(c));
    }
  }
};

// FNV-1a over every fingerprint field, each widened to 64 bits.
inline uint64_t FingerprintDigest(const SimFingerprint& fp) {
  Fnv1a fnv;
  for (const uint64_t s : fp.seqnums) {
    fnv.U64(s);
  }
  for (const double a : fp.allocated) {
    fnv.Double(a);
  }
  fnv.Double(fp.total_cpus);
  fnv.Double(fp.total_mem);
  for (const int64_t v :
       {fp.submitted, fp.preempted, fp.failures, fp.killed}) {
    fnv.U64(static_cast<uint64_t>(v));
  }
  for (const TraceEvent& e : fp.events) {
    fnv.U64(static_cast<uint64_t>(e.time_us));
    fnv.U64(static_cast<uint64_t>(e.type));
    fnv.U64(e.track);
    fnv.U64(e.job);
    fnv.U64(e.machine);
    fnv.U64(e.seqnum);
    fnv.U64(static_cast<uint64_t>(e.arg0));
    fnv.U64(static_cast<uint64_t>(e.arg1));
  }
  for (const int64_t c : fp.event_counts) {
    fnv.U64(static_cast<uint64_t>(c));
  }
  return fnv.h;
}

}  // namespace omega
