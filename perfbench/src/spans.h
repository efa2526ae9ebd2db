// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark's own code around calls into each
// layer's public functions (workload generation, trace I/O, simulation
// construction, initial fill, the event loop, task placement, result
// extraction, teardown). Coarse spans are kept individually. High-frequency
// spans (one per placement call) are summed per name and parent, and only the
// first few per trial are kept individually, so the Chrome trace stays small.
// Everything is written out once, at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the recorder's span list, -1 = root
  int32_t trial = 0;
  std::string workload;
};

class SpanRecorder {
 public:
  // Individually kept spans per aggregated name and trial.
  static constexpr int64_t kKeptPerTrial = 256;

  void SetContext(std::string workload, int32_t trial) {
    workload_ = std::move(workload);
    trial_ = trial;
  }

  // Opens a span under the innermost open span and returns its index.
  int32_t Begin(const std::string& name);
  // Closes the span opened by Begin (must be the innermost open span).
  void End(int32_t index);

  // Records one already-timed high-frequency span under the innermost open
  // span: always aggregated, kept individually only for the first
  // kKeptPerTrial of its name in the current trial.
  void Leaf(const char* name, int64_t start_ns, int64_t end_ns);

  // Self time summed per span name over every span, for the per-layer table.
  std::map<std::string, int64_t> SelfNsByName() const;

  // Chrome trace-event JSON ("X" complete events, microseconds since the
  // first span). `metadata` is emitted verbatim as the top-level "metadata"
  // object and must be a JSON object.
  void ExportChromeTrace(std::ostream& os, const std::string& metadata) const;

 private:
  // Duration of span `index` minus the time its direct children (kept and
  // aggregated) cover.
  int64_t SelfNs(int32_t index) const;

  std::string workload_;
  int32_t trial_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  // Total ns of aggregated leaves, keyed by (parent span index, name).
  std::map<std::pair<int32_t, std::string>, int64_t> aggregates_;
  // Individually kept leaf spans this trial, per name.
  std::map<std::pair<int32_t, std::string>, int64_t> kept_;
};

// Opens a span for the lifetime of the scope; a null recorder records
// nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int32_t index_;
};

}  // namespace perfbench
