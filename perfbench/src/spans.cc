#include "spans.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <stdexcept>

namespace perfbench {

namespace {

void WriteJsonString(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
  os << '"';
}

}  // namespace

int32_t SpanRecorder::Begin(const std::string& name) {
  const auto index = static_cast<int32_t>(spans_.size());
  Span span;
  span.name = name;
  span.start_ns = NowNs();
  span.parent = open_.empty() ? -1 : open_.back();
  span.trial = trial_;
  span.workload = workload_;
  spans_.push_back(std::move(span));
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int32_t index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("SpanRecorder::End: span is not the innermost open one");
  }
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  open_.pop_back();
}

void SpanRecorder::Leaf(const char* name, int64_t start_ns, int64_t end_ns) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  const std::pair<int32_t, std::string> key{parent, name};
  aggregates_[key] += end_ns - start_ns;
  int64_t& kept = kept_[{trial_, name}];
  if (kept < kKeptPerTrial) {
    ++kept;
    spans_.push_back(Span{name, start_ns, end_ns, parent, trial_, workload_});
  }
}

int64_t SpanRecorder::SelfNs(int32_t index) const {
  const Span& span = spans_[static_cast<size_t>(index)];
  int64_t children = 0;
  for (const auto& [key, ns] : aggregates_) {
    if (key.first == index) {
      children += ns;
    }
  }
  for (const Span& s : spans_) {
    // Aggregated leaves are already counted above; kept copies of them are
    // skipped here so nothing is subtracted twice.
    if (s.parent == index && !aggregates_.contains({index, s.name})) {
      children += s.end_ns - s.start_ns;
    }
  }
  return span.end_ns - span.start_ns - children;
}

std::map<std::string, int64_t> SpanRecorder::SelfNsByName() const {
  std::map<std::string, int64_t> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0 && aggregates_.contains({s.parent, s.name})) {
      continue;  // a kept copy of an aggregated leaf
    }
    out[s.name] += SelfNs(static_cast<int32_t>(i));
  }
  for (const auto& [key, ns] : aggregates_) {
    out[key.second] += ns;  // leaves have no children
  }
  return out;
}

void SpanRecorder::ExportChromeTrace(std::ostream& os,
                                     const std::string& metadata) const {
  int64_t origin = 0;
  if (!spans_.empty()) {
    origin = std::min_element(spans_.begin(), spans_.end(),
                              [](const Span& a, const Span& b) {
                                return a.start_ns < b.start_ns;
                              })
                 ->start_ns;
  }
  os << std::fixed << std::setprecision(3);  // microseconds, ns resolution
  os << "{\"displayTimeUnit\": \"ms\", \"metadata\": " << metadata
     << ", \"traceEvents\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"ph\": \"X\", \"pid\": 1, \"tid\": "
       << s.trial << ", \"name\": ";
    WriteJsonString(os, s.name);
    os << ", \"ts\": " << static_cast<double>(s.start_ns - origin) / 1e3
       << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
       << ", \"trial\": " << s.trial << ", \"workload\": ";
    WriteJsonString(os, s.workload);
    os << "}}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
