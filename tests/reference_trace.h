// Reference trace reader, for differential tests.
//
// ReferenceReadTrace is the iostream reader the streaming codec in
// src/workload/trace.cc replaced, kept unchanged: std::getline per line, a
// fresh std::istringstream per record, and operator>> per field. Its
// acceptance is iostreams' prefix parsing, so it ignores trailing tokens,
// reads "12abc" as 12 followed by "abc", accepts a leading '+', and wraps a
// negative job id modulo 2^64. The streaming reader must agree with it on
// every input except those documented tightenings (see trace_diff_test.cc).
#pragma once

#include <cmath>
#include <istream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/workload/job.h"

namespace omega {
namespace reference_trace {

inline std::string FormatError(int line_no, const std::string& message) {
  std::ostringstream os;
  os << "trace parse error at line " << line_no << ": " << message;
  return os.str();
}

inline const char* InvalidJobField(int64_t submit_us, int64_t num_tasks,
                                   int64_t duration_us, const Resources& r) {
  if (submit_us < 0) {
    return "negative submit time";
  }
  if (num_tasks < 1 || num_tasks > std::numeric_limits<uint32_t>::max()) {
    return "num_tasks must be at least 1 (and fit in 32 bits)";
  }
  if (duration_us < 0) {
    return "negative task duration";
  }
  if (!std::isfinite(r.cpus) || r.cpus < 0.0) {
    return "cpus must be finite and non-negative";
  }
  if (!std::isfinite(r.mem_gb) || r.mem_gb < 0.0) {
    return "mem_gb must be finite and non-negative";
  }
  return nullptr;
}

}  // namespace reference_trace

inline bool ReferenceReadTrace(std::istream& is, std::vector<Job>* jobs,
                               std::string* error) {
  using reference_trace::FormatError;
  using reference_trace::InvalidJobField;
  jobs->clear();
  std::map<JobId, size_t> index;
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "job") {
      Job j;
      std::string type;
      int64_t submit_us = 0;
      int64_t num_tasks = 0;
      int64_t duration_us = 0;
      ls >> j.id >> type >> submit_us >> num_tasks >> duration_us >>
          j.task_resources.cpus >> j.task_resources.mem_gb;
      if (!ls) {
        if (error != nullptr) {
          *error = FormatError(line_no, "malformed job record");
        }
        return false;
      }
      if (const char* invalid = InvalidJobField(
              submit_us, num_tasks, duration_us, j.task_resources)) {
        if (error != nullptr) {
          *error = FormatError(line_no, invalid);
        }
        return false;
      }
      j.num_tasks = static_cast<uint32_t>(num_tasks);
      if (type == "batch") {
        j.type = JobType::kBatch;
      } else if (type == "service") {
        j.type = JobType::kService;
      } else {
        if (error != nullptr) {
          *error = FormatError(line_no, "unknown job type '" + type + "'");
        }
        return false;
      }
      j.submit_time = SimTime(submit_us);
      j.task_duration = Duration(duration_us);
      j.precedence = DefaultPrecedence(j.type);
      if (index.contains(j.id)) {
        if (error != nullptr) {
          *error = FormatError(line_no, "duplicate job id");
        }
        return false;
      }
      index[j.id] = jobs->size();
      jobs->push_back(std::move(j));
    } else if (kind == "constraint") {
      JobId id = 0;
      PlacementConstraint c;
      std::string cmp;
      ls >> id >> c.attribute_key >> c.attribute_value >> cmp;
      if (!ls || (cmp != "eq" && cmp != "ne")) {
        if (error != nullptr) {
          *error = FormatError(line_no, "malformed constraint record");
        }
        return false;
      }
      c.must_equal = cmp == "eq";
      auto it = index.find(id);
      if (it == index.end()) {
        if (error != nullptr) {
          *error = FormatError(line_no, "constraint for unknown job");
        }
        return false;
      }
      (*jobs)[it->second].constraints.push_back(c);
    } else if (kind == "mapreduce") {
      JobId id = 0;
      MapReduceSpec mr;
      int64_t map_us = 0;
      int64_t reduce_us = 0;
      ls >> id >> mr.num_map_activities >> mr.num_reduce_activities >> map_us >>
          reduce_us >> mr.requested_workers;
      if (!ls) {
        if (error != nullptr) {
          *error = FormatError(line_no, "malformed mapreduce record");
        }
        return false;
      }
      mr.map_activity_duration = Duration(map_us);
      mr.reduce_activity_duration = Duration(reduce_us);
      auto it = index.find(id);
      if (it == index.end()) {
        if (error != nullptr) {
          *error = FormatError(line_no, "mapreduce spec for unknown job");
        }
        return false;
      }
      (*jobs)[it->second].mapreduce = mr;
    } else {
      if (error != nullptr) {
        *error = FormatError(line_no, "unknown record kind '" + kind + "'");
      }
      return false;
    }
  }
  return true;
}

}  // namespace omega
