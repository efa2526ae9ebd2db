#include "src/workload/trace.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstring>
#include <fstream>
#include <limits>
#include <string_view>
#include <unordered_map>

namespace omega {
namespace {

constexpr char kHeader[] = "omegatrace v1";

// The writer flushes its buffer once less than one record's worth is free;
// the longest record ("job", a 20-digit id, "service", three 20-character
// integers and two 24-character doubles, plus separators) is under 160 bytes.
constexpr size_t kWriteBufferBytes = size_t{64} << 10;
constexpr size_t kMaxRecordBytes = 256;

// The reader pulls the stream in blocks of this size. A line that does not
// fit in the buffer doubles it, so memory is one block plus the longest line.
constexpr size_t kReadBlockBytes = size_t{128} << 10;

// Formats records into a fixed buffer with std::to_chars, which ignores the
// locale. chars_format::general at precision 17 is exactly printf's %.17g,
// the output of the iostream writer's setprecision(17), so the bytes match
// every trace written before.
class RecordWriter {
 public:
  explicit RecordWriter(std::ostream& os) : os_(os), buf_(kWriteBufferBytes) {}

  // Appends one record: text verbatim, integers in decimal, doubles as
  // %.17g. Flushes first when the buffer might not hold it.
  template <typename... Parts>
  void Record(const Parts&... parts) {
    if (buf_.size() - used_ < kMaxRecordBytes) {
      Flush();
    }
    (Put(parts), ...);
  }

  void Flush() {
    os_.write(buf_.data(), static_cast<std::streamsize>(used_));
    used_ = 0;
  }

 private:
  void Put(std::string_view s) {
    std::memcpy(buf_.data() + used_, s.data(), s.size());
    used_ += s.size();
  }
  void Put(const char* s) { Put(std::string_view(s)); }

  template <std::integral T>
  void Put(T v) {
    Advance(std::to_chars(Free(), End(), v).ptr);
  }

  void Put(double v) {
    Advance(std::to_chars(Free(), End(), v, std::chars_format::general, 17)
                .ptr);
  }

  char* Free() { return buf_.data() + used_; }
  char* End() { return buf_.data() + buf_.size(); }
  void Advance(const char* p) {
    used_ = static_cast<size_t>(p - buf_.data());
  }

  std::ostream& os_;
  std::vector<char> buf_;
  size_t used_ = 0;
};

std::string FormatError(int64_t line_no, std::string_view message) {
  std::string out = "trace parse error at line ";
  out += std::to_string(line_no);
  out += ": ";
  out += message;
  return out;
}

// Describes the first field of a parsed job record the simulator cannot
// honour, or returns nullptr when the record is valid. Replaying such a
// record would abort the process (an event scheduled into the past) or drive
// a machine's allocation negative, so it is rejected at the boundary.
const char* InvalidJobField(int64_t submit_us, int64_t num_tasks,
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

// The whitespace of the "C" locale's isspace.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// `tok` is a complete from_chars match that was out of range, so it is
// [-]digits[.digits][(e|E)[+|-]digits] with a nonzero digit, and its
// magnitude is either above the largest double or below half the smallest.
// Returns whether it is the latter: whether the magnitude is below 1.
bool BelowOne(std::string_view tok) {
  size_t i = tok[0] == '-' ? 1 : 0;
  int64_t int_digits = 0;  // significant digits before the point
  int64_t frac_zeros = 0;  // zeros between the point and the first nonzero
  bool point = false;
  bool nonzero = false;
  for (; i < tok.size() && tok[i] != 'e' && tok[i] != 'E'; ++i) {
    if (tok[i] == '.') {
      point = true;
    } else if (!point) {
      nonzero = nonzero || tok[i] != '0';
      int_digits += nonzero ? 1 : 0;
    } else if (!nonzero) {
      nonzero = tok[i] != '0';
      frac_zeros += nonzero ? 0 : 1;
    }
  }
  int64_t exponent = 0;
  if (i < tok.size()) {
    const bool negative = tok[i + 1] == '-';
    i += (tok[i + 1] == '-' || tok[i + 1] == '+') ? 2 : 1;
    // An exponent too long for int64 saturates: the digit counts above are
    // bounded by the line length, far below 2^62.
    if (std::from_chars(tok.data() + i, tok.data() + tok.size(), exponent)
            .ec != std::errc{}) {
      exponent = std::numeric_limits<int64_t>::max() / 2;
    }
    exponent = negative ? -exponent : exponent;
  }
  // The magnitude lies in [10^(m-1), 10^m) for m = the leading digit's
  // place plus the exponent.
  return (int_digits > 0 ? int_digits : -frac_zeros) + exponent <= 0;
}

// One record's whitespace-separated fields, parsed with std::from_chars. A
// field must be consumed whole: "12abc" or "+5" is not an integer here.
class Fields {
 public:
  Fields(const char* begin, const char* end) : p_(begin), end_(end) {}

  // The next token, or an empty view at the end of the line.
  std::string_view Next() {
    while (p_ != end_ && IsSpace(*p_)) {
      ++p_;
    }
    const char* start = p_;
    while (p_ != end_ && !IsSpace(*p_)) {
      ++p_;
    }
    return {start, static_cast<size_t>(p_ - start)};
  }

  template <typename T>
  bool Int(T* v) {
    const std::string_view tok = Next();
    const char* end = tok.data() + tok.size();
    const auto [ptr, ec] = std::from_chars(tok.data(), end, *v);
    return ec == std::errc{} && ptr == end;
  }

  bool Double(double* v) {
    const std::string_view tok = Next();
    const char* end = tok.data() + tok.size();
    const auto [ptr, ec] = std::from_chars(tok.data(), end, *v);
    if (ptr != end) {
      return false;
    }
    if (ec == std::errc::result_out_of_range && BelowOne(tok)) {
      *v = tok[0] == '-' ? -0.0 : 0.0;
      return true;
    }
    return ec == std::errc{} && std::isfinite(*v);
  }

  bool AtEnd() { return Next().empty(); }

 private:
  const char* p_;
  const char* end_;
};

class TraceParser {
 public:
  explicit TraceParser(std::vector<Job>* jobs) : jobs_(jobs) {}

  // Parses one line (without its '\n'); false on a rejection.
  bool Line(const char* begin, const char* end) {
    ++line_no_;
    if (begin == end || *begin == '#') {
      return true;
    }
    Fields f(begin, end);
    const std::string_view kind = f.Next();
    if (kind == "job") {
      return JobRecord(f);
    }
    if (kind == "constraint") {
      return ConstraintRecord(f);
    }
    if (kind == "mapreduce") {
      return MapReduceRecord(f);
    }
    return Fail("unknown record kind '" + std::string(kind) + "'");
  }

  const std::string& error() const { return error_; }

 private:
  bool JobRecord(Fields& f) {
    Job j;
    std::string_view type;
    int64_t submit_us = 0;
    int64_t num_tasks = 0;
    int64_t duration_us = 0;
    if (!(f.Int(&j.id) && !(type = f.Next()).empty() && f.Int(&submit_us) &&
          f.Int(&num_tasks) && f.Int(&duration_us) &&
          f.Double(&j.task_resources.cpus) &&
          f.Double(&j.task_resources.mem_gb) && f.AtEnd())) {
      return Fail("malformed job record");
    }
    if (const char* invalid = InvalidJobField(submit_us, num_tasks,
                                              duration_us, j.task_resources)) {
      return Fail(invalid);
    }
    if (type == "batch") {
      j.type = JobType::kBatch;
    } else if (type == "service") {
      j.type = JobType::kService;
    } else {
      return Fail("unknown job type '" + std::string(type) + "'");
    }
    if (!index_.try_emplace(j.id, jobs_->size()).second) {
      return Fail("duplicate job id");
    }
    // Checked last: a record that also fails a check above reports that
    // one, as the reference reader in tests/reference_trace.h does.
    if (submit_us > kMaxTraceMicros) {
      return Fail("malformed job record: submit time above kMaxTraceMicros");
    }
    if (duration_us > kMaxTraceMicros) {
      return Fail("malformed job record: task duration above kMaxTraceMicros");
    }
    j.num_tasks = static_cast<uint32_t>(num_tasks);
    j.submit_time = SimTime(submit_us);
    j.task_duration = Duration(duration_us);
    j.precedence = DefaultPrecedence(j.type);
    jobs_->push_back(std::move(j));
    return true;
  }

  bool ConstraintRecord(Fields& f) {
    JobId id = 0;
    PlacementConstraint c;
    std::string_view cmp;
    if (!(f.Int(&id) && f.Int(&c.attribute_key) &&
          f.Int(&c.attribute_value) &&
          ((cmp = f.Next()) == "eq" || cmp == "ne") && f.AtEnd())) {
      return Fail("malformed constraint record");
    }
    c.must_equal = cmp == "eq";
    Job* job = Find(id);
    if (job == nullptr) {
      return Fail("constraint for unknown job");
    }
    job->constraints.push_back(c);
    return true;
  }

  bool MapReduceRecord(Fields& f) {
    JobId id = 0;
    MapReduceSpec mr;
    int64_t map_us = 0;
    int64_t reduce_us = 0;
    if (!(f.Int(&id) && f.Int(&mr.num_map_activities) &&
          f.Int(&mr.num_reduce_activities) && f.Int(&map_us) &&
          f.Int(&reduce_us) && f.Int(&mr.requested_workers) && f.AtEnd())) {
      return Fail("malformed mapreduce record");
    }
    Job* job = Find(id);
    if (job == nullptr) {
      return Fail("mapreduce spec for unknown job");
    }
    if (map_us > kMaxTraceMicros || reduce_us > kMaxTraceMicros) {
      return Fail(
          "malformed mapreduce record: activity duration above "
          "kMaxTraceMicros");
    }
    mr.map_activity_duration = Duration(map_us);
    mr.reduce_activity_duration = Duration(reduce_us);
    job->mapreduce = mr;
    return true;
  }

  // Constraint and mapreduce records follow their own job, so the last job
  // parsed is tried before the index.
  Job* Find(JobId id) {
    if (!jobs_->empty() && jobs_->back().id == id) {
      return &jobs_->back();
    }
    const auto it = index_.find(id);
    return it == index_.end() ? nullptr : &(*jobs_)[it->second];
  }

  bool Fail(std::string_view message) {
    error_ = FormatError(line_no_, message);
    return false;
  }

  std::vector<Job>* jobs_;
  std::unordered_map<JobId, size_t> index_;  // lookups only, never iterated
  int64_t line_no_ = 0;
  std::string error_;
};

}  // namespace

void WriteTrace(const std::vector<Job>& jobs, std::ostream& os) {
  std::vector<const Job*> sorted;
  sorted.reserve(jobs.size());
  for (const Job& j : jobs) {
    sorted.push_back(&j);
  }
  std::sort(sorted.begin(), sorted.end(), [](const Job* a, const Job* b) {
    if (a->submit_time != b->submit_time) {
      return a->submit_time < b->submit_time;
    }
    return a->id < b->id;
  });

  RecordWriter w(os);
  w.Record("# ", kHeader, "\n# jobs: ", jobs.size(), "\n");
  for (const Job* j : sorted) {
    w.Record("job ", j->id, " ", JobTypeName(j->type), " ",
             j->submit_time.micros(), " ", j->num_tasks, " ",
             j->task_duration.micros(), " ", j->task_resources.cpus, " ",
             j->task_resources.mem_gb, "\n");
    for (const PlacementConstraint& c : j->constraints) {
      w.Record("constraint ", j->id, " ", c.attribute_key, " ",
               c.attribute_value, c.must_equal ? " eq\n" : " ne\n");
    }
    if (j->mapreduce.has_value()) {
      const MapReduceSpec& mr = *j->mapreduce;
      w.Record("mapreduce ", j->id, " ", mr.num_map_activities, " ",
               mr.num_reduce_activities, " ",
               mr.map_activity_duration.micros(), " ",
               mr.reduce_activity_duration.micros(), " ",
               mr.requested_workers, "\n");
    }
  }
  w.Flush();
}

bool WriteTraceFile(const std::vector<Job>& jobs, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  WriteTrace(jobs, out);
  out.close();
  return !out.fail();
}

bool ReadTrace(std::istream& is, std::vector<Job>* jobs, std::string* error) {
  jobs->clear();
  TraceParser parser(jobs);
  const auto fail = [&] {
    if (error != nullptr) {
      *error = parser.error();
    }
    return false;
  };
  std::streambuf* in = is ? is.rdbuf() : nullptr;
  std::vector<char> buf(kReadBlockBytes);
  size_t carried = 0;  // bytes of an unfinished line at the front of `buf`
  while (in != nullptr) {
    if (carried == buf.size()) {
      buf.resize(2 * buf.size());
    }
    const std::streamsize got =
        in->sgetn(buf.data() + carried,
                  static_cast<std::streamsize>(buf.size() - carried));
    if (got <= 0) {
      break;
    }
    const char* line = buf.data();
    const char* end = line + carried + got;
    const char* scan = line + carried;  // the carried bytes hold no '\n'
    while (const char* eol = static_cast<const char*>(
               std::memchr(scan, '\n', static_cast<size_t>(end - scan)))) {
      if (!parser.Line(line, eol)) {
        return fail();
      }
      line = scan = eol + 1;
    }
    carried = static_cast<size_t>(end - line);
    std::memmove(buf.data(), line, carried);
  }
  if (carried > 0 && !parser.Line(buf.data(), buf.data() + carried)) {
    return fail();
  }
  return true;
}

bool ReadTraceFile(const std::string& path, std::vector<Job>* jobs,
                   std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot open trace file: " + path;
    }
    return false;
  }
  return ReadTrace(in, jobs, error);
}

}  // namespace omega
