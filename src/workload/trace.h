// Workload trace serialization (high-fidelity simulator, §5 / Table 2).
//
// The high-fidelity simulator "replays historic workload traces". We replace
// the proprietary Google traces with traces materialized from the synthetic
// generator (see DESIGN.md §2), but the trace format, writer, reader, and
// replay path are exactly what a real trace would use: one record per job with
// submission time, shape, resources, constraints, and MapReduce spec.
//
// The on-disk format is a line-oriented text format ("omegatrace v1"):
//   # comment lines
//   job <id> <type> <submit_us> <num_tasks> <duration_us> <cpus> <mem_gb>
//   constraint <job_id> <key> <value> <eq|ne>
//   mapreduce <job_id> <maps> <reduces> <map_dur_us> <reduce_dur_us> <workers>
//
// Grammar the reader accepts (independent of the C and C++ locales):
//   - Lines end at '\n'; the last line may lack one. A line that is empty or
//     whose first byte is '#' is skipped; every other line is one record.
//   - Tokens are separated by runs of ' ', '\t', '\v', '\f' or '\r', so a
//     CRLF file reads like an LF file. Whitespace before the first and after
//     the last token is ignored. A record has exactly the fields above.
//   - Integers are an optional '-' and decimal digits, and must fit their
//     field: <id> and <job_id> are unsigned 64-bit (no sign at all); <key>,
//     <value> and <workers> are signed 32-bit; the rest are signed 64-bit.
//   - <cpus> and <mem_gb> are an optional '-', digits with an optional '.'
//     (at least one digit), and an optional exponent ('e' or 'E', an
//     optional sign, digits), rounded to the nearest double. A value beyond
//     the double range is rejected; one that rounds to zero reads as a zero
//     of its sign. There is no '+', "inf", "nan" or hex form.
//   - <type> is "batch" or "service". A constraint or mapreduce record names
//     a job defined on an earlier line; a repeated mapreduce record replaces
//     the earlier one.
//
// Rejections, in the order one record is checked. The message follows
// "trace parse error at line <n>: ":
//   unknown record kind '<kind>'
//   malformed <job|constraint|mapreduce> record   a field missing, extra or
//                                                 not in its syntax above
//   negative submit time
//   num_tasks must be at least 1 (and fit in 32 bits)
//   negative task duration
//   cpus must be finite and non-negative
//   mem_gb must be finite and non-negative
//   unknown job type '<type>'
//   duplicate job id
//   malformed job record: submit time above kMaxTraceMicros
//   malformed job record: task duration above kMaxTraceMicros
//   constraint for unknown job
//   mapreduce spec for unknown job
//   malformed mapreduce record: activity duration above kMaxTraceMicros
//
// The writer formats integers in decimal and doubles as printf's %.17g (17
// significant digits, enough to round-trip every double), so a trace it
// writes reads back to bit-identical jobs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/workload/job.h"

namespace omega {

// Largest submit time, task duration or MapReduce activity duration a trace
// may carry: 2^60 us, about 36,500 years. A submit time plus a task duration
// then stays at or below 2^61, which leaves over 2^62 us (146,000 years) of
// scheduler decision time before SimTime's int64 overflows.
inline constexpr int64_t kMaxTraceMicros = int64_t{1} << 60;

// Writes `jobs` (in any order; they are sorted by submit time first) to `os`.
void WriteTrace(const std::vector<Job>& jobs, std::ostream& os);

// Convenience: writes to a file path. Returns false on I/O failure.
bool WriteTraceFile(const std::vector<Job>& jobs, const std::string& path);

// Parses a trace, streaming `is` through a fixed-size block buffer (the
// whole input is never held in memory). On input outside the grammar above
// returns false and leaves `jobs` unspecified; `error` (if non-null)
// receives the rejection with its line number.
bool ReadTrace(std::istream& is, std::vector<Job>* jobs, std::string* error);

// Convenience: reads from a file path.
bool ReadTraceFile(const std::string& path, std::vector<Job>* jobs,
                   std::string* error);

}  // namespace omega
