// Differential test of the streaming trace reader (src/workload/trace.cc)
// against the iostream reader it replaced (tests/reference_trace.h), over
// seeded mutations of generated traces.
//
// For every input exactly one of these holds:
//   1. both readers accept, and the jobs are bit-identical;
//   2. both reject, with the same message and line number;
//   3. the streaming reader rejects line n with "malformed <kind> record",
//      line n is in a tightening class below, and the reference accepts the
//      input or rejects it at line n or later (having read line n its own,
//      looser way, it reaches a later check or a later line).
// The streaming reader never accepts an input the reference rejects.
//
// Tightening classes: the iostream reader parses each field as a prefix of
// what is left of the line, so it accepts
//   - trailing tokens after the last field;
//   - a partly numeric field ("12abc", "1.5.5", "0x1p3"), read as its
//     numeric prefix, the rest shifting into the next field;
//   - a leading '+';
//   - a negative job id, wrapped modulo 2^64 ("-1" is 2^64 - 1);
//   - a submit time, task duration or MapReduce activity duration above
//     kMaxTraceMicros, which the streaming reader rejects at the boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/workload/cluster_config.h"
#include "src/workload/generator.h"
#include "src/workload/trace.h"
#include "tests/bitwise_eq.h"
#include "tests/reference_trace.h"

namespace omega {
namespace {

// A stream buffer over a string whose sgetn hands out at most `chunk` bytes
// per call, so the reader's block boundaries fall inside records.
class TrickleBuf : public std::streambuf {
 public:
  TrickleBuf(std::string& data, std::streamsize chunk) : chunk_(chunk) {
    setg(data.data(), data.data(), data.data() + data.size());
  }

 protected:
  std::streamsize xsgetn(char* s, std::streamsize n) override {
    return std::streambuf::xsgetn(s, std::min(n, chunk_));
  }

 private:
  std::streamsize chunk_;
};

struct Parse {
  bool ok = false;
  std::string error;
  std::vector<Job> jobs;
};

Parse ParseNew(std::istream& is) {
  Parse p;
  p.ok = ReadTrace(is, &p.jobs, &p.error);
  return p;
}

Parse ParseReference(const std::string& text) {
  std::istringstream is(text);
  Parse p;
  p.ok = ReferenceReadTrace(is, &p.jobs, &p.error);
  return p;
}

::testing::AssertionResult SameJobs(const std::vector<Job>& a,
                                    const std::vector<Job>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << a.size() << " vs " << b.size() << " jobs";
  }
  for (size_t i = 0; i < a.size(); ++i) {
    const Job& x = a[i];
    const Job& y = b[i];
    if (x.id != y.id || x.type != y.type || x.submit_time != y.submit_time ||
        x.num_tasks != y.num_tasks || x.task_duration != y.task_duration ||
        !SameBits(x.task_resources.cpus, y.task_resources.cpus) ||
        !SameBits(x.task_resources.mem_gb, y.task_resources.mem_gb) ||
        x.precedence != y.precedence || x.constraints != y.constraints ||
        x.mapreduce != y.mapreduce) {
      return ::testing::AssertionFailure() << "job " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

// --- The tightening classifier: reads one line's text, not either reader.

enum Tightening : unsigned {
  kTrailingTokens = 1,
  kPartlyNumeric = 2,
  kLeadingPlus = 4,
  kNegativeJobId = 8,
  kTimePastBound = 16,
};
constexpr unsigned kAllTightenings = 31;

bool Space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool Digit(char c) { return c >= '0' && c <= '9'; }

std::vector<std::string> Tokens(const std::string& line) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && Space(line[i])) {
      ++i;
    }
    const size_t start = i;
    while (i < line.size() && !Space(line[i])) {
      ++i;
    }
    if (i > start) {
      out.push_back(line.substr(start, i - start));
    }
  }
  return out;
}

size_t Digits(const std::string& s, size_t i) {
  while (i < s.size() && Digit(s[i])) {
    ++i;
  }
  return i;
}

// '-'? digit+
bool StrictInt(const std::string& s) {
  const size_t start = !s.empty() && s[0] == '-' ? 1 : 0;
  const size_t end = Digits(s, start);
  return end > start && end == s.size();
}

// '-'? (digit+ ('.' digit*)? | '.' digit+) ([eE] [+-]? digit+)?
bool StrictDouble(const std::string& s) {
  size_t i = !s.empty() && s[0] == '-' ? 1 : 0;
  const size_t int_end = Digits(s, i);
  size_t mantissa_digits = int_end - i;
  i = int_end;
  if (i < s.size() && s[i] == '.') {
    const size_t frac_end = Digits(s, i + 1);
    mantissa_digits += frac_end - i - 1;
    i = frac_end;
  }
  if (mantissa_digits == 0) {
    return false;
  }
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) {
      ++i;
    }
    const size_t exp_end = Digits(s, i);
    if (exp_end == i) {
      return false;
    }
    i = exp_end;
  }
  return i == s.size();
}

// Starts like a number: an optional sign, then a digit or '.' and a digit.
bool NumberLike(const std::string& s) {
  const size_t i = !s.empty() && (s[0] == '-' || s[0] == '+') ? 1 : 0;
  return (i < s.size() && Digit(s[i])) ||
         (i + 1 < s.size() && s[i] == '.' && Digit(s[i + 1]));
}

// Field types per record kind: 'u' job id, 's' word, 'i' integer, 't' time
// (an integer bounded by kMaxTraceMicros), 'd' double.
const char* FieldSpec(const std::string& kind) {
  if (kind == "job") {
    return "ustitdd";
  }
  if (kind == "constraint") {
    return "uiis";
  }
  if (kind == "mapreduce") {
    return "uiitti";
  }
  return "";
}

unsigned Tightenings(const std::string& line) {
  const std::vector<std::string> tokens = Tokens(line);
  if (tokens.empty()) {
    return 0;
  }
  const std::string spec = FieldSpec(tokens[0]);
  unsigned classes = 0;
  if (tokens.size() - 1 > spec.size()) {
    classes |= kTrailingTokens;
  }
  for (size_t k = 0; k < spec.size() && k + 1 < tokens.size(); ++k) {
    const std::string& tok = tokens[k + 1];
    const char type = spec[k];
    if (type == 's') {
      continue;
    }
    if (tok[0] == '+') {
      classes |= kLeadingPlus;
    }
    if (type == 'u' && tok[0] == '-') {
      classes |= kNegativeJobId;
    }
    // A leading '+' is its own class; the rest of the token is judged alone.
    const std::string body = tok[0] == '+' ? tok.substr(1) : tok;
    const bool strict = type == 'd' ? StrictDouble(body) : StrictInt(body);
    if (NumberLike(body) && !strict) {
      classes |= kPartlyNumeric;
    }
    if (type == 't' && strict && body == tok) {
      errno = 0;
      const long long v = std::strtoll(tok.c_str(), nullptr, 10);
      if (errno == 0 && v > kMaxTraceMicros) {
        classes |= kTimePastBound;
      }
    }
  }
  return classes;
}

// Line `n` (1-based) of `text`, as std::getline splits it.
std::string LineOf(const std::string& text, int64_t n) {
  std::istringstream is(text);
  std::string line;
  for (int64_t i = 0; i < n && std::getline(is, line); ++i) {
  }
  return line;
}

// "trace parse error at line <n>: <message>" -> n, or -1.
int64_t ErrorLine(const std::string& error) {
  const std::string prefix = "trace parse error at line ";
  if (error.compare(0, prefix.size(), prefix) != 0) {
    return -1;
  }
  return std::strtoll(error.c_str() + prefix.size(), nullptr, 10);
}

std::string ErrorMessage(const std::string& error) {
  const size_t colon = error.find(": ");
  return colon == std::string::npos ? "" : error.substr(colon + 2);
}

enum Outcome { kBothAccept, kBothReject, kTightened, kNumOutcomes };

struct Tally {
  int outcomes[kNumOutcomes] = {};
  unsigned classes_seen = 0;
};

// Checks `text` against the three allowed outcomes; also reads it through a
// TrickleBuf of `chunk` bytes and requires the same result as a whole read.
void Check(std::string text, std::streamsize chunk, Tally* tally) {
  SCOPED_TRACE("input (first 4 KiB):\n" + text.substr(0, 4096));
  const Parse ref = ParseReference(text);
  std::istringstream whole(text);
  const Parse got = ParseNew(whole);

  TrickleBuf trickle_buf(text, chunk);
  std::istream trickle(&trickle_buf);
  const Parse split = ParseNew(trickle);
  EXPECT_EQ(split.ok, got.ok) << "chunk " << chunk;
  EXPECT_EQ(split.error, got.error) << "chunk " << chunk;
  if (got.ok) {
    EXPECT_TRUE(SameJobs(split.jobs, got.jobs)) << "chunk " << chunk;
  }

  if (got.ok) {
    ASSERT_TRUE(ref.ok) << "the streaming reader accepts an input the "
                           "reference rejects: "
                        << ref.error;
    EXPECT_TRUE(SameJobs(got.jobs, ref.jobs));
    ++tally->outcomes[kBothAccept];
    return;
  }
  if (!ref.ok && ref.error == got.error) {
    ++tally->outcomes[kBothReject];
    return;
  }
  const int64_t n = ErrorLine(got.error);
  const std::string line = LineOf(text, n);
  const std::vector<std::string> tokens = Tokens(line);
  ASSERT_FALSE(tokens.empty()) << got.error;
  const std::string malformed = "malformed " + tokens[0] + " record";
  EXPECT_EQ(ErrorMessage(got.error).compare(0, malformed.size(), malformed),
            0)
      << "new: " << got.error << "\nreference: "
      << (ref.ok ? "accepts" : ref.error);
  const unsigned classes = Tightenings(line);
  EXPECT_NE(classes, 0u) << "rejected line is in no tightening class: "
                         << got.error << "\nreference: "
                         << (ref.ok ? "accepts" : ref.error);
  if (!ref.ok) {
    EXPECT_GE(ErrorLine(ref.error), n) << ref.error;
  }
  tally->classes_seen |= classes;
  ++tally->outcomes[kTightened];
}

// --- Mutations.

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    lines.push_back(line);
  }
  return lines;
}

std::vector<std::string> SplitSpaces(const std::string& line) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == ' ') {
      out.push_back(line.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string JoinSpaces(const std::vector<std::string>& tokens) {
  std::string out;
  for (size_t i = 0; i < tokens.size(); ++i) {
    out += (i == 0 ? "" : " ") + tokens[i];
  }
  return out;
}

const std::vector<std::string>& SpecialValues() {
  static const std::vector<std::string> values = {
      "0", "-0", "+0", "1", "-1", "+7", "007",
      // 20-digit integers and the edges of each field's range.
      "18446744073709551615", "18446744073709551616", "99999999999999999999",
      "-18446744073709551615", "9223372036854775807", "9223372036854775808",
      "-9223372036854775808", "4294967295", "4294967296", "2147483647",
      "2147483648", "-2147483649",
      // kMaxTraceMicros and one past it.
      "1152921504606846976", "1152921504606846977",
      // Doubles beyond, at and below the range; non-finite and hex forms.
      "1e400", "-1e400", "1e-400", "-1e-400", "1e-99999999999999999999",
      "0e99999999999999999999", "5e-324", "2e-324", "1.7976931348623157e308",
      "1.8e308", "inf", "-inf", "nan", "-nan", "infinity", "0x1p3", "0x10",
      "1e", "1e+", "1E5", "1e+05", ".5", "5.", "-.5", ".", "-", "+",
      // Partly numeric.
      "12abc", "1.5.5", "1,5", "3-4"};
  return values;
}

// One random edit to one record line (or to the line list).
void Mutate(Rng& rng, std::vector<std::string>* lines) {
  std::vector<size_t> records;
  for (size_t i = 0; i < lines->size(); ++i) {
    if (!(*lines)[i].empty() && (*lines)[i][0] != '#') {
      records.push_back(i);
    }
  }
  if (records.empty()) {
    lines->push_back("job 1 batch 0 1 1 1 1");
    return;
  }
  const size_t at = records[rng.NextBounded(records.size())];
  std::string& line = (*lines)[at];
  std::vector<std::string> tokens = SplitSpaces(line);
  const auto pick = [&] { return rng.NextBounded(tokens.size()); };
  const auto pick_field = [&] {
    return tokens.size() < 2 ? 0 : 1 + rng.NextBounded(tokens.size() - 1);
  };
  switch (rng.NextBounded(12)) {
    case 0:  // delete a token
      tokens.erase(tokens.begin() + static_cast<ptrdiff_t>(pick()));
      break;
    case 1: {  // duplicate a token
      const size_t k = pick();
      tokens.insert(tokens.begin() + static_cast<ptrdiff_t>(k), tokens[k]);
      break;
    }
    case 2:  // swap two tokens
      std::swap(tokens[pick()], tokens[pick()]);
      break;
    case 3: {  // change a digit
      std::vector<size_t> digits;
      for (size_t i = 0; i < line.size(); ++i) {
        if (Digit(line[i])) {
          digits.push_back(i);
        }
      }
      if (!digits.empty()) {
        line[digits[rng.NextBounded(digits.size())]] =
            static_cast<char>('0' + rng.NextBounded(10));
      }
      return;
    }
    case 4: {  // add or drop a sign
      std::string& tok = tokens[pick_field()];
      if (!tok.empty() && (tok[0] == '-' || tok[0] == '+')) {
        tok.erase(0, 1);
      } else {
        tok.insert(0, rng.NextBool(0.5) ? "-" : "+");
      }
      break;
    }
    case 5: {  // whitespace other than one space
      static const char* const kSpaces[] = {"\t", "  ", "\v", "\f", " \t ",
                                            "\r"};
      const char* space = kSpaces[rng.NextBounded(6)];
      switch (rng.NextBounded(3)) {
        case 0:
          line = JoinSpaces(tokens);
          if (const size_t sp = line.find(' '); sp != std::string::npos) {
            line.replace(sp, 1, space);
          }
          break;
        case 1:
          line = space + line;
          break;
        default:
          line += space;
      }
      return;
    }
    case 6:  // an awkward value
      tokens[pick_field()] =
          SpecialValues()[rng.NextBounded(SpecialValues().size())];
      break;
    case 7: {  // a suffix that leaves a numeric prefix
      static const char* const kSuffixes[] = {"abc", ".5", "x", "e", "e5",
                                              ".", "-"};
      tokens[pick_field()] += kSuffixes[rng.NextBounded(7)];
      break;
    }
    case 8:  // a trailing token
      tokens.push_back(rng.NextBool(0.5) ? "extra" : "7");
      break;
    case 9: {  // a misspelt kind, type or comparator
      static const char* const kWords[] = {
          "Job", "jobs", "constraint", "mapreduce", "batch", "service",
          "gpu", "eq", "ne", "maybe", "#", ""};
      tokens[rng.NextBool(0.5) ? 0 : pick()] = kWords[rng.NextBounded(12)];
      break;
    }
    case 10: {  // insert a comment, blank or whitespace-only line
      static const char* const kExtra[] = {"", "# comment", "#", "   ",
                                           "\r", " # not a comment", "\t"};
      lines->insert(lines->begin() + static_cast<ptrdiff_t>(at),
                    kExtra[rng.NextBounded(7)]);
      return;
    }
    default: {  // drop a line or copy it elsewhere
      const std::string copy = line;
      if (rng.NextBool(0.5)) {
        lines->erase(lines->begin() + static_cast<ptrdiff_t>(at));
      } else {
        lines->insert(lines->begin() + static_cast<ptrdiff_t>(
                                           rng.NextBounded(lines->size() + 1)),
                      copy);
      }
      return;
    }
  }
  line = JoinSpaces(tokens);
}

std::string Render(const std::vector<std::string>& lines, bool crlf,
                   bool final_newline) {
  std::string out;
  for (size_t i = 0; i < lines.size(); ++i) {
    out += lines[i];
    if (i + 1 < lines.size() || final_newline) {
      out += crlf ? "\r\n" : "\n";
    }
  }
  return out;
}

std::string GeneratedTrace(uint64_t seed, Duration horizon) {
  GeneratorOptions opts;
  opts.generate_constraints = true;
  opts.generate_mapreduce_specs = true;
  ClusterConfig cfg = TestCluster();
  cfg.mapreduce_fraction = 0.4;
  cfg.batch_constrained_fraction = 0.4;
  cfg.service_constrained_fraction = 0.6;
  WorkloadGenerator gen(cfg, opts, seed);
  std::ostringstream os;
  WriteTrace(gen.GenerateArrivals(horizon), os);
  return os.str();
}

TEST(TraceDiffTest, SeededMutationsOfSmallTraces) {
  Tally tally;
  Rng rng(20240611);
  constexpr int kCases = 6000;
  std::vector<std::vector<std::string>> bases;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    bases.push_back(SplitLines(GeneratedTrace(seed, Duration::FromMinutes(2))));
  }
  for (int c = 0; c < kCases; ++c) {
    std::vector<std::string> lines = bases[rng.NextBounded(bases.size())];
    const int edits = 1 + static_cast<int>(rng.NextBounded(3));
    for (int e = 0; e < edits; ++e) {
      Mutate(rng, &lines);
    }
    const std::string text =
        Render(lines, rng.NextBool(0.1), !rng.NextBool(0.1));
    const std::streamsize chunk =
        c % 50 == 0 ? 1 : 2 + static_cast<std::streamsize>(rng.NextBounded(96));
    Check(text, chunk, &tally);
    if (HasFatalFailure() || HasFailure()) {
      break;
    }
  }
  // Each outcome, and each tightening class, must actually occur.
  EXPECT_GT(tally.outcomes[kBothAccept], kCases / 10);
  EXPECT_GT(tally.outcomes[kBothReject], kCases / 10);
  EXPECT_GT(tally.outcomes[kTightened], kCases / 50);
  EXPECT_EQ(tally.classes_seen, kAllTightenings);
}

// Records that straddle the reader's real block boundaries: a trace larger
// than several blocks, read whole and in odd-sized pieces.
TEST(TraceDiffTest, LargeTraceAcrossBlockBoundaries) {
  const std::vector<std::string> base =
      SplitLines(GeneratedTrace(31, Duration::FromHours(6)));
  Tally tally;
  Rng rng(77);
  for (int c = 0; c < 12; ++c) {
    std::vector<std::string> lines = base;
    if (c > 0) {
      Mutate(rng, &lines);
    }
    std::string text = Render(lines, c % 3 == 1, c % 4 != 2);
    ASSERT_GT(text.size(), size_t{1} << 20);
    Check(text, c % 2 == 0 ? 4093 : 65537, &tally);
  }
  EXPECT_GT(tally.outcomes[kBothAccept], 0);
}

// A line longer than the reader's block: a comment, and a record padded
// with whitespace.
TEST(TraceDiffTest, LinesLongerThanABlock) {
  Tally tally;
  const std::string pad(300000, ' ');
  Check("# " + std::string(300000, 'x') + "\njob 1 batch 0 1 1 1 1\n", 4096,
        &tally);
  Check("job 1 batch 0 1 1" + pad + "0.5 1\njob 2 service 5 1 1 1 1" + pad,
        7, &tally);
  EXPECT_EQ(tally.outcomes[kBothAccept], 2);
}

struct NamedCase {
  const char* name;
  const char* text;
  Outcome outcome;
  unsigned classes;  // for kTightened
};

class TraceDiffNamedTest : public ::testing::TestWithParam<NamedCase> {};

TEST_P(TraceDiffNamedTest, HasExpectedOutcome) {
  Tally tally;
  Check(GetParam().text, 3, &tally);
  EXPECT_EQ(tally.outcomes[GetParam().outcome], 1);
  EXPECT_EQ(tally.classes_seen, GetParam().classes);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TraceDiffNamedTest,
    ::testing::Values(
        NamedCase{"Tabs", "job\t1\tbatch 0 1 1 1 1\n", kBothAccept, 0},
        NamedCase{"Crlf", "job 1 batch 0 1 1 1 1\r\nmapreduce 1 2 3 4 5 6\r\n",
                  kBothAccept, 0},
        NamedCase{"NoFinalNewline", "job 1 batch 0 1 1 1 1", kBothAccept, 0},
        NamedCase{"LeadingSpace", "  job 1 batch 0 1 1 1 1\n", kBothAccept, 0},
        NamedCase{"MaxJobId", "job 18446744073709551615 batch 0 1 1 1 1\n",
                  kBothAccept, 0},
        NamedCase{"Underflow", "job 1 batch 0 1 1 1e-400 -1e-400\n",
                  kBothAccept, 0},
        NamedCase{"Subnormal", "job 1 batch 0 1 1 5e-324 2.5e-324\n",
                  kBothAccept, 0},
        NamedCase{"TimeAtBound",
                  "job 1 batch 1152921504606846976 1 1152921504606846976 1 1\n",
                  kBothAccept, 0},
        NamedCase{"JobIdPast64Bits",
                  "job 18446744073709551616 batch 0 1 1 1 1\n", kBothReject, 0},
        NamedCase{"Overflow", "job 1 batch 0 1 1 1e400 1\n", kBothReject, 0},
        NamedCase{"Inf", "job 1 batch 0 1 1 1 inf\n", kBothReject, 0},
        NamedCase{"Nan", "job 1 batch 0 1 1 nan 1\n", kBothReject, 0},
        NamedCase{"CarriageReturnLine", "\r\n", kBothReject, 0},
        NamedCase{"IndentedHash", " # note\n", kBothReject, 0},
        NamedCase{"TrailingToken", "job 1 batch 0 1 1 1 1 extra\n", kTightened,
                  kTrailingTokens},
        NamedCase{"PartlyNumeric", "job 1 batch 0 1 1 1 1abc\n", kTightened,
                  kPartlyNumeric},
        NamedCase{"HexFloat", "job 1 batch 0 1 1 1 0x1p3\n", kTightened,
                  kPartlyNumeric},
        NamedCase{"ShiftedFields", "job 1x 0 1 1 1 1 1\n", kTightened,
                  kPartlyNumeric},
        NamedCase{"LeadingPlus", "job +1 batch 0 1 1 1 1\n", kTightened,
                  kLeadingPlus},
        NamedCase{"NegativeJobId", "job -1 batch 0 1 1 1 1\n", kTightened,
                  kNegativeJobId},
        NamedCase{"SubmitPastBound",
                  "job 1 batch 1152921504606846977 1 1 1 1\n", kTightened,
                  kTimePastBound},
        NamedCase{"MapPastBound",
                  "job 1 batch 0 1 1 1 1\n"
                  "mapreduce 1 1 1 1152921504606846977 1 1\n",
                  kTightened, kTimePastBound}),
    [](const ::testing::TestParamInfo<NamedCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace omega
