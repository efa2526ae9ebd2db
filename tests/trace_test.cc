#include "src/workload/trace.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cstdio>
#include <sstream>

#include "src/workload/cluster_config.h"
#include "src/workload/generator.h"
#include "tests/bitwise_eq.h"
#include "tests/sim_fingerprint.h"

namespace omega {
namespace {

std::vector<Job> SampleJobs() {
  GeneratorOptions opts;
  opts.generate_constraints = true;
  opts.generate_mapreduce_specs = true;
  ClusterConfig cfg = TestCluster();
  cfg.mapreduce_fraction = 0.4;
  cfg.batch_constrained_fraction = 0.4;
  cfg.service_constrained_fraction = 0.6;
  WorkloadGenerator gen(cfg, opts, 31);
  return gen.GenerateArrivals(Duration::FromHours(6));
}

void ExpectJobsEqual(const std::vector<Job>& a, const std::vector<Job>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_EQ(a[i].submit_time, b[i].submit_time);
    EXPECT_EQ(a[i].num_tasks, b[i].num_tasks);
    EXPECT_EQ(a[i].task_duration, b[i].task_duration);
    EXPECT_DOUBLE_EQ(a[i].task_resources.cpus, b[i].task_resources.cpus);
    EXPECT_DOUBLE_EQ(a[i].task_resources.mem_gb, b[i].task_resources.mem_gb);
    EXPECT_EQ(a[i].constraints, b[i].constraints);
    EXPECT_EQ(a[i].mapreduce, b[i].mapreduce);
  }
}

// Doubles whose %.17g form is awkward (subnormal, huge, negative
// zero, not exactly representable) and job ids a double cannot hold.
std::vector<Job> AwkwardJobs() {
  const double values[] = {0.1, 1e-7, 1e21, 5e-324, DBL_MAX, -0.0};
  const JobId ids[] = {(JobId{1} << 53) + 1, (JobId{1} << 63) + 12345,
                       UINT64_MAX, 1, 2, 3};
  std::vector<Job> jobs;
  for (size_t i = 0; i < 6; ++i) {
    Job j;
    j.id = ids[i];
    j.submit_time = SimTime(static_cast<int64_t>(i));
    j.task_duration = Duration(1);
    j.task_resources = Resources{values[i], values[5 - i]};
    jobs.push_back(j);
  }
  return jobs;
}

TEST(TraceTest, RoundTripPreservesEverything) {
  const std::vector<Job> jobs = SampleJobs();
  ASSERT_FALSE(jobs.empty());
  std::stringstream ss;
  WriteTrace(jobs, ss);
  std::vector<Job> parsed;
  std::string error;
  ASSERT_TRUE(ReadTrace(ss, &parsed, &error)) << error;
  ExpectJobsEqual(jobs, parsed);
}

TEST(TraceTest, AwkwardValuesRoundTripBitExact) {
  const std::vector<Job> jobs = AwkwardJobs();
  std::stringstream ss;
  WriteTrace(jobs, ss);
  std::vector<Job> parsed;
  std::string error;
  ASSERT_TRUE(ReadTrace(ss, &parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(parsed[i].id, jobs[i].id);
    EXPECT_TRUE(SameBits(parsed[i].task_resources.cpus,
                         jobs[i].task_resources.cpus));
    EXPECT_TRUE(SameBits(parsed[i].task_resources.mem_gb,
                         jobs[i].task_resources.mem_gb));
  }
}

// The writer's bytes are part of the format: a trace written today must be
// byte-identical to one written by every earlier build. Size and digest were
// recorded from the iostream writer (setprecision(17)) before the to_chars
// writer replaced it.
TEST(TraceTest, WriterBytesArePinned) {
  std::vector<Job> jobs = SampleJobs();
  for (Job& j : AwkwardJobs()) {
    jobs.push_back(std::move(j));
  }
  std::ostringstream os;
  WriteTrace(jobs, os);
  const std::string bytes = os.str();
  Fnv1a fnv;
  fnv.Bytes(bytes);
  EXPECT_EQ(bytes.size(), 1178555u);
  EXPECT_EQ(fnv.h, 0x0eb6b6632d427cf7ULL) << std::hex << fnv.h;
}

TEST(TraceTest, FileRoundTrip) {
  const std::vector<Job> jobs = SampleJobs();
  const std::string path = ::testing::TempDir() + "/trace_test.trace";
  ASSERT_TRUE(WriteTraceFile(jobs, path));
  std::vector<Job> parsed;
  std::string error;
  ASSERT_TRUE(ReadTraceFile(path, &parsed, &error)) << error;
  ExpectJobsEqual(jobs, parsed);
  std::remove(path.c_str());
}

TEST(TraceTest, WriterSortsBySubmitTime) {
  std::vector<Job> jobs(2);
  jobs[0].id = 1;
  jobs[0].submit_time = SimTime::FromSeconds(100);
  jobs[0].num_tasks = 1;
  jobs[1].id = 2;
  jobs[1].submit_time = SimTime::FromSeconds(5);
  jobs[1].num_tasks = 1;
  std::stringstream ss;
  WriteTrace(jobs, ss);
  std::vector<Job> parsed;
  ASSERT_TRUE(ReadTrace(ss, &parsed, nullptr));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].id, 2u);
  EXPECT_EQ(parsed[1].id, 1u);
}

TEST(TraceTest, CommentsAndBlankLinesIgnored) {
  std::stringstream ss(
      "# a comment\n"
      "\n"
      "job 7 batch 1000 3 2000000 0.5 1.5\n"
      "# trailing comment\n");
  std::vector<Job> parsed;
  std::string error;
  ASSERT_TRUE(ReadTrace(ss, &parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].id, 7u);
  EXPECT_EQ(parsed[0].type, JobType::kBatch);
  EXPECT_EQ(parsed[0].submit_time, SimTime(1000));
  EXPECT_EQ(parsed[0].num_tasks, 3u);
  EXPECT_EQ(parsed[0].task_duration, Duration(2000000));
}

TEST(TraceTest, RejectsMalformedJob) {
  std::stringstream ss("job 1 batch not_a_number\n");
  std::vector<Job> parsed;
  std::string error;
  EXPECT_FALSE(ReadTrace(ss, &parsed, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
}

TEST(TraceTest, RejectsUnknownJobType) {
  std::stringstream ss("job 1 gpu 0 1 1 1 1\n");
  std::vector<Job> parsed;
  std::string error;
  EXPECT_FALSE(ReadTrace(ss, &parsed, &error));
  EXPECT_NE(error.find("unknown job type"), std::string::npos);
}

TEST(TraceTest, RejectsDuplicateJobId) {
  std::stringstream ss(
      "job 1 batch 0 1 1 1 1\n"
      "job 1 batch 5 1 1 1 1\n");
  std::vector<Job> parsed;
  std::string error;
  EXPECT_FALSE(ReadTrace(ss, &parsed, &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos);
}

TEST(TraceTest, RejectsConstraintForUnknownJob) {
  std::stringstream ss("constraint 99 0 1 eq\n");
  std::vector<Job> parsed;
  std::string error;
  EXPECT_FALSE(ReadTrace(ss, &parsed, &error));
  EXPECT_NE(error.find("unknown job"), std::string::npos);
}

TEST(TraceTest, RejectsUnknownRecordKind) {
  std::stringstream ss("frobnicate 1 2 3\n");
  std::vector<Job> parsed;
  std::string error;
  EXPECT_FALSE(ReadTrace(ss, &parsed, &error));
  EXPECT_NE(error.find("unknown record kind"), std::string::npos);
}

TEST(TraceTest, RejectsBadConstraintComparator) {
  std::stringstream ss(
      "job 1 batch 0 1 1 1 1\n"
      "constraint 1 0 1 maybe\n");
  std::vector<Job> parsed;
  std::string error;
  EXPECT_FALSE(ReadTrace(ss, &parsed, &error));
}

// Records the simulator cannot honour are rejected with the line number
// instead of aborting the replay or driving allocations negative.
struct BadJobRecord {
  const char* line;
  const char* message;  // expected substring of the error
};

class TraceRejectsBadJobTest : public ::testing::TestWithParam<BadJobRecord> {};

TEST_P(TraceRejectsBadJobTest, ReportsLineNumber) {
  std::stringstream ss(std::string("job 1 batch 0 1 1 1 1\n") +
                       GetParam().line + "\n");
  std::vector<Job> parsed;
  std::string error;
  EXPECT_FALSE(ReadTrace(ss, &parsed, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find(GetParam().message), std::string::npos) << error;
}

INSTANTIATE_TEST_SUITE_P(
    Records, TraceRejectsBadJobTest,
    ::testing::Values(
        BadJobRecord{"job 2 batch -1 1 1 1 1", "negative submit time"},
        BadJobRecord{"job 2 batch 0 0 1 1 1", "num_tasks"},
        BadJobRecord{"job 2 batch 0 -3 1 1 1", "num_tasks"},
        BadJobRecord{"job 2 batch 0 4294967296 1 1 1", "num_tasks"},
        BadJobRecord{"job 2 batch 0 1 -5 1 1", "negative task duration"},
        BadJobRecord{"job 2 batch 0 1 1 -0.5 1", "cpus"},
        BadJobRecord{"job 2 service 0 1 1 1 -2", "mem_gb"},
        // Not parseable as finite doubles: rejected as malformed.
        BadJobRecord{"job 2 batch 0 1 1 nan 1", "malformed job record"},
        BadJobRecord{"job 2 batch 0 1 1 1 inf", "malformed job record"},
        BadJobRecord{"job 2 batch 0 1 1 1e999 1", "malformed job record"}));

// Times are bounded by kMaxTraceMicros so that replaying a trace cannot
// overflow SimTime: each time field is accepted at the bound and rejected,
// with its line number, one microsecond past it.
struct TimeBoundCase {
  const char* name;
  const char* record;  // printf format with one %lld for the time
  const char* message;
};

class TraceTimeBoundTest : public ::testing::TestWithParam<TimeBoundCase> {};

std::string TimeBoundTrace(const TimeBoundCase& c, int64_t micros) {
  char record[160];
  std::snprintf(record, sizeof(record), c.record,
                static_cast<long long>(micros));
  return std::string("job 1 batch 0 1 1 1 1\n") + record + "\n";
}

TEST_P(TraceTimeBoundTest, AcceptsTheBound) {
  std::stringstream ss(TimeBoundTrace(GetParam(), kMaxTraceMicros));
  std::vector<Job> parsed;
  std::string error;
  EXPECT_TRUE(ReadTrace(ss, &parsed, &error)) << error;
}

TEST_P(TraceTimeBoundTest, RejectsOnePast) {
  std::stringstream ss(TimeBoundTrace(GetParam(), kMaxTraceMicros + 1));
  std::vector<Job> parsed;
  std::string error;
  EXPECT_FALSE(ReadTrace(ss, &parsed, &error));
  EXPECT_EQ(error, std::string("trace parse error at line 2: ") +
                       GetParam().message);
}

INSTANTIATE_TEST_SUITE_P(
    Fields, TraceTimeBoundTest,
    ::testing::Values(
        TimeBoundCase{"Submit", "job 2 batch %lld 1 1 1 1",
                      "malformed job record: submit time above "
                      "kMaxTraceMicros"},
        TimeBoundCase{"Duration", "job 2 service 0 1 %lld 1 1",
                      "malformed job record: task duration above "
                      "kMaxTraceMicros"},
        TimeBoundCase{"MapActivity", "mapreduce 1 4 2 %lld 1 3",
                      "malformed mapreduce record: activity duration above "
                      "kMaxTraceMicros"},
        TimeBoundCase{"ReduceActivity", "mapreduce 1 4 2 1 %lld 3",
                      "malformed mapreduce record: activity duration above "
                      "kMaxTraceMicros"}),
    [](const ::testing::TestParamInfo<TimeBoundCase>& info) {
      return std::string(info.param.name);
    });

TEST(TraceTest, AcceptsBoundaryValues) {
  // Zero submit time, duration and resources are valid; so is the largest
  // 32-bit task count.
  std::stringstream ss(
      "job 1 batch 0 1 0 0 0\n"
      "job 2 service 0 4294967295 1 1 1\n");
  std::vector<Job> parsed;
  std::string error;
  ASSERT_TRUE(ReadTrace(ss, &parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[1].num_tasks, 4294967295u);
}

TEST(TraceTest, MissingFileReportsError) {
  std::vector<Job> parsed;
  std::string error;
  EXPECT_FALSE(ReadTraceFile("/nonexistent/path/foo.trace", &parsed, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(TraceTest, EmptyTraceIsValid) {
  std::stringstream ss("# omegatrace v1\n");
  std::vector<Job> parsed;
  ASSERT_TRUE(ReadTrace(ss, &parsed, nullptr));
  EXPECT_TRUE(parsed.empty());
}

}  // namespace
}  // namespace omega
