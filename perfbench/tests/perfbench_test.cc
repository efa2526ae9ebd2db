// The benchmark's own tests: each workload keeps the property it was chosen
// for, the benchmark's placer wrapping reproduces the library's unwrapped
// outcome bit for bit, and the metric catalogue is well formed and matches
// BENCHMARK.json. Each traced trial runs a full-size workload (seconds each).
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "probe.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Working space for trace files, under the directory the test runs in (the
// build directory under ctest).
std::string WorkDir() {
  const std::string dir =
      (std::filesystem::current_path() / "perfbench_test_work").string();
  std::filesystem::create_directories(dir);
  return dir;
}

const WorkloadInfo& Workload(const char* name) {
  const WorkloadInfo* w = FindWorkload(name);
  EXPECT_NE(w, nullptr) << name;
  return *w;
}

// One traced trial at the pinned seed per workload, shared by the tests.
const TrialResult& Traced(const char* name) {
  static std::map<std::string, TrialResult> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    TrialOptions o;
    o.traced = true;
    o.work_dir = WorkDir();
    it = cache.emplace(name, RunTrial(Workload(name), kDefaultSeed, o)).first;
  }
  return it->second;
}

void ExpectSoundAndPinned(const char* name) {
  const TrialResult& r = Traced(name);
  EXPECT_TRUE(r.check_failures.empty()) << r.check_failures.front();
  EXPECT_EQ(r.fingerprint, Workload(name).pinned_fingerprint)
      << name << " outcome drifted from its pin:\n"
      << r.fingerprint_text;
  for (const MetricInfo& m : PerLayerMetrics()) {
    EXPECT_TRUE(r.layer.contains(m.name)) << name << " lacks " << m.name;
  }
}

TEST(TrafficTest, OmegaContendedConflictsAndLeavesTasksUnplaced) {
  ExpectSoundAndPinned("omega-contended");
  const auto& L = Traced("omega-contended").layer;
  EXPECT_GT(L.at("omega.claim_conflicts"), 0.0);
  EXPECT_GT(L.at("scheduler.placer_calls"), 0.0);
  EXPECT_LT(L.at("scheduler.placer_fit_ratio"), 1.0);  // unplaced tasks
  EXPECT_EQ(L.at("hifi.placer_calls"), 0.0);
}

TEST(TrafficTest, HifiReplayIsConstrainedAndPlacerBound) {
  ExpectSoundAndPinned("hifi-replay");
  const TrialResult& r = Traced("hifi-replay");
  EXPECT_GT(r.constrained_jobs, 0);
  EXPECT_GT(r.layer.at("hifi.placer_share"), 0.5);
  EXPECT_GT(r.layer.at("workload.trace_bytes"), 0.0);
  EXPECT_EQ(r.layer.at("scheduler.placer_calls"), 0.0);
}

TEST(TrafficTest, MesosOffersBypassesTaskPlacerAndCommit) {
  ExpectSoundAndPinned("mesos-offers");
  const auto& L = Traced("mesos-offers").layer;
  EXPECT_EQ(L.at("scheduler.placer_calls"), 0.0);
  EXPECT_EQ(L.at("hifi.placer_calls"), 0.0);
  EXPECT_EQ(L.at("omega.claim_conflicts"), 0.0);
  EXPECT_GT(L.at("mesos.offers"), 0.0);
}

TEST(TrafficTest, Federation16Spills) {
  ExpectSoundAndPinned("federation-16");
  const auto& L = Traced("federation-16").layer;
  EXPECT_GT(L.at("federation.spills"), 0.0);
  EXPECT_GT(L.at("federation.routed"), 0.0);
}

// The traced trials above wrap the placers (and, for hifi, rebuild
// MakeHifiSimulation's setup); the library's own entry points must give the
// same outcome bit for bit.
TEST(WrappingTest, WrappedPlacersReproduceLibraryFingerprints) {
  for (const char* name : {"omega-contended", "hifi-replay"}) {
    EXPECT_EQ(LibraryFingerprint(Workload(name), kDefaultSeed, WorkDir()),
              Traced(name).fingerprint)
        << name;
  }
}

TEST(ProbeTest, MeasuresWhileStarted) {
  ASSERT_TRUE(HostSpeedProbe::Start());
  const HostSpeedProbe::Reading before = HostSpeedProbe::Now();
  const int64_t until = NowNs() + 200'000'000;
  while (NowNs() < until) {
  }
  const HostSpeedProbe::Reading after = HostSpeedProbe::Now();
  HostSpeedProbe::Stop();
  EXPECT_GT(after.steps, before.steps);
  EXPECT_GT(HostSpeedProbe::NsPerStep(before, after), 0.0);
  // Stopped: no more probes land.
  const HostSpeedProbe::Reading stopped = HostSpeedProbe::Now();
  const int64_t later = NowNs() + 50'000'000;
  while (NowNs() < later) {
  }
  EXPECT_EQ(HostSpeedProbe::Now().steps, stopped.steps);
  EXPECT_EQ(HostSpeedProbe::NsPerStep(stopped, stopped), 0.0);
}

TEST(CatalogueTest, MetricNamesAndUnitsAreValid) {
  std::set<std::string> names;
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricInfo& m : *list) {
      EXPECT_TRUE(ValidMetricName(m.name)) << m.name;
      EXPECT_TRUE(ValidUnit(m.unit)) << m.name << " unit " << m.unit;
      const std::string better = m.better;
      EXPECT_TRUE(better == "lower" || better == "higher") << m.name;
      EXPECT_TRUE(names.insert(m.name).second) << "duplicate " << m.name;
    }
  }
  bool has_setup = false;
  for (const MetricInfo& m : EndToEndMetrics()) {
    if (std::string(m.name) == "setup_s") {
      has_setup = std::string(m.unit) == "s" && std::string(m.better) == "lower";
    }
  }
  EXPECT_TRUE(has_setup);
  for (const WorkloadInfo& w : Workloads()) {
    EXPECT_TRUE(ValidMetricName(w.name)) << w.name;
  }
  EXPECT_FALSE(ValidMetricName(".x"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_FALSE(ValidUnit("ms per op"));
}

TEST(CatalogueTest, BenchmarkJsonListsEveryMetricAndWorkload) {
  std::ifstream in(std::string(PERFBENCH_REPO_ROOT) + "/BENCHMARK.json");
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  const auto listed = [&](const std::string& name, const std::string& unit) {
    const std::string entry = "\"name\": \"" + name + "\"";
    const size_t at = json.find(entry);
    if (at == std::string::npos) {
      return false;
    }
    return unit.empty() ||
           json.find("\"unit\": \"" + unit + "\"", at) < json.find('}', at);
  };
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricInfo& m : *list) {
      EXPECT_TRUE(listed(m.name, m.unit)) << m.name;
    }
  }
  for (const WorkloadInfo& w : Workloads()) {
    EXPECT_TRUE(listed(w.name, "")) << w.name;
  }
}

}  // namespace
}  // namespace perfbench
