#include "src/omega/audit.h"

#include <gtest/gtest.h>

#include "src/omega/omega_scheduler.h"
#include "src/workload/cluster_config.h"

namespace omega {
namespace {

SimOptions ShortRun(uint64_t seed = 1) {
  SimOptions o;
  o.horizon = Duration::FromHours(4);
  o.seed = seed;
  return o;
}

// Audits every scheduler of the simulation, batch schedulers first.
std::vector<SchedulerAuditEntry> AuditAll(OmegaSimulation& sim,
                                          const AuditPolicy& policy = {}) {
  std::vector<SchedulerAuditEntry> out;
  for (uint32_t i = 0; i < sim.NumBatchSchedulers(); ++i) {
    const QueueScheduler& s = sim.batch_scheduler(i);
    out.push_back(AuditMetrics(s.name(), s.metrics(), sim.EndTime(), policy));
  }
  const QueueScheduler& s = sim.service_scheduler();
  out.push_back(AuditMetrics(s.name(), s.metrics(), sim.EndTime(), policy));
  return out;
}

TEST(AuditTest, HealthySystemIsCompliant) {
  OmegaSimulation sim(TestCluster(), ShortRun(), SchedulerConfig{},
                      SchedulerConfig{}, 2);
  sim.Run();
  const std::vector<SchedulerAuditEntry> entries = AuditAll(sim);
  ASSERT_EQ(entries.size(), 3u);
  for (const SchedulerAuditEntry& e : entries) {
    EXPECT_GT(e.jobs_scheduled, 0);
    EXPECT_TRUE(e.findings.empty());
  }
}

TEST(AuditTest, SaturatedSchedulerViolatesSlo) {
  ClusterConfig cfg = TestCluster();
  cfg.batch.interarrival_mean_secs = 0.2;
  SchedulerConfig slow;
  slow.batch_times.t_job = Duration::FromSeconds(2.0);  // overload
  OmegaSimulation sim(cfg, ShortRun(2), slow, SchedulerConfig{});
  sim.Run();
  const SchedulerAuditEntry entry = AuditAll(sim).front();  // batch
  EXPECT_FALSE(entry.findings.empty());
  EXPECT_NE(entry.findings[0].find("SLO"), std::string::npos);
}

TEST(AuditTest, AbandonmentFlagged) {
  ClusterConfig cfg = TestCluster(2);
  cfg.batch.tasks_per_job = std::make_shared<ConstantDist>(200.0);  // > cell
  cfg.batch.cpus_per_task = std::make_shared<ConstantDist>(1.0);
  cfg.batch.mem_gb_per_task = std::make_shared<ConstantDist>(1.0);
  cfg.batch.interarrival_mean_secs = 60.0;
  SchedulerConfig sched;
  sched.max_attempts = 3;
  sched.no_progress_backoff = Duration::FromSeconds(1);
  OmegaSimulation sim(cfg, ShortRun(3), sched, SchedulerConfig{});
  sim.Run();
  const SchedulerAuditEntry entry = AuditAll(sim).front();  // batch
  bool flagged = false;
  for (const std::string& f : entry.findings) {
    if (f.find("abandonment") != std::string::npos) {
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged);
}

TEST(AuditTest, CustomPolicyThresholds) {
  OmegaSimulation sim(TestCluster(), ShortRun(5), SchedulerConfig{},
                      SchedulerConfig{});
  sim.Run();
  AuditPolicy strict;
  strict.wait_slo_secs = 0.0;  // impossible SLO: any waiting violates
  bool violated = false;
  for (const SchedulerAuditEntry& e : AuditAll(sim, strict)) {
    violated |= !e.findings.empty();
  }
  EXPECT_TRUE(violated);
}

}  // namespace
}  // namespace omega
