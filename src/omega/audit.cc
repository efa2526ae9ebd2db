#include "src/omega/audit.h"

#include <sstream>

namespace omega {
namespace {

int64_t TotalScheduled(const SchedulerMetrics& m) {
  return m.JobsScheduled(JobType::kBatch) + m.JobsScheduled(JobType::kService);
}

double OverallMeanWait(const SchedulerMetrics& m) {
  const int64_t batch = m.JobsWaited(JobType::kBatch);
  const int64_t service = m.JobsWaited(JobType::kService);
  const int64_t total = batch + service;
  if (total == 0) {
    return 0.0;
  }
  // MeanWait is NaN for a type with no waited jobs; weight only the
  // populated types so the NaN cannot poison the blend.
  double weighted = 0.0;
  if (batch > 0) {
    weighted += m.MeanWait(JobType::kBatch) * static_cast<double>(batch);
  }
  if (service > 0) {
    weighted += m.MeanWait(JobType::kService) * static_cast<double>(service);
  }
  return weighted / static_cast<double>(total);
}

}  // namespace

SchedulerAuditEntry AuditMetrics(const std::string& name,
                                 const SchedulerMetrics& m, SimTime end,
                                 const AuditPolicy& policy) {
  SchedulerAuditEntry entry;
  entry.scheduler = name;
  entry.jobs_scheduled = TotalScheduled(m);
  entry.jobs_abandoned = m.JobsAbandonedTotal();
  entry.tasks_accepted = m.TasksAccepted();
  entry.tasks_conflicted = m.TasksConflicted();
  entry.busyness = m.Busyness(end).median;
  entry.mean_wait_secs = OverallMeanWait(m);
  entry.conflict_fraction = m.ConflictFraction(end).mean;

  if (entry.mean_wait_secs > policy.wait_slo_secs) {
    std::ostringstream os;
    os << "wait-time SLO violated: mean " << entry.mean_wait_secs << "s > "
       << policy.wait_slo_secs << "s";
    entry.findings.push_back(os.str());
  }
  if (entry.conflict_fraction > policy.max_conflict_fraction) {
    std::ostringstream os;
    os << "excessive conflict fraction: " << entry.conflict_fraction << " > "
       << policy.max_conflict_fraction;
    entry.findings.push_back(os.str());
  }
  const int64_t total_jobs = entry.jobs_scheduled + entry.jobs_abandoned;
  if (total_jobs > 0) {
    const double abandoned_fraction =
        static_cast<double>(entry.jobs_abandoned) / static_cast<double>(total_jobs);
    if (abandoned_fraction > policy.max_abandoned_fraction) {
      std::ostringstream os;
      os << "abandonment above threshold: " << abandoned_fraction * 100.0
         << "% of jobs";
      entry.findings.push_back(os.str());
    }
  }
  return entry;
}

}  // namespace omega
