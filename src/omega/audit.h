// Post-facto policy auditing (§3.4).
//
// Omega has no central policy-enforcement engine; cluster-wide goals are
// emergent, supported by per-scheduler configuration limits and by monitoring:
// "compliance to cluster-wide policies can be audited post facto to eliminate
// the need for checks in a scheduler's critical code path". This module is
// that audit: after (or during) a run it summarizes each scheduler's behavior
// and flags violations of the configured limits and of the shared SLO.
#pragma once

#include <string>
#include <vector>

#include "src/scheduler/metrics.h"

namespace omega {

struct SchedulerAuditEntry {
  std::string scheduler;
  int64_t jobs_scheduled = 0;
  int64_t jobs_abandoned = 0;
  int64_t tasks_accepted = 0;
  int64_t tasks_conflicted = 0;
  double busyness = 0.0;
  double mean_wait_secs = 0.0;
  double conflict_fraction = 0.0;
  // Violations found (empty = compliant).
  std::vector<std::string> findings;
};

struct AuditPolicy {
  // The shared wait-time SLO (30 s in the paper's evaluation).
  double wait_slo_secs = 30.0;
  // Flag schedulers whose conflict fraction exceeds this (misbehaving or
  // misconfigured schedulers redo too much work).
  double max_conflict_fraction = 2.0;
  // Flag schedulers that abandoned more than this fraction of their jobs.
  double max_abandoned_fraction = 0.01;
};

// Audits one named metrics object against the policy at time `end`. Works for
// any scheduling component that keeps SchedulerMetrics — Omega/monolithic
// queue schedulers and Mesos frameworks alike.
SchedulerAuditEntry AuditMetrics(const std::string& name,
                                 const SchedulerMetrics& metrics, SimTime end,
                                 const AuditPolicy& policy = {});

}  // namespace omega

