// Federation-level end-of-run reports (RunReport, one level up).
//
// A FederationReport nests one full per-cell RunReport per member cell under
// a fleet section: front-door routing/spillover counters, gossip propagation
// statistics, the spillover-latency and time-to-scheduled quantiles, and the
// cross-cell utilization skew that the fig_federation sweep compares against
// the one-giant-cell and static-partitioning baselines.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "src/federation/federation.h"
#include "src/obs/run_report.h"

namespace omega {

// Fleet-level rollup of FederationMetrics plus cross-cell aggregates.
struct FederationFleetReport {
  uint32_t num_cells = 0;

  int64_t jobs_routed = 0;
  int64_t spills = 0;
  int64_t spill_timeouts = 0;
  int64_t spill_rejections = 0;
  int64_t jobs_fully_scheduled = 0;
  int64_t jobs_lost = 0;
  int64_t summaries_published = 0;
  int64_t summaries_delivered = 0;
  int64_t hash_fallback_routes = 0;

  double mean_delivery_latency_secs = 0.0;
  double mean_routing_staleness_secs = 0.0;

  // Quantiles are NaN (rendered as null) when no job hit the path.
  double time_to_scheduled_p50_secs = 0.0;
  double time_to_scheduled_p90_secs = 0.0;
  double time_to_scheduled_p99_secs = 0.0;
  double spillover_latency_p50_secs = 0.0;
  double spillover_latency_p90_secs = 0.0;
  double spillover_latency_p99_secs = 0.0;

  double mean_cpu_utilization = 0.0;
  double cpu_utilization_skew = 0.0;  // max - min across cells
  double cpu_utilization_stddev = 0.0;
  double fleet_conflict_fraction = 0.0;

  std::vector<int64_t> routed_per_cell;
};

struct FederationReport {
  FederationFleetReport fleet;
  // One RunReport per cell, cell-index order (architecture "omega").
  std::vector<RunReport> cells;

  // Renders {"fleet": {...}, "cells": [...]} as one JSON object.
  void ToJson(std::ostream& os) const;
};

FederationReport BuildFederationReport(FederationSim& sim,
                                       const AuditPolicy& policy = {});

}  // namespace omega
