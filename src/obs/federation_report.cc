#include "src/obs/federation_report.h"

#include <ostream>

#include "src/common/json.h"

namespace omega {
namespace {

void AppendFleetJson(std::ostream& os, const FederationFleetReport& f) {
  os << "{\"num_cells\":" << f.num_cells
     << ",\"jobs_routed\":" << f.jobs_routed << ",\"spills\":" << f.spills
     << ",\"spill_timeouts\":" << f.spill_timeouts
     << ",\"spill_rejections\":" << f.spill_rejections
     << ",\"jobs_fully_scheduled\":" << f.jobs_fully_scheduled
     << ",\"jobs_lost\":" << f.jobs_lost
     << ",\"summaries_published\":" << f.summaries_published
     << ",\"summaries_delivered\":" << f.summaries_delivered
     << ",\"hash_fallback_routes\":" << f.hash_fallback_routes;
  os << ",\"mean_delivery_latency_secs\":";
  json::AppendNumber(os, f.mean_delivery_latency_secs);
  os << ",\"mean_routing_staleness_secs\":";
  json::AppendNumber(os, f.mean_routing_staleness_secs);
  os << ",\"time_to_scheduled_p50_secs\":";
  json::AppendNumber(os, f.time_to_scheduled_p50_secs);
  os << ",\"time_to_scheduled_p90_secs\":";
  json::AppendNumber(os, f.time_to_scheduled_p90_secs);
  os << ",\"time_to_scheduled_p99_secs\":";
  json::AppendNumber(os, f.time_to_scheduled_p99_secs);
  os << ",\"spillover_latency_p50_secs\":";
  json::AppendNumber(os, f.spillover_latency_p50_secs);
  os << ",\"spillover_latency_p90_secs\":";
  json::AppendNumber(os, f.spillover_latency_p90_secs);
  os << ",\"spillover_latency_p99_secs\":";
  json::AppendNumber(os, f.spillover_latency_p99_secs);
  os << ",\"mean_cpu_utilization\":";
  json::AppendNumber(os, f.mean_cpu_utilization);
  os << ",\"cpu_utilization_skew\":";
  json::AppendNumber(os, f.cpu_utilization_skew);
  os << ",\"cpu_utilization_stddev\":";
  json::AppendNumber(os, f.cpu_utilization_stddev);
  os << ",\"fleet_conflict_fraction\":";
  json::AppendNumber(os, f.fleet_conflict_fraction);
  os << ",\"routed_per_cell\":[";
  for (size_t i = 0; i < f.routed_per_cell.size(); ++i) {
    if (i > 0) {
      os << ",";
    }
    os << f.routed_per_cell[i];
  }
  os << "]}";
}

}  // namespace

void FederationReport::ToJson(std::ostream& os) const {
  os << "{\"fleet\":";
  AppendFleetJson(os, fleet);
  os << ",\"cells\":[";
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) {
      os << ",";
    }
    cells[i].ToJson(os);
  }
  os << "]}";
}

FederationReport BuildFederationReport(FederationSim& sim,
                                       const AuditPolicy& policy) {
  FederationReport report;
  const FederationMetrics& m = sim.metrics();
  FederationFleetReport& f = report.fleet;
  f.num_cells = sim.num_cells();
  f.jobs_routed = m.jobs_routed;
  f.spills = m.spills;
  f.spill_timeouts = m.spill_timeouts;
  f.spill_rejections = m.spill_rejections;
  f.jobs_fully_scheduled = m.jobs_fully_scheduled;
  f.jobs_lost = m.jobs_lost;
  f.summaries_published = m.summaries_published;
  f.summaries_delivered = m.summaries_delivered;
  f.hash_fallback_routes = m.hash_fallback_routes;
  f.mean_delivery_latency_secs = m.delivery_latency_secs.mean();
  f.mean_routing_staleness_secs = m.routing_staleness_secs.mean();
  f.time_to_scheduled_p50_secs = m.time_to_scheduled_secs.Quantile(0.5);
  f.time_to_scheduled_p90_secs = m.time_to_scheduled_secs.Quantile(0.9);
  f.time_to_scheduled_p99_secs = m.time_to_scheduled_secs.Quantile(0.99);
  f.spillover_latency_p50_secs = m.spillover_latency_secs.Quantile(0.5);
  f.spillover_latency_p90_secs = m.spillover_latency_secs.Quantile(0.9);
  f.spillover_latency_p99_secs = m.spillover_latency_secs.Quantile(0.99);
  f.mean_cpu_utilization = sim.MeanCellCpuUtilization();
  f.cpu_utilization_skew = sim.CpuUtilizationSkew();
  f.cpu_utilization_stddev = sim.CpuUtilizationStddev();
  f.fleet_conflict_fraction = sim.FleetConflictFraction();
  f.routed_per_cell = m.routed_per_cell;

  report.cells.reserve(sim.num_cells());
  for (uint32_t i = 0; i < sim.num_cells(); ++i) {
    RunReport cell = BuildRunReport("omega", sim.cell(i), policy);
    cell.architecture = "federation/cell" + std::to_string(i);
    report.cells.push_back(std::move(cell));
  }
  return report;
}

}  // namespace omega
