#include "workloads.h"

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/federation/federation.h"
#include "src/hifi/hifi_simulation.h"
#include "src/mesos/mesos_simulation.h"
#include "src/omega/omega_scheduler.h"
#include "src/scheduler/placement.h"
#include "src/trace/trace_recorder.h"
#include "src/workload/cluster_config.h"

namespace perfbench {

using omega::ClusterSimulation;
using omega::Duration;
using omega::JobType;
using omega::OmegaSimulation;
using omega::SchedulerConfig;
using omega::SimOptions;
using omega::TraceEventType;
using omega::TraceRecorder;

namespace {

// The pinned outcomes at kDefaultSeed. A change that is meant to alter
// simulated behaviour must update these and say so; a speed-only change must
// leave them alone.
constexpr uint64_t kPinOmegaContended = 0x3c4d5309042697bcULL;
constexpr uint64_t kPinHifiReplay = 0xebfbcfa297e237a0ULL;
constexpr uint64_t kPinMesosOffers = 0x5ca298929e0f0bacULL;
constexpr uint64_t kPinFederation16 = 0x53614d1e3dd7ede3ULL;

// The library trace ring is only a source of wrap-proof counts here, so one
// slab is enough.
constexpr size_t kTraceRingEvents = TraceRecorder::kSlabSize;

SchedulerConfig Sched(const std::string& name) {
  SchedulerConfig c;
  c.name = name;
  return c;
}

// ---------------------------------------------------------------------------
// Outcome fingerprint: one key=value line per simulated result, doubles as
// hex floats so equality is bitwise.

class Fingerprint {
 public:
  void Int(const std::string& key, int64_t v) { os_ << key << '=' << v << '\n'; }
  void Hex(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    os_ << key << '=' << buf << '\n';
  }
  std::string str() const { return os_.str(); }

 private:
  std::ostringstream os_;
};

template <class Metrics>
void AddSchedulerMetrics(Fingerprint& fp, const std::string& p,
                         const Metrics& m, omega::SimTime end) {
  for (JobType t : {JobType::kBatch, JobType::kService}) {
    const std::string tp = p + omega::JobTypeName(t) + '.';
    fp.Int(tp + "scheduled", m.JobsScheduled(t));
    fp.Int(tp + "abandoned", m.JobsAbandoned(t));
    fp.Int(tp + "waited", m.JobsWaited(t));
    fp.Hex(tp + "wait_mean", m.MeanWait(t));
  }
  fp.Hex(p + "busyness", m.Busyness(end).median);
  fp.Hex(p + "conflict_fraction", m.ConflictFraction(end).mean);
  fp.Int(p + "tasks_accepted", m.TasksAccepted());
  fp.Int(p + "tasks_conflicted", m.TasksConflicted());
  fp.Int(p + "attempts", m.TotalAttempts());
  fp.Int(p + "conflicted_attempts", m.TotalConflictedAttempts());
}

void AddHarness(Fingerprint& fp, const std::string& p,
                const ClusterSimulation& sim) {
  fp.Int(p + "submitted.batch", sim.JobsSubmitted(JobType::kBatch));
  fp.Int(p + "submitted.service", sim.JobsSubmitted(JobType::kService));
  const omega::Resources alloc = sim.cell().TotalAllocated();
  fp.Hex(p + "allocated.cpus", alloc.cpus);
  fp.Hex(p + "allocated.mem", alloc.mem_gb);
}

// Fingerprints an Omega cell (lightweight, hifi, or a federated member).
void AddOmegaCell(Fingerprint& fp, const std::string& p, OmegaSimulation& sim) {
  AddHarness(fp, p, sim);
  const omega::SimTime end = sim.EndTime();
  for (uint32_t i = 0; i < sim.NumBatchSchedulers(); ++i) {
    auto& s = sim.batch_scheduler(i);
    const std::string sp = p + s.name() + '.';
    AddSchedulerMetrics(fp, sp, s.metrics(), end);
    fp.Int(sp + "queued", static_cast<int64_t>(s.QueueDepth()));
  }
  auto& s = sim.service_scheduler();
  AddSchedulerMetrics(fp, p + s.name() + '.', s.metrics(), end);
  fp.Int(p + s.name() + ".queued", static_cast<int64_t>(s.QueueDepth()));
}

// ---------------------------------------------------------------------------
// Soundness checks: cell invariants and job conservation.

// Every job a scheduler was handed is scheduled, abandoned, queued, or in
// the scheduler's one in-flight attempt.
template <class Scheduler>
int64_t JobsAccounted(const Scheduler& s, JobType type) {
  return s.metrics().JobsScheduled(type) + s.metrics().JobsAbandoned(type) +
         static_cast<int64_t>(s.QueueDepth()) + (s.busy() ? 1 : 0);
}

void CheckOmegaCell(OmegaSimulation& sim, const std::string& p,
                    std::vector<std::string>* failures) {
  if (!sim.cell().CheckInvariants()) {
    failures->push_back(p + "CellState::CheckInvariants failed");
  }
  int64_t batch = 0;
  for (uint32_t i = 0; i < sim.NumBatchSchedulers(); ++i) {
    batch += JobsAccounted(sim.batch_scheduler(i), JobType::kBatch);
  }
  if (batch != sim.JobsSubmitted(JobType::kBatch)) {
    failures->push_back(p + "batch jobs not conserved");
  }
  if (JobsAccounted(sim.service_scheduler(), JobType::kService) !=
      sim.JobsSubmitted(JobType::kService)) {
    failures->push_back(p + "service jobs not conserved");
  }
}

// ---------------------------------------------------------------------------
// Placer wrapping (traced trials): times every PlaceTasks call.

struct PlacerStats {
  int64_t calls = 0;
  int64_t requested = 0;
  int64_t placed = 0;
  int64_t ns = 0;
};

class TimedPlacer final : public omega::TaskPlacer {
 public:
  TimedPlacer(std::unique_ptr<omega::TaskPlacer> inner, PlacerStats* stats,
              SpanRecorder* spans, const char* span_name)
      : inner_(std::move(inner)),
        stats_(stats),
        spans_(spans),
        span_name_(span_name) {}

  uint32_t PlaceTasks(const omega::CellState& cell, const omega::Job& job,
                      uint32_t count, omega::Rng& rng,
                      std::vector<omega::TaskClaim>* claims) override {
    const int64_t start = NowNs();
    const uint32_t placed = inner_->PlaceTasks(cell, job, count, rng, claims);
    const int64_t end = NowNs();
    ++stats_->calls;
    stats_->requested += count;
    stats_->placed += placed;
    stats_->ns += end - start;
    if (spans_ != nullptr) {
      spans_->Leaf(span_name_, start, end);
    }
    return placed;
  }

 private:
  std::unique_ptr<omega::TaskPlacer> inner_;
  PlacerStats* stats_;
  SpanRecorder* spans_;
  const char* span_name_;
};

// Per-phase host timing, each phase also a span when tracing.
template <class F>
double Timed(SpanRecorder* spans, const char* name, F&& f) {
  ScopedSpan span(spans, name);
  const int64_t start = NowNs();
  f();
  return static_cast<double>(NowNs() - start) / 1e9;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Everything a workload hands back to the shared per-layer accounting.
struct LayerInputs {
  const TraceRecorder* rec = nullptr;
  int64_t events = -1;          // -1: Simulator::RunUntil not reachable
  const PlacerStats* rff = nullptr;      // RandomizedFirstFitPlacer, wrapped
  const PlacerStats* scoring = nullptr;  // ScoringPlacer, wrapped
  bool omega_arch = false;
  bool mesos = false;
  const omega::FederationSim* fed = nullptr;
  bool fill_observed = true;
  int64_t trace_bytes = 0;
  double cpu_util_end = 0.0;
};

void FillLayer(const LayerInputs& in, TrialResult* r) {
  std::map<std::string, double>& L = r->layer;
  for (const MetricInfo& m : PerLayerMetrics()) {
    L[m.name] = 0.0;
  }
  const TraceRecorder& rec = *in.rec;
  const auto count = [&](TraceEventType t) {
    return static_cast<double>(rec.CountOf(t));
  };
  const auto arg0 = [&](TraceEventType t) {
    return static_cast<double>(rec.SumArg0(t));
  };
  const auto arg1 = [&](TraceEventType t) {
    return static_cast<double>(rec.SumArg1(t));
  };
  std::vector<std::string>& missing = r->not_observed;

  double placer_s = 0.0;
  const auto placer = [&](const char* prefix, const PlacerStats* st) {
    const std::string p = prefix;
    if (st == nullptr) {
      for (const char* k : {"placer_calls", "placer_s", "placer_ns_per_task",
                            "placer_fit_ratio", "placer_share"}) {
        missing.push_back(p + k);
      }
      return;
    }
    const double s = static_cast<double>(st->ns) / 1e9;
    placer_s += s;
    L[p + "placer_calls"] = static_cast<double>(st->calls);
    L[p + "placer_s"] = s;
    L[p + "placer_ns_per_task"] =
        Ratio(static_cast<double>(st->ns), static_cast<double>(st->requested));
    L[p + "placer_fit_ratio"] = Ratio(static_cast<double>(st->placed),
                                      static_cast<double>(st->requested));
    L[p + "placer_share"] = Ratio(s, r->run_s);
  };
  placer("scheduler.", in.rff);
  placer("hifi.", in.scoring);

  if (in.events >= 0) {
    L["sim.events"] = static_cast<double>(in.events);
    L["sim.ns_per_event"] = Ratio(r->run_s * 1e9, static_cast<double>(in.events));
  } else {
    missing.insert(missing.end(), {"sim.events", "sim.ns_per_event"});
  }
  L["sim.loop_self_s"] = r->run_s - placer_s;

  const double jobs = count(TraceEventType::kJobSubmit);
  L["workload.jobs"] = jobs;
  L["workload.tasks"] = arg1(TraceEventType::kJobSubmit);
  L["workload.gen_s"] = r->gen_s;
  L["workload.trace_io_s"] = r->trace_io_s;
  L["workload.trace_bytes"] = static_cast<double>(in.trace_bytes);
  if (in.trace_bytes == 0) {
    missing.insert(missing.end(),
                   {"workload.gen_s", "workload.trace_io_s", "workload.trace_bytes"});
  }

  if (in.fill_observed) {
    L["cluster.fill_s"] = r->fill_s;
  } else {
    missing.push_back("cluster.fill_s");
  }
  const double accepted = arg0(TraceEventType::kCellCommit);
  const double claims = accepted + arg1(TraceEventType::kCellCommit);
  L["cluster.commits"] = count(TraceEventType::kCellCommit);
  L["cluster.claims"] = claims;
  L["cluster.accept_ratio"] = Ratio(accepted, claims);
  L["cluster.cpu_util_end"] = in.cpu_util_end;

  const double attempts = count(TraceEventType::kAttemptBegin);
  L["scheduler.attempts"] = attempts;
  L["scheduler.attempts_per_job"] = Ratio(attempts, jobs);
  L["scheduler.task_starts"] = count(TraceEventType::kTaskStart);

  if (in.omega_arch) {
    const double txn_ok = arg0(TraceEventType::kTxnCommit);
    const double txn_conflicted = arg1(TraceEventType::kTxnCommit);
    L["omega.txns"] = count(TraceEventType::kTxnCommit);
    L["omega.claim_conflicts"] = count(TraceEventType::kClaimConflict);
    L["omega.conflict_ratio"] = Ratio(txn_conflicted, txn_ok + txn_conflicted);
  } else {
    missing.insert(missing.end(),
                   {"omega.txns", "omega.claim_conflicts", "omega.conflict_ratio"});
  }

  if (in.mesos) {
    L["mesos.offers"] = attempts;
    L["mesos.tasks_per_offer"] = Ratio(arg0(TraceEventType::kTxnCommit), attempts);
    L["mesos.us_per_offer"] = Ratio(r->run_s * 1e6, attempts);
  } else {
    missing.insert(missing.end(),
                   {"mesos.offers", "mesos.tasks_per_offer", "mesos.us_per_offer"});
  }

  if (in.fed != nullptr) {
    const omega::FederationMetrics& m = in.fed->metrics();
    L["federation.routed"] = static_cast<double>(m.jobs_routed);
    L["federation.spills"] = static_cast<double>(m.spills);
    L["federation.lost"] = static_cast<double>(m.jobs_lost);
    L["federation.summaries_delivered"] =
        static_cast<double>(m.summaries_delivered);
    L["federation.hash_fallback_routes"] =
        static_cast<double>(m.hash_fallback_routes);
    L["federation.windows"] = static_cast<double>(in.fed->WindowCount());
    L["federation.us_per_job"] =
        Ratio(r->run_s * 1e6, static_cast<double>(m.jobs_routed));
  } else {
    for (const MetricInfo& m : PerLayerMetrics()) {
      if (std::string_view(m.layer) == "federation") {
        missing.emplace_back(m.name);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Workloads.

SimOptions BaseOptions(uint64_t seed, double days) {
  SimOptions opts;
  opts.horizon = Duration::FromDays(days);
  opts.seed = seed;
  return opts;
}

// omega-contended: lightweight Omega, cluster B, 16 batch + 1 service
// scheduler, batch arrivals x10, one simulated day.
constexpr uint32_t kContendedBatchSchedulers = 16;

std::unique_ptr<OmegaSimulation> MakeContended(uint64_t seed,
                                               omega::PlacerFactory factory) {
  SimOptions opts = BaseOptions(seed, 1.0);
  opts.batch_rate_multiplier = 10.0;
  return std::make_unique<OmegaSimulation>(
      omega::ClusterB(), opts, Sched("batch"), Sched("service"),
      kContendedBatchSchedulers, omega::GeneratorOptions{}, std::move(factory));
}

void RunOmegaContended(uint64_t seed, const TrialOptions& o, TrialResult& r) {
  SpanRecorder* spans = o.spans;
  PlacerStats rff;
  omega::PlacerFactory factory = nullptr;
  if (o.traced) {
    factory = [&rff, spans] {
      return std::make_unique<TimedPlacer>(
          std::make_unique<omega::RandomizedFirstFitPlacer>(), &rff, spans,
          "scheduler.placer");
    };
  }
  std::unique_ptr<TraceRecorder> rec;
  std::unique_ptr<OmegaSimulation> sim;
  r.construct_s = Timed(spans, "construct", [&] {
    sim = MakeContended(seed, std::move(factory));
    if (o.traced) {
      rec = std::make_unique<TraceRecorder>(kTraceRingEvents);
      sim->SetTraceRecorder(rec.get());
    }
  });
  r.fill_s = Timed(spans, "fill", [&] { sim->PrepareRun(); });
  if (o.setup_only) {
    return;
  }
  int64_t events = 0;
  r.run_s = Timed(spans, "run", [&] { events = sim->sim().RunUntil(sim->EndTime()); });
  Fingerprint fp;
  r.extract_s = Timed(spans, "extract", [&] {
    AddOmegaCell(fp, "", *sim);
    r.fingerprint_text = fp.str();
  });
  r.front_door_jobs = sim->JobsSubmittedTotal();
  CheckOmegaCell(*sim, "", &r.check_failures);
  if (o.traced) {
    LayerInputs in;
    in.rec = rec.get();
    in.events = events;
    in.rff = &rff;
    in.omega_arch = true;
    in.cpu_util_end = sim->cell().CpuUtilization();
    FillLayer(in, &r);
  }
  r.teardown_s = Timed(spans, "teardown", [&] { sim.reset(); });
}

// hifi-replay: a generated cluster-B day trace with constraints, round-tripped
// through the on-disk format and replayed by the high-fidelity simulation
// (scoring placer, 4% headroom, availability index).
void RunHifiReplay(uint64_t seed, const TrialOptions& o, TrialResult& r) {
  SpanRecorder* spans = o.spans;
  const omega::ClusterConfig cluster = omega::ClusterB();
  const Duration horizon = Duration::FromDays(1.0);
  const omega::HifiOptions hifi;
  std::vector<omega::Job> trace;
  r.gen_s = Timed(spans, "workload.gen",
                  [&] { trace = omega::GenerateHifiTrace(cluster, horizon, seed, hifi); });
  const std::string path =
      (std::filesystem::path(o.work_dir) /
       ("hifi-replay-" + std::to_string(seed) + ".trace"))
          .string();
  r.trace_io_s = Timed(spans, "workload.trace_io",
                       [&] { trace = omega::RoundTripTrace(trace, path); });
  std::error_code size_ec;
  const auto trace_bytes = std::filesystem::file_size(path, size_ec);
  std::error_code remove_ec;
  std::filesystem::remove(path, remove_ec);
  for (const omega::Job& job : trace) {
    r.constrained_jobs += job.constraints.empty() ? 0 : 1;
  }

  // Arrivals come from the trace, so the harness's own streams are off;
  // every other option is the library default.
  SimOptions opts = BaseOptions(seed, 1.0);
  opts.batch_rate_multiplier = 0.0;
  opts.service_rate_multiplier = 0.0;

  PlacerStats scoring;
  std::unique_ptr<TraceRecorder> rec;
  std::unique_ptr<OmegaSimulation> sim;
  r.construct_s = Timed(spans, "construct", [&] {
    if (o.traced) {
      // MakeHifiSimulation's setup, with the scoring placer wrapped.
      SimOptions h = opts;
      h.fullness = omega::FullnessPolicy::kHeadroom;
      h.headroom_fraction = hifi.headroom_fraction;
      omega::GeneratorOptions gen;
      gen.generate_constraints = true;
      gen.num_attribute_keys = hifi.num_attribute_keys;
      gen.num_attribute_values = hifi.num_attribute_values;
      const omega::ScoringPlacerOptions placer_options = hifi.placer;
      omega::PlacerFactory factory = [&scoring, spans, placer_options] {
        return std::make_unique<TimedPlacer>(
            std::make_unique<omega::ScoringPlacer>(placer_options), &scoring,
            spans, "hifi.placer");
      };
      sim = std::make_unique<OmegaSimulation>(cluster, h, Sched("batch"),
                                              Sched("service"),
                                              hifi.num_batch_schedulers, gen,
                                              std::move(factory));
      sim->cell().EnableAvailabilityIndex();
    } else {
      sim = omega::MakeHifiSimulation(cluster, opts, Sched("batch"),
                                      Sched("service"), hifi);
    }
    if (o.traced) {
      rec = std::make_unique<TraceRecorder>(kTraceRingEvents);
      sim->SetTraceRecorder(rec.get());
    }
  });
  r.fill_s = Timed(spans, "fill", [&] { sim->PrepareRun(); });
  // ClusterSimulation::RunTrace's arrival scheduling, after the fill.
  r.construct_s += Timed(spans, "schedule_arrivals", [&] {
    OmegaSimulation* s = sim.get();
    for (omega::Job& job : trace) {
      if (job.submit_time > s->EndTime()) {
        continue;
      }
      auto ptr = std::make_shared<omega::Job>(std::move(job));
      s->sim().ScheduleAt(ptr->submit_time, [s, ptr] { s->InjectJob(ptr); });
    }
    trace.clear();
    trace.shrink_to_fit();
  });
  if (o.setup_only) {
    return;
  }
  int64_t events = 0;
  r.run_s = Timed(spans, "run", [&] { events = sim->sim().RunUntil(sim->EndTime()); });
  Fingerprint fp;
  r.extract_s = Timed(spans, "extract", [&] {
    AddOmegaCell(fp, "", *sim);
    r.fingerprint_text = fp.str();
  });
  r.front_door_jobs = sim->JobsSubmittedTotal();
  CheckOmegaCell(*sim, "", &r.check_failures);
  if (o.traced) {
    LayerInputs in;
    in.rec = rec.get();
    in.events = events;
    in.scoring = &scoring;
    in.omega_arch = true;
    in.trace_bytes = size_ec ? 0 : static_cast<int64_t>(trace_bytes);
    in.cpu_util_end = sim->cell().CpuUtilization();
    FillLayer(in, &r);
  }
  r.teardown_s = Timed(spans, "teardown", [&] { sim.reset(); });
}

// mesos-offers: two-level Mesos on cluster A, one simulated day, paper
// default decision times.
void RunMesosOffers(uint64_t seed, const TrialOptions& o, TrialResult& r) {
  SpanRecorder* spans = o.spans;
  std::unique_ptr<TraceRecorder> rec;
  std::unique_ptr<omega::MesosSimulation> sim;
  r.construct_s = Timed(spans, "construct", [&] {
    sim = std::make_unique<omega::MesosSimulation>(
        omega::ClusterA(), BaseOptions(seed, 1.0), Sched("batch"),
        Sched("service"));
    if (o.traced) {
      rec = std::make_unique<TraceRecorder>(kTraceRingEvents);
      sim->SetTraceRecorder(rec.get());
    }
  });
  r.fill_s = Timed(spans, "fill", [&] { sim->PrepareRun(); });
  if (o.setup_only) {
    return;
  }
  int64_t events = 0;
  r.run_s = Timed(spans, "run", [&] { events = sim->sim().RunUntil(sim->EndTime()); });
  Fingerprint fp;
  r.extract_s = Timed(spans, "extract", [&] {
    AddHarness(fp, "", *sim);
    const omega::SimTime end = sim->EndTime();
    for (omega::MesosFramework* f :
         {&sim->batch_framework(), &sim->service_framework()}) {
      const std::string p = f->name() + '.';
      AddSchedulerMetrics(fp, p, f->metrics(), end);
      fp.Int(p + "queued", static_cast<int64_t>(f->QueueDepth()));
      fp.Hex(p + "drf_share", sim->allocator().DominantShare(f));
    }
    const omega::Resources offered = sim->allocator().TotalOffered();
    fp.Hex("offered.cpus", offered.cpus);
    fp.Hex("offered.mem", offered.mem_gb);
    r.fingerprint_text = fp.str();
  });
  r.front_door_jobs = sim->JobsSubmittedTotal();
  if (!sim->cell().CheckInvariants()) {
    r.check_failures.emplace_back("CellState::CheckInvariants failed");
  }
  for (omega::MesosFramework* f :
       {&sim->batch_framework(), &sim->service_framework()}) {
    if (JobsAccounted(*f, f->type()) != sim->JobsSubmitted(f->type())) {
      r.check_failures.push_back(f->name() + " jobs not conserved");
    }
  }
  if (o.traced) {
    LayerInputs in;
    in.rec = rec.get();
    in.events = events;
    in.mesos = true;
    in.cpu_util_end = sim->cell().CpuUtilization();
    FillLayer(in, &r);
  }
  r.teardown_s = Timed(spans, "teardown", [&] { sim.reset(); });
}

// federation-16: 16 cluster-D cells, least-loaded routing on 15 s gossip
// (1 s delay), next-best spillover, 60 s pending timeout, batch arrivals
// x10, half a simulated day, default (shared) event queue.
void RunFederation16(uint64_t seed, const TrialOptions& o, TrialResult& r) {
  SpanRecorder* spans = o.spans;
  SimOptions opts = BaseOptions(seed, 0.5);
  opts.batch_rate_multiplier = 10.0;
  omega::FederationOptions fed_options;
  fed_options.num_cells = 16;
  fed_options.routing = omega::FederationRouting::kLeastLoaded;
  fed_options.spillover = omega::SpilloverPolicy::kNextBest;
  fed_options.gossip_interval = Duration::FromSeconds(15);
  fed_options.gossip_delay = Duration::FromSeconds(1);
  fed_options.pending_timeout = Duration::FromSeconds(60);

  std::unique_ptr<TraceRecorder> rec;
  std::unique_ptr<omega::FederationSim> fed;
  r.construct_s = Timed(spans, "construct", [&] {
    fed = std::make_unique<omega::FederationSim>(
        omega::ClusterD(), opts, Sched("batch"), Sched("service"), fed_options);
    if (o.traced) {
      rec = std::make_unique<TraceRecorder>(kTraceRingEvents);
      fed->SetTraceRecorder(rec.get());
    }
  });
  if (o.setup_only) {
    return;
  }
  // FederationSim::Run prepares (fills) every cell and then runs the shared
  // queue; the fill is inside the run here.
  r.run_s = Timed(spans, "run", [&] { fed->Run(); });
  const omega::FederationMetrics& m = fed->metrics();
  Fingerprint fp;
  r.extract_s = Timed(spans, "extract", [&] {
    fp.Int("routed", m.jobs_routed);
    fp.Int("spills", m.spills);
    fp.Int("spill_timeouts", m.spill_timeouts);
    fp.Int("spill_rejections", m.spill_rejections);
    fp.Int("fully_scheduled", m.jobs_fully_scheduled);
    fp.Int("lost", m.jobs_lost);
    fp.Int("summaries_published", m.summaries_published);
    fp.Int("summaries_delivered", m.summaries_delivered);
    fp.Int("hash_fallback_routes", m.hash_fallback_routes);
    for (uint32_t i = 0; i < fed->num_cells(); ++i) {
      const std::string p = "cell" + std::to_string(i) + '.';
      fp.Int(p + "routed", m.routed_per_cell[i]);
      AddOmegaCell(fp, p, fed->cell(i));
    }
    fp.Hex("fleet_conflict_fraction", fed->FleetConflictFraction());
    fp.Hex("mean_cpu_util", fed->MeanCellCpuUtilization());
    r.fingerprint_text = fp.str();
  });
  r.front_door_jobs = m.jobs_routed;

  // Conservation at the front door: every routing decision (first or spill)
  // went to one cell, and no job both scheduled and got lost. Cells can have
  // received fewer jobs than routed to them: transfers in flight at the
  // horizon.
  int64_t routed_to_cells = 0;
  int64_t cell_submitted = 0;
  for (uint32_t i = 0; i < fed->num_cells(); ++i) {
    routed_to_cells += m.routed_per_cell[i];
    cell_submitted += fed->cell(i).JobsSubmittedTotal();
    if (!fed->cell(i).cell().CheckInvariants()) {
      r.check_failures.push_back("cell" + std::to_string(i) +
                                 ": CellState::CheckInvariants failed");
    }
  }
  if (routed_to_cells != m.jobs_routed + m.spills) {
    r.check_failures.emplace_back("routing decisions != routed + spills");
  }
  if (m.jobs_fully_scheduled + m.jobs_lost > m.jobs_routed) {
    r.check_failures.emplace_back("scheduled + lost exceeds routed jobs");
  }
  if (cell_submitted > routed_to_cells) {
    r.check_failures.emplace_back("cells received more jobs than were routed");
  }
  if (o.traced) {
    LayerInputs in;
    in.rec = rec.get();
    in.omega_arch = true;
    in.fed = fed.get();
    in.fill_observed = false;
    in.cpu_util_end = fed->MeanCellCpuUtilization();
    FillLayer(in, &r);
  }
  r.teardown_s = Timed(spans, "teardown", [&] { fed.reset(); });
}

using RunFn = void (*)(uint64_t, const TrialOptions&, TrialResult&);

RunFn RunnerFor(std::string_view name) {
  if (name == "omega-contended") return RunOmegaContended;
  if (name == "hifi-replay") return RunHifiReplay;
  if (name == "mesos-offers") return RunMesosOffers;
  if (name == "federation-16") return RunFederation16;
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

}  // namespace

// Why each workload was chosen is in perfbench/BENCHMARK.md and BENCHMARK.json.
const std::vector<WorkloadInfo>& Workloads() {
  static const std::vector<WorkloadInfo> kWorkloads = {
      {"omega-contended", kPinOmegaContended},
      {"hifi-replay", kPinHifiReplay},
      {"mesos-offers", kPinMesosOffers},
      {"federation-16", kPinFederation16},
  };
  return kWorkloads;
}

const WorkloadInfo* FindWorkload(std::string_view name) {
  for (const WorkloadInfo& w : Workloads()) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

const std::vector<MetricInfo>& EndToEndMetrics() {
  static const std::vector<MetricInfo> kMetrics = {
      {"setup_s", "s", "lower", "end_to_end"},
      {"jobs_per_s", "jobs/s", "higher", "end_to_end"},
      {"wall_s", "s", "lower", "end_to_end"},
      {"peak_rss_mb", "MiB", "lower", "end_to_end"},
  };
  return kMetrics;
}

const std::vector<MetricInfo>& PerLayerMetrics() {
  static const std::vector<MetricInfo> kMetrics = {
      {"sim.events", "count", "lower", "sim"},
      {"sim.ns_per_event", "ns", "lower", "sim"},
      {"sim.loop_self_s", "s", "lower", "sim"},
      {"workload.jobs", "count", "higher", "workload"},
      {"workload.tasks", "count", "higher", "workload"},
      {"workload.gen_s", "s", "lower", "workload"},
      {"workload.trace_io_s", "s", "lower", "workload"},
      {"workload.trace_bytes", "bytes", "lower", "workload"},
      {"cluster.fill_s", "s", "lower", "cluster"},
      {"cluster.commits", "count", "lower", "cluster"},
      {"cluster.claims", "count", "lower", "cluster"},
      {"cluster.accept_ratio", "ratio", "higher", "cluster"},
      {"cluster.cpu_util_end", "ratio", "higher", "cluster"},
      {"scheduler.placer_calls", "count", "lower", "scheduler"},
      {"scheduler.placer_s", "s", "lower", "scheduler"},
      {"scheduler.placer_ns_per_task", "ns", "lower", "scheduler"},
      {"scheduler.placer_fit_ratio", "ratio", "higher", "scheduler"},
      {"scheduler.placer_share", "ratio", "lower", "scheduler"},
      {"scheduler.attempts", "count", "lower", "scheduler"},
      {"scheduler.attempts_per_job", "ratio", "lower", "scheduler"},
      {"scheduler.task_starts", "count", "higher", "scheduler"},
      {"omega.txns", "count", "lower", "omega"},
      {"omega.claim_conflicts", "count", "lower", "omega"},
      {"omega.conflict_ratio", "ratio", "lower", "omega"},
      {"hifi.placer_calls", "count", "lower", "hifi"},
      {"hifi.placer_s", "s", "lower", "hifi"},
      {"hifi.placer_ns_per_task", "ns", "lower", "hifi"},
      {"hifi.placer_fit_ratio", "ratio", "higher", "hifi"},
      {"hifi.placer_share", "ratio", "lower", "hifi"},
      {"mesos.offers", "count", "lower", "mesos"},
      {"mesos.tasks_per_offer", "ratio", "higher", "mesos"},
      {"mesos.us_per_offer", "us", "lower", "mesos"},
      {"federation.routed", "count", "higher", "federation"},
      {"federation.spills", "count", "lower", "federation"},
      {"federation.lost", "count", "lower", "federation"},
      {"federation.summaries_delivered", "count", "higher", "federation"},
      {"federation.hash_fallback_routes", "count", "lower", "federation"},
      {"federation.windows", "count", "lower", "federation"},
      {"federation.us_per_job", "us", "lower", "federation"},
      {"trace.overhead_frac", "ratio", "lower", "trace"},
      {"host.probe_ns_per_step", "ns", "lower", "host"},
  };
  return kMetrics;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 || !std::isalnum(static_cast<unsigned char>(name[0]))) {
    return false;
  }
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' &&
        c != '-') {
      return false;
    }
  }
  return true;
}

bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) {
    return false;
  }
  for (char c : unit) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '/' &&
        c != '%' && c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

uint64_t Fnv1a64(std::string_view text) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TrialResult RunTrial(const WorkloadInfo& workload, uint64_t seed,
                     const TrialOptions& options) {
  const RunFn run = RunnerFor(workload.name);
  TrialResult r;
  {
    ScopedSpan trial(options.spans, "trial");
    run(seed, options, r);
  }
  r.setup_s = r.gen_s + r.trace_io_s + r.construct_s + r.fill_s;
  r.wall_s = r.setup_s + r.run_s + r.extract_s + r.teardown_s;
  r.fingerprint = Fnv1a64(r.fingerprint_text);
  return r;
}

uint64_t LibraryFingerprint(const WorkloadInfo& workload, uint64_t seed,
                            const std::string& work_dir) {
  const std::string_view name = workload.name;
  Fingerprint fp;
  if (name == "omega-contended") {
    auto sim = MakeContended(seed, nullptr);
    sim->Run();
    AddOmegaCell(fp, "", *sim);
  } else if (name == "hifi-replay") {
    const omega::ClusterConfig cluster = omega::ClusterB();
    const Duration horizon = Duration::FromDays(1.0);
    const std::string path =
        (std::filesystem::path(work_dir) /
         ("hifi-library-" + std::to_string(seed) + ".trace"))
            .string();
    auto trace = omega::RoundTripTrace(
        omega::GenerateHifiTrace(cluster, horizon, seed), path);
    std::error_code ec;
    std::filesystem::remove(path, ec);
    auto sim = omega::MakeHifiSimulation(cluster, BaseOptions(seed, 1.0),
                                         Sched("batch"), Sched("service"));
    sim->RunTrace(std::move(trace));
    AddOmegaCell(fp, "", *sim);
  } else {
    return RunTrial(workload, seed, TrialOptions{.work_dir = work_dir}).fingerprint;
  }
  return Fnv1a64(fp.str());
}

}  // namespace perfbench
