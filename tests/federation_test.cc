// Multi-cell federation (DESIGN.md §13): determinism differentials across
// sweep threads, gossip-staleness edge cases,
// spillover end-to-end, and pinned digests for the shared queue's
// equal-time edges.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/exp/sweep.h"
#include "src/federation/federation.h"
#include "src/obs/federation_report.h"
#include "src/trace/trace_recorder.h"
#include "src/workload/cluster_config.h"
#include "tests/bitwise_eq.h"
#include "tests/sim_fingerprint.h"

namespace omega {
namespace {

SchedulerConfig Sched(const std::string& name) {
  SchedulerConfig c;
  c.name = name;
  return c;
}

SimOptions BaseOptions(uint64_t seed, double hours = 0.25) {
  SimOptions o;
  o.horizon = Duration::FromHours(hours);
  o.seed = seed;
  return o;
}

FederationOptions BaseFed(uint32_t cells = 4) {
  FederationOptions f;
  f.num_cells = cells;
  f.gossip_interval = Duration::FromSeconds(15);
  f.gossip_delay = Duration::FromSeconds(1);
  f.gossip_jitter = Duration::FromSeconds(2);
  f.pending_timeout = Duration::FromSeconds(120);
  f.max_spills = 2;
  return f;
}

// Everything a federation run can surface, for bitwise comparison: front-door
// counters, fleet statistics, per-cell submissions/utilization, and the sum
// of every machine's commit seqnum in every cell (a fingerprint of the entire
// transaction history).
struct FedResult {
  int64_t routed = 0;
  int64_t scheduled = 0;
  int64_t lost = 0;
  int64_t spills = 0;
  int64_t timeouts = 0;
  int64_t rejections = 0;
  int64_t published = 0;
  int64_t delivered = 0;
  int64_t fallback = 0;
  int64_t submitted = 0;
  int64_t abandoned = 0;
  uint64_t seqnum_sum = 0;
  double staleness_mean = 0.0;
  double delivery_mean = 0.0;
  double tts_p50 = 0.0;
  double tts_p90 = 0.0;
  double spill_p90 = 0.0;
  double conflict = 0.0;
  double util_mean = 0.0;
  double skew = 0.0;
  std::vector<double> cell_cpu;
  std::vector<int64_t> cell_submitted;
};

// Runs one federation. With `trace_bytes`, a recorder is attached and its
// JSON-lines export returned; with `cells_digest` as well, every cell's
// FingerprintDigest (machine state, counters and the shared trace stream)
// is folded, in cell order, into one FNV-1a value.
FedResult RunFed(const SimOptions& options, const FederationOptions& fed_opts,
                 std::string* trace_bytes = nullptr,
                 uint64_t* cells_digest = nullptr) {
  FederationSim fed(TestCluster(24), options, Sched("batch"), Sched("service"),
                    fed_opts);
  TraceRecorder recorder;
  if (trace_bytes != nullptr) {
    fed.SetTraceRecorder(&recorder);
  }
  fed.Run();
  const FederationMetrics& m = fed.metrics();
  FedResult r;
  r.routed = m.jobs_routed;
  r.scheduled = m.jobs_fully_scheduled;
  r.lost = m.jobs_lost;
  r.spills = m.spills;
  r.timeouts = m.spill_timeouts;
  r.rejections = m.spill_rejections;
  r.published = m.summaries_published;
  r.delivered = m.summaries_delivered;
  r.fallback = m.hash_fallback_routes;
  r.submitted = fed.JobsSubmittedTotal();
  r.abandoned = fed.TotalJobsAbandoned();
  r.staleness_mean = m.routing_staleness_secs.mean();
  r.delivery_mean = m.delivery_latency_secs.mean();
  r.tts_p50 = m.time_to_scheduled_secs.Quantile(0.5);
  r.tts_p90 = m.time_to_scheduled_secs.Quantile(0.9);
  r.spill_p90 = m.spillover_latency_secs.Quantile(0.9);
  r.conflict = fed.FleetConflictFraction();
  r.util_mean = fed.MeanCellCpuUtilization();
  r.skew = fed.CpuUtilizationSkew();
  for (uint32_t i = 0; i < fed.num_cells(); ++i) {
    r.cell_cpu.push_back(fed.cell(i).cell().CpuUtilization());
    r.cell_submitted.push_back(fed.cell(i).JobsSubmittedTotal());
    for (MachineId mch = 0; mch < fed.cell(i).cell().NumMachines(); ++mch) {
      r.seqnum_sum += fed.cell(i).cell().machine(mch).seqnum;
    }
  }
  if (trace_bytes != nullptr) {
    std::ostringstream os;
    recorder.ExportJsonLines(os);
    *trace_bytes = os.str();
    if (cells_digest != nullptr) {
      Fnv1a fnv;
      for (uint32_t i = 0; i < fed.num_cells(); ++i) {
        fnv.U64(FingerprintDigest(Fingerprint(fed.cell(i), recorder)));
      }
      *cells_digest = fnv.h;
    }
  }
  return r;
}

// FNV-1a over every FedResult field (doubles by bit pattern).
uint64_t ResultDigest(const FedResult& r) {
  Fnv1a fnv;
  for (const int64_t v :
       {r.routed, r.scheduled, r.lost, r.spills, r.timeouts, r.rejections,
        r.published, r.delivered, r.fallback, r.submitted, r.abandoned}) {
    fnv.U64(static_cast<uint64_t>(v));
  }
  fnv.U64(r.seqnum_sum);
  for (const double v : {r.staleness_mean, r.delivery_mean, r.tts_p50,
                         r.tts_p90, r.spill_p90, r.conflict, r.util_mean,
                         r.skew}) {
    fnv.Double(v);
  }
  for (size_t i = 0; i < r.cell_cpu.size(); ++i) {
    fnv.Double(r.cell_cpu[i]);
    fnv.U64(static_cast<uint64_t>(r.cell_submitted[i]));
  }
  return fnv.h;
}

void ExpectSameResult(const FedResult& a, const FedResult& b) {
  EXPECT_EQ(a.routed, b.routed);
  EXPECT_EQ(a.scheduled, b.scheduled);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.spills, b.spills);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.rejections, b.rejections);
  EXPECT_EQ(a.published, b.published);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.fallback, b.fallback);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.abandoned, b.abandoned);
  EXPECT_EQ(a.seqnum_sum, b.seqnum_sum);
  EXPECT_TRUE(SameBits(a.staleness_mean, b.staleness_mean));
  EXPECT_TRUE(SameBits(a.delivery_mean, b.delivery_mean));
  EXPECT_TRUE(SameBits(a.tts_p50, b.tts_p50));
  EXPECT_TRUE(SameBits(a.tts_p90, b.tts_p90));
  EXPECT_TRUE(SameBits(a.spill_p90, b.spill_p90));
  EXPECT_TRUE(SameBits(a.conflict, b.conflict));
  EXPECT_TRUE(SameBits(a.util_mean, b.util_mean));
  EXPECT_TRUE(SameBits(a.skew, b.skew));
  ASSERT_EQ(a.cell_cpu.size(), b.cell_cpu.size());
  for (size_t i = 0; i < a.cell_cpu.size(); ++i) {
    EXPECT_TRUE(SameBits(a.cell_cpu[i], b.cell_cpu[i])) << "cell " << i;
    EXPECT_EQ(a.cell_submitted[i], b.cell_submitted[i]) << "cell " << i;
  }
}

// Same seed => bit-identical federation results regardless of how the sweep
// shards trials over worker threads.
TEST(FederationDeterminismTest, BitIdenticalAcrossSweepThreads) {
  constexpr size_t kTrials = 3;
  auto run_sweep = [&](size_t threads) {
    SweepRunner runner("federation_det", /*base_seed=*/77, threads);
    return runner.Run(kTrials, [](const TrialContext& ctx) {
      return RunFed(BaseOptions(ctx.seed), BaseFed());
    });
  };
  const auto on1 = run_sweep(1);
  const auto on2 = run_sweep(2);
  const auto on8 = run_sweep(8);
  ASSERT_EQ(on1.size(), kTrials);
  for (size_t i = 0; i < kTrials; ++i) {
    SCOPED_TRACE("trial " + std::to_string(i));
    ExpectSameResult(on1[i], on2[i]);
    ExpectSameResult(on1[i], on8[i]);
  }
  // The trials are genuinely different runs, not copies of one stream.
  EXPECT_NE(on1[0].seqnum_sum, on1[1].seqnum_sum);
}

// Gossip that is published but never delivered leaves the least-loaded router
// with no summaries, so every decision falls back to the job-id hash — which
// must be exactly the static-partitioning baseline, bit for bit.
TEST(FederationGossipTest, InfiniteDelayEqualsStaticPartitioning) {
  FederationOptions never = BaseFed();
  never.routing = FederationRouting::kLeastLoaded;
  never.gossip_delay = Duration::Max();
  FederationOptions static_hash = never;
  static_hash.routing = FederationRouting::kStaticHash;
  const FedResult a = RunFed(BaseOptions(9), never);
  const FedResult b = RunFed(BaseOptions(9), static_hash);
  ExpectSameResult(a, b);
  EXPECT_EQ(a.delivered, 0);
  EXPECT_GT(a.published, 0);
  EXPECT_EQ(a.fallback, a.routed + a.spills);
}

// Static routing never consults summaries, so the gossip configuration is
// observationally inert: cell outcomes are bit-identical whether summaries
// flow normally or never arrive. (Only the gossip counters may differ.)
TEST(FederationGossipTest, GossipInertUnderStaticRouting) {
  FederationOptions flowing = BaseFed();
  flowing.routing = FederationRouting::kStaticHash;
  flowing.gossip_jitter = Duration::Zero();
  FederationOptions starved = flowing;
  starved.gossip_delay = Duration::Max();
  FedResult a = RunFed(BaseOptions(13), flowing);
  FedResult b = RunFed(BaseOptions(13), starved);
  EXPECT_GT(a.delivered, 0);
  EXPECT_EQ(b.delivered, 0);
  // Neutralize the fields gossip is allowed to touch, then demand bitwise
  // equality of everything else.
  b.delivered = a.delivered;
  b.delivery_mean = a.delivery_mean;
  ExpectSameResult(a, b);
}

// Zero gossip delay means every summary arrives the instant it is published;
// zero interval means the router reads live state (staleness identically 0).
TEST(FederationGossipTest, ZeroDelayAndLiveSummariesAreFresh) {
  FederationOptions zero_delay = BaseFed();
  zero_delay.gossip_delay = Duration::Zero();
  zero_delay.gossip_jitter = Duration::Zero();
  const FedResult a = RunFed(BaseOptions(21), zero_delay);
  EXPECT_GT(a.delivered, 0);
  EXPECT_TRUE(SameBits(a.delivery_mean, 0.0));
  // Staleness at routing time is bounded by the publish cadence.
  EXPECT_LE(a.staleness_mean, zero_delay.gossip_interval.ToSeconds());

  FederationOptions live = BaseFed();
  live.gossip_interval = Duration::Zero();
  const FedResult b = RunFed(BaseOptions(21), live);
  EXPECT_EQ(b.published, 0);
  EXPECT_EQ(b.fallback, 0);  // live summaries are always available
  EXPECT_TRUE(SameBits(b.staleness_mean, 0.0));
}

// Admission rejection spills a job to the next cell; when every cell has
// rejected it, the job is lost. With admission_limit = 0 every cell rejects
// everything, so the arithmetic is exact.
TEST(FederationSpilloverTest, RejectionSpillsThenLoses) {
  SchedulerConfig closed_batch = Sched("batch");
  closed_batch.admission_limit = 0;
  SchedulerConfig closed_service = Sched("service");
  closed_service.admission_limit = 0;
  FederationOptions fed_opts = BaseFed(/*cells=*/2);
  fed_opts.max_spills = 4;  // more budget than cells: the mask must stop it
  SimOptions options = BaseOptions(3, /*hours=*/0.1);
  FederationSim fed(TestCluster(8), options, closed_batch, closed_service,
                    fed_opts);
  fed.Run();
  const FederationMetrics& m = fed.metrics();
  EXPECT_GT(m.jobs_routed, 0);
  EXPECT_GT(m.jobs_lost, 0);
  EXPECT_EQ(m.jobs_fully_scheduled, 0);
  EXPECT_EQ(m.spills, m.spill_rejections);
  EXPECT_EQ(m.spill_timeouts, 0);
  // With two cells the tried-mask caps every job at one spill even though
  // max_spills allows four; each lost job spilled exactly once. Jobs still in
  // transfer flight at the horizon account for the slack in both bounds.
  EXPECT_GE(m.spills, m.jobs_lost);
  EXPECT_LE(m.spills, m.jobs_routed);
}

// A cell that sits on a job past the pending timeout loses it to a sibling,
// and the job still completes somewhere: spilled work is not dropped.
TEST(FederationSpilloverTest, TimeoutSpillsCompleteElsewhere) {
  // Keep per-cell queues stable (utilization ~0.6) so timeouts come from
  // transient bursts, not permanent overload: a job that times out behind a
  // burst in one cell usually finds the other cell's queue short enough to
  // finish within the timeout, exercising the full spill-and-complete path.
  SchedulerConfig slow_batch = Sched("batch");
  slow_batch.batch_times.t_job = Duration::FromSeconds(5);
  FederationOptions fed_opts = BaseFed(/*cells=*/2);
  fed_opts.pending_timeout = Duration::FromSeconds(15);
  SimOptions options = BaseOptions(4, /*hours=*/0.5);
  options.batch_rate_multiplier = 0.25;
  options.service_rate_multiplier = 0.0;  // batch-only keeps this focused
  FederationSim fed(TestCluster(16), options, slow_batch, Sched("service"),
                    fed_opts);
  fed.Run();
  const FederationMetrics& m = fed.metrics();
  EXPECT_GT(m.spill_timeouts, 0);
  EXPECT_GT(m.jobs_fully_scheduled, 0);
  EXPECT_EQ(m.spills, m.spill_timeouts + m.spill_rejections);
  // Every fully-scheduled job records a time-to-scheduled sample; only the
  // ones that hopped cells also land in the spillover CDF.
  EXPECT_EQ(static_cast<int64_t>(m.time_to_scheduled_secs.count()),
            m.jobs_fully_scheduled);
  EXPECT_GT(m.spillover_latency_secs.count(), size_t{0});
  EXPECT_LE(m.spillover_latency_secs.count(),
            m.time_to_scheduled_secs.count());
}

// A watchdog shorter than every batch decision cancels jobs while their
// attempt is in flight: the Omega scheduler's commit event still commits the
// claims it holds, starts the accepted tasks and completes the attempt, but
// the withdrawn job neither retries nor counts as scheduled, and its clone
// starts over in a sibling cell. The digests were recorded while each
// attempt still allocated its own claim vector.
TEST(FederationSpilloverTest, CancelledMidAttemptStopsAtItsAttempt) {
  SchedulerConfig slow_batch = Sched("batch");
  slow_batch.batch_times.t_job = Duration::FromSeconds(5);
  FederationOptions fed_opts = BaseFed(/*cells=*/4);
  fed_opts.pending_timeout = Duration::FromSeconds(2);
  fed_opts.max_spills = 3;
  SimOptions options = BaseOptions(45, /*hours=*/0.5);
  options.batch_rate_multiplier = 0.5;
  options.service_rate_multiplier = 0.0;
  FederationSim fed(TestCluster(16), options, slow_batch, Sched("service"),
                    fed_opts);
  TraceRecorder recorder;
  fed.SetTraceRecorder(&recorder);
  fed.Run();

  // Replay attempts per (track, job). An attempt that outlived the watchdog
  // had its job withdrawn mid-attempt when the job moved on: its clone
  // begins a first attempt on another track later.
  struct Attempt {
    uint16_t track;
    uint64_t job;
    int64_t begin_us;
    int64_t end_us;
    bool retried_at_once;
  };
  std::vector<Attempt> attempts;
  std::vector<TraceEvent> events;
  recorder.ForEachRetained(
      [&events](const TraceEvent& e) { events.push_back(e); });
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (e.type == TraceEventType::kAttemptBegin) {
      attempts.push_back(Attempt{e.track, e.job, e.time_us, -1, false});
    } else if (e.type == TraceEventType::kAttemptEnd) {
      for (size_t k = attempts.size(); k-- > 0;) {
        Attempt& a = attempts[k];
        if (a.track == e.track && a.job == e.job && a.end_us < 0) {
          a.end_us = e.time_us;
          a.retried_at_once =
              i + 1 < events.size() &&
              events[i + 1].type == TraceEventType::kAttemptBegin &&
              events[i + 1].job == e.job && events[i + 1].track == e.track;
          break;
        }
      }
    }
  }
  const int64_t timeout_us = fed_opts.pending_timeout.micros();
  int64_t cancelled_mid_attempt = 0;
  for (size_t k = 0; k < attempts.size(); ++k) {
    const Attempt& a = attempts[k];
    if (a.end_us < 0 || a.end_us - a.begin_us <= timeout_us) {
      continue;
    }
    bool moved_on = false;
    for (size_t later = k + 1; later < attempts.size() && !moved_on; ++later) {
      moved_on = attempts[later].job == a.job &&
                 attempts[later].track != a.track &&
                 attempts[later].begin_us >= a.begin_us + timeout_us;
    }
    if (moved_on) {
      ++cancelled_mid_attempt;
      EXPECT_FALSE(a.retried_at_once)
          << "withdrawn job " << a.job << " retried on track " << a.track;
    }
  }
  const FederationMetrics& m = fed.metrics();
  EXPECT_GT(cancelled_mid_attempt, 20);
  EXPECT_GT(m.spill_timeouts, 20);
  // No attempt ends before its job's watchdog, so every job is withdrawn
  // until its spills run out.
  EXPECT_EQ(m.jobs_fully_scheduled, 0);
  EXPECT_GT(m.jobs_lost, 0);
  for (uint32_t i = 0; i < fed.num_cells(); ++i) {
    EXPECT_TRUE(fed.cell(i).cell().CheckInvariants()) << "cell " << i;
  }
  Fnv1a cells;
  for (uint32_t i = 0; i < fed.num_cells(); ++i) {
    cells.U64(FingerprintDigest(Fingerprint(fed.cell(i), recorder)));
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%016" PRIx64, cells.h);
  EXPECT_EQ(cells.h, 0x33f250ee49a2f16eULL) << "cells digest is now " << hex;
}

// Run() is PrepareRun() followed by the master queue's loop, and returns the
// number of events that loop executed. A caller that times set-up and loop
// apart gets the same run, bit for bit, and the same count.
TEST(FederationRunTest, RunReturnsEventCountAndEqualsPrepareThenLoop) {
  const SimOptions options = BaseOptions(46);
  const FederationOptions fed_opts = BaseFed();
  auto build = [&options, &fed_opts] {
    return std::make_unique<FederationSim>(TestCluster(24), options,
                                           Sched("batch"), Sched("service"),
                                           fed_opts);
  };
  auto digest = [](FederationSim& fed, const TraceRecorder& recorder) {
    Fnv1a fnv;
    for (uint32_t i = 0; i < fed.num_cells(); ++i) {
      fnv.U64(FingerprintDigest(Fingerprint(fed.cell(i), recorder)));
    }
    fnv.U64(static_cast<uint64_t>(fed.metrics().jobs_fully_scheduled));
    fnv.U64(static_cast<uint64_t>(fed.metrics().spills));
    fnv.U64(static_cast<uint64_t>(fed.metrics().summaries_delivered));
    return fnv.h;
  };

  auto whole = build();
  TraceRecorder whole_trace;
  whole->SetTraceRecorder(&whole_trace);
  const int64_t whole_events = whole->Run();
  EXPECT_EQ(whole_events, 9408);

  auto split = build();
  TraceRecorder split_trace;
  split->SetTraceRecorder(&split_trace);
  split->PrepareRun();
  EXPECT_EQ(split->sim().Now(), SimTime::Zero());  // set-up pops nothing
  const int64_t split_events = split->sim().RunUntil(split->EndTime());
  EXPECT_EQ(split_events, whole_events);
  EXPECT_EQ(digest(*split, split_trace), digest(*whole, whole_trace));
}

// Multi-cell trials share one TraceRecorder: per-cell track names are
// namespaced, so two cells' schedulers never collide on one thread id.
TEST(FederationTraceTest, TracksAreNamespacedPerCell) {
  TraceRecorder recorder;
  FederationSim fed(TestCluster(16), BaseOptions(2, /*hours=*/0.05),
                    Sched("batch"), Sched("service"), BaseFed(/*cells=*/2));
  fed.SetTraceRecorder(&recorder);
  fed.Run();
  const std::vector<std::string>& names = recorder.track_names();
  auto has = [&](const std::string& name) {
    for (const std::string& n : names) {
      if (n == name) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has("cell0/batch-0"));
  EXPECT_TRUE(has("cell1/batch-0"));
  EXPECT_TRUE(has("cell0/cluster"));
  EXPECT_TRUE(has("cell1/cluster"));
  // The namespaced harness tracks keep cell events off the shared track 0.
  std::ostringstream os;
  recorder.ExportChromeTrace(os);
  const std::string trace = os.str();
  EXPECT_NE(trace.find("cell0/"), std::string::npos);
  EXPECT_NE(trace.find("cell1/"), std::string::npos);
}

// Seven edge configurations of the shared master queue, each pinned by three
// digests: the folded per-cell fingerprints, the front-door result, and the
// byte-exact JSON-lines trace. The first six are the configurations the
// removed conservative time-window execution was diffed against at 1, 2 and
// 8 threads; their digests were recorded from those bit-identical
// shared-queue runs before the removal. The seventh makes watchdogs tie
// with attempt completions, so it pins master-before-cell at equal times
// (with transfers and watchdogs moved behind the cells' lanes, only it
// fails); watchdog_races_spill pins the cells' index order. Any change to
// routing, gossip, transfer or watchdog timing fails here too.
TEST(FederationPinnedDigestTest, SharedQueueEdgeConfigurations) {
  struct PinnedCase {
    const char* name;
    uint64_t seed;
    FederationOptions fed;
    double batch_rate_multiplier;
    bool expects_timeouts;  // the watchdog edge must actually fire
    uint64_t cells_digest;
    uint64_t result_digest;
    uint64_t trace_digest;
  };
  FederationOptions static_hash = BaseFed();
  static_hash.routing = FederationRouting::kStaticHash;
  // Live summaries (no gossip) without spillover.
  FederationOptions live_no_spill = BaseFed();
  live_no_spill.gossip_interval = Duration::Zero();
  live_no_spill.spillover = SpilloverPolicy::kNone;
  // Jitter-free gossip with transfer_delay equal to the gossip interval:
  // every delivery collides with a publication instant.
  FederationOptions transfer_on_gossip = BaseFed();
  transfer_on_gossip.gossip_jitter = Duration::Zero();
  transfer_on_gossip.transfer_delay = transfer_on_gossip.gossip_interval;
  // Zero delivery delay: every summary lands at its publication instant.
  FederationOptions zero_gossip_delay = BaseFed();
  zero_gossip_delay.gossip_delay = Duration::Zero();
  zero_gossip_delay.gossip_jitter = Duration::Zero();
  // A pending timeout short enough to fire while jobs are still queued, under
  // doubled batch load: watchdog-vs-completion ties are common, and the
  // watchdog (master lane) wins a same-instant race.
  FederationOptions watchdog = BaseFed();
  watchdog.pending_timeout = Duration::FromSeconds(10);
  watchdog.max_spills = 3;
  // A pending timeout equal to a one-task batch decision (t_job + t_task):
  // a job delivered to an idle scheduler finishes its attempt at the very
  // instant its watchdog fires, and the master-lane watchdog spills it first.
  FederationOptions watchdog_tie = BaseFed();
  watchdog_tie.pending_timeout = Duration::FromMillis(105);
  watchdog_tie.max_spills = 3;
  const PinnedCase cases[] = {
      {"gossip_spillover", 31, BaseFed(), 1.0, false, 0xd926845bbec19f2fULL,
       0xfbe40ab0e373914fULL, 0x828fae34ef218313ULL},
      {"static_hash", 32, static_hash, 1.0, false, 0x559d8dd919c0f3efULL,
       0x4739ec845de9f79aULL, 0x0256ff38da95ab29ULL},
      {"live_no_spill", 35, live_no_spill, 1.0, false, 0xaee011a55c3cde51ULL,
       0x616b240c496e69faULL, 0xdfe783ee47cc315bULL},
      {"transfer_on_gossip", 41, transfer_on_gossip, 1.0, false,
       0x35fb67545b1a6c7eULL, 0xaaa133ab16082391ULL, 0xc1ceddf598442d9cULL},
      {"zero_gossip_delay", 42, zero_gossip_delay, 1.0, false,
       0x9469dee74a0bb164ULL, 0x11f37ae57c9ca6d5ULL, 0xb4164caa004b4798ULL},
      {"watchdog_races_spill", 43, watchdog, 2.0, true, 0xb4ffb774121ea13cULL,
       0x1d870bfeb1560808ULL, 0x89722ffe90b5f917ULL},
      {"watchdog_ties_attempt", 44, watchdog_tie, 1.0, true,
       0xcdda7c32640a6327ULL, 0x1f0c36d668bfc5c7ULL, 0x1e6da3046e2c232bULL},
  };
  auto hex = [](uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
    return std::string(buf);
  };
  for (const PinnedCase& c : cases) {
    SCOPED_TRACE(c.name);
    SimOptions options = BaseOptions(c.seed);
    options.batch_rate_multiplier = c.batch_rate_multiplier;
    std::string trace;
    uint64_t cells_digest = 0;
    const FedResult r = RunFed(options, c.fed, &trace, &cells_digest);
    EXPECT_FALSE(trace.empty());
    Fnv1a trace_fnv;
    trace_fnv.Bytes(trace);
    const uint64_t result_digest = ResultDigest(r);
    EXPECT_EQ(cells_digest, c.cells_digest)
        << "cells digest is now " << hex(cells_digest);
    EXPECT_EQ(result_digest, c.result_digest)
        << "result digest is now " << hex(result_digest);
    EXPECT_EQ(trace_fnv.h, c.trace_digest)
        << "trace digest is now " << hex(trace_fnv.h);
    if (c.expects_timeouts) {
      EXPECT_GT(r.timeouts, 0) << "edge not exercised: no watchdog fired";
    }
  }
}

// The federation report nests one RunReport per cell under a fleet section
// and renders as one JSON object.
TEST(FederationReportTest, BuildsAndSerializes) {
  FederationSim fed(TestCluster(16), BaseOptions(6, /*hours=*/0.1),
                    Sched("batch"), Sched("service"), BaseFed(/*cells=*/3));
  fed.Run();
  const FederationReport report = BuildFederationReport(fed);
  EXPECT_EQ(report.fleet.num_cells, 3u);
  ASSERT_EQ(report.cells.size(), 3u);
  EXPECT_EQ(report.cells[0].architecture, "federation/cell0");
  EXPECT_EQ(report.fleet.jobs_routed, fed.metrics().jobs_routed);
  ASSERT_EQ(report.fleet.routed_per_cell.size(), 3u);
  int64_t routed = 0;
  for (int64_t per_cell : report.fleet.routed_per_cell) {
    routed += per_cell;
  }
  EXPECT_EQ(routed, fed.metrics().jobs_routed + fed.metrics().spills);
  std::ostringstream os;
  report.ToJson(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"fleet\""), std::string::npos);
  EXPECT_NE(json.find("\"cells\""), std::string::npos);
  EXPECT_NE(json.find("\"cpu_utilization_skew\""), std::string::npos);
}

}  // namespace
}  // namespace omega
