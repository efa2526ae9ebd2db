// Reference initial-fill sampler, for differential tests.
//
// ReferenceSampleInitialTask is WorkloadGenerator::SampleInitialTask before
// its rejection loop learned to fast-reject, kept unchanged: every try draws
// a full duration sample (Box-Muller log/cos/exp) and then its acceptance
// uniform. The production sampler rejects most batch tries from the
// duration's upper bound alone, skipping the same draws on a copy of the
// stream; it must return bit-identical tasks and leave the generator's
// stream where this loop leaves it.
#pragma once

#include <algorithm>

#include "src/common/random.h"
#include "src/workload/cluster_config.h"
#include "src/workload/generator.h"

namespace omega {

// Samples one standing-stock task of `config` from `rng`, the way a
// WorkloadGenerator seeded with the same stream would.
inline WorkloadGenerator::InitialTask ReferenceSampleInitialTask(
    const ClusterConfig& config, Rng& rng) {
  const JobType type = rng.NextBool(0.85) ? JobType::kService : JobType::kBatch;
  const WorkloadParams& params =
      type == JobType::kBatch ? config.batch : config.service;

  constexpr double kCapSecs = 30.0 * 86400.0;
  double duration_secs = 0.0;
  for (int tries = 0; tries < 256; ++tries) {
    const double d = params.task_duration_secs->Sample(rng);
    if (rng.NextDouble() < std::min(1.0, d / kCapSecs)) {
      duration_secs = d;
      break;
    }
    duration_secs = d;  // fall back to the last draw if rejection is unlucky
  }
  WorkloadGenerator::InitialTask task;
  task.resources = Resources{params.cpus_per_task->Sample(rng),
                             params.mem_gb_per_task->Sample(rng)};
  task.precedence = DefaultPrecedence(type);
  task.remaining = Duration::FromSeconds(duration_secs * rng.NextDouble());
  return task;
}

}  // namespace omega
