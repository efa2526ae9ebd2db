#include "src/scheduler/monolithic.h"

#include "src/common/logging.h"

namespace omega {

MonolithicScheduler::MonolithicScheduler(ClusterSimulation& harness,
                                         SchedulerConfig config, Rng rng,
                                         MachineRange range)
    : QueueScheduler(harness, std::move(config)),
      placer_(/*max_random_probes=*/32, range),
      rng_(rng) {}

void MonolithicScheduler::BeginAttempt(const JobPtr& job) {
  const uint32_t remaining = job->TasksRemaining();
  const Duration decision = AccountAttemptStart(job, remaining);

  // The monolithic scheduler is the sole writer of cell state, so placement
  // can commit immediately; conflicts are impossible ("none (serialized)",
  // Table 1). The scheduler then stays busy for the decision time.
  uint32_t placed = 0;
  if (!ExceedsResourceLimit(*job)) {
    scratch_claims_.clear();
    placed = placer_.PlaceTasks(harness_.cell(), *job, remaining, rng_,
                                &scratch_claims_);
    const CommitResult result =
        harness_.cell().Commit(scratch_claims_, ConflictMode::kFineGrained,
                               CommitMode::kIncremental);
    OMEGA_CHECK(result.conflicted == 0);
    OMEGA_CHECK(static_cast<uint32_t>(result.accepted) == placed);
    metrics_.RecordTransaction(result.accepted, 0);
    StartPlacedTasks(*job, scratch_claims_);
  }

  harness_.sim().ScheduleAfter(decision, [this, job, placed] {
    CompleteAttempt(job, placed, /*had_conflict=*/false);
  });
}

MonolithicSimulation::MonolithicSimulation(const ClusterConfig& config,
                                           const SimOptions& options,
                                           const SchedulerConfig& scheduler_config)
    : ClusterSimulation(config, options) {
  scheduler_ = std::make_unique<MonolithicScheduler>(*this, scheduler_config,
                                                     rng().Fork());
}

void MonolithicSimulation::SubmitJob(const JobPtr& job) {
  scheduler_->Submit(job);
}

}  // namespace omega
