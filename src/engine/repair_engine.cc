#include "engine/repair_engine.h"

namespace fdrepair {
namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

RepairEngine::RepairEngine(const EngineOptions& options) : options_(options) {
  pool_ = std::make_unique<ThreadPool>(ResolveThreadCount(options_.threads));
}

RepairEngine::~RepairEngine() = default;

int RepairEngine::threads() const { return pool_->num_threads(); }

std::vector<StatusOr<SRepairResult>> RepairEngine::RepairBatch(
    const std::vector<RepairJob>& jobs) {
  const Clock::time_point admitted = Clock::now();
  // Per-job absolute deadlines are fixed at admission, so queueing time
  // counts against the budget — a job stuck behind a slow batch expires
  // instead of running late.
  std::vector<Clock::time_point> deadlines(jobs.size(),
                                           Clock::time_point::max());
  // Budgets near the representable range (e.g. milliseconds::max() to mean
  // "unlimited") must saturate instead of overflowing into instant expiry.
  const auto max_budget = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::time_point::max() - admitted);
  for (size_t j = 0; j < jobs.size(); ++j) {
    std::optional<std::chrono::milliseconds> budget =
        jobs[j].deadline ? jobs[j].deadline : options_.default_deadline;
    if (budget && *budget < max_budget) deadlines[j] = admitted + *budget;
  }

  std::vector<StatusOr<SRepairResult>> results(
      jobs.size(), Status::Internal("job never ran"));
  auto run_job = [&](int j) {
    const RepairJob& job = jobs[j];
    if (job.table == nullptr) {
      results[j] = Status::InvalidArgument("RepairJob.table is null");
      return;
    }
    if (Clock::now() >= deadlines[j]) {
      results[j] = Status::DeadlineExceeded(
          "repair job " + std::to_string(j) + " expired before starting");
      return;
    }
    SRepairOptions options = job.options;
    options.exec.pool = pool_.get();
    options.exec.deadline = deadlines[j];
    results[j] = ComputeSRepair(job.fds, *job.table, options);
  };
  pool_->ParallelFor(static_cast<int>(jobs.size()), run_job);
  return results;
}

StatusOr<SRepairResult> RepairEngine::Repair(const RepairJob& job) {
  std::vector<StatusOr<SRepairResult>> results = RepairBatch({job});
  return std::move(results[0]);
}

}  // namespace fdrepair
