#include "harness/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <optional>
#include <utility>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace beesim::harness {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Render an entry's factor labels for progress reporting ("count=4 nodes=8").
std::string describeFactors(const CampaignEntry& entry) {
  std::string out;
  for (const auto& [name, value] : entry.factors) {
    if (!out.empty()) out += ' ';
    out += name + "=" + value;
  }
  return out.empty() ? "(single config)" : out;
}

/// Build a run's row: entry factors + "rep", standard metrics, then the
/// annotator.
ResultRow makeRow(const CampaignEntry& entry, const PlannedRun& planned,
                  const RunRecord& record, const RowAnnotator& annotate) {
  ResultRow row;
  row.factors = entry.factors;
  row.factors["rep"] = std::to_string(planned.repetition);
  row.metrics["bandwidth_mibps"] = record.ior.bandwidth;
  row.metrics["meta_seconds"] = record.ior.metaTime;
  row.metrics["env_network"] = record.environment.network;
  row.metrics["env_storage"] = record.environment.storage;
  if (record.faultsActive) {
    // Only fault-armed runs carry these columns, so campaigns with an empty
    // plan keep emitting byte-identical CSVs to pre-fault-model builds.
    row.metrics["fault_events"] = static_cast<double>(record.injected.total());
    row.metrics["fault_timeouts"] = static_cast<double>(record.ior.faults.timeouts);
    row.metrics["fault_retries"] = static_cast<double>(record.ior.faults.retries);
    row.metrics["fault_failovers"] = static_cast<double>(record.ior.faults.failovers);
    row.metrics["fault_rewritten_mib"] = util::toMiB(record.ior.faults.bytesRewritten);
    row.metrics["fault_degraded_seconds"] = record.ior.faults.degradedTime;
    row.metrics["fault_aborted"] = record.ior.failed ? 1.0 : 0.0;
  }
  if (record.mirrorActive) {
    // Same contract as fault_*: only mirrored runs carry these columns.
    row.metrics["mirror_failovers"] = static_cast<double>(record.ior.mirror.failovers);
    row.metrics["mirror_replica_mib"] = util::toMiB(record.ior.mirror.bytesReplicated);
    row.metrics["mirror_resent_mib"] = util::toMiB(record.ior.mirror.bytesResent);
    row.metrics["mirror_lost_mib"] = util::toMiB(record.ior.mirror.bytesLost);
    row.metrics["resync_jobs"] = static_cast<double>(record.ior.mirror.resyncJobs);
    row.metrics["resync_mib"] = util::toMiB(record.ior.mirror.bytesResynced);
    row.metrics["resync_seconds"] = record.ior.mirror.resyncSeconds;
  }
  if (record.rebalanceActive) {
    // Same contract as fault_*: only controller-armed runs carry these
    // columns, so campaigns with rebalancing off keep their exact bytes.
    row.metrics["rebal_samples"] = static_cast<double>(record.rebalance.samples);
    row.metrics["rebal_triggers"] = static_cast<double>(record.rebalance.triggers);
    row.metrics["rebal_retargets"] = static_cast<double>(record.rebalance.retargets);
    row.metrics["rebal_migrations"] = static_cast<double>(record.rebalance.migrations);
    row.metrics["rebal_migrated_mib"] = util::toMiB(record.rebalance.bytesMigrated);
    row.metrics["rebal_migration_seconds"] = record.rebalance.migrationSeconds;
    row.metrics["rebal_peak_imbalance"] = record.rebalance.peakImbalance;
  }
  if (record.healthActive) {
    // Same contract as fault_*: only monitor-armed runs carry these columns,
    // so campaigns with gray-failure detection off keep their exact bytes.
    row.metrics["gray_samples"] = static_cast<double>(record.health.samples);
    row.metrics["gray_suspects"] = static_cast<double>(record.health.suspects);
    row.metrics["gray_quarantines"] = static_cast<double>(record.health.quarantines);
    row.metrics["gray_probations"] = static_cast<double>(record.health.probations);
    row.metrics["gray_readmissions"] = static_cast<double>(record.health.readmissions);
    row.metrics["gray_relapses"] = static_cast<double>(record.health.relapses);
  }
  if (record.hedgeActive) {
    // Same contract as fault_*: only hedge-armed runs carry these columns.
    row.metrics["hedge_issued"] = static_cast<double>(record.ior.hedge.hedgesIssued);
    row.metrics["hedge_wins"] = static_cast<double>(record.ior.hedge.hedgeWins);
    row.metrics["hedge_primary_wins"] =
        static_cast<double>(record.ior.hedge.primaryWins);
    row.metrics["hedge_mirror_switchovers"] =
        static_cast<double>(record.ior.hedge.mirrorSwitchovers);
    row.metrics["hedge_mib"] = util::toMiB(record.ior.hedge.bytesHedged);
  }
  if (record.mdActive) {
    // Same contract as fault_*: only runs with an mdtest phase carry these
    // columns, so campaigns without it keep their exact bytes.
    row.metrics["md_seconds"] = record.md.end - record.md.start;
    row.metrics["md_total_ops"] = static_cast<double>(record.md.totalOps);
    row.metrics["md_ops_s"] = record.md.opsPerSec;
    row.metrics["md_create_ops_s"] = record.md.create.opsPerSec;
    row.metrics["md_stat_ops_s"] = record.md.stat.opsPerSec;
    row.metrics["md_unlink_ops_s"] = record.md.unlink.opsPerSec;
    row.metrics["md_mdt_imbalance"] = record.md.mdtImbalance;
  }
  if (record.qosActive) {
    // Same contract as fault_*: only QoS-managed runs carry these columns,
    // so campaigns with QoS off keep their exact bytes.
    row.metrics["qos_issued_mib"] = record.qos.tokensIssued / static_cast<double>(util::kMiB);
    row.metrics["qos_borrowed_mib"] =
        record.qos.tokensBorrowed / static_cast<double>(util::kMiB);
    row.metrics["qos_reclaimed_mib"] =
        record.qos.tokensReclaimed / static_cast<double>(util::kMiB);
    row.metrics["qos_deferrals"] = static_cast<double>(record.qos.deferrals);
    row.metrics["qos_throttle_seconds"] = record.qos.throttleSeconds;
    row.metrics["qos_slo_violations"] = static_cast<double>(record.qos.sloViolations);
  }
  if (record.ior.util.active) {
    // Same contract again: only utilization-observed runs carry the
    // per-server traffic split, so default campaigns keep their exact bytes.
    for (std::size_t k = 0; k < record.ior.util.serverMiB.size(); ++k) {
      const std::string srv = "srv" + std::to_string(k);
      row.metrics[srv + "_mib"] = record.ior.util.serverMiB[k];
      row.metrics[srv + "_busy_frac"] = record.ior.util.serverBusyFrac[k];
    }
    row.metrics["link_imbalance"] = record.ior.util.linkImbalance;
  }
  if (annotate) annotate(record, row);
  return row;
}

/// Per-run timing + progress aggregation; all calls happen in commit (= plan)
/// order, serialized under the executor's commit mutex.
class ProgressTracker {
 public:
  ProgressTracker(std::size_t total, const ExecutorOptions& exec,
                  const std::vector<CampaignEntry>& entries)
      : exec_(exec), entries_(entries) {
    progress_.total = total;
    if (exec_.totals) *exec_.totals = CampaignTotals{};
  }

  void committed(const PlannedRun& planned, const RunRecord& record) {
    if (exec_.totals) {
      auto& totals = *exec_.totals;
      ++totals.runs;
      totals.resolves += record.resolves;
      totals.solverIterations += record.solverIterations;
      totals.runWallSeconds += record.wallSeconds;
      totals.maxRunWallSeconds = std::max(totals.maxRunWallSeconds, record.wallSeconds);
      totals.solveSeconds += record.solveSeconds;
      totals.campaignWallSeconds = secondsSince(startedAt_);
    }
    ++progress_.completed;
    if (record.wallSeconds > progress_.slowestRunSeconds) {
      progress_.slowestRunSeconds = record.wallSeconds;
      progress_.slowestConfig = describeFactors(entries_[planned.configIndex]);
    }
    if (!exec_.onProgress) return;
    const double elapsed = secondsSince(startedAt_);
    const bool last = progress_.completed == progress_.total;
    if (!last && elapsed - lastReport_ < exec_.progressIntervalSeconds) return;
    lastReport_ = elapsed;
    progress_.elapsedSeconds = elapsed;
    progress_.etaSeconds =
        elapsed / static_cast<double>(progress_.completed) *
        static_cast<double>(progress_.total - progress_.completed);
    exec_.onProgress(progress_);
  }

 private:
  const ExecutorOptions& exec_;
  const std::vector<CampaignEntry>& entries_;
  CampaignProgress progress_;
  Clock::time_point startedAt_ = Clock::now();
  double lastReport_ = 0.0;
};

RunRecord runPlanned(const CampaignEntry& entry, const PlannedRun& planned) {
  RunConfig config = entry.config;
  config.startAt = planned.systemTime;
  return runOnce(config, planned.seed);
}

}  // namespace

ResultStore executeCampaign(const std::vector<CampaignEntry>& entries,
                            const ProtocolOptions& options, std::uint64_t seed,
                            const RowAnnotator& annotate, const ExecutorOptions& exec) {
  BEESIM_ASSERT(!entries.empty(), "campaign needs at least one configuration");

  util::Rng rng(seed);
  const auto plan = buildProtocolPlan(entries.size(), options, rng);

  // Runs execute on up to exec.jobs threads, but rows are committed in plan
  // order: each finished run parks its record under its plan index, then the
  // thread that completes the next uncommitted index commits it and every
  // consecutive finished one after it, under the mutex.  All per-run
  // randomness derives from planned.seed, so the store is independent of
  // scheduling.  A failed run or commit leaves its index empty, so nothing
  // after it is committed; parallelFor rethrows the first exception.
  ProgressTracker tracker(plan.size(), exec, entries);
  ResultStore store;
  std::vector<std::optional<RunRecord>> finished(plan.size());
  std::size_t nextCommit = 0;
  std::mutex commitMutex;
  parallelFor(plan.size(), exec.jobs, [&](std::size_t i) {
    RunRecord record = runPlanned(entries[plan[i].configIndex], plan[i]);
    const std::lock_guard<std::mutex> lock(commitMutex);
    finished[i] = std::move(record);
    while (nextCommit < plan.size() && finished[nextCommit]) {
      const RunRecord done = *std::exchange(finished[nextCommit], std::nullopt);
      const auto& planned = plan[nextCommit];
      store.add(makeRow(entries[planned.configIndex], planned, done, annotate));
      tracker.committed(planned, done);
      ++nextCommit;
    }
  });
  return store;
}

}  // namespace beesim::harness
