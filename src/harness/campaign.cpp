#include "harness/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <optional>
#include <utility>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace beesim::harness {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

using R = ConcurrentResult;
using Faults = beegfs::ClientFaultStats;
using enum Fold;

double n(std::size_t count) { return static_cast<double>(count); }
double mib(double bytes) { return bytes / static_cast<double>(util::kMiB); }
constexpr FeatureTotal mibs(const char* label) { return {label, kSum, 1, " MiB"}; }
constexpr FeatureTotal secs(const char* label) { return {label, kSum, 2, " s"}; }

/// Fault counters live on each application's own IorResult: summed over the
/// experiment's applications (a campaign run has one).
template <typename T>
double appFaults(const R& r, T Faults::*field) {
  double sum = 0.0;
  for (const auto& app : r.apps) sum += static_cast<double>(app.faults.*field);
  return sum;
}

double failedApps(const R& r) {
  return static_cast<double>(
      std::count_if(r.apps.begin(), r.apps.end(), [](const auto& app) { return app.failed; }));
}

double fold(Fold rule, const std::vector<double>& values) {
  if (rule == kMax) return *std::max_element(values.begin(), values.end());
  double sum = 0.0;
  for (const double v : values) sum += v;
  return rule == kMean ? sum / static_cast<double>(values.size()) : sum;
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

/// A finished run parked until its commit: its row before the annotator,
/// and its result projected onto the annotator's RunRecord.
struct FinishedRun {
  ResultRow row;
  RunRecord record;
};

/// Run one planned repetition and build its row: entry factors + "rep", the
/// standard metrics, the columns of each feature the config switches on,
/// and the per-server split of utilization-observed runs.
FinishedRun runPlanned(const CampaignEntry& entry, const PlannedRun& planned) {
  RunConfig config = entry.config;
  config.startAt = planned.systemTime;
  auto result = runSingle(config, planned.seed);
  FinishedRun run;
  auto& row = run.row;
  row.factors = entry.factors;
  row.factors["rep"] = std::to_string(planned.repetition);
  row.metrics["bandwidth_mibps"] = result.apps.front().bandwidth;
  row.metrics["meta_seconds"] = result.apps.front().metaTime;
  row.metrics["env_network"] = result.environment.network;
  row.metrics["env_storage"] = result.environment.storage;
  addFeatureColumns(config, result, row);
  if (result.util.active) {
    // Only utilization-observed runs carry the per-server traffic split, so
    // default campaigns keep their exact bytes.
    for (std::size_t k = 0; k < result.util.serverMiB.size(); ++k) {
      const std::string srv = "srv" + std::to_string(k);
      row.metrics[srv + "_mib"] = result.util.serverMiB[k];
      row.metrics[srv + "_busy_frac"] = result.util.serverBusyFrac[k];
    }
    row.metrics["link_imbalance"] = result.util.linkImbalance;
  }
  run.record = projectRun(std::move(result));
  return run;
}

}  // namespace

const std::vector<Feature>& features() {
  static const std::vector<Feature> table = {
      {"faults", [](const RunConfig& c) { return !c.faults.empty(); },
       {{"fault_events", [](const R& r) { return n(r.injected.total()); }},
        {"fault_timeouts", [](const R& r) { return appFaults(r, &Faults::timeouts); },
         {"timeouts"}},
        {"fault_retries", [](const R& r) { return appFaults(r, &Faults::retries); }, {"retries"}},
        {"fault_failovers", [](const R& r) { return appFaults(r, &Faults::failovers); },
         {"failovers"}},
        {"fault_rewritten_mib",
         [](const R& r) { return mib(appFaults(r, &Faults::bytesRewritten)); },
         mibs("rewritten")},
        {"fault_degraded_seconds", [](const R& r) { return appFaults(r, &Faults::degradedTime); },
         secs("degraded")},
        {"fault_aborted", failedApps, {"aborted_runs"}}}},
      {"mirror", [](const RunConfig& c) { return c.fs.mirror.enabled; },
       {{"mirror_replica_mib", [](const R& r) { return mib(r.mirror.bytesReplicated); },
         mibs("replicated")},
        {"mirror_failovers", [](const R& r) { return n(r.mirror.failovers); }, {"failovers"}},
        {"mirror_resent_mib", [](const R& r) { return mib(r.mirror.bytesResent); }, mibs("resent")},
        {"mirror_lost_mib", [](const R& r) { return mib(r.mirror.bytesLost); }, mibs("lost")},
        {"resync_jobs", [](const R& r) { return n(r.mirror.resyncJobs); }, {"resyncs"}},
        {"resync_mib", [](const R& r) { return mib(r.mirror.bytesResynced); }, mibs("resynced")},
        {"resync_seconds", [](const R& r) { return r.mirror.resyncSeconds; },
         secs("resync_time")}}},
      {"rebalance", [](const RunConfig& c) { return c.rebalance.enabled; },
       {{"rebal_samples", [](const R& r) { return n(r.rebalance.samples); }},
        {"rebal_triggers", [](const R& r) { return n(r.rebalance.triggers); }, {"triggers"}},
        {"rebal_retargets", [](const R& r) { return n(r.rebalance.retargets); }, {"retargets"}},
        {"rebal_migrations", [](const R& r) { return n(r.rebalance.migrations); }, {"migrations"}},
        {"rebal_migrated_mib", [](const R& r) { return mib(r.rebalance.bytesMigrated); },
         mibs("migrated")},
        {"rebal_migration_seconds", [](const R& r) { return r.rebalance.migrationSeconds; },
         secs("migration_time")},
        {"rebal_peak_imbalance", [](const R& r) { return r.rebalance.peakImbalance; },
         {"peak_imbalance", kMax, 3}}}},
      {"health", [](const RunConfig& c) { return c.health.enabled; },
       {{"gray_samples", [](const R& r) { return n(r.health.samples); }, {"samples"}},
        {"gray_suspects", [](const R& r) { return n(r.health.suspects); }, {"suspects"}},
        {"gray_quarantines", [](const R& r) { return n(r.health.quarantines); }, {"quarantines"}},
        {"gray_probations", [](const R& r) { return n(r.health.probations); }, {"probations"}},
        {"gray_readmissions", [](const R& r) { return n(r.health.readmissions); },
         {"readmissions"}},
        {"gray_relapses", [](const R& r) { return n(r.health.relapses); }, {"relapses"}}}},
      {"hedge", [](const RunConfig& c) { return c.fs.hedge.enabled; },
       {{"hedge_issued", [](const R& r) { return n(r.hedge.hedgesIssued); }, {"issued"}},
        {"hedge_wins", [](const R& r) { return n(r.hedge.hedgeWins); }, {"wins"}},
        {"hedge_primary_wins", [](const R& r) { return n(r.hedge.primaryWins); },
         {"primary_wins"}},
        {"hedge_mirror_switchovers", [](const R& r) { return n(r.hedge.mirrorSwitchovers); },
         {"mirror_switchovers"}},
        {"hedge_mib", [](const R& r) { return mib(r.hedge.bytesHedged); }, mibs("hedged")}}},
      {"qos", [](const RunConfig& c) { return c.qos.enabled; },
       {{"qos_issued_mib", [](const R& r) { return mib(r.qos.tokensIssued); }, mibs("issued")},
        {"qos_borrowed_mib", [](const R& r) { return mib(r.qos.tokensBorrowed); },
         mibs("borrowed")},
        {"qos_reclaimed_mib", [](const R& r) { return mib(r.qos.tokensReclaimed); },
         mibs("reclaimed")},
        {"qos_deferrals", [](const R& r) { return n(r.qos.deferrals); }, {"deferrals"}},
        {"qos_throttle_seconds", [](const R& r) { return r.qos.throttleSeconds; },
         secs("throttle")},
        {"qos_slo_violations", [](const R& r) { return n(r.qos.sloViolations); },
         {"slo_violations"}}}},
      {"metadata", [](const RunConfig& c) { return c.mdtest.has_value(); },
       {{"md_total_ops", [](const R& r) { return n(r.md.totalOps); }, {"ops"}},
        {"md_seconds", [](const R& r) { return r.md.end - r.md.start; }, secs("md_time")},
        {"md_ops_s", [](const R& r) { return r.md.opsPerSec; }, {"mean_ops_s", kMean}},
        {"md_create_ops_s", [](const R& r) { return r.md.create.opsPerSec; }},
        {"md_stat_ops_s", [](const R& r) { return r.md.stat.opsPerSec; }},
        {"md_unlink_ops_s", [](const R& r) { return r.md.unlink.opsPerSec; }},
        {"md_mdt_imbalance", [](const R& r) { return r.md.mdtImbalance; },
         {"peak_mdt_imbalance", kMax, 3}}}},
  };
  return table;
}

void addFeatureColumns(const RunConfig& config, const ConcurrentResult& result,
                       ResultRow& row) {
  for (const auto& feature : features()) {
    if (!feature.gate(config)) continue;
    for (const auto& column : feature.columns) row.metrics[column.name] = column.get(result);
  }
}

void writeFeatureTotals(std::ostream& out, const RunConfig& config, const ResultStore& store,
                        const std::string& scope) {
  for (const auto& feature : features()) {
    if (!feature.gate(config)) continue;
    out << feature.name << " (totals over " << scope << "):";
    for (const auto& column : feature.columns) {
      const auto& total = column.total;
      if (total.label == nullptr) continue;
      out << ' ' << total.label << '='
          << util::fmt(fold(total.fold, store.metric(column.name)), total.decimals)
          << total.suffix;
    }
    out << '\n';
  }
}

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
  std::vector<std::optional<FinishedRun>> finished(plan.size());
  std::size_t nextCommit = 0;
  std::mutex commitMutex;
  parallelFor(plan.size(), exec.jobs, [&](std::size_t i) {
    FinishedRun run = runPlanned(entries[plan[i].configIndex], plan[i]);
    const std::lock_guard<std::mutex> lock(commitMutex);
    finished[i] = std::move(run);
    while (nextCommit < plan.size() && finished[nextCommit]) {
      FinishedRun done = *std::exchange(finished[nextCommit], std::nullopt);
      if (annotate) annotate(done.record, done.row);
      store.add(std::move(done.row));
      tracker.committed(plan[nextCommit], done.record);
      ++nextCommit;
    }
  });
  return store;
}

}  // namespace beesim::harness
