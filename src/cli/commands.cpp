#include "cli/commands.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "control/health.hpp"
#include "control/rebalance.hpp"
#include "core/advisor.hpp"
#include "core/allocation.hpp"
#include "core/analytic.hpp"
#include "faults/schedule.hpp"
#include "harness/campaign.hpp"
#include "harness/concurrent.hpp"
#include "ior/options.hpp"
#include "qos/manager.hpp"
#include "stats/plot.hpp"
#include "stats/summary.hpp"
#include "topology/catalyst.hpp"
#include "topology/loader.hpp"
#include "topology/plafrim.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace beesim::cli {

namespace {

using namespace beesim::util::literals;

/// A count flag that must be >= 1 (--nodes, --reps, ...).  getUnsigned
/// rejects negatives, so "--nodes=-1" cannot wrap to a huge size_t.
std::size_t getCount(const Args& args, const std::string& name, std::size_t fallback) {
  const auto value = args.getUnsigned(name, fallback);
  if (value == 0) throw util::ConfigError("--" + name + " must be >= 1");
  return value;
}

/// Resolve the --cluster flag: a factory name or a JSON file path.
topo::ClusterConfig resolveCluster(const Args& args) {
  const auto name = args.getString("cluster", "plafrim2");
  const auto nodes = getCount(args, "nodes", 16);
  if (name == "plafrim1") return topo::makePlafrim(topo::Scenario::kEthernet10G, nodes);
  if (name == "plafrim2") return topo::makePlafrim(topo::Scenario::kOmniPath100G, nodes);
  if (name == "catalyst") return topo::makeCatalystLike(nodes);
  auto cluster = topo::loadCluster(name);
  // --nodes can resize a file-described cluster by cloning its first node.
  if (args.get("nodes")) {
    if (cluster.nodes.empty()) throw util::ConfigError("cluster file has no nodes");
    auto prototype = cluster.nodes.front();
    cluster.nodes.resize(nodes, prototype);
    for (std::size_t n = 0; n < cluster.nodes.size(); ++n) {
      cluster.nodes[n].name = cluster.name + "-node" + std::to_string(n);
    }
  }
  return cluster;
}

beegfs::ChooserKind chooserFromFlag(const std::string& flag) {
  if (flag == "rr" || flag == "round-robin") return beegfs::ChooserKind::kRoundRobin;
  if (flag == "random") return beegfs::ChooserKind::kRandom;
  if (flag == "balanced") return beegfs::ChooserKind::kBalanced;
  if (flag == "rr-interleaved") return beegfs::ChooserKind::kRoundRobinInterleaved;
  throw util::ConfigError("--chooser must be rr|random|balanced|rr-interleaved");
}

/// Common run-config assembly for run/sweep/concurrent.
harness::RunConfig baseConfig(const Args& args, const topo::ClusterConfig& cluster) {
  harness::RunConfig config;
  config.cluster = cluster;
  config.fs.chooser = chooserFromFlag(args.getString("chooser", "rr"));
  return config;
}

/// Shared --rebalance* handling: the closed-loop rebalancing controller
/// (DESIGN.md §2.6).  Tuning knobs without the master switch are rejected as
/// likely typos, mirroring the fault-flag conventions.
control::RebalancePolicy rebalancePolicy(const Args& args) {
  control::RebalancePolicy policy;
  policy.enabled = args.getBool("rebalance");
  const auto threshold = args.getDouble("rebalance-threshold", policy.threshold);
  const auto rate = args.getDouble("rebalance-rate", 0.0);
  const auto patience =
      static_cast<int>(args.getInt("rebalance-patience", policy.patience, 1, 1'000'000));
  if (!policy.enabled) {
    if (args.get("rebalance-threshold") || args.get("rebalance-rate") ||
        args.get("rebalance-patience")) {
      throw util::ConfigError("--rebalance-threshold/-rate/-patience require --rebalance");
    }
    return policy;
  }
  if (threshold <= 1.0) {
    throw util::ConfigError("--rebalance-threshold must be > 1 (1 = perfectly balanced)");
  }
  if (args.get("rebalance-rate") && rate <= 0.0) {
    throw util::ConfigError(
        "--rebalance-rate must be > 0 (omit the flag for uncapped migrations)");
  }
  policy.threshold = threshold;
  policy.migrationRate = rate;
  policy.patience = patience;
  return policy;
}

/// Shared --qos* handling: multi-tenant token-bucket bandwidth control
/// (DESIGN.md §2.8).  Tuning knobs without the master switch are rejected as
/// likely typos, mirroring the fault/rebalance flag conventions.
qos::QosPolicy qosPolicy(const Args& args) {
  qos::QosPolicy policy;
  policy.enabled = args.getBool("qos");
  const auto rate = args.getDouble("qos-rate", 0.0);
  const auto burst = args.getBytes("qos-burst", 0);
  policy.borrow = args.getBool("qos-borrow");
  if (!policy.enabled) {
    if (args.get("qos-rate") || args.get("qos-burst") || policy.borrow) {
      throw util::ConfigError("--qos-rate/--qos-burst/--qos-borrow require --qos");
    }
    return policy;
  }
  if (!args.get("qos-rate")) {
    throw util::ConfigError("--qos requires --qos-rate (reserved MiB/s per application)");
  }
  if (!std::isfinite(rate) || rate <= 0.0) {
    throw util::ConfigError("--qos-rate must be finite and > 0 (MiB/s)");
  }
  if (args.get("qos-burst") && burst == 0) {
    throw util::ConfigError("--qos-burst must be > 0 bytes (omit for one second at --qos-rate)");
  }
  policy.rate = rate;
  policy.burst = burst;
  return policy;
}

/// Shared --suspect-* handling: the gray-failure health monitor
/// (DESIGN.md §2.9).  --suspect-ratio is the master switch; the patience
/// knob without it is rejected as a likely typo.
control::HealthPolicy healthPolicy(const Args& args) {
  control::HealthPolicy policy;
  const auto ratio = args.getDouble("suspect-ratio", 0.0);
  const auto patience = args.getDouble("suspect-patience", policy.suspectPatience);
  if (!args.get("suspect-ratio")) {
    if (args.get("suspect-patience")) {
      throw util::ConfigError("--suspect-patience requires --suspect-ratio");
    }
    return policy;
  }
  if (ratio <= 0.0 || ratio >= 1.0) {
    throw util::ConfigError("--suspect-ratio must lie in (0, 1)");
  }
  if (patience <= 0.0) throw util::ConfigError("--suspect-patience must be > 0");
  policy.enabled = true;
  policy.suspectRatio = ratio;
  policy.suspectPatience = patience;
  return policy;
}

/// Shared --hedge* handling: hedged writes against fail-slow targets
/// (DESIGN.md §2.9).  Tuning knobs without the master switch are rejected.
beegfs::HedgePolicy hedgePolicy(const Args& args) {
  beegfs::HedgePolicy policy;
  policy.enabled = args.getBool("hedge");
  const auto deadline = args.getDouble("hedge-deadline", policy.deadline);
  const auto ratio = args.getDouble("hedge-ratio", policy.lagRatio);
  if (!policy.enabled) {
    if (args.get("hedge-deadline") || args.get("hedge-ratio")) {
      throw util::ConfigError("--hedge-deadline/--hedge-ratio require --hedge");
    }
    return policy;
  }
  if (deadline <= 0.0) throw util::ConfigError("--hedge-deadline must be > 0");
  if (ratio <= 0.0 || ratio >= 1.0) {
    throw util::ConfigError("--hedge-ratio must lie in (0, 1)");
  }
  policy.deadline = deadline;
  policy.lagRatio = ratio;
  return policy;
}

/// Shared --mdts/--meta-rate/--md-shard/--md-ops handling: the queued
/// metadata model (DESIGN.md §2.10).  Any metadata flag switches the run from
/// the legacy scalar-latency path to the queued MDT service model; with none
/// of them passed nothing is touched, so default runs keep their exact
/// legacy bytes.
void applyMetadataFlags(const Args& args, harness::RunConfig& config) {
  const bool any = args.get("mdts") || args.get("meta-rate") || args.get("md-shard") ||
                   args.get("md-ops");
  if (!any) return;
  auto& meta = config.fs.meta;
  meta.queued = true;
  meta.mdtCount = static_cast<unsigned>(args.getInt("mdts", 1, 1, 4096));
  const auto rate = args.getDouble("meta-rate", meta.createRate);
  if (!std::isfinite(rate) || rate <= 0.0) {
    throw util::ConfigError("--meta-rate must be finite and > 0 (create ops/s per MDT)");
  }
  // The service keeps the default create:open:stat:unlink ratios, so
  // --meta-rate scales the whole profile.
  meta.createRate = rate;
  const auto shard = args.getString("md-shard", "hash");
  if (shard == "hash") {
    meta.shard = beegfs::MdShardKind::kHashDir;
  } else if (shard == "rr") {
    meta.shard = beegfs::MdShardKind::kRoundRobin;
  } else {
    throw util::ConfigError("--md-shard must be hash|rr");
  }
  if (args.get("md-ops")) {
    ior::MdtestOptions md;
    md.filesPerRank =
        static_cast<std::size_t>(args.getInt("md-ops", md.filesPerRank, 1, 1 << 20));
    config.mdtest = md;
  }
}

/// Shared --jobs/--progress handling: worker count (default BEESIM_JOBS,
/// else serial) plus an optional stderr status line.
harness::ExecutorOptions executorOptions(const Args& args, const std::string& label) {
  harness::ExecutorOptions exec;
  exec.jobs = args.getUnsigned("jobs", harness::defaultJobs());
  if (args.getBool("progress")) exec.onProgress = harness::stderrProgress(label);
  return exec;
}

void rejectUnknownFlags(const Args& args) {
  const auto unused = args.unusedFlags();
  if (!unused.empty()) {
    std::string all;
    for (const auto& f : unused) all += (all.empty() ? "" : ", ") + f;
    throw util::ConfigError("unknown flag(s): " + all);
  }
}

}  // namespace

int cmdDescribe(const Args& args, std::ostream& out) {
  const auto cluster = resolveCluster(args);
  rejectUnknownFlags(args);

  out << "cluster: " << cluster.name << "\n";
  out << "compute nodes: " << cluster.nodes.size() << " (NIC "
      << util::formatBandwidth(cluster.nodes.front().nicBandwidth) << ", client cap "
      << util::formatBandwidth(cluster.nodes.front().clientThroughputCap) << ")\n";
  util::TableWriter table({"host", "NIC MiB/s", "OSS cap", "OSTs", "per-OST peak"});
  for (const auto& host : cluster.hosts) {
    const storage::HddRaidModel model(host.targets.front().device);
    table.addRow({host.name, util::fmt(host.nicBandwidth, 0),
                  host.serviceCap > 0 ? util::fmt(host.serviceCap, 0) : "none",
                  std::to_string(host.targets.size()), util::fmt(model.peakRate(), 0)});
  }
  out << table.render();
  out << "network bound (all nodes vs all hosts, Fig. 3): "
      << util::formatBandwidth(core::networkBound(cluster.nodes.size(), cluster.hosts.size(),
                                                  cluster.hosts.front().nicBandwidth))
      << "\n";
  return 0;
}

int cmdRun(const Args& args, std::ostream& out) {
  const auto cluster = resolveCluster(args);
  auto config = baseConfig(args, cluster);
  // Bounded parses: the old unchecked static_casts silently truncated
  // out-of-range input (e.g. --ppn=4294967297 read as ppn 1).
  const auto ppn = static_cast<int>(args.getInt("ppn", 8, 1, 1 << 20));
  const auto stripe = static_cast<unsigned>(
      args.getInt("stripe", 4, 1, static_cast<long>(cluster.targetCount())));
  const auto total = args.getBytes("total", 32_GiB);
  const auto reps = getCount(args, "reps", 10);
  const auto seed = static_cast<std::uint64_t>(args.getUnsigned("seed", 2022));
  const auto pattern = args.getString("pattern", "n1");
  const auto op = args.getString("op", "write");
  // Exports of the traced replay (see below); the campaign runs carry none.
  harness::ObservabilityOptions trace;
  trace.traceJsonl = args.getString("trace", "");
  trace.traceChrome = args.getString("trace-out", "");
  const auto traceFormat = args.getString("trace-format", "full");
  constexpr std::size_t kDefaultRingCapacity = std::size_t{1} << 20;
  const auto ringCapacity = args.getUnsigned("trace-ring-cap", kDefaultRingCapacity);
  trace.metricsCsv = args.getString("metrics-out", "");
  trace.metricsDt = args.getDouble("metrics-dt", trace.metricsDt);
  const auto faultSpec = args.getString("faults", "");
  const auto faultMode = args.getString("fault-mode", "");
  const auto ioTimeout = args.getDouble("io-timeout", 5.0);
  const auto mttf = args.getDouble("mttf", 0.0);
  const auto mttr = args.getDouble("mttr", 0.0);
  const auto faultHorizon = args.getDouble("fault-horizon", 120.0);
  const bool mirror = args.getBool("mirror");
  const auto resyncRate = args.getDouble("resync-rate", 0.0);
  const auto failSlow = args.getDouble("fail-slow", 0.0);
  const auto failSlowMttr = args.getDouble("fail-slow-mttr", 0.0);
  const auto failSlowSeverity = args.getDouble("fail-slow-severity", 0.25);
  config.rebalance = rebalancePolicy(args);
  config.qos = qosPolicy(args);
  config.health = healthPolicy(args);
  config.fs.hedge = hedgePolicy(args);
  applyMetadataFlags(args, config);
  const auto exec = executorOptions(args, "run");
  rejectUnknownFlags(args);

  // A non-positive duration or rate silently produces empty or degenerate
  // fault schedules (a 0 MTTF reads as "disabled"); reject them instead.
  // The duration flags with a meaningful zero default are only checked when
  // the user passed them.
  if (ioTimeout <= 0.0) throw util::ConfigError("--io-timeout must be > 0");
  if (args.get("mttf") && mttf <= 0.0) throw util::ConfigError("--mttf must be > 0");
  if (args.get("mttr") && mttr <= 0.0) throw util::ConfigError("--mttr must be > 0");
  if (args.get("fault-horizon") && faultHorizon <= 0.0) {
    throw util::ConfigError("--fault-horizon must be > 0");
  }
  if (args.get("resync-rate") && resyncRate <= 0.0) {
    throw util::ConfigError("--resync-rate must be > 0 (omit the flag for uncapped resync)");
  }
  if (args.get("fail-slow") && failSlow <= 0.0) {
    throw util::ConfigError("--fail-slow must be > 0 (mean seconds between episodes)");
  }
  if (!args.get("fail-slow") && (args.get("fail-slow-mttr") || args.get("fail-slow-severity"))) {
    throw util::ConfigError("--fail-slow-mttr/--fail-slow-severity require --fail-slow");
  }
  if (args.get("fail-slow-mttr") && failSlowMttr <= 0.0) {
    throw util::ConfigError("--fail-slow-mttr must be > 0");
  }
  if (failSlowSeverity < 0.0 || failSlowSeverity > 1.0) {
    throw util::ConfigError("--fail-slow-severity must lie in [0, 1] (rate-multiplier ceiling)");
  }
  if (trace.metricsDt <= 0.0) throw util::ConfigError("--metrics-dt must be > 0");
  if (traceFormat != "full" && traceFormat != "ring") {
    throw util::ConfigError("--trace-format must be full|ring");
  }
  const bool ring = traceFormat == "ring";
  if (args.get("trace-format") && trace.traceJsonl.empty() && trace.traceChrome.empty()) {
    throw util::ConfigError("--trace-format requires --trace and/or --trace-out");
  }
  // Only the metrics CSV and the full-format Chrome trace carry samples.
  if (args.get("metrics-dt") && trace.metricsCsv.empty() &&
      (trace.traceChrome.empty() || ring)) {
    throw util::ConfigError("--metrics-dt requires --metrics-out or a full-format --trace-out");
  }
  if (args.get("trace-ring-cap")) {
    if (!ring) throw util::ConfigError("--trace-ring-cap requires --trace-format=ring");
    if (ringCapacity == 0) throw util::ConfigError("--trace-ring-cap must be >= 1");
  }
  trace.ringCapacity = ring ? ringCapacity : 0;

  config.fs.defaultStripe.stripeCount = stripe;
  config.job = ior::IorJob::onFirstNodes(cluster.nodes.size(), ppn);
  config.ior.blockSize = ior::blockSizeForTotal(total, config.job.ranks());
  if (pattern == "nn") {
    config.ior.pattern = ior::AccessPattern::kFilePerProcess;
  } else if (pattern != "n1") {
    throw util::ConfigError("--pattern must be n1 or nn");
  }
  if (op == "read") {
    config.ior.operation = ior::Operation::kRead;
  } else if (op != "write") {
    throw util::ConfigError("--op must be write or read");
  }

  // Mid-run fault injection: explicit --faults events and/or a per-target
  // MTTF/MTTR renewal process.  Failure schedules need a client fault
  // policy; default to degraded-stripe mode when faults are requested.
  if (!faultSpec.empty()) config.faults.schedule = faults::parseSchedule(faultSpec);
  if (mttf > 0.0 || failSlow > 0.0) {
    faults::StochasticFaultSpec stochastic;
    if (mttf > 0.0) {
      stochastic.targetMttf = mttf;
      stochastic.targetMttr = mttr > 0.0 ? mttr : mttf / 10.0;
    }
    if (failSlow > 0.0) {
      // Fail-slow episodes: targets degrade to a drawn fraction of their
      // service rate and stay registered online (gray failures).
      stochastic.degradeMttf = failSlow;
      stochastic.degradeMttr = failSlowMttr > 0.0 ? failSlowMttr : failSlow / 10.0;
      stochastic.degradeCeiling = failSlowSeverity;
    }
    stochastic.horizon = faultHorizon;
    config.faults.stochastic = stochastic;
  }
  if (faultMode == "strict") {
    config.fs.faults.mode = beegfs::ClientFaultPolicy::Mode::kStrict;
  } else if (faultMode == "degraded" || (faultMode.empty() && !config.faults.empty())) {
    config.fs.faults.mode = beegfs::ClientFaultPolicy::Mode::kDegraded;
  } else if (!faultMode.empty() && faultMode != "none") {
    throw util::ConfigError("--fault-mode must be strict|degraded|none");
  }
  config.fs.faults.ioTimeout = ioTimeout;

  // Storage buddy mirroring: default cross-host pairing, mirrored striping
  // for every file the run creates.
  if (mirror) {
    config.fs.mirror.enabled = true;
    config.fs.mirror.resyncRate = resyncRate;
    config.fs.defaultStripe.mirror = true;
  }

  std::vector<harness::CampaignEntry> entries(1);
  entries[0].config = config;
  harness::ProtocolOptions protocol;
  protocol.repetitions = reps;

  // Each feature's counters reach the totals through the campaign columns
  // makeRow fills; only the allocation tally needs the raw record.
  std::map<std::string, std::size_t> allocationCounts;
  const auto store = harness::executeCampaign(
      entries, protocol, seed,
      [&](const harness::RunRecord& record, harness::ResultRow&) {
        ++allocationCounts[core::Allocation(record.ior.targetsUsed, cluster).key()];
      },
      exec);
  const auto sum = [&store](const std::string& metric) {
    double total = 0.0;
    for (const double v : store.metric(metric)) total += v;
    return total;
  };
  const auto count = [&sum](const std::string& metric) { return util::fmt(sum(metric), 0); };
  const auto peak = [&store](const std::string& metric) {
    return stats::summarize(store.metric(metric)).max;
  };

  const auto summary = stats::summarize(store.metric("bandwidth_mibps"));
  out << config.ior.describe() << "  (" << config.job.ranks() << " ranks on "
      << cluster.nodes.size() << " nodes, " << reps << " repetitions)\n";
  out << "bandwidth: " << summary.describe() << " MiB/s\n";
  out << "allocations: ";
  for (const auto& [key, n] : allocationCounts) out << key << " x" << n << "  ";
  out << "\n";
  const std::string totals = " (totals over " + std::to_string(reps) + " reps): ";
  if (!config.faults.empty()) {
    out << "faults" << totals << "timeouts=" << count("fault_timeouts")
        << " retries=" << count("fault_retries") << " failovers=" << count("fault_failovers")
        << " rewritten=" << util::fmt(sum("fault_rewritten_mib"), 1)
        << " MiB degraded=" << util::fmt(sum("fault_degraded_seconds"), 2)
        << " s aborted_runs=" << count("fault_aborted") << "\n";
  }
  if (mirror) {
    out << "mirror" << totals << "replicated=" << util::fmt(sum("mirror_replica_mib"), 1)
        << " MiB failovers=" << count("mirror_failovers")
        << " resent=" << util::fmt(sum("mirror_resent_mib"), 1)
        << " MiB lost=" << util::fmt(sum("mirror_lost_mib"), 1)
        << " MiB resyncs=" << count("resync_jobs")
        << " resynced=" << util::fmt(sum("resync_mib"), 1)
        << " MiB resync_time=" << util::fmt(sum("resync_seconds"), 2) << " s\n";
  }
  if (config.rebalance.enabled) {
    out << "rebalance" << totals << "triggers=" << count("rebal_triggers")
        << " retargets=" << count("rebal_retargets")
        << " migrations=" << count("rebal_migrations")
        << " migrated=" << util::fmt(sum("rebal_migrated_mib"), 1)
        << " MiB migration_time=" << util::fmt(sum("rebal_migration_seconds"), 2)
        << " s peak_imbalance=" << util::fmt(peak("rebal_peak_imbalance"), 3) << "\n";
  }
  if (config.health.enabled) {
    out << "health" << totals << "samples=" << count("gray_samples")
        << " suspects=" << count("gray_suspects")
        << " quarantines=" << count("gray_quarantines")
        << " probations=" << count("gray_probations")
        << " readmissions=" << count("gray_readmissions")
        << " relapses=" << count("gray_relapses") << "\n";
  }
  if (config.fs.hedge.enabled) {
    out << "hedge" << totals << "issued=" << count("hedge_issued")
        << " wins=" << count("hedge_wins") << " primary_wins=" << count("hedge_primary_wins")
        << " mirror_switchovers=" << count("hedge_mirror_switchovers")
        << " hedged=" << util::fmt(sum("hedge_mib"), 1) << " MiB\n";
  }
  if (config.qos.enabled) {
    out << "qos" << totals << "issued=" << util::fmt(sum("qos_issued_mib"), 1)
        << " MiB borrowed=" << util::fmt(sum("qos_borrowed_mib"), 1)
        << " MiB reclaimed=" << util::fmt(sum("qos_reclaimed_mib"), 1)
        << " MiB deferrals=" << count("qos_deferrals")
        << " throttle=" << util::fmt(sum("qos_throttle_seconds"), 2)
        << " s slo_violations=" << count("qos_slo_violations") << "\n";
  }
  if (config.mdtest) {
    out << "metadata" << totals << "ops=" << count("md_total_ops")
        << " md_time=" << util::fmt(sum("md_seconds"), 2)
        << " s mean_ops_s=" << util::fmt(sum("md_ops_s") / reps, 0)
        << " peak_mdt_imbalance=" << util::fmt(peak("md_mdt_imbalance"), 3) << "\n";
  }

  if (!trace.traceJsonl.empty() || !trace.traceChrome.empty() || !trace.metricsCsv.empty()) {
    // Replay the campaign's first planned run (same seed, start time and run
    // path) with the exports attached: the timeline, metrics series and
    // traffic tables describe bit for bit the run the campaign reported.
    util::Rng planRng(seed);
    const auto first = harness::buildProtocolPlan(1, protocol, planRng).front();
    auto replay = config;
    replay.startAt = first.systemTime;
    replay.observe = trace;
    const auto record = harness::runOnce(replay, first.seed);
    out << "traced run: rep " << first.repetition << " seed=" << first.seed
        << " bandwidth=" << util::fmt(record.ior.bandwidth, 1) << " MiB/s";
    if (!config.faults.empty()) out << " failovers=" << record.ior.faults.failovers;
    out << "\n";
    const auto& report = record.trace;
    const auto events =
        std::to_string(report.events) + (ring ? " ring records" : " events");
    const auto dropped = std::to_string(report.dropped) + " dropped";
    if (!trace.traceJsonl.empty()) {
      out << "trace: wrote " << events << (ring ? " (" + dropped + ")" : "")
          << " to " << trace.traceJsonl << "\n";
    }
    if (!trace.traceChrome.empty()) {
      out << "trace: wrote Chrome trace (" << events << ", "
          << (ring ? dropped : std::to_string(report.samples) + " samples")
          << ") to " << trace.traceChrome << "\n";
    }
    if (!trace.metricsCsv.empty()) {
      out << "metrics: wrote " << report.samples << " samples (dt="
          << util::fmt(trace.metricsDt, 3) << " s) to " << trace.metricsCsv << "\n";
    }
    const auto& split = record.ior.util;
    if (split.active) {
      util::TableWriter usage({"resource", "MiB carried", "busy s", "peak MiB/s"});
      for (const auto& u : report.usage) {
        if (u.mib <= 0.0) continue;
        usage.addRow({u.name, util::fmt(u.mib, 0), util::fmt(u.busyTime, 2),
                      util::fmt(u.peakRate, 0)});
      }
      out << usage.render();
      // Per-server split of the traced run: the measured view of the paper's
      // (min,max) balance story.
      util::TableWriter servers({"server", "MiB", "busy frac"});
      for (std::size_t h = 0; h < cluster.hosts.size(); ++h) {
        servers.addRow({cluster.hosts[h].name, util::fmt(split.serverMiB[h], 0),
                        util::fmt(split.serverBusyFrac[h], 3)});
      }
      out << servers.render();
      out << "link_imbalance (max/mean server MiB): " << util::fmt(split.linkImbalance, 3)
          << "\n";
    }
  }
  return 0;
}

int cmdSweep(const Args& args, std::ostream& out) {
  const auto cluster = resolveCluster(args);
  const auto ppn = static_cast<int>(args.getInt("ppn", 8, 1, 1 << 20));
  const auto reps = getCount(args, "reps", 30);
  const auto seed = static_cast<std::uint64_t>(args.getUnsigned("seed", 2022));
  const auto total = args.getBytes("total", 32_GiB);
  auto config = baseConfig(args, cluster);
  config.rebalance = rebalancePolicy(args);
  const auto exec = executorOptions(args, "sweep");
  rejectUnknownFlags(args);

  std::vector<harness::CampaignEntry> entries;
  for (unsigned count = 1; count <= cluster.targetCount(); ++count) {
    harness::CampaignEntry entry;
    entry.config = config;
    entry.config.fs.defaultStripe.stripeCount = count;
    entry.config.job = ior::IorJob::onFirstNodes(cluster.nodes.size(), ppn);
    entry.config.ior.blockSize = ior::blockSizeForTotal(total, entry.config.job.ranks());
    entry.factors["count"] = std::to_string(count);
    entries.push_back(std::move(entry));
  }
  harness::ProtocolOptions protocol;
  protocol.repetitions = reps;

  core::StripeCountAdvisor advisor;
  const auto store = harness::executeCampaign(
      entries, protocol, seed,
      [&](const harness::RunRecord& record, harness::ResultRow&) {
        advisor.add(static_cast<unsigned>(record.ior.targetsUsed.size()),
                    core::Allocation(record.ior.targetsUsed, cluster),
                    record.ior.bandwidth);
      },
      exec);

  std::vector<stats::CategoryScatter> cats;
  util::TableWriter table({"stripe count", "mean MiB/s", "sd", "min", "max"});
  for (unsigned count = 1; count <= cluster.targetCount(); ++count) {
    const auto bw = store.metric("bandwidth_mibps", {{"count", std::to_string(count)}});
    const auto s = stats::summarize(bw);
    cats.push_back(stats::CategoryScatter{std::to_string(count), bw});
    table.addRow({std::to_string(count), util::fmt(s.mean, 1), util::fmt(s.sd, 1),
                  util::fmt(s.min, 1), util::fmt(s.max, 1)});
  }
  out << table.render() << "\n";
  stats::PlotOptions plot;
  plot.xLabel = "stripe count (individual executions)";
  plot.yLabel = "MiB/s";
  out << stats::renderCategoryScatter(cats, plot) << "\n";
  out << advisor.recommend().rationale << "\n";
  return 0;
}

int cmdConcurrent(const Args& args, std::ostream& out) {
  const auto apps = getCount(args, "apps", 2);
  const auto nodesPerApp = getCount(args, "nodes-per-app", 8);

  topo::ClusterConfig cluster = [&] {
    if (args.get("nodes")) return resolveCluster(args);
    // Build with exactly the node count the applications need.
    std::vector<std::string> tokens{"--nodes", std::to_string(apps * nodesPerApp)};
    if (const auto c = args.get("cluster")) {
      tokens.push_back("--cluster");
      tokens.push_back(*c);
    }
    return resolveCluster(Args(tokens));
  }();
  if (cluster.nodes.size() < apps * nodesPerApp) {
    throw util::ConfigError("cluster has fewer nodes than apps * nodes-per-app");
  }

  const auto stripe = static_cast<unsigned>(
      args.getInt("stripe", 4, 1, static_cast<long>(cluster.targetCount())));
  const auto ppn = static_cast<int>(args.getInt("ppn", 8, 1, 1 << 20));
  const auto total = args.getBytes("total", 32_GiB);
  const auto reps = getCount(args, "reps", 10);
  const auto seed = static_cast<std::uint64_t>(args.getUnsigned("seed", 2022));
  auto base = baseConfig(args, cluster);
  base.rebalance = rebalancePolicy(args);
  base.qos = qosPolicy(args);
  base.health = healthPolicy(args);
  base.fs.hedge = hedgePolicy(args);
  applyMetadataFlags(args, base);
  const auto exec = executorOptions(args, "concurrent");
  rejectUnknownFlags(args);
  base.fs.defaultStripe.stripeCount = stripe;

  // Each repetition is seed-isolated; map them in parallel and fold the
  // per-rep results in order, so the output is independent of --jobs.
  const auto results = harness::parallelMap<harness::ConcurrentResult>(
      reps, exec.jobs, [&](std::size_t rep) {
        std::vector<harness::AppSpec> specs(apps);
        for (std::size_t a = 0; a < apps; ++a) {
          specs[a].job.ppn = ppn;
          for (std::size_t n = 0; n < nodesPerApp; ++n) {
            specs[a].job.nodeIds.push_back(a * nodesPerApp + n);
          }
          specs[a].ior.blockSize = ior::blockSizeForTotal(total, specs[a].job.ranks());
        }
        return harness::runConcurrent(base, specs, seed + rep);
      });

  std::vector<double> aggregates;
  std::vector<double> perApp;
  std::size_t sharedTargetRuns = 0;
  qos::QosStats qosTotals;
  std::uint64_t mdOpsTotal = 0;
  double mdOpsPerSecSum = 0.0;
  double mdPeakImbalance = 0.0;
  for (const auto& result : results) {
    aggregates.push_back(result.aggregateBandwidth);
    for (const auto& app : result.apps) perApp.push_back(app.bandwidth);
    if (result.sharedTargets > 0) ++sharedTargetRuns;
    mdOpsTotal += result.md.totalOps;
    mdOpsPerSecSum += result.md.opsPerSec;
    mdPeakImbalance = std::max(mdPeakImbalance, result.md.mdtImbalance);
    qosTotals.tokensIssued += result.qos.tokensIssued;
    qosTotals.tokensBorrowed += result.qos.tokensBorrowed;
    qosTotals.tokensReclaimed += result.qos.tokensReclaimed;
    qosTotals.deferrals += result.qos.deferrals;
    qosTotals.throttleSeconds += result.qos.throttleSeconds;
    qosTotals.sloViolations += result.qos.sloViolations;
  }

  out << apps << " concurrent applications x " << nodesPerApp << " nodes x " << ppn
      << " ppn, stripe " << stripe << ", " << util::formatBytes(total) << " each, " << reps
      << " repetitions\n";
  out << "aggregate (Eq. 1): " << stats::summarize(aggregates).describe() << " MiB/s\n";
  out << "per application:   " << stats::summarize(perApp).describe() << " MiB/s\n";
  out << "runs with target sharing: " << sharedTargetRuns << "/" << reps << "\n";
  if (base.qos.enabled) {
    out << "qos (totals over " << reps << " reps): issued="
        << util::fmt(qosTotals.tokensIssued / static_cast<double>(util::kMiB), 1)
        << " MiB borrowed="
        << util::fmt(qosTotals.tokensBorrowed / static_cast<double>(util::kMiB), 1)
        << " MiB reclaimed="
        << util::fmt(qosTotals.tokensReclaimed / static_cast<double>(util::kMiB), 1)
        << " MiB deferrals=" << qosTotals.deferrals
        << " throttle=" << util::fmt(qosTotals.throttleSeconds, 2)
        << " s slo_violations=" << qosTotals.sloViolations << "\n";
  }
  if (base.mdtest) {
    out << "metadata (totals over " << reps << " reps): ops=" << mdOpsTotal
        << " mean_ops_s=" << util::fmt(mdOpsPerSecSum / reps, 0)
        << " peak_mdt_imbalance=" << util::fmt(mdPeakImbalance, 3) << "\n";
  }
  return 0;
}

int cmdExportCluster(const Args& args, std::ostream& out) {
  const auto cluster = resolveCluster(args);
  const auto file = args.getString("out", "");
  rejectUnknownFlags(args);
  if (file.empty()) {
    out << topo::clusterToJson(cluster);
  } else {
    topo::saveCluster(cluster, file);
    out << "wrote " << file << "\n";
  }
  return 0;
}

std::string usage() {
  return "beesim -- BeeGFS-like storage-target-allocation simulator (CLUSTER'22 study)\n"
         "\n"
         "usage: beesim <command> [flags]\n"
         "\n"
         "commands:\n"
         "  describe         print the selected topology and analytic bounds\n"
         "  run              run repeated IOR executions, report bandwidth + allocations\n"
         "  sweep            stripe-count sweep with advisor recommendation\n"
         "  concurrent       concurrent applications with Eq. 1 aggregate\n"
         "  export-cluster   dump the selected topology as editable JSON\n"
         "\n"
         "shared flags:\n"
         "  --cluster plafrim1|plafrim2|catalyst|FILE.json   (default plafrim2)\n"
         "  --nodes N   compute nodes (default 16)\n"
         "  --seed S    root RNG seed (run, sweep, concurrent; default 2022)\n"
         "  --jobs N    worker threads for repetitions (default $BEESIM_JOBS, else 1;\n"
         "              0 = all hardware threads; results are identical for any N)\n"
         "  --progress  live status line on stderr (runs done, ETA, slowest config)\n"
         "run flags:      --ppn --stripe --total --chooser --reps --pattern n1|nn\n"
         "                --op write|read --trace FILE.jsonl\n"
         "                --trace-out FILE.json   Chrome-trace/Perfetto export of one\n"
         "                            traced run (flows + rate/link counter tracks)\n"
         "                --trace-format full|ring   full: exact FlowTracer (default);\n"
         "                            ring: bounded-memory binary record sink, rendered\n"
         "                            on flush (minimal tracing overhead at scale)\n"
         "                --trace-ring-cap N      ring capacity in 40-byte records\n"
         "                            (default 1048576; oldest dropped when full)\n"
         "                --metrics-out FILE.csv  virtual-time metrics series (aggregate\n"
         "                            MiB/s, per-server link MiB/s, link imbalance)\n"
         "                --metrics-dt S          sampling interval (default 0.1; needs\n"
         "                            --metrics-out or a full-format --trace-out)\n"
         "                --faults \"off:t3@30;on:t3@90;off:h1@60;link:h0@40=0.5;slow:t2@20=0.1\"\n"
         "                            (slow:tN@T=F degrades target N to fraction F of its\n"
         "                            service rate while it stays registered online)\n"
         "                --fault-mode strict|degraded (default degraded with --faults)\n"
         "                --io-timeout S --mttf S --mttr S --fault-horizon S\n"
         "                --fail-slow S         stochastic gray failures: mean seconds\n"
         "                            between fail-slow episodes per target\n"
         "                --fail-slow-mttr S    mean episode duration (default fail-slow/10)\n"
         "                --fail-slow-severity F  worst-case rate multiplier drawn per\n"
         "                            episode, in [0,1] (default 0.25; 0 = dead-but-online)\n"
         "                --mirror    stripe over buddy-mirror groups (synchronous\n"
         "                            cross-host replication with automatic failover)\n"
         "                --resync-rate MiBps   cap background resync flows (default uncapped)\n"
         "                --rebalance           closed-loop rebalancing: watch per-server\n"
         "                            rates, bias new creates toward cold servers and\n"
         "                            migrate hot chunks when imbalance persists\n"
         "                --rebalance-threshold X   engage at link imbalance >= X (>1,\n"
         "                            default 1.25; 1 = perfectly balanced)\n"
         "                --rebalance-patience N    consecutive samples over threshold\n"
         "                            before acting (default 3)\n"
         "                --rebalance-rate MiBps    cap each background migration flow\n"
         "                            (default uncapped)\n"
         "                --qos                 per-application token-bucket bandwidth\n"
         "                            control on the write path (DESIGN.md §2.8)\n"
         "                --qos-rate MiBps      reserved sustained rate per application\n"
         "                            (required with --qos)\n"
         "                --qos-burst BYTES     bucket depth (default: one second at\n"
         "                            --qos-rate; accepts 64m/1g suffixes)\n"
         "                --qos-borrow          let under-subscribed apps lend unused\n"
         "                            tokens to over-subscribed ones (AdapTBF-style)\n"
         "                --suspect-ratio R     enable the gray-failure health monitor:\n"
         "                            quarantine a server whose throughput EWMA stays\n"
         "                            below R x the busy-peer median (R in (0,1))\n"
         "                --suspect-patience S  seconds below the ratio before quarantine\n"
         "                            (default 1.0; requires --suspect-ratio)\n"
         "                --hedge               hedge stalled write chunks: re-issue to an\n"
         "                            alternate target, first finisher wins\n"
         "                --hedge-deadline S    stall check interval (default 1.0)\n"
         "                --hedge-ratio R       hedge when a chunk's best leg runs below\n"
         "                            R x the peer median rate (default 0.25)\n"
         "                --mdts N              queued metadata model with N metadata\n"
         "                            targets (any metadata flag switches from the\n"
         "                            scalar-latency model to queued MDT service)\n"
         "                --meta-rate OPS       per-MDT create service rate in ops/s\n"
         "                            (default 2500; open/stat/unlink scale with it)\n"
         "                --md-shard hash|rr    directory-to-MDT sharding: hash of the\n"
         "                            parent directory (default) or round-robin\n"
         "                --md-ops N            append an mdtest-style metadata phase\n"
         "                            after the bandwidth phase: N files per rank,\n"
         "                            create/stat/unlink (the IO500 bw-then-md shape)\n"
         "sweep flags:    --ppn --reps --total --chooser --rebalance*\n"
         "concurrent:     --apps --nodes-per-app --ppn --stripe --total --reps\n"
         "                --rebalance* --qos --qos-rate --qos-burst --qos-borrow\n"
         "                --suspect-ratio --suspect-patience --hedge*\n"
         "                --mdts --meta-rate --md-shard --md-ops\n"
         "export-cluster: --out FILE\n";
}

int runCli(const std::vector<std::string>& argv, std::ostream& out, std::ostream& err) {
  if (argv.empty() || argv[0] == "help" || argv[0] == "--help") {
    out << usage();
    return argv.empty() ? 1 : 0;
  }
  const std::string command = argv[0];
  try {
    const Args args(std::vector<std::string>(argv.begin() + 1, argv.end()),
                    {"progress", "mirror", "rebalance", "qos", "qos-borrow", "hedge"});
    if (command == "describe") return cmdDescribe(args, out);
    if (command == "run") return cmdRun(args, out);
    if (command == "sweep") return cmdSweep(args, out);
    if (command == "concurrent") return cmdConcurrent(args, out);
    if (command == "export-cluster") return cmdExportCluster(args, out);
    err << "unknown command '" << command << "'\n\n" << usage();
    return 1;
  } catch (const util::Error& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace beesim::cli
