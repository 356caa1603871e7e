#include "cli/commands.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <sstream>

#include "core/advisor.hpp"
#include "core/allocation.hpp"
#include "core/analytic.hpp"
#include "faults/schedule.hpp"
#include "harness/campaign.hpp"
#include "harness/concurrent.hpp"
#include "ior/options.hpp"
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

// Command bits of FlagSpec::commands, in kCommandNames order.
constexpr unsigned kDescribe = 1u << 0;
constexpr unsigned kRun = 1u << 1;
constexpr unsigned kSweep = 1u << 2;
constexpr unsigned kConcurrent = 1u << 3;
constexpr unsigned kExportCluster = 1u << 4;
constexpr unsigned kAll = kDescribe | kRun | kSweep | kConcurrent | kExportCluster;
constexpr unsigned kCampaigns = kRun | kSweep | kConcurrent;
constexpr unsigned kRunConcurrent = kRun | kConcurrent;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr FlagRange kAny{};
constexpr FlagRange kNonNegative{0};
constexpr FlagRange kCount{1};
constexpr FlagRange kPositive{0, kInf, true};
constexpr FlagRange kFraction{0, 1, true};

}  // namespace

const std::vector<FlagSpec>& flagTable() {
  using enum FlagKind;
  static const std::vector<FlagSpec> table{
      {"cluster", kAll, kText, "plafrim1|plafrim2|catalyst|FILE.json", kAny, {},
       "cluster factory or cluster file (default plafrim2)"},
      {"nodes", kAll, kInt, "N", kCount, {},
       "compute nodes (default 16; concurrent: apps x nodes-per-app)"},
      {"seed", kCampaigns, kInt, "S", kNonNegative, {}, "root RNG seed (default 2022)"},
      {"jobs", kCampaigns, kInt, "N", kNonNegative, {},
       "worker threads (default $BEESIM_JOBS or 1; 0 = all cores); same output"},
      {"progress", kCampaigns, kSwitch, "", kAny, {},
       "live status line on stderr (runs done, ETA, slowest config)"},
      {"apps", kConcurrent, kInt, "N", kCount, {}, "concurrent applications (default 2)"},
      {"nodes-per-app", kConcurrent, kInt, "N", kCount, {}, "nodes per application (default 8)"},
      {"ppn", kCampaigns, kInt, "N", {1, 1 << 20}, {}, "processes per node (default 8)"},
      {"stripe", kRunConcurrent, kInt, "N", kCount, {},
       "stripe count, at most the cluster's target count (default 4)"},
      {"total", kCampaigns, kBytes, "BYTES", kPositive, {},
       "data per run, per application for concurrent (default 32GiB)"},
      {"chooser", kCampaigns, kText, "rr|random|balanced|rr-interleaved", kAny, {},
       "storage target chooser (default rr)"},
      {"reps", kCampaigns, kInt, "N", kCount, {},
       "repetitions (default 10; sweep: 30 per stripe count)"},
      {"pattern", kRun, kText, "n1|nn", kAny, {},
       "one shared file (default) or one file per process"},
      {"op", kRun, kText, "write|read", kAny, {}, "IOR phase (default write)"},
      {"trace", kRun, kText, "FILE.jsonl", kAny, {},
       "JSONL flow timeline of the campaign's first planned run"},
      {"trace-out", kRun, kText, "FILE.json", kAny, {},
       "Chrome-trace/Perfetto export of that run (flows + rate/link tracks)"},
      {"trace-format", kRun, kText, "full|ring", kAny, {"trace", "trace-out"},
       "exact FlowTracer (default) or bounded-memory ring sink (cheap at scale)"},
      {"trace-ring-cap", kRun, kInt, "N", {1, 1 << 26}, {},
       "ring size in 40-byte records (default 1048576; needs ring format)"},
      {"metrics-out", kRun, kText, "FILE.csv", kAny, {},
       "virtual-time metrics series (aggregate and per-server link MiB/s)"},
      {"metrics-dt", kRun, kReal, "S", kPositive, {},
       "sampling interval (default 0.1; needs --metrics-out or full --trace-out)"},
      {"faults", kRun, kText, "EVENTS", kAny, {},
       "e.g. \"off:t3@30;on:t3@90;off:h1@60;link:h0@40=0.5;slow:t2@20=0.1\""},
      {"fault-mode", kRun, kText, "strict|degraded|none", kAny, {},
       "client fault policy (default degraded with any fault source)"},
      {"io-timeout", kRun, kReal, "S", kPositive, {},
       "chunk timeout before a retry (default 5; needs a fault mode)"},
      {"mttf", kRun, kReal, "S", kPositive, {}, "stochastic target failures: mean time to fail"},
      {"mttr", kRun, kReal, "S", kPositive, {"mttf"}, "mean time to repair (default mttf/10)"},
      {"fault-horizon", kRun, kReal, "S", kPositive, {"mttf", "fail-slow"},
       "seconds of stochastic faults drawn (default 120)"},
      {"fail-slow", kRun, kReal, "S", kPositive, {},
       "stochastic gray failures: mean seconds between episodes per target"},
      {"fail-slow-mttr", kRun, kReal, "S", kPositive, {"fail-slow"},
       "mean episode duration (default fail-slow/10)"},
      {"fail-slow-severity", kRun, kReal, "F", {0, 1}, {"fail-slow"},
       "worst rate multiplier drawn per episode (default 0.25; 0 = dead)"},
      {"mirror", kRun, kSwitch, "", kAny, {},
       "stripe over buddy-mirror groups (synchronous replication, failover)"},
      {"resync-rate", kRun, kReal, "MiBps", kPositive, {"mirror"},
       "cap background resync flows (default uncapped)"},
      {"rebalance", kCampaigns, kSwitch, "", kAny, {},
       "closed-loop rebalancing: steer creates and migrate chunks to cold servers"},
      {"rebalance-threshold", kCampaigns, kReal, "X", {1, kInf, true}, {"rebalance"},
       "engage at link imbalance >= X (default 1.25)"},
      {"rebalance-patience", kCampaigns, kInt, "N", {1, 1'000'000}, {"rebalance"},
       "consecutive samples over threshold before acting (default 3)"},
      {"rebalance-rate", kCampaigns, kReal, "MiBps", kPositive, {"rebalance"},
       "cap each background migration flow (default uncapped)"},
      {"qos", kRunConcurrent, kSwitch, "", kAny, {"qos-rate"},
       "per-application token-bucket bandwidth control on writes"},
      {"qos-rate", kRunConcurrent, kReal, "MiBps", kPositive, {"qos"},
       "reserved sustained rate per application"},
      {"qos-burst", kRunConcurrent, kBytes, "BYTES", kPositive, {"qos"},
       "bucket depth (default: one second at --qos-rate)"},
      {"qos-borrow", kRunConcurrent, kSwitch, "", kAny, {"qos"},
       "let idle applications lend unused tokens (AdapTBF-style)"},
      {"suspect-ratio", kRunConcurrent, kReal, "R", kFraction, {},
       "quarantine a server whose throughput stays below R x the peer median"},
      {"suspect-patience", kRunConcurrent, kReal, "S", kPositive, {"suspect-ratio"},
       "seconds below the ratio before quarantine (default 1.0)"},
      {"hedge", kRunConcurrent, kSwitch, "", kAny, {},
       "resend stalled write chunks to an alternate target"},
      {"hedge-deadline", kRunConcurrent, kReal, "S", kPositive, {"hedge"},
       "stall check interval (default 1.0)"},
      {"hedge-ratio", kRunConcurrent, kReal, "R", kFraction, {"hedge"},
       "hedge a chunk below R x the peer median rate (default 0.25)"},
      {"mdts", kRunConcurrent, kInt, "N", {1, 4096}, {},
       "metadata targets; any metadata flag arms the queued MDT model"},
      {"meta-rate", kRunConcurrent, kReal, "OPS", kPositive, {},
       "per-MDT create rate (default 2500; open/stat/unlink scale)"},
      {"md-shard", kRunConcurrent, kText, "hash|rr", kAny, {},
       "directory-to-MDT sharding (default hash of the parent dir)"},
      {"md-ops", kRunConcurrent, kInt, "N", {1, 1 << 20}, {},
       "mdtest phase after the bandwidth phase: N files per rank"},
      {"out", kExportCluster, kText, "FILE", kAny, {}, "write the JSON to FILE, not stdout"},
  };
  return table;
}

namespace {

const FlagSpec* findFlag(std::string_view name) {
  for (const auto& flag : flagTable()) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

/// A switch is set when true; any other flag when supplied.
bool isSet(const Args& args, const FlagSpec& flag) {
  const std::string name(flag.name);
  return flag.kind == FlagKind::kSwitch ? args.getBool(name) : args.get(name).has_value();
}

std::string number(double value) {
  std::ostringstream text;
  text.precision(15);
  text << value;
  return text.str();
}

/// "> 0", ">= 1", "in (0, 1)"; empty for an unbounded flag.
std::string rangeText(const FlagRange& range) {
  if (std::isinf(range.hi)) {
    if (std::isinf(range.lo)) return "";
    return std::string(range.open ? "> " : ">= ") + number(range.lo);
  }
  return std::string(range.open ? "in (" : "in [") + number(range.lo) + ", " +
         number(range.hi) + (range.open ? ")" : "]");
}

/// Parses a supplied flag by its kind and rejects a value outside its range.
void checkValue(const Args& args, const FlagSpec& flag) {
  const std::string name(flag.name);
  double value = 0.0;
  switch (flag.kind) {
    case FlagKind::kSwitch:
      (void)args.getBool(name);
      return;
    case FlagKind::kText:
      return;
    case FlagKind::kInt:
      value = static_cast<double>(args.getInt(name, 0));
      break;
    case FlagKind::kReal:
      value = args.getDouble(name, 0.0);
      break;
    case FlagKind::kBytes:
      value = static_cast<double>(args.getBytes(name, 0));
      break;
  }
  const auto& range = flag.range;
  const bool inside = range.open ? range.lo < value && value < range.hi
                                 : range.lo <= value && value <= range.hi;
  if (!inside) {
    throw util::ConfigError("--" + name + " must " + (std::isinf(range.hi) ? "be " : "lie ") +
                            rangeText(range));
  }
}

/// The table's checks for `command`, before any reader runs: unknown flags,
/// stray arguments, each supplied flag's value, then each set flag's gate.
void checkFlags(const Args& args, unsigned command) {
  std::string unknown;
  for (const auto& name : args.flagNames()) {
    const auto* flag = findFlag(name);
    if (!flag || !(flag->commands & command)) unknown += (unknown.empty() ? "--" : ", --") + name;
  }
  if (!unknown.empty()) throw util::ConfigError("unknown flag(s): " + unknown);
  if (const auto& stray = args.positionals(); !stray.empty()) {
    throw util::ConfigError("unexpected argument '" + stray.front() + "'");
  }
  for (const auto& flag : flagTable()) {
    if (args.get(std::string(flag.name))) checkValue(args, flag);
  }
  const auto gateSet = [&](std::string_view gate) { return isSet(args, *findFlag(gate)); };
  for (const auto& flag : flagTable()) {
    if (flag.gate.empty() || !isSet(args, flag) ||
        std::any_of(flag.gate.begin(), flag.gate.end(), gateSet)) {
      continue;
    }
    std::string needs;
    for (const auto gate : flag.gate) needs.append(needs.empty() ? "--" : " or --").append(gate);
    throw util::ConfigError(std::string("--").append(flag.name) + " requires " + needs);
  }
}

/// Resolve --cluster, a factory name or a cluster file, at --nodes compute
/// nodes, else at `defaultNodes`.  A node count from either resizes a
/// file-described cluster by cloning its first node; with neither, a
/// factory builds 16 nodes and a file keeps its own.
topo::ClusterConfig resolveCluster(const Args& args,
                                   std::optional<std::size_t> defaultNodes = std::nullopt) {
  const auto name = args.getString("cluster", "plafrim2");
  auto nodes = defaultNodes;
  if (args.get("nodes")) nodes = args.getUnsigned("nodes", 0);
  const auto count = nodes.value_or(16);
  if (name == "plafrim1") return topo::makePlafrim(topo::Scenario::kEthernet10G, count);
  if (name == "plafrim2") return topo::makePlafrim(topo::Scenario::kOmniPath100G, count);
  if (name == "catalyst") return topo::makeCatalystLike(count);
  auto cluster = topo::loadCluster(name);
  if (nodes) {
    if (cluster.nodes.empty()) throw util::ConfigError("cluster file has no nodes");
    auto prototype = cluster.nodes.front();
    cluster.nodes.resize(count, prototype);
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

/// The per-rank block size that splits `--total` over `ranks`: each rank's
/// block must be a whole number of `transfer`-byte IOR transfers.
util::Bytes totalBlockSize(util::Bytes total, int ranks, util::Bytes transfer) {
  if (total % (static_cast<util::Bytes>(ranks) * transfer) != 0) {
    throw util::ConfigError("--total " + util::formatBytes(total) + " does not split into whole " +
                            util::formatBytes(transfer) + " transfers over " +
                            std::to_string(ranks) + " ranks");
  }
  return ior::blockSizeForTotal(total, ranks);
}

/// Common run-config assembly for run/sweep/concurrent: the chooser and the
/// optional features (DESIGN.md §2.6, §2.8-§2.10).  A flag the command does
/// not take was rejected by checkFlags, so its feature keeps its default.
harness::RunConfig baseConfig(const Args& args, const topo::ClusterConfig& cluster) {
  harness::RunConfig config;
  config.cluster = cluster;
  config.fs.chooser = chooserFromFlag(args.getString("chooser", "rr"));
  auto& rebalance = config.rebalance;
  rebalance.enabled = args.getBool("rebalance");
  rebalance.threshold = args.getDouble("rebalance-threshold", rebalance.threshold);
  rebalance.migrationRate = args.getDouble("rebalance-rate", rebalance.migrationRate);
  rebalance.patience = static_cast<int>(args.getInt("rebalance-patience", rebalance.patience));
  auto& qos = config.qos;
  qos.enabled = args.getBool("qos");
  qos.rate = args.getDouble("qos-rate", qos.rate);
  qos.burst = args.getBytes("qos-burst", qos.burst);
  qos.borrow = args.getBool("qos-borrow");
  auto& health = config.health;  // armed by --suspect-ratio
  health.enabled = args.get("suspect-ratio").has_value();
  health.suspectRatio = args.getDouble("suspect-ratio", health.suspectRatio);
  health.suspectPatience = args.getDouble("suspect-patience", health.suspectPatience);
  auto& hedge = config.fs.hedge;
  hedge.enabled = args.getBool("hedge");
  hedge.deadline = args.getDouble("hedge-deadline", hedge.deadline);
  hedge.lagRatio = args.getDouble("hedge-ratio", hedge.lagRatio);
  // Any metadata flag switches the run from the legacy scalar-latency path
  // to the queued MDT service model; with none of them passed nothing is
  // touched, so default runs keep their exact legacy bytes.
  if (!args.get("mdts") && !args.get("meta-rate") && !args.get("md-shard") &&
      !args.get("md-ops")) {
    return config;
  }
  auto& meta = config.fs.meta;
  meta.queued = true;
  meta.mdtCount = static_cast<unsigned>(args.getInt("mdts", 1));
  // The service keeps the default create:open:stat:unlink ratios, so
  // --meta-rate scales the whole profile.
  meta.createRate = args.getDouble("meta-rate", meta.createRate);
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
    md.filesPerRank = static_cast<std::size_t>(args.getInt("md-ops", md.filesPerRank));
    config.mdtest = md;
  }
  return config;
}

/// Shared --jobs/--progress handling: worker count (default BEESIM_JOBS,
/// else serial) plus an optional stderr status line.
harness::ExecutorOptions executorOptions(const Args& args, const std::string& label) {
  harness::ExecutorOptions exec;
  exec.jobs = args.getUnsigned("jobs", harness::defaultJobs());
  if (args.getBool("progress")) exec.onProgress = harness::stderrProgress(label);
  return exec;
}

int cmdDescribe(const Args& args, std::ostream& out) {
  const auto cluster = resolveCluster(args);

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
  const auto ppn = static_cast<int>(args.getInt("ppn", 8));
  const auto stripe = static_cast<unsigned>(
      args.getInt("stripe", 4, 1, static_cast<long>(cluster.targetCount())));
  const auto total = args.getBytes("total", 32_GiB);
  const auto reps = args.getUnsigned("reps", 10);
  const auto seed = static_cast<std::uint64_t>(args.getUnsigned("seed", 2022));
  const auto pattern = args.getString("pattern", "n1");
  const auto op = args.getString("op", "write");
  // Exports of the traced replay (see below); the campaign runs carry none.
  harness::ObservabilityOptions trace;
  trace.traceJsonl = args.getString("trace", "");
  trace.traceChrome = args.getString("trace-out", "");
  const auto traceFormat = args.getString("trace-format", "full");
  trace.metricsCsv = args.getString("metrics-out", "");
  trace.metricsDt = args.getDouble("metrics-dt", trace.metricsDt);
  const auto faultSpec = args.getString("faults", "");
  const auto faultMode = args.getString("fault-mode", "");
  const auto mttf = args.getDouble("mttf", 0.0);
  const auto mttr = args.getDouble("mttr", 0.0);
  const auto faultHorizon = args.getDouble("fault-horizon", 120.0);
  const auto failSlow = args.getDouble("fail-slow", 0.0);
  const auto failSlowMttr = args.getDouble("fail-slow-mttr", 0.0);
  const auto failSlowSeverity = args.getDouble("fail-slow-severity", 0.25);
  const auto exec = executorOptions(args, "run");

  if (traceFormat != "full" && traceFormat != "ring") {
    throw util::ConfigError("--trace-format must be full|ring");
  }
  const bool ring = traceFormat == "ring";
  // Only the metrics CSV and the full-format Chrome trace carry samples.
  if (args.get("metrics-dt") && trace.metricsCsv.empty() &&
      (trace.traceChrome.empty() || ring)) {
    throw util::ConfigError("--metrics-dt requires --metrics-out or a full-format --trace-out");
  }
  if (args.get("trace-ring-cap") && !ring) {
    throw util::ConfigError("--trace-ring-cap requires --trace-format=ring");
  }
  constexpr std::size_t kDefaultRingCapacity = std::size_t{1} << 20;
  trace.ringCapacity = ring ? args.getUnsigned("trace-ring-cap", kDefaultRingCapacity) : 0;

  config.fs.defaultStripe.stripeCount = stripe;
  config.job = ior::IorJob::onFirstNodes(cluster.nodes.size(), ppn);
  config.ior.blockSize = totalBlockSize(total, config.job.ranks(), config.ior.transferSize);
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
  config.fs.faults.ioTimeout = args.getDouble("io-timeout", 5.0);
  // Target and host failures strand chunks that only a client fault policy
  // can recover; slow-only schedules stay legal without one.
  if (faultMode == "none" && (mttf > 0.0 || config.faults.schedule.hasFailures())) {
    throw util::ConfigError(
        "--fault-mode none cannot recover from target/host failures (--mttf or off: "
        "events in --faults); use --fault-mode strict|degraded");
  }
  if (args.get("io-timeout") &&
      config.fs.faults.mode == beegfs::ClientFaultPolicy::Mode::kNone) {
    throw util::ConfigError(
        "--io-timeout requires a fault mode (--faults, --mttf, --fail-slow or "
        "--fault-mode strict|degraded)");
  }

  // Storage buddy mirroring: default cross-host pairing, mirrored striping
  // for every file the run creates.
  if (args.getBool("mirror")) {
    config.fs.mirror.enabled = true;
    config.fs.mirror.resyncRate = args.getDouble("resync-rate", 0.0);
    config.fs.defaultStripe.mirror = true;
  }

  std::vector<harness::CampaignEntry> entries(1);
  entries[0].config = config;
  harness::ProtocolOptions protocol;
  protocol.repetitions = reps;

  // Each feature's counters reach the totals through its campaign columns;
  // only the allocation tally needs the raw record.
  std::map<std::string, std::size_t> allocationCounts;
  const auto store = harness::executeCampaign(
      entries, protocol, seed,
      [&](const harness::RunRecord& record, harness::ResultRow&) {
        ++allocationCounts[core::Allocation(record.ior.targetsUsed, cluster).key()];
      },
      exec);

  const auto summary = stats::summarize(store.metric("bandwidth_mibps"));
  out << config.ior.describe() << "  (" << config.job.ranks() << " ranks on "
      << cluster.nodes.size() << " nodes, " << reps << " repetitions)\n";
  out << "bandwidth: " << summary.describe() << " MiB/s\n";
  out << "allocations: ";
  for (const auto& [key, n] : allocationCounts) out << key << " x" << n << "  ";
  out << "\n";
  harness::writeFeatureTotals(out, config, store, std::to_string(reps) + " reps");

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
  const auto ppn = static_cast<int>(args.getInt("ppn", 8));
  const auto reps = args.getUnsigned("reps", 30);
  const auto seed = static_cast<std::uint64_t>(args.getUnsigned("seed", 2022));
  const auto total = args.getBytes("total", 32_GiB);
  const auto config = baseConfig(args, cluster);
  const auto exec = executorOptions(args, "sweep");

  std::vector<harness::CampaignEntry> entries;
  for (unsigned count = 1; count <= cluster.targetCount(); ++count) {
    harness::CampaignEntry entry;
    entry.config = config;
    entry.config.fs.defaultStripe.stripeCount = count;
    entry.config.job = ior::IorJob::onFirstNodes(cluster.nodes.size(), ppn);
    entry.config.ior.blockSize =
        totalBlockSize(total, entry.config.job.ranks(), entry.config.ior.transferSize);
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
  harness::writeFeatureTotals(out, config, store, std::to_string(store.size()) + " runs");
  return 0;
}

int cmdConcurrent(const Args& args, std::ostream& out) {
  const auto apps = args.getUnsigned("apps", 2);
  const auto nodesPerApp = args.getUnsigned("nodes-per-app", 8);
  // Without --nodes, exactly the node count the applications need.
  const auto cluster = resolveCluster(args, apps * nodesPerApp);
  if (cluster.nodes.size() < apps * nodesPerApp) {
    throw util::ConfigError("cluster has fewer nodes than apps * nodes-per-app");
  }

  const auto stripe = static_cast<unsigned>(
      args.getInt("stripe", 4, 1, static_cast<long>(cluster.targetCount())));
  const auto ppn = static_cast<int>(args.getInt("ppn", 8));
  const auto total = args.getBytes("total", 32_GiB);
  const auto reps = args.getUnsigned("reps", 10);
  const auto seed = static_cast<std::uint64_t>(args.getUnsigned("seed", 2022));
  auto base = baseConfig(args, cluster);
  const auto exec = executorOptions(args, "concurrent");
  base.fs.defaultStripe.stripeCount = stripe;
  const auto blockSize = totalBlockSize(total, static_cast<int>(nodesPerApp) * ppn,
                                        ior::IorOptions{}.transferSize);

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
          specs[a].ior.blockSize = blockSize;
        }
        return harness::runConcurrent(base, specs, seed + rep);
      });

  std::vector<double> aggregates;
  std::vector<double> perApp;
  std::size_t sharedTargetRuns = 0;
  harness::ResultStore featureRows;
  for (const auto& result : results) {
    aggregates.push_back(result.aggregateBandwidth);
    for (const auto& app : result.apps) perApp.push_back(app.bandwidth);
    if (result.sharedTargets > 0) ++sharedTargetRuns;
    harness::ResultRow row;
    harness::addFeatureColumns(base, result, row);
    featureRows.add(std::move(row));
  }

  out << apps << " concurrent applications x " << nodesPerApp << " nodes x " << ppn
      << " ppn, stripe " << stripe << ", " << util::formatBytes(total) << " each, " << reps
      << " repetitions\n";
  out << "aggregate (Eq. 1): " << stats::summarize(aggregates).describe() << " MiB/s\n";
  out << "per application:   " << stats::summarize(perApp).describe() << " MiB/s\n";
  out << "runs with target sharing: " << sharedTargetRuns << "/" << reps << "\n";
  harness::writeFeatureTotals(out, base, featureRows, std::to_string(reps) + " reps");
  return 0;
}

int cmdExportCluster(const Args& args, std::ostream& out) {
  const auto cluster = resolveCluster(args);
  const auto file = args.getString("out", "");
  if (file.empty()) {
    out << topo::clusterToJson(cluster);
  } else {
    topo::saveCluster(cluster, file);
    out << "wrote " << file << "\n";
  }
  return 0;
}

struct Command {
  int (*run)(const Args&, std::ostream&);
  std::string_view summary;
};

/// The commands' code and usage() lines, in kCommandNames order.
constexpr std::array<Command, kCommandNames.size()> kCommands{{
    {cmdDescribe, "print the selected topology and analytic bounds"},
    {cmdRun, "run repeated IOR executions, report bandwidth + allocations"},
    {cmdSweep, "stripe-count sweep with advisor recommendation"},
    {cmdConcurrent, "concurrent applications with Eq. 1 aggregate"},
    {cmdExportCluster, "dump the selected topology as editable JSON"},
}};

}  // namespace

std::string usage() {
  std::string text =
      "beesim -- BeeGFS-like storage-target-allocation simulator (CLUSTER'22 study)\n"
      "\n"
      "usage: beesim <command> [flags]\n"
      "\n"
      "commands:\n";
  for (std::size_t c = 0; c < kCommands.size(); ++c) {
    std::string name(kCommandNames[c]);
    name.resize(17, ' ');
    text.append("  ").append(name).append(kCommands[c].summary).append("\n");
  }
  text += "\nflags ([the commands that take the flag]):\n";
  for (const auto& flag : flagTable()) {
    text.append("  --").append(flag.name);
    if (!flag.arg.empty()) text.append(" ").append(flag.arg);
    if (const auto range = rangeText(flag.range); !range.empty()) text.append(" ").append(range);
    const char* separator = "  [";
    for (std::size_t c = 0; c < kCommandNames.size(); ++c) {
      if (flag.commands & (1u << c)) {
        text.append(separator).append(kCommandNames[c]);
        separator = " ";
      }
    }
    text.append("]\n      ").append(flag.help).append("\n");
  }
  return text;
}

int runCli(const std::vector<std::string>& argv, std::ostream& out, std::ostream& err) {
  if (argv.empty() || argv[0] == "help" || argv[0] == "--help") {
    out << usage();
    return argv.empty() ? 1 : 0;
  }
  const std::string command = argv[0];
  const auto it = std::find(kCommandNames.begin(), kCommandNames.end(), command);
  if (it == kCommandNames.end()) {
    err << "unknown command '" << command << "'\n\n" << usage();
    return 1;
  }
  const auto index = static_cast<std::size_t>(it - kCommandNames.begin());
  try {
    std::vector<std::string> switches;
    for (const auto& flag : flagTable()) {
      if (flag.kind == FlagKind::kSwitch) switches.emplace_back(flag.name);
    }
    const Args args(std::vector<std::string>(argv.begin() + 1, argv.end()), switches);
    checkFlags(args, 1u << index);
    return kCommands[index].run(args, out);
  } catch (const util::Error& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace beesim::cli
