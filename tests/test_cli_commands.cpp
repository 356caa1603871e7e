#include "cli/commands.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "faults/schedule.hpp"
#include "harness/campaign.hpp"
#include "topology/plafrim.hpp"
#include "util/table.hpp"

namespace beesim::cli {
namespace {

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult run(std::vector<std::string> argv) {
  std::ostringstream out;
  std::ostringstream err;
  CliResult result;
  result.code = runCli(argv, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

TEST(Cli, HelpAndUnknownCommand) {
  const auto help = run({"help"});
  EXPECT_EQ(help.code, 0);
  EXPECT_NE(help.out.find("usage: beesim"), std::string::npos);

  const auto empty = run({});
  EXPECT_EQ(empty.code, 1);

  const auto bogus = run({"frobnicate"});
  EXPECT_EQ(bogus.code, 1);
  EXPECT_NE(bogus.err.find("unknown command"), std::string::npos);
}

TEST(Cli, DescribeListsHostsAndBounds) {
  const auto result = run({"describe", "--cluster", "plafrim1", "--nodes", "4"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("plafrim-s1-oss0"), std::string::npos);
  EXPECT_NE(result.out.find("network bound"), std::string::npos);
  EXPECT_NE(result.out.find("compute nodes: 4"), std::string::npos);
}

TEST(Cli, RunReportsBandwidthAndAllocations) {
  const auto result = run({"run", "--cluster", "plafrim1", "--nodes", "4", "--stripe", "4",
                           "--reps", "3", "--total", "4GiB"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("bandwidth: n=3"), std::string::npos);
  EXPECT_NE(result.out.find("(1,3) x3"), std::string::npos);  // the PlaFRIM RR constant
}

TEST(Cli, RunSupportsReadAndNnPattern) {
  const auto read = run({"run", "--cluster", "plafrim2", "--nodes", "2", "--reps", "2",
                         "--total", "2GiB", "--op", "read"});
  EXPECT_EQ(read.code, 0) << read.err;
  const auto nn = run({"run", "--cluster", "plafrim2", "--nodes", "2", "--reps", "2",
                       "--total", "2GiB", "--pattern", "nn", "--chooser", "random"});
  EXPECT_EQ(nn.code, 0) << nn.err;
}

TEST(Cli, RunIsDeterministicGivenSeed) {
  const std::vector<std::string> argv{"run",    "--cluster", "plafrim2", "--nodes", "2",
                                      "--reps", "2",         "--total",  "2GiB",    "--seed",
                                      "77"};
  EXPECT_EQ(run(argv).out, run(argv).out);
}

TEST(Cli, SweepRecommendsMaximumOnPlafrim) {
  const auto result = run({"sweep", "--cluster", "plafrim1", "--nodes", "8", "--reps", "8",
                           "--total", "8GiB"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("Recommend stripe count 8"), std::string::npos);
  // The sweep prints the Fig. 6-style scatter.
  EXPECT_NE(result.out.find("stripe count (individual executions)"), std::string::npos);
}

TEST(Cli, ConcurrentReportsAggregateAndSharing) {
  const auto result = run({"concurrent", "--apps", "2", "--nodes-per-app", "2", "--stripe",
                           "8", "--reps", "2", "--total", "2GiB"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("aggregate (Eq. 1)"), std::string::npos);
  EXPECT_NE(result.out.find("runs with target sharing: 2/2"), std::string::npos);
}

TEST(Cli, ExportThenLoadRoundTrips) {
  const auto path =
      (std::filesystem::temp_directory_path() / "beesim_cli_cluster.json").string();
  const auto exported = run({"export-cluster", "--cluster", "catalyst", "--nodes", "2",
                             "--out", path});
  EXPECT_EQ(exported.code, 0) << exported.err;
  const auto described = run({"describe", "--cluster", path});
  EXPECT_EQ(described.code, 0) << described.err;
  EXPECT_NE(described.out.find("catalyst-like-oss11"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Cli, ExportWithoutOutPrintsJson) {
  const auto result = run({"export-cluster", "--cluster", "plafrim1", "--nodes", "1"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("\"hosts\""), std::string::npos);
}

TEST(Cli, RunWithMirrorReportsReplicationTotals) {
  const auto result = run({"run", "--cluster", "plafrim1", "--nodes", "2", "--reps", "2",
                           "--total", "2GiB", "--mirror"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("mirror (totals over 2 reps)"), std::string::npos);
  EXPECT_NE(result.out.find("failovers=0"), std::string::npos);
  EXPECT_NE(result.out.find("lost=0.0 MiB"), std::string::npos);
}

TEST(CliCommands, MetadataAndRebalanceTotalsArePinned) {
  // --meta-rate sets the create rate and scales open/stat/unlink with it;
  // --rebalance-threshold narrows the hysteresis band to half the distance
  // from 1 when that is below 0.1 (here 1.1 exits below 1.05, not 1.0).
  // Both runs' full stdout is pinned, so either derivation changing fails.
  const auto metadata = run({"run", "--cluster", "plafrim1", "--nodes", "4", "--stripe", "4",
                             "--reps", "2", "--mdts", "2", "--meta-rate", "5000", "--md-ops",
                             "8"});
  EXPECT_EQ(metadata.code, 0) << metadata.err;
  EXPECT_EQ(metadata.out,
            "ior -a POSIX -w -b 1 GiB -t 1 MiB -s 1 -o /beegfs/ior.dat  (32 ranks on 4 "
            "nodes, 2 repetitions)\n"
            "bandwidth: n=2 mean=1474.7 sd=60.1 min=1432.2 q1=1453.5 med=1474.7 q3=1496.0 "
            "max=1517.2 MiB/s\n"
            "allocations: (1,3) x2  \n"
            "metadata (totals over 2 reps): ops=1536 md_time=0.12 s mean_ops_s=13146 "
            "peak_mdt_imbalance=1.000\n");

  const auto rebalance = run({"run", "--cluster", "plafrim1", "--nodes", "4", "--stripe", "2",
                              "--reps", "4", "--rebalance", "--rebalance-threshold", "1.1"});
  EXPECT_EQ(rebalance.code, 0) << rebalance.err;
  EXPECT_EQ(rebalance.out,
            "ior -a POSIX -w -b 1 GiB -t 1 MiB -s 1 -o /beegfs/ior.dat  (32 ranks on 4 "
            "nodes, 4 repetitions)\n"
            "bandwidth: n=4 mean=1121.1 sd=34.4 min=1085.5 q1=1103.4 med=1115.7 q3=1133.4 "
            "max=1167.4 MiB/s\n"
            "allocations: (0,2) x2  (1,1) x2  \n"
            "rebalance (totals over 4 reps): triggers=6 retargets=628 migrations=7 "
            "migrated=114688.0 MiB migration_time=1082.33 s peak_imbalance=2.000\n");
}

TEST(CliCommands, EveryFeatureTotalsLineIsPinned) {
  // One run arms all seven features, so every totals line prints, each
  // folded over the campaign's rows as its column's totals spec says.
  const auto all = run({"run", "--cluster", "plafrim1", "--nodes", "4", "--stripe", "8",
                        "--reps", "2", "--total", "4GiB", "--faults",
                        "off:t1@0.5;off:t5@0.6;on:t1@3;on:t5@3;slow:t6@0.5=0.05",
                        "--io-timeout", "0.5", "--mirror", "--hedge", "--suspect-ratio", "0.5",
                        "--qos", "--qos-rate", "400", "--rebalance", "--mdts", "2", "--md-ops",
                        "8"});
  EXPECT_EQ(all.code, 0) << all.err;
  EXPECT_EQ(all.out,
            "ior -a POSIX -w -b 128 MiB -t 1 MiB -s 1 -o /beegfs/ior.dat  (32 ranks on 4 "
            "nodes, 2 repetitions)\n"
            "bandwidth: n=2 mean=75.1 sd=23.5 min=58.6 q1=66.8 med=75.1 q3=83.4 max=91.7 "
            "MiB/s\n"
            "allocations: (2,2) x2  \n"
            "faults (totals over 2 reps): timeouts=0 retries=0 failovers=10 rewritten=320.0 "
            "MiB degraded=246.01 s aborted_runs=0\n"
            "mirror (totals over 2 reps): replicated=8512.0 MiB failovers=2 resent=0.0 MiB "
            "lost=0.0 MiB resyncs=0 resynced=0.0 MiB resync_time=0.00 s\n"
            "rebalance (totals over 2 reps): triggers=2 retargets=1040 migrations=0 "
            "migrated=0.0 MiB migration_time=0.00 s peak_imbalance=2.000\n"
            "health (totals over 2 reps): samples=697 suspects=2 quarantines=17 probations=15 "
            "readmissions=0 relapses=15\n"
            "hedge (totals over 2 reps): issued=0 wins=0 primary_wins=0 mirror_switchovers=2 "
            "hedged=0.0 MiB\n"
            "qos (totals over 2 reps): issued=8192.0 MiB borrowed=0.0 MiB reclaimed=0.0 MiB "
            "deferrals=232 throttle=1076.48 s slo_violations=2\n"
            "metadata (totals over 2 reps): ops=1536 md_time=0.23 s mean_ops_s=6573 "
            "peak_mdt_imbalance=1.000\n");
}

TEST(CliCommands, ConcurrentAndSweepReportTheFeaturesTheyRan) {
  // concurrent and sweep print the same totals lines as run, for every
  // feature their flags switch on.
  const auto concurrent = run({"concurrent", "--apps", "2", "--nodes-per-app", "4", "--stripe",
                               "4", "--reps", "3", "--total", "4GiB", "--hedge",
                               "--suspect-ratio", "0.5", "--rebalance"});
  EXPECT_EQ(concurrent.code, 0) << concurrent.err;
  EXPECT_EQ(concurrent.out,
            "2 concurrent applications x 4 nodes x 8 ppn, stripe 4, 4 GiB each, 3 "
            "repetitions\n"
            "aggregate (Eq. 1): n=3 mean=3264.3 sd=143.6 min=3104.2 q1=3205.8 med=3307.4 "
            "q3=3344.4 max=3381.5 MiB/s\n"
            "per application:   n=6 mean=1673.1 sd=82.7 min=1552.1 q1=1655.5 med=1666.1 "
            "q3=1685.8 max=1809.9 MiB/s\n"
            "runs with target sharing: 0/3\n"
            "rebalance (totals over 3 reps): triggers=1 retargets=1 migrations=1 "
            "migrated=1024.0 MiB migration_time=10.14 s peak_imbalance=2.000\n"
            "health (totals over 3 reps): samples=28 suspects=0 quarantines=0 probations=0 "
            "readmissions=0 relapses=0\n"
            "hedge (totals over 3 reps): issued=0 wins=0 primary_wins=0 mirror_switchovers=0 "
            "hedged=0.0 MiB\n");

  const auto sweep = run({"sweep", "--cluster", "plafrim1", "--nodes", "2", "--reps", "2",
                          "--total", "2GiB", "--rebalance"});
  EXPECT_EQ(sweep.code, 0) << sweep.err;
  const std::string line =
      "performance does not depend on target placement.\n"
      "rebalance (totals over 16 runs): triggers=9 retargets=159 migrations=16 "
      "migrated=13653.0 MiB migration_time=129.59 s peak_imbalance=2.000\n";
  ASSERT_GE(sweep.out.size(), line.size());
  EXPECT_EQ(sweep.out.substr(sweep.out.size() - line.size()), line);
}

TEST(Cli, RejectsNonPositiveFaultAndMirrorDurations) {
  // Satellite: a non-positive duration/rate silently disables or degrades
  // the feature it configures; each is rejected with a pointed message.
  const auto base = std::vector<std::string>{"run", "--cluster", "plafrim1", "--nodes",
                                             "2",   "--reps",    "1",        "--total",
                                             "1GiB"};
  const auto with = [&](std::initializer_list<std::string> extra) {
    auto argv = base;
    argv.insert(argv.end(), extra);
    return run(argv);
  };
  for (const auto& [flag, value] : std::vector<std::pair<std::string, std::string>>{
           {"--io-timeout", "0"},
           {"--io-timeout", "-1"},
           {"--mttf", "0"},
           {"--mttr", "-2"},
           {"--fault-horizon", "0"},
           {"--resync-rate", "-5"},
       }) {
    const auto result = with({flag, value});
    EXPECT_EQ(result.code, 1) << flag << " " << value;
    EXPECT_NE(result.err.find(flag + " must be > 0"), std::string::npos)
        << flag << ": " << result.err;
  }
  // Omitting the optional flags stays valid (zero defaults mean "disabled").
  EXPECT_EQ(with({}).code, 0);
}

TEST(Cli, RejectsNonFiniteDurations) {
  // Satellite bugfix: "nan"/"inf" parse as doubles, and NaN then slips past
  // the `value <= 0` guards above (NaN <= 0 is false) -- e.g. --mttf nan
  // used to arm a stochastic fault generator with a NaN MTTF.
  const auto base = std::vector<std::string>{"run", "--cluster", "plafrim1", "--nodes",
                                             "2",   "--reps",    "1",        "--total",
                                             "1GiB"};
  const auto with = [&](std::initializer_list<std::string> extra) {
    auto argv = base;
    argv.insert(argv.end(), extra);
    return run(argv);
  };
  for (const std::string flag : {"--io-timeout", "--mttf", "--mttr", "--resync-rate"}) {
    for (const std::string value : {"nan", "inf", "-inf"}) {
      const auto result = with({flag, value});
      EXPECT_EQ(result.code, 1) << flag << " " << value;
      EXPECT_NE(result.err.find("is not a finite number"), std::string::npos)
          << flag << " " << value << ": " << result.err;
    }
  }
}

TEST(Cli, RejectsTuningFlagsWithoutTheirFeature) {
  // Each of these flags tunes a feature that is off unless another flag
  // turns it on; alone it used to be parsed, validated and then ignored.
  const auto base = std::vector<std::string>{"run", "--cluster", "plafrim1", "--nodes",
                                             "2",   "--reps",    "1",        "--total",
                                             "1GiB"};
  const auto with = [&](const std::vector<std::string>& extra) {
    auto argv = base;
    argv.insert(argv.end(), extra.begin(), extra.end());
    return run(argv);
  };
  for (const auto& [extra, message] :
       std::vector<std::pair<std::vector<std::string>, std::string>>{
           {{"--resync-rate", "100"}, "--resync-rate requires --mirror"},
           {{"--mttr", "3"}, "--mttr requires --mttf"},
           {{"--fault-horizon", "50"}, "--fault-horizon requires --mttf or --fail-slow"},
           {{"--io-timeout", "2"}, "--io-timeout requires a fault mode"},
           {{"--io-timeout", "2", "--fault-mode", "none"}, "--io-timeout requires a fault mode"},
           {{"--mttf", "60", "--fault-mode", "none"},
            "--fault-mode none cannot recover from target/host failures"},
           {{"--faults", "off:t1@1", "--fault-mode", "none"},
            "--fault-mode none cannot recover from target/host failures"},
           {{"--faults", "link:h0@0.5=0;off:h1@1", "--fault-mode", "none"},
            "--fault-mode none cannot recover from target/host failures"},
       }) {
    const auto result = with(extra);
    EXPECT_EQ(result.code, 1) << extra[0];
    EXPECT_TRUE(result.out.empty()) << extra[0];
    EXPECT_NE(result.err.find(message), std::string::npos) << extra[0] << ": " << result.err;
  }
  // With their feature on, the same flags are accepted.
  EXPECT_EQ(with({"--mirror", "--resync-rate", "200"}).code, 0);
  EXPECT_EQ(with({"--mttf", "60", "--mttr", "3"}).code, 0);
  EXPECT_EQ(with({"--mttf", "60", "--fault-horizon", "30"}).code, 0);
  EXPECT_EQ(with({"--fail-slow", "5", "--fault-horizon", "30"}).code, 0);
  EXPECT_EQ(with({"--fail-slow", "5", "--fault-mode", "degraded", "--io-timeout", "0.5"}).code,
            0);
  EXPECT_EQ(with({"--fault-mode", "strict", "--io-timeout", "2"}).code, 0);
  EXPECT_EQ(with({"--faults", "off:t1@0.5;on:t1@2", "--io-timeout", "0.5"}).code, 0);
  // Schedules without target or host failures need no client fault policy.
  EXPECT_EQ(with({"--faults", "slow:t1@0.5=0.5;link:h0@0.2=0.5", "--fault-mode", "none"}).code,
            0);
  EXPECT_EQ(with({"--fail-slow", "5", "--fault-mode", "none"}).code, 0);
}

TEST(Cli, RejectsMistypedBooleanValue) {
  // Satellite bugfix: --mirror=tru used to silently disable mirroring.
  const auto result = run({"run", "--cluster", "plafrim1", "--nodes", "2", "--reps", "1",
                           "--total", "1GiB", "--mirror=tru"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("is not a boolean"), std::string::npos) << result.err;
}

TEST(Cli, RunExportsChromeTraceAndMetrics) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto tracePath = (dir / "beesim_cli_trace.json").string();
  const auto metricsPath = (dir / "beesim_cli_metrics.csv").string();
  const auto result = run({"run", "--cluster", "plafrim1", "--nodes", "2", "--reps", "1",
                           "--total", "1GiB", "--trace-out", tracePath, "--metrics-out",
                           metricsPath, "--metrics-dt", "0.05"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("Chrome trace"), std::string::npos);
  EXPECT_NE(result.out.find("link_imbalance"), std::string::npos);
  EXPECT_GT(std::filesystem::file_size(tracePath), 0u);
  EXPECT_GT(std::filesystem::file_size(metricsPath), 0u);
  std::filesystem::remove(tracePath);
  std::filesystem::remove(metricsPath);

  const auto bad = run({"run", "--cluster", "plafrim1", "--nodes", "2", "--reps", "1",
                        "--total", "1GiB", "--metrics-out", metricsPath, "--metrics-dt",
                        "0"});
  EXPECT_EQ(bad.code, 1);
  EXPECT_NE(bad.err.find("--metrics-dt must be > 0"), std::string::npos) << bad.err;
}

TEST(Cli, MetricsDtRequiresASampledExport) {
  // Only --metrics-out and a full-format --trace-out sample the run, so
  // --metrics-dt without either used to be accepted and silently ignored.
  const auto tracePath =
      (std::filesystem::temp_directory_path() / "beesim_cli_ring.json").string();
  const auto base = std::vector<std::string>{"run", "--cluster", "plafrim1", "--nodes",
                                             "2",   "--reps",    "1",        "--total",
                                             "1GiB", "--metrics-dt", "0.05"};
  const auto with = [&](std::initializer_list<std::string> extra) {
    auto argv = base;
    argv.insert(argv.end(), extra);
    return run(argv);
  };
  for (const auto& result :
       {with({}), with({"--trace-out", tracePath, "--trace-format", "ring"})}) {
    EXPECT_EQ(result.code, 1);
    EXPECT_NE(result.err.find("--metrics-dt requires --metrics-out or a full-format --trace-out"),
              std::string::npos)
        << result.err;
  }
  const auto full = with({"--trace-out", tracePath});
  std::filesystem::remove(tracePath);
  EXPECT_EQ(full.code, 0) << full.err;
}

TEST(Cli, DescribeRejectsSeed) {
  // describe draws nothing at random, so --seed would be silently ignored.
  const auto result = run({"describe", "--cluster", "plafrim1", "--seed", "5"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("unknown flag(s): --seed"), std::string::npos) << result.err;
}

TEST(Cli, SolverEpsilonIsAnUnknownFlag) {
  // The fluid core has one exact resolve path; the old ε knob must fail
  // loudly rather than be accepted and ignored.
  for (const std::string command : {"run", "sweep", "concurrent"}) {
    const auto result = run({command, "--cluster", "plafrim1", "--solver-epsilon", "25"});
    EXPECT_NE(result.code, 0) << command;
    EXPECT_NE(result.err.find("unknown flag(s): --solver-epsilon"), std::string::npos)
        << command << ": " << result.err;
  }
}

TEST(Cli, TraceReplaysTheCampaignsFirstPlannedRun) {
  // The traced run is the campaign's own first planned run -- same seed,
  // start time and fault plan -- not a separate run without the faults.
  const auto tracePath =
      (std::filesystem::temp_directory_path() / "beesim_cli_replay.json").string();
  const auto result = run({"run", "--cluster", "plafrim1", "--nodes", "4", "--reps", "2",
                           "--total", "4GiB", "--faults", "off:h1@0.5", "--trace-out",
                           tracePath});
  std::filesystem::remove(tracePath);
  ASSERT_EQ(result.code, 0) << result.err;
  const auto line = result.out.find("traced run: ");
  ASSERT_NE(line, std::string::npos) << result.out;
  const auto traced = result.out.substr(line, result.out.find('\n', line) - line);

  // The same campaign through the harness: the row of the plan's first run.
  harness::CampaignEntry entry;
  auto& config = entry.config;
  config.cluster = topo::makePlafrim(topo::Scenario::kEthernet10G, 4);
  config.fs.defaultStripe.stripeCount = 4;
  config.job = ior::IorJob::onFirstNodes(4, 8);
  config.ior.blockSize = ior::blockSizeForTotal(4ull << 30, config.job.ranks());
  config.faults.schedule = faults::parseSchedule("off:h1@0.5");
  config.fs.faults.mode = beegfs::ClientFaultPolicy::Mode::kDegraded;
  harness::ProtocolOptions protocol;
  protocol.repetitions = 2;
  util::Rng planRng(2022);
  const auto first = harness::buildProtocolPlan(1, protocol, planRng).front();
  harness::RunRecord row;
  harness::executeCampaign({entry}, protocol, 2022,
                           [&](const harness::RunRecord& record, harness::ResultRow& r) {
                             if (r.factors.at("rep") == std::to_string(first.repetition)) {
                               row = record;
                             }
                           });
  ASSERT_GT(row.ior.faults.failovers, 0u);
  EXPECT_EQ(traced, "traced run: rep " + std::to_string(first.repetition) +
                        " seed=" + std::to_string(first.seed) +
                        " bandwidth=" + util::fmt(row.ior.bandwidth, 1) +
                        " MiB/s failovers=" + std::to_string(row.ior.faults.failovers));
}

TEST(Cli, RejectsZeroCountsBeforeAnyOutput) {
  // A zero count used to surface an internal contract violation (after
  // concurrent had already printed its header), or name --nodes, a flag the
  // user never passed.
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases{
      {{"run", "--cluster", "plafrim1", "--nodes", "2", "--reps", "0"}, "--reps must be >= 1"},
      {{"sweep", "--cluster", "plafrim1", "--nodes", "2", "--reps", "0"}, "--reps must be >= 1"},
      {{"concurrent", "--apps", "2", "--nodes-per-app", "2", "--reps", "0"},
       "--reps must be >= 1"},
      {{"concurrent", "--apps", "2", "--nodes-per-app", "0"}, "--nodes-per-app must be >= 1"},
  };
  for (const auto& [argv, message] : cases) {
    const auto result = run(argv);
    EXPECT_EQ(result.code, 1) << argv[0];
    EXPECT_EQ(result.out, "") << argv[0];
    EXPECT_NE(result.err.find("error: " + message), std::string::npos) << result.err;
  }
}

TEST(Cli, OutputIndependentOfJobs) {
  // Rows, annotators (the allocation tally, the stripe-count advisor) and
  // per-rep folds all commit in plan order, whichever thread runs them.
  const std::vector<std::vector<std::string>> commands{
      {"run", "--cluster", "plafrim1", "--nodes", "4", "--reps", "6", "--total", "2GiB",
       "--chooser", "random"},
      {"sweep", "--cluster", "plafrim1", "--nodes", "2", "--reps", "3", "--total", "1GiB"},
      {"concurrent", "--apps", "2", "--nodes-per-app", "2", "--reps", "4", "--total",
       "1GiB"},
  };
  for (const auto& argv : commands) {
    const auto at = [&](const std::string& jobs) {
      auto withJobs = argv;
      withJobs.insert(withJobs.end(), {"--jobs", jobs});
      return run(withJobs);
    };
    const auto serial = at("1");
    const auto parallel = at("4");
    EXPECT_EQ(serial.code, 0) << serial.err;
    EXPECT_EQ(parallel.code, 0) << parallel.err;
    EXPECT_FALSE(serial.out.empty()) << argv[0];
    EXPECT_EQ(serial.out, parallel.out) << argv[0];
  }
}

TEST(Cli, ErrorsAreReportedNotThrown) {
  EXPECT_EQ(run({"run", "--stripe", "banana"}).code, 1);
  EXPECT_EQ(run({"describe", "--cluster", "/no/such/file.json"}).code, 1);
  EXPECT_EQ(run({"run", "--bogus-flag", "1"}).code, 1);
  EXPECT_NE(run({"run", "--bogus-flag", "1"}).err.find("--bogus-flag"), std::string::npos);
  EXPECT_EQ(run({"run", "--pattern", "n7"}).code, 1);
  EXPECT_EQ(run({"run", "--op", "delete"}).code, 1);
  EXPECT_EQ(run({"concurrent", "--apps", "3", "--nodes-per-app", "8", "--nodes", "4"}).code,
            1);
}

TEST(Cli, RejectsStrayArguments) {
  // A switch takes no separate value, so "--mirror false" used to leave
  // "false" as an ignored positional and run *with* mirroring.
  const std::vector<std::string> base{"run", "--cluster", "plafrim1", "--nodes", "2",
                                      "--reps", "1", "--total", "1GiB"};
  for (const auto& extra : std::vector<std::vector<std::string>>{
           {"--mirror", "false"}, {"--qos", "false"}, {"--hedge", "false"},
           {"--rebalance", "false"}, {"stray"}}) {
    auto argv = base;
    argv.insert(argv.end(), extra.begin(), extra.end());
    const auto result = run(argv);
    EXPECT_EQ(result.code, 1) << extra[0];
    EXPECT_EQ(result.out, "") << extra[0];
    EXPECT_EQ(result.err, "error: unexpected argument '" + extra.back() + "'\n") << extra[0];
  }
  auto off = base;
  off.push_back("--mirror=false");
  const auto result = run(off);
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_EQ(result.out.find("mirror (totals"), std::string::npos) << result.out;
}

TEST(Cli, TraceRingCapIsBounded) {
  // An unbounded capacity used to end in an uncaught std::bad_alloc after
  // the campaign had run; the table's range rejects it before any output.
  const auto path = (std::filesystem::temp_directory_path() / "beesim_cli_cap.jsonl").string();
  const auto result = run({"run", "--cluster", "plafrim1", "--nodes", "2", "--reps", "1",
                           "--total", "1GiB", "--trace", path, "--trace-format", "ring",
                           "--trace-ring-cap", "1000000000000"});
  EXPECT_EQ(result.code, 1);
  EXPECT_EQ(result.out, "");
  EXPECT_EQ(result.err, "error: --trace-ring-cap must lie in [1, 67108864]\n");
  EXPECT_FALSE(std::filesystem::exists(path));
  // The default and README's 2^22 stay inside the range.
  for (const auto& flag : flagTable()) {
    if (flag.name != "trace-ring-cap") continue;
    EXPECT_GE(flag.range.hi, double(1 << 22));
    EXPECT_LE(flag.range.lo, double(1 << 20));
  }
}

TEST(Cli, RejectsATotalThatDoesNotSplitIntoWholeTransfers) {
  // Each rank's block must be whole 1 MiB transfers.  Such a --total used to
  // fail inside IOR with a message that named no flag.
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases{
      {{"run", "--cluster", "plafrim1", "--nodes", "2", "--reps", "1", "--total", "1m"},
       "--total 1 MiB does not split into whole 1 MiB transfers over 16 ranks"},
      {{"run", "--cluster", "plafrim1", "--nodes", "2", "--reps", "1", "--total", "24m"},
       "--total 24 MiB does not split into whole 1 MiB transfers over 16 ranks"},
      {{"sweep", "--cluster", "plafrim1", "--nodes", "2", "--reps", "1", "--total", "1m"},
       "--total 1 MiB does not split into whole 1 MiB transfers over 16 ranks"},
      {{"concurrent", "--apps", "2", "--nodes-per-app", "1", "--reps", "1", "--total", "12m"},
       "--total 12 MiB does not split into whole 1 MiB transfers over 8 ranks"},
  };
  for (const auto& [argv, message] : cases) {
    const auto result = run(argv);
    EXPECT_EQ(result.code, 1) << argv[0];
    EXPECT_EQ(result.out, "") << argv[0];
    EXPECT_EQ(result.err, "error: " + message + "\n");
  }
  // A total of whole transfers per rank runs.
  EXPECT_EQ(run({"run", "--cluster", "plafrim1", "--nodes", "2", "--reps", "1", "--total", "16m"})
                .code,
            0);
}

/// A value each row accepts.  Text and byte values are examples chosen here;
/// numbers come from the row's range.
std::string validValue(const FlagSpec& flag, const std::string& scratch) {
  static const std::map<std::string_view, std::string> kExamples{
      {"cluster", "plafrim1"},   {"total", "256m"},       {"chooser", "random"},
      {"pattern", "nn"},         {"op", "read"},          {"trace-format", "ring"},
      {"faults", "slow:t1@0.1=0.5"}, {"fault-mode", "degraded"}, {"qos-burst", "64m"},
      {"md-shard", "rr"}};
  if (const auto it = kExamples.find(flag.name); it != kExamples.end()) return it->second;
  if (flag.kind == FlagKind::kText) return scratch + "." + std::string(flag.name);  // a path
  const auto& range = flag.range;
  if (flag.kind == FlagKind::kInt) return std::to_string(static_cast<long>(range.lo));
  if (std::isinf(range.hi)) return util::fmt(range.lo + 1.0, 3);
  return util::fmt(range.open ? (range.lo + range.hi) / 2 : range.lo, 3);
}

TEST(Cli, FlagTableDrivesAcceptanceRejectionAndUsage) {
  const auto scratch = (std::filesystem::temp_directory_path() / "beesim_flag").string();
  const auto flagOf = [](std::string_view name) -> const FlagSpec& {
    for (const auto& flag : flagTable()) {
      if (flag.name == name) return flag;
    }
    throw std::runtime_error(std::string("no flag ").append(name));
  };
  const auto tokens = [&](const FlagSpec& flag) {
    std::vector<std::string> argv{std::string("--").append(flag.name)};
    if (flag.kind != FlagKind::kSwitch) argv.push_back(validValue(flag, scratch));
    return argv;
  };
  // What the hand-written checks need on top of the table's gates.
  const std::map<std::string_view, std::vector<std::string>> kNeeds{
      {"io-timeout", {"--fault-mode", "strict"}},
      {"metrics-dt", {"--metrics-out", scratch + ".csv"}},
      {"trace-ring-cap", {"--trace", scratch + ".jsonl", "--trace-format", "ring"}}};
  const std::map<std::string, std::vector<std::string>> kBase{
      {"describe", {"--cluster", "plafrim1", "--nodes", "2"}},
      {"run", {"--cluster", "plafrim1", "--nodes", "2", "--reps", "1", "--total", "256m"}},
      {"sweep", {"--cluster", "plafrim1", "--nodes", "2", "--reps", "1", "--total", "256m"}},
      {"concurrent", {"--cluster", "plafrim1", "--apps", "1", "--nodes-per-app", "1",
                      "--reps", "1", "--total", "256m"}},
      {"export-cluster", {"--cluster", "plafrim1", "--nodes", "2"}}};
  const auto text = usage();

  for (const auto& flag : flagTable()) {
    const std::string name(flag.name);
    std::string listed;
    for (std::size_t c = 0; c < kCommandNames.size(); ++c) {
      const std::string command(kCommandNames[c]);
      if (!(flag.commands & (1u << c))) {
        auto argv = std::vector<std::string>{command};
        const auto flagTokens = tokens(flag);
        argv.insert(argv.end(), flagTokens.begin(), flagTokens.end());
        const auto result = run(argv);
        EXPECT_EQ(result.code, 1) << command << " --" << name;
        EXPECT_EQ(result.err, "error: unknown flag(s): --" + name + "\n") << command;
        continue;
      }
      listed += (listed.empty() ? "" : " ") + command;
      // Accepted with a valid value, its gate and what its reader needs.
      auto argv = std::vector<std::string>{command};
      argv.insert(argv.end(), kBase.at(command).begin(), kBase.at(command).end());
      std::vector<std::string_view> added;
      std::vector<std::string_view> pending{flag.name};
      while (!pending.empty()) {
        const auto& next = flagOf(pending.back());
        pending.pop_back();
        if (std::find(added.begin(), added.end(), next.name) != added.end()) continue;
        added.push_back(next.name);
        const auto nextTokens = tokens(next);
        argv.insert(argv.end(), nextTokens.begin(), nextTokens.end());
        if (const auto it = kNeeds.find(next.name); it != kNeeds.end()) {
          argv.insert(argv.end(), it->second.begin(), it->second.end());
        }
        if (!next.gate.empty()) pending.push_back(next.gate.front());
      }
      const auto accepted = run(argv);
      EXPECT_EQ(accepted.code, 0) << command << " --" << name << ": " << accepted.err;

      // Rejected without its gate, with the message the gate column spells.
      if (flag.gate.empty()) continue;
      auto ungated = std::vector<std::string>{command};
      ungated.insert(ungated.end(), kBase.at(command).begin(), kBase.at(command).end());
      const auto flagTokens = tokens(flag);
      ungated.insert(ungated.end(), flagTokens.begin(), flagTokens.end());
      std::string needs;
      for (const auto gate : flag.gate) needs.append(needs.empty() ? "--" : " or --").append(gate);
      const auto rejected = run(ungated);
      EXPECT_EQ(rejected.code, 1) << command << " --" << name;
      EXPECT_EQ(rejected.out, "") << command << " --" << name;
      EXPECT_EQ(rejected.err, "error: --" + name + " requires " + needs + "\n") << command;
    }
    // usage() names the row under exactly its commands.
    const auto at = text.find("\n  --" + name + " ");
    ASSERT_NE(at, std::string::npos) << name;
    const auto line = text.substr(at + 1, text.find('\n', at + 1) - at - 1);
    EXPECT_EQ(line.substr(line.rfind('[')), "[" + listed + "]") << line;
  }
  for (const auto* ext : {".csv", ".jsonl", ".trace", ".trace-out", ".metrics-out", ".out"}) {
    std::filesystem::remove(scratch + ext);
  }
}

}  // namespace
}  // namespace beesim::cli
