#include "cli/commands.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
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

}  // namespace
}  // namespace beesim::cli
