#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <map>
#include <set>

#include "harness/campaign.hpp"
#include "harness/concurrent.hpp"
#include "harness/protocol.hpp"
#include "harness/run.hpp"
#include "harness/store.hpp"
#include "ior/options.hpp"
#include "topology/plafrim.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace beesim::harness {
namespace {

using namespace beesim::util::literals;

RunConfig baseConfig(topo::Scenario scenario, std::size_t nodes, int ppn, unsigned count,
                     util::Bytes total = 8_GiB) {
  RunConfig config;
  config.cluster = topo::makePlafrim(scenario, nodes);
  config.fs.defaultStripe.stripeCount = count;
  config.job = ior::IorJob::onFirstNodes(nodes, ppn);
  config.ior.blockSize = ior::blockSizeForTotal(total, config.job.ranks());
  return config;
}

TEST(RunOnce, DeterministicGivenSeed) {
  const auto config = baseConfig(topo::Scenario::kEthernet10G, 2, 8, 4);
  const auto a = runOnce(config, 42);
  const auto b = runOnce(config, 42);
  EXPECT_DOUBLE_EQ(a.ior.bandwidth, b.ior.bandwidth);
  EXPECT_DOUBLE_EQ(a.environment.storage, b.environment.storage);
}

TEST(RunOnce, DifferentSeedsSampleDifferentEnvironments) {
  const auto config = baseConfig(topo::Scenario::kEthernet10G, 2, 8, 4);
  const auto a = runOnce(config, 1);
  const auto b = runOnce(config, 2);
  EXPECT_NE(a.environment.network, b.environment.network);
  EXPECT_NE(a.ior.bandwidth, b.ior.bandwidth);
}

TEST(RunOnce, PinnedTargetsAreHonoured) {
  auto config = baseConfig(topo::Scenario::kEthernet10G, 2, 8, 2);
  config.pinnedTargets = std::vector<std::size_t>{0, 4};
  const auto record = runOnce(config, 3);
  EXPECT_EQ(record.ior.targetsUsed, (std::vector<std::size_t>{0, 4}));
}

TEST(RunOnce, StartAtShiftsTheRunInTime) {
  auto config = baseConfig(topo::Scenario::kEthernet10G, 1, 8, 4);
  config.startAt = 500.0;
  const auto record = runOnce(config, 4);
  EXPECT_DOUBLE_EQ(record.ior.start, 500.0);
  EXPECT_GT(record.ior.end, 500.0);
}

TEST(Protocol, PlanCoversEveryRepetitionOnce) {
  util::Rng rng(1);
  ProtocolOptions options;
  options.repetitions = 10;
  const auto plan = buildProtocolPlan(3, options, rng);
  EXPECT_EQ(plan.size(), 30u);
  std::map<std::size_t, std::set<std::size_t>> seen;
  for (const auto& run : plan) seen[run.configIndex].insert(run.repetition);
  for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(seen[c].size(), 10u);
}

TEST(Protocol, SeedsAreUnique) {
  util::Rng rng(2);
  ProtocolOptions options;
  options.repetitions = 50;
  const auto plan = buildProtocolPlan(4, options, rng);
  std::set<std::uint64_t> seeds;
  for (const auto& run : plan) seeds.insert(run.seed);
  EXPECT_EQ(seeds.size(), plan.size());
}

TEST(Protocol, BlocksAreShuffledButInternallyOrdered) {
  util::Rng rng(3);
  ProtocolOptions options;
  options.repetitions = 40;  // 40 runs, 4 blocks for one config
  options.blockSize = 10;
  const auto plan = buildProtocolPlan(1, options, rng);
  // Within a block of 10, repetitions are consecutive (the block was a
  // contiguous slice); across blocks the order is shuffled.
  std::vector<std::size_t> blockStarts;
  for (std::size_t i = 0; i < plan.size(); i += 10) {
    blockStarts.push_back(plan[i].repetition);
    for (std::size_t j = 1; j < 10; ++j) {
      EXPECT_EQ(plan[i + j].repetition, plan[i].repetition + j);
    }
  }
  EXPECT_FALSE(std::is_sorted(blockStarts.begin(), blockStarts.end()));
}

TEST(Protocol, WaitsSeparateBlocksInTime) {
  util::Rng rng(4);
  ProtocolOptions options;
  options.repetitions = 20;
  options.blockSize = 10;
  options.minWait = 60.0;
  options.maxWait = 1800.0;
  options.nominalRunDuration = 30.0;
  const auto plan = buildProtocolPlan(1, options, rng);
  // Gap between the last run of block 1 and first of block 2 must include a
  // wait in [60, 1800] on top of the nominal duration.
  const double gap = plan[10].systemTime - plan[9].systemTime;
  EXPECT_GE(gap, 30.0 + 60.0 - 1e-9);
  EXPECT_LE(gap, 30.0 + 1800.0 + 1e-9);
  // Within a block, runs are spaced by the nominal duration exactly.
  EXPECT_DOUBLE_EQ(plan[1].systemTime - plan[0].systemTime, 30.0);
}

TEST(Protocol, DeterministicGivenRngState) {
  util::Rng rngA(5);
  util::Rng rngB(5);
  const auto a = buildProtocolPlan(2, ProtocolOptions{}, rngA);
  const auto b = buildProtocolPlan(2, ProtocolOptions{}, rngB);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].configIndex, b[i].configIndex);
    EXPECT_DOUBLE_EQ(a[i].systemTime, b[i].systemTime);
  }
}

TEST(Protocol, InvalidOptionsThrow) {
  util::Rng rng(6);
  ProtocolOptions options;
  options.repetitions = 0;
  EXPECT_THROW(buildProtocolPlan(1, options, rng), util::ContractError);
  options = ProtocolOptions{};
  options.blockSize = 0;
  EXPECT_THROW(buildProtocolPlan(1, options, rng), util::ContractError);
  options = ProtocolOptions{};
  options.maxWait = 1.0;
  options.minWait = 2.0;
  EXPECT_THROW(buildProtocolPlan(1, options, rng), util::ContractError);
  EXPECT_THROW(buildProtocolPlan(0, ProtocolOptions{}, rng), util::ContractError);
}

TEST(Store, MetricFilteringAndGroupBy) {
  ResultStore store;
  for (int nodes : {1, 2}) {
    for (int rep = 0; rep < 3; ++rep) {
      ResultRow row;
      row.factors["nodes"] = std::to_string(nodes);
      row.factors["rep"] = std::to_string(rep);
      row.metrics["bw"] = 100.0 * nodes + rep;
      store.add(row);
    }
  }
  EXPECT_EQ(store.size(), 6u);
  EXPECT_EQ(store.metric("bw").size(), 6u);
  EXPECT_EQ(store.metric("bw", {{"nodes", "2"}}).size(), 3u);
  const auto groups = store.groupBy("nodes", "bw");
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups.at("1").size(), 3u);
  EXPECT_THROW(store.metric("missing"), util::ContractError);
}

TEST(Store, CsvExportContainsEverything) {
  ResultStore store;
  ResultRow row;
  row.factors["alpha"] = "x";
  row.metrics["bw"] = 1.5;
  store.add(row);
  const auto path = std::filesystem::temp_directory_path() / "beesim_store_test.csv";
  store.writeCsv(path);
  const auto data = util::readCsv(path);
  EXPECT_EQ(data.header, (std::vector<std::string>{"alpha", "bw"}));
  ASSERT_EQ(data.rows.size(), 1u);
  EXPECT_EQ(data.rows[0][0], "x");
  std::filesystem::remove(path);
}

TEST(Campaign, ProducesRepetitionsPerEntryWithAnnotations) {
  std::vector<CampaignEntry> entries;
  for (const unsigned count : {2u, 4u}) {
    CampaignEntry entry;
    entry.config = baseConfig(topo::Scenario::kEthernet10G, 2, 8, count, 2_GiB);
    entry.factors["count"] = std::to_string(count);
    entries.push_back(std::move(entry));
  }
  ProtocolOptions options;
  options.repetitions = 5;
  int annotated = 0;
  const auto store = executeCampaign(entries, options, 99,
                                     [&](const RunRecord&, ResultRow& row) {
                                       row.factors["tagged"] = "yes";
                                       ++annotated;
                                     });
  EXPECT_EQ(store.size(), 10u);
  EXPECT_EQ(annotated, 10);
  EXPECT_EQ(store.metric("bandwidth_mibps", {{"count", "4"}}).size(), 5u);
  for (const auto bw : store.metric("bandwidth_mibps")) EXPECT_GT(bw, 0.0);
}

TEST(Concurrent, AggregateFollowsEquationOne) {
  std::vector<ior::IorResult> apps(2);
  apps[0].start = 0.0;
  apps[0].end = 10.0;
  apps[0].totalBytes = 10_GiB;
  apps[1].start = 2.0;
  apps[1].end = 14.0;
  apps[1].totalBytes = 4_GiB;
  // Eq. 1: (10+4) GiB / (14 - 0) s.
  EXPECT_NEAR(aggregateBandwidth(apps), util::toMiB(14_GiB) / 14.0, 1e-9);
}

TEST(Concurrent, TwoAppsRunAndShareTheSystem) {
  auto base = baseConfig(topo::Scenario::kOmniPath100G, 16, 8, 8, 8_GiB);
  std::vector<AppSpec> apps(2);
  for (int a = 0; a < 2; ++a) {
    apps[a].job.ppn = 8;
    for (std::size_t n = 0; n < 8; ++n) apps[a].job.nodeIds.push_back(a * 8 + n);
    apps[a].ior.blockSize = ior::blockSizeForTotal(8_GiB, apps[a].job.ranks());
  }
  const auto result = runConcurrent(base, apps, 7);
  ASSERT_EQ(result.apps.size(), 2u);
  EXPECT_GT(result.aggregateBandwidth, 0.0);
  // Both striped over all 8 targets -> all targets shared.
  EXPECT_EQ(result.distinctTargets, 8u);
  EXPECT_EQ(result.sharedTargets, 8u);
  // Each app individually is slower than the aggregate.
  EXPECT_LT(result.apps[0].bandwidth, result.aggregateBandwidth);
}

TEST(Concurrent, DisjointPinnedTargetsDoNotCountAsShared) {
  auto base = baseConfig(topo::Scenario::kOmniPath100G, 16, 8, 2, 4_GiB);
  std::vector<AppSpec> apps(2);
  for (int a = 0; a < 2; ++a) {
    apps[a].job.ppn = 8;
    for (std::size_t n = 0; n < 8; ++n) apps[a].job.nodeIds.push_back(a * 8 + n);
    apps[a].ior.blockSize = ior::blockSizeForTotal(4_GiB, apps[a].job.ranks());
  }
  apps[0].pinnedTargets = std::vector<std::size_t>{0, 4};
  apps[1].pinnedTargets = std::vector<std::size_t>{1, 5};
  const auto result = runConcurrent(base, apps, 8);
  EXPECT_EQ(result.sharedTargets, 0u);
  EXPECT_EQ(result.distinctTargets, 4u);
}

TEST(Concurrent, SharedComputeNodesRejected) {
  auto base = baseConfig(topo::Scenario::kOmniPath100G, 8, 8, 4, 4_GiB);
  std::vector<AppSpec> apps(2);
  for (int a = 0; a < 2; ++a) {
    apps[a].job = ior::IorJob::onFirstNodes(4, 8);  // same nodes!
    apps[a].ior.blockSize = ior::blockSizeForTotal(4_GiB, apps[a].job.ranks());
  }
  EXPECT_THROW(runConcurrent(base, apps, 9), util::ConfigError);
}

TEST(Concurrent, StaggeredStartsRespectOffsets) {
  auto base = baseConfig(topo::Scenario::kOmniPath100G, 4, 8, 4, 2_GiB);
  std::vector<AppSpec> apps(2);
  apps[0].job = ior::IorJob::onFirstNodes(2, 8);
  apps[0].ior.blockSize = ior::blockSizeForTotal(2_GiB, apps[0].job.ranks());
  apps[1].job.nodeIds = {2, 3};
  apps[1].job.ppn = 8;
  apps[1].ior.blockSize = ior::blockSizeForTotal(2_GiB, apps[1].job.ranks());
  apps[1].startOffset = 3.0;
  const auto result = runConcurrent(base, apps, 10);
  EXPECT_DOUBLE_EQ(result.apps[1].start - result.apps[0].start, 3.0);
}

TEST(Concurrent, HonoursProfiling) {
  // Regression: runConcurrent built its simulator without the profiling
  // switch that runOnce applies, so solveSeconds stayed 0 under --profile.
  auto base = baseConfig(topo::Scenario::kEthernet10G, 16, 8, 8, 8_GiB);
  std::vector<AppSpec> apps(2);
  for (int a = 0; a < 2; ++a) {
    apps[a].job.ppn = 8;
    for (std::size_t n = 0; n < 8; ++n) apps[a].job.nodeIds.push_back(a * 8 + n);
    apps[a].ior.blockSize = ior::blockSizeForTotal(8_GiB, apps[a].job.ranks());
  }
  const auto plain = runConcurrent(base, apps, 11);
  EXPECT_EQ(plain.solveSeconds, 0.0);

  base.observe.profile = true;
  const auto profiled = runConcurrent(base, apps, 11);
  EXPECT_GT(profiled.solveSeconds, 0.0);
  EXPECT_GT(profiled.resolves, 0u);
  EXPECT_GT(profiled.wallSeconds, 0.0);
}

TEST(Concurrent, NonzeroSolverEpsilonRejected) {
  // The fluid core is exact; the field survives only for source
  // compatibility and must not silently do nothing.
  auto base = baseConfig(topo::Scenario::kEthernet10G, 4, 8, 4, 1_GiB);
  std::vector<AppSpec> apps(1);
  apps[0].job = ior::IorJob::onFirstNodes(4, 8);
  apps[0].ior.blockSize = ior::blockSizeForTotal(1_GiB, apps[0].job.ranks());
  base.solverEpsilon = 25.0;
  EXPECT_THROW(runConcurrent(base, apps, 12), util::ConfigError);
}

// Regression (PR 8): all apps with zero duration used to trip the
// BEESIM_ASSERT(elapsed > 0) inside util::bandwidth instead of reporting
// the window as empty.
TEST(Concurrent, AggregateOfZeroLengthWindowIsZero) {
  std::vector<ior::IorResult> apps(2);
  apps[0].start = 5.0;
  apps[0].end = 5.0;
  apps[1].start = 5.0;
  apps[1].end = 5.0;
  EXPECT_DOUBLE_EQ(aggregateBandwidth(apps), 0.0);
}

TEST(Concurrent, ZeroDurationAppsMixWithRealOnes) {
  // A degenerate instantaneous app widens neither the window nor the byte
  // count; Equation 1 still divides the real volume by the real window.
  std::vector<ior::IorResult> apps(2);
  apps[0].start = 5.0;
  apps[0].end = 5.0;
  apps[0].totalBytes = 0;
  apps[1].start = 5.0;
  apps[1].end = 7.0;
  apps[1].totalBytes = 2_GiB;
  EXPECT_DOUBLE_EQ(aggregateBandwidth(apps), 1024.0);
}

TEST(Concurrent, ZeroByteAppCannotViolateItsSlo) {
  // The one QoS SLO rule, shared by single and concurrent runs: an app that
  // moved no bytes has no demand to fall short of, while one that moved
  // bytes below tolerance * sloRate violates.  IOR jobs always plan > 0
  // bytes, so the rule is driven with hand-built results, like the
  // zero-length-window tests above.
  qos::QosAppSpec spec;
  spec.rate = 100.0;
  ior::IorResult idle;
  EXPECT_FALSE(violatesSlo(idle, spec, 0.95));
  ior::IorResult slow;
  slow.totalBytes = 1_GiB;
  slow.bandwidth = 90.0;
  EXPECT_TRUE(violatesSlo(slow, spec, 0.95));
  slow.bandwidth = 96.0;
  EXPECT_FALSE(violatesSlo(slow, spec, 0.95));
}

// Regression (PR 8): negative offsets used to be accepted and silently
// scheduled apps before base.startAt; non-finite ones hung the engine.
TEST(Concurrent, NegativeStartOffsetRejected) {
  auto base = baseConfig(topo::Scenario::kOmniPath100G, 4, 8, 4, 2_GiB);
  std::vector<AppSpec> apps(2);
  apps[0].job = ior::IorJob{{0, 1}, 8};
  apps[0].ior.blockSize = ior::blockSizeForTotal(1_GiB, apps[0].job.ranks());
  apps[1].job = ior::IorJob{{2, 3}, 8};
  apps[1].ior.blockSize = apps[0].ior.blockSize;
  apps[1].startOffset = -1.0;
  EXPECT_THROW(runConcurrent(base, apps, 7), util::ConfigError);
  apps[1].startOffset = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(runConcurrent(base, apps, 7), util::ConfigError);
  apps[1].startOffset = std::numeric_limits<double>::infinity();
  EXPECT_THROW(runConcurrent(base, apps, 7), util::ConfigError);
  // The valid path still runs (zero offset and a positive stagger).
  apps[1].startOffset = 2.0;
  const auto result = runConcurrent(base, apps, 7);
  EXPECT_NEAR(result.apps[1].start - result.apps[0].start, 2.0, 1e-9);
}

}  // namespace
}  // namespace beesim::harness
