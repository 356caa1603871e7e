// The closed-loop rebalancing stack (DESIGN.md §2.6) and the satellites that
// ride with it: the unified link-imbalance definition, offline-aware
// choosers, the WeightedChooser bias decorator, slot migration, and the
// controller's run-level behavior.
#include "control/rebalance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "beegfs/chooser.hpp"
#include "beegfs/deployment.hpp"
#include "beegfs/filesystem.hpp"
#include "beegfs/mgmt.hpp"
#include "core/metrics.hpp"
#include "harness/campaign.hpp"
#include "harness/run.hpp"
#include "ior/options.hpp"
#include "sim/trace.hpp"
#include "topology/plafrim.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace beesim {
namespace {

using namespace beesim::util::literals;

struct Fixture {
  sim::FluidSimulator fluid;
  topo::ClusterConfig cluster = topo::makePlafrim(topo::Scenario::kEthernet10G, 4);
  beegfs::Deployment deployment;
  beegfs::FileSystem fs;

  explicit Fixture(beegfs::BeegfsParams params = {})
      : deployment(fluid, cluster, params, util::Rng(1)), fs(deployment, util::Rng(2)) {}
};

std::size_t hostOf(const Fixture& f, std::size_t target) {
  return f.deployment.mgmt().target(target).host;
}

// ---------------------------------------------------------------------------
// Satellite: one imbalance definition everywhere (core::linkImbalance).

TEST(LinkImbalance, DefinitionMatchesFig8Splits) {
  // max/mean: the values ext_utilization validated against the paper.
  EXPECT_DOUBLE_EQ(core::linkImbalance(std::vector<double>{4.0, 0.0}), 2.0);
  EXPECT_DOUBLE_EQ(core::linkImbalance(std::vector<double>{1.0, 3.0}), 1.5);
  EXPECT_DOUBLE_EQ(core::linkImbalance(std::vector<double>{2.0, 2.0}), 1.0);
  // Degenerate inputs: idle links (and no links) report 0, not NaN.
  EXPECT_DOUBLE_EQ(core::linkImbalance(std::vector<double>{0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(core::linkImbalance(std::vector<double>{}), 0.0);
}

TEST(LinkImbalance, TracerSamplesUseTheSharedDefinition) {
  Fixture f;
  sim::RateSampler sampler(f.fluid);
  sampler.setMetricsInterval(0.05);
  for (std::size_t h = 0; h < f.cluster.hosts.size(); ++h) {
    sampler.trackLink(f.deployment.serverNicResource(h));
  }
  std::vector<sim::MetricsSample> samples;
  sampler.setSampleListener([&samples](const sim::MetricsSample& s) { samples.push_back(s); });

  const auto handle = f.fs.createPinned("/skewed", {0, 4, 5, 6}, 512_KiB);
  f.fs.writeAsync(0, handle, 0, 256_MiB, 1.0, [](util::Seconds) {});
  f.fluid.run();

  ASSERT_FALSE(samples.empty());
  bool sawTraffic = false;
  for (const auto& sample : samples) {
    EXPECT_DOUBLE_EQ(sample.linkImbalance, core::linkImbalance(sample.linkRates));
    if (sample.aggregateRate > 0.0) {
      sawTraffic = true;
      // A (1,3) placement drives exactly 3/4 of the bytes through host 1.
      EXPECT_NEAR(sample.linkImbalance, 1.5, 1e-6);
    }
  }
  EXPECT_TRUE(sawTraffic);
}

harness::RunConfig skewedRunConfig() {
  // 8 client nodes over-provision the two server NICs, so the server links
  // are the bottleneck and a skewed placement costs real bandwidth (the
  // regime of the paper's Fig. 8 and of bench/ext_rebalance.cpp).
  harness::RunConfig config;
  config.cluster = topo::makePlafrim(topo::Scenario::kEthernet10G, 8);
  config.fs.defaultStripe.stripeCount = 4;
  config.job = ior::IorJob::onFirstNodes(8, 4);
  // Long enough (~5 s simulated) that the post-recovery stretch dominates
  // the pre-trigger skewed stretch; segmented so re-homed slots matter.
  config.ior.blockSize = ior::blockSizeForTotal(8_GiB, config.job.ranks()) / 32;
  config.ior.segments = 32;
  config.pinnedTargets = std::vector<std::size_t>{0, 4, 5, 6};
  return config;
}

TEST(LinkImbalance, RunRecordAndCampaignColumnAgree) {
  auto config = skewedRunConfig();
  config.observe.utilization = true;
  const auto record = harness::runOnce(config, 77);

  // The per-run measurement is the shared definition applied to the per-host
  // MiB vector -- the same numbers the CLI's traced-run table prints.
  ASSERT_TRUE(record.ior.util.active);
  EXPECT_DOUBLE_EQ(record.ior.util.linkImbalance,
                   core::linkImbalance(record.ior.util.serverMiB));
  EXPECT_NEAR(record.ior.util.linkImbalance, 1.5, 1e-6);

  // The campaign's link_imbalance column is the same function of the same
  // srv*_mib columns, row by row.
  harness::CampaignEntry entry;
  entry.config = config;
  harness::ProtocolOptions protocol;
  protocol.repetitions = 2;
  const auto store = harness::executeCampaign({entry}, protocol, 77);
  for (const std::string rep : {"0", "1"}) {
    const std::map<std::string, std::string> where{{"rep", rep}};
    const auto imbalance = store.metric("link_imbalance", where);
    const auto srv0 = store.metric("srv0_mib", where);
    const auto srv1 = store.metric("srv1_mib", where);
    ASSERT_EQ(imbalance.size(), 1u);
    ASSERT_EQ(srv0.size(), 1u);
    ASSERT_EQ(srv1.size(), 1u);
    EXPECT_DOUBLE_EQ(imbalance[0],
                     core::linkImbalance(std::vector<double>{srv0[0], srv1[0]}));
  }
}

// ---------------------------------------------------------------------------
// Satellite: choosers skip offline targets at choose time.

class OfflineChooserTest : public ::testing::TestWithParam<beegfs::ChooserKind> {};

TEST_P(OfflineChooserTest, NeverPicksOfflineTargets) {
  beegfs::BeegfsParams params;
  params.chooser = GetParam();
  Fixture f(params);
  // One target down on each host.
  f.deployment.mgmt().setTargetOnline(1, false);
  f.deployment.mgmt().setTargetOnline(6, false);
  for (int i = 0; i < 32; ++i) {
    const auto handle = f.fs.create("/beegfs/f" + std::to_string(i));
    for (const auto target : f.fs.info(handle).pattern.targets()) {
      EXPECT_NE(target, 1u);
      EXPECT_NE(target, 6u);
    }
  }
}

TEST_P(OfflineChooserTest, AssertsWhenFewerEligibleThanCount) {
  // The chooser-level contract: asking for more targets than the filter
  // leaves eligible is a caller bug, caught before any picks are made.
  const auto cluster = topo::makePlafrim(topo::Scenario::kEthernet10G, 4);
  beegfs::BeegfsParams params;
  params.chooser = GetParam();
  const auto chooser = beegfs::makeChooser(params, cluster);
  util::Rng rng(8);
  const auto onlyThree = [](std::size_t t) { return t >= 5; };
  EXPECT_THROW(chooser->choose(4, cluster, rng, onlyThree), util::ContractError);
}

TEST_P(OfflineChooserTest, FileSystemNarrowsStripeToOnlinePopulation) {
  // The filesystem-level contract: a create against a partially-dead
  // registry narrows the stripe to the online population (a real mgmtd
  // cannot hand out targets it does not have) -- it never asserts and never
  // places a slot on a dead target.
  beegfs::BeegfsParams params;
  params.chooser = GetParam();
  Fixture f(params);
  for (const std::size_t t : {0, 1, 2, 4, 5}) {
    f.deployment.mgmt().setTargetOnline(t, false);
  }
  const auto handle = f.fs.create("/beegfs/narrowed");
  const auto& targets = f.fs.info(handle).pattern.targets();
  EXPECT_EQ(targets.size(), 3u);  // default stripe 4, only 3 online
  for (const auto t : targets) {
    EXPECT_TRUE(f.deployment.mgmt().target(t).online);
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, OfflineChooserTest,
                         ::testing::Values(beegfs::ChooserKind::kRoundRobin,
                                           beegfs::ChooserKind::kRandom,
                                           beegfs::ChooserKind::kRoundRobinInterleaved,
                                           beegfs::ChooserKind::kBalanced));

TEST(OfflineChooser, RoundRobinWalksPastOfflineWithoutStalling) {
  const auto cluster = topo::makePlafrim(topo::Scenario::kEthernet10G, 4);
  beegfs::RoundRobinChooser chooser(beegfs::plafrimRoundRobinOrder(cluster), 0.0);
  util::Rng rng(3);
  // Deployed order starts 0, 4, 5, 6; with 4 offline the walk skips it and
  // still returns `count` distinct online picks.
  const auto offline = [](std::size_t t) { return t != 4; };
  const auto picks = chooser.choose(4, cluster, rng, offline);
  EXPECT_EQ(picks, (std::vector<std::size_t>{0, 5, 6, 7}));
  // The pointer advanced past the skipped entry too (5 slots walked).
  EXPECT_EQ(chooser.pointer(), 5u);
}

// ---------------------------------------------------------------------------
// Satellite: round-robin phase/race behaviors backing the byte-identity
// argument for the filtered walk.

TEST(RoundRobin, RandomizePhaseWithNonDividingStride) {
  const auto cluster = topo::makePlafrim(topo::Scenario::kEthernet10G, 4);
  beegfs::RoundRobinChooser chooser(beegfs::plafrimRoundRobinOrder(cluster), 0.0);
  util::Rng rng(11);
  // Order size 8, stride 3: ceil(8/3) = 3 phases, pointers {0, 3, 6}.
  std::set<std::size_t> seen;
  for (int i = 0; i < 200; ++i) {
    chooser.randomizePhase(rng, 3);
    seen.insert(chooser.pointer());
  }
  EXPECT_EQ(seen, (std::set<std::size_t>{0, 3, 6}));
}

TEST(RoundRobin, CreateRaceNeverAdvancesPointerAtProbabilityOne) {
  const auto cluster = topo::makePlafrim(topo::Scenario::kEthernet10G, 4);
  beegfs::RoundRobinChooser chooser(beegfs::plafrimRoundRobinOrder(cluster), 1.0);
  util::Rng rng(12);
  const auto first = chooser.choose(4, cluster, rng);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(chooser.choose(4, cluster, rng), first);
    EXPECT_EQ(chooser.pointer(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Satellite: WeightedChooser decorator.

TEST(WeightedChooser, UniformWeightsDelegateByteIdentically) {
  Fixture f;  // mgmtd weights default to 1.0 everywhere
  beegfs::WeightedChooser wrapped(std::make_unique<beegfs::RandomChooser>(),
                                  f.deployment.mgmt());
  beegfs::RandomChooser plain;
  util::Rng rngA(42);
  util::Rng rngB(42);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(wrapped.choose(4, f.cluster, rngA), plain.choose(4, f.cluster, rngB));
  }
  // Identical picks AND identical randomness consumption: the streams stay
  // in lockstep after the fact.
  EXPECT_EQ(rngA.uniformInt(0, 1 << 30), rngB.uniformInt(0, 1 << 30));
  EXPECT_EQ(wrapped.kind(), beegfs::ChooserKind::kRandom);
}

TEST(WeightedChooser, SkewedWeightsApportionByLargestRemainder) {
  Fixture f;
  f.deployment.mgmt().setHostWeight(0, 3.0);
  f.deployment.mgmt().setHostWeight(1, 1.0);
  beegfs::WeightedChooser chooser(std::make_unique<beegfs::RandomChooser>(),
                                  f.deployment.mgmt());
  util::Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    const auto picks = chooser.choose(4, f.cluster, rng);
    ASSERT_EQ(picks.size(), 4u);
    std::map<std::size_t, int> perHost;
    for (const auto t : picks) ++perHost[hostOf(f, t)];
    EXPECT_EQ(perHost[0], 3);
    EXPECT_EQ(perHost[1], 1);
    EXPECT_EQ(std::set<std::size_t>(picks.begin(), picks.end()).size(), 4u);
  }
}

TEST(WeightedChooser, ZeroWeightHostIsAvoidedWhenCapacityAllows) {
  Fixture f;
  f.deployment.mgmt().setHostWeight(0, 0.0);
  beegfs::WeightedChooser chooser(std::make_unique<beegfs::RandomChooser>(),
                                  f.deployment.mgmt());
  util::Rng rng(6);
  const auto picks = chooser.choose(4, f.cluster, rng);
  for (const auto t : picks) EXPECT_EQ(hostOf(f, t), 1u);
  // ...but a stripe wider than the favored host spills over gracefully.
  const auto wide = chooser.choose(8, f.cluster, rng);
  EXPECT_EQ(std::set<std::size_t>(wide.begin(), wide.end()).size(), 8u);
}

// ---------------------------------------------------------------------------
// Slot migration (the controller's restripe lever).

TEST(MigrateSlot, RehomesSlotImmediatelyAndStreamsTheBytes) {
  Fixture f;
  const auto handle = f.fs.createPinned("/migrate-me", {0, 4}, 512_KiB);
  bool written = false;
  f.fs.writeAsync(0, handle, 0, 8_MiB, 1.0, [&written](util::Seconds) { written = true; });
  f.fluid.run();
  ASSERT_TRUE(written);
  ASSERT_EQ(f.fs.effectiveTarget(handle, 0), 0u);
  EXPECT_EQ(f.fs.slotBytes(handle, 0), 4_MiB);

  bool migrated = false;
  // Cross-host move (0 on host 0 -> 5 on host 1), the only direction the
  // replica path supports and the only one the controller ever takes.
  f.fs.migrateSlot(handle, 0, 5, 0.25, 0.0, [&migrated](const sim::FlowStats& stats) {
    migrated = true;
    EXPECT_EQ(stats.bytes, 4_MiB);
  });
  // The slot re-homes at issue time; the background copy follows.
  EXPECT_EQ(f.fs.effectiveTarget(handle, 0), 5u);
  EXPECT_FALSE(migrated);
  f.fluid.run();
  EXPECT_TRUE(migrated);
  // Usage accounting followed the slot to its new target.
  EXPECT_EQ(f.deployment.mgmt().target(5).used, 4_MiB);
}

// ---------------------------------------------------------------------------
// The controller end-to-end (harness level).

TEST(RebalanceController, InvalidPoliciesAreRejected) {
  Fixture f;
  control::RebalancePolicy policy;
  policy.enabled = false;  // must be enabled
  EXPECT_THROW(control::RebalanceController(f.fs, policy), util::ContractError);
  policy.enabled = true;
  policy.threshold = 1.0;  // must exceed 1
  EXPECT_THROW(control::RebalanceController(f.fs, policy), util::ContractError);
  policy.threshold = 1.25;
  policy.patience = 0;  // must wait at least one sample
  EXPECT_THROW(control::RebalanceController(f.fs, policy), util::ContractError);
}

TEST(RebalanceController, RecoversSkewedAllocationBandwidth) {
  const auto config = skewedRunConfig();
  const auto baseline = harness::runOnce(config, 321);
  EXPECT_FALSE(baseline.rebalanceActive);

  auto controlled = config;
  controlled.rebalance.enabled = true;
  controlled.rebalance.maxConcurrentMigrations = 1;
  const auto record = harness::runOnce(controlled, 321);

  ASSERT_TRUE(record.rebalanceActive);
  EXPECT_GE(record.rebalance.samples, 1u);
  EXPECT_GE(record.rebalance.triggers, 1u);
  EXPECT_GE(record.rebalance.migrations, 1u);
  EXPECT_GT(record.rebalance.bytesMigrated, 0u);
  // The (1,3) skew is visible before the controller acts...
  EXPECT_GT(record.rebalance.peakImbalance, controlled.rebalance.threshold);
  // ...and acting on it recovers real bandwidth over the static run.
  EXPECT_GT(record.ior.bandwidth, 1.2 * baseline.ior.bandwidth);
}

TEST(RebalanceController, StaysQuietOnBalancedLoad) {
  auto config = skewedRunConfig();
  config.pinnedTargets = std::vector<std::size_t>{0, 1, 4, 5};  // (2,2)
  const auto baseline = harness::runOnce(config, 654);

  auto controlled = config;
  controlled.rebalance.enabled = true;
  const auto record = harness::runOnce(controlled, 654);

  ASSERT_TRUE(record.rebalanceActive);
  EXPECT_GE(record.rebalance.samples, 1u);
  EXPECT_EQ(record.rebalance.triggers, 0u);
  EXPECT_EQ(record.rebalance.migrations, 0u);
  // An idle controller costs nothing: bandwidth matches the plain run
  // bitwise (the tracer only listens; the WeightedChooser wrap at uniform
  // weights delegates verbatim).
  EXPECT_DOUBLE_EQ(record.ior.bandwidth, baseline.ior.bandwidth);
}

TEST(RebalanceController, CampaignRowsGateRebalanceColumns) {
  harness::CampaignEntry plain;
  plain.config = skewedRunConfig();
  harness::CampaignEntry controlled = plain;
  controlled.config.rebalance.enabled = true;
  controlled.factors["ctl"] = "on";
  plain.factors["ctl"] = "off";

  harness::ProtocolOptions protocol;
  protocol.repetitions = 2;
  const auto store = harness::executeCampaign({plain, controlled}, protocol, 99);
  // Controlled rows carry the rebal_* columns; plain rows do not (so legacy
  // campaign CSVs stay byte-identical).
  const auto triggers = store.metric("rebal_triggers", {{"ctl", "on"}});
  ASSERT_EQ(triggers.size(), 2u);
  for (const auto t : triggers) EXPECT_GE(t, 1.0);
  EXPECT_THROW(store.metric("rebal_triggers", {{"ctl", "off"}}), util::ContractError);
}

TEST(RebalanceController, CampaignResultsAreJobsInvariant) {
  harness::CampaignEntry entry;
  entry.config = skewedRunConfig();
  entry.config.rebalance.enabled = true;
  harness::ProtocolOptions protocol;
  protocol.repetitions = 3;

  harness::ExecutorOptions serial;
  serial.jobs = 1;
  harness::ExecutorOptions parallel;
  parallel.jobs = 4;
  const auto a = harness::executeCampaign({entry}, protocol, 1234, nullptr, serial);
  const auto b = harness::executeCampaign({entry}, protocol, 1234, nullptr, parallel);
  for (const std::string metric :
       {"bandwidth_mibps", "rebal_triggers", "rebal_migrations", "rebal_migrated_mib",
        "rebal_peak_imbalance"}) {
    EXPECT_EQ(a.metric(metric, {}), b.metric(metric, {})) << metric;
  }
}

}  // namespace
}  // namespace beesim
