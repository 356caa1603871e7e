// Integration tests: the paper's headline effects must emerge end-to-end
// from the composed system (topology -> deployment -> IOR -> harness ->
// analysis), not just from the individual parts.
#include <gtest/gtest.h>

#include <map>

#include "core/allocation.hpp"
#include "core/analyzer.hpp"
#include "core/sharing.hpp"
#include "harness/concurrent.hpp"
#include "harness/run.hpp"
#include "stats/bimodal.hpp"
#include "stats/summary.hpp"
#include "topology/catalyst.hpp"
#include "topology/plafrim.hpp"
#include "util/units.hpp"

namespace beesim {
namespace {

using namespace beesim::util::literals;

harness::RunConfig plafrimConfig(topo::Scenario scenario, std::size_t nodes, int ppn,
                                 unsigned count, util::Bytes total = 8_GiB) {
  harness::RunConfig config;
  config.cluster = topo::makePlafrim(scenario, nodes);
  config.fs.defaultStripe.stripeCount = count;
  config.job = ior::IorJob::onFirstNodes(nodes, ppn);
  config.ior.blockSize = ior::blockSizeForTotal(total, config.job.ranks());
  return config;
}

std::vector<double> repeatRuns(const harness::RunConfig& config, int reps,
                               std::uint64_t seedBase) {
  std::vector<double> bandwidths;
  for (int r = 0; r < reps; ++r) {
    bandwidths.push_back(harness::runOnce(config, seedBase + r).ior.bandwidth);
  }
  return bandwidths;
}

TEST(Integration, Scenario1BalanceOrderingEmerges) {
  // Pin the three characteristic allocations and verify the Fig. 8 ordering
  // with environment noise on.
  auto config = plafrimConfig(topo::Scenario::kEthernet10G, 8, 8, 2);
  std::map<std::string, std::vector<std::size_t>> allocations{
      {"(0,2)", {4, 5}}, {"(1,3)", {0, 4, 5, 6}}, {"(1,1)", {0, 4}}};
  std::map<std::string, double> means;
  for (const auto& [key, targets] : allocations) {
    config.pinnedTargets = targets;
    means[key] = stats::summarize(repeatRuns(config, 15, 1000)).mean;
  }
  EXPECT_LT(means["(0,2)"], means["(1,3)"]);
  EXPECT_LT(means["(1,3)"], means["(1,1)"]);
  // Roughly 1100 / 1460 / 2200: balanced is ~2x the single-server case.
  EXPECT_NEAR(means["(1,1)"] / means["(0,2)"], 2.0, 0.25);
}

TEST(Integration, Scenario1RoundRobinCount4IsNotBimodalButCount6Is) {
  // RR makes count 4 always (1,3) (one mode); count 6 alternates between
  // (2,4) and (3,3) (two modes) -- the Fig. 6a signature.
  auto config4 = plafrimConfig(topo::Scenario::kEthernet10G, 8, 8, 4);
  config4.fs.rrCreateRaceProbability = 0.0;
  const auto bw4 = repeatRuns(config4, 40, 2000);
  const auto split4 = stats::twoMeansSplit(bw4);
  EXPECT_FALSE(stats::isBimodal(split4, bw4.size()));

  auto config6 = plafrimConfig(topo::Scenario::kEthernet10G, 8, 8, 6);
  config6.fs.rrCreateRaceProbability = 0.0;
  const auto bw6 = repeatRuns(config6, 40, 3000);
  const auto split6 = stats::twoMeansSplit(bw6);
  EXPECT_TRUE(stats::isBimodal(split6, bw6.size()));
}

TEST(Integration, Scenario2BandwidthGrowsWithStripeCount) {
  std::vector<double> means;
  for (const unsigned count : {1u, 2u, 4u, 8u}) {
    const auto config = plafrimConfig(topo::Scenario::kOmniPath100G, 32, 8, count, 16_GiB);
    means.push_back(stats::summarize(repeatRuns(config, 10, 4000 + count)).mean);
  }
  for (std::size_t i = 1; i < means.size(); ++i) EXPECT_GT(means[i], means[i - 1]);
  // Lesson #6 scale: count 8 is several times count 1.
  EXPECT_GT(means.back() / means.front(), 3.0);
}

TEST(Integration, Scenario2VarianceGrowsWithStripeCount) {
  const auto config1 = plafrimConfig(topo::Scenario::kOmniPath100G, 32, 8, 1, 16_GiB);
  const auto config8 = plafrimConfig(topo::Scenario::kOmniPath100G, 32, 8, 8, 16_GiB);
  const auto s1 = stats::summarize(repeatRuns(config1, 25, 5000));
  const auto s8 = stats::summarize(repeatRuns(config8, 25, 6000));
  EXPECT_GT(s8.sd, 2.0 * s1.sd);  // paper: +460%
}

TEST(Integration, ChowdhurySingleNodeHidesStripeCountEffect) {
  // On the Catalyst-like system with ONE compute node (their methodology),
  // stripe counts 1-8 all look the same; with 8 nodes the effect appears.
  auto means = [&](std::size_t nodes) {
    std::map<unsigned, double> byCount;
    for (const unsigned count : {1u, 4u, 8u}) {
      harness::RunConfig config;
      config.cluster = topo::makeCatalystLike(nodes);
      config.fs.defaultStripe.stripeCount = count;
      config.fs.chooser = beegfs::ChooserKind::kBalanced;
      config.job = ior::IorJob::onFirstNodes(nodes, 8);
      config.ior.blockSize = ior::blockSizeForTotal(8_GiB, config.job.ranks());
      byCount[count] = stats::summarize(repeatRuns(config, 8, 7000 + count)).mean;
    }
    return byCount;
  };
  const auto oneNode = means(1);
  const auto eightNodes = means(8);
  // Single node: < 10% spread between count 1 and count 8.
  EXPECT_NEAR(oneNode.at(8) / oneNode.at(1), 1.0, 0.10);
  // Eight nodes: count 8 clearly wins.
  EXPECT_GT(eightNodes.at(8) / eightNodes.at(1), 1.5);
}

TEST(Integration, SharingTargetsIsHarmlessOnScenario2) {
  // Fig. 13 end-to-end: two 8-node apps with 4 OSTs each, all-shared vs
  // disjoint, Welch p must not reject equality of means.
  auto base = plafrimConfig(topo::Scenario::kOmniPath100G, 16, 8, 4, 8_GiB);
  core::SharingImpactAnalyzer analyzer;
  for (int rep = 0; rep < 30; ++rep) {
    for (const bool shared : {true, false}) {
      std::vector<harness::AppSpec> apps(2);
      for (int a = 0; a < 2; ++a) {
        apps[a].job.ppn = 8;
        for (std::size_t n = 0; n < 8; ++n) apps[a].job.nodeIds.push_back(a * 8 + n);
        apps[a].ior.blockSize = ior::blockSizeForTotal(8_GiB, apps[a].job.ranks());
      }
      // (1,3)-shaped allocations, as PlaFRIM's RR would produce.
      apps[0].pinnedTargets = std::vector<std::size_t>{0, 4, 5, 6};
      apps[1].pinnedTargets = shared ? std::vector<std::size_t>{0, 4, 5, 6}
                                     : std::vector<std::size_t>{7, 1, 2, 3};
      const auto result = harness::runConcurrent(base, apps, 8000 + rep * 2 + shared);
      for (const auto& app : result.apps) {
        if (shared) {
          analyzer.addShared(app.bandwidth);
        } else {
          analyzer.addDisjoint(app.bandwidth);
        }
      }
    }
  }
  const auto verdict = analyzer.analyze();
  EXPECT_TRUE(verdict.sharingHarmless) << verdict.summary;
}

TEST(Integration, ConcurrentAggregateMatchesBigSingleApplication) {
  // Fig. 12's comparison: 2 apps x 8 nodes x 8 OSTs aggregate ~= 1 app x 16
  // nodes x 8 OSTs.
  const auto base = plafrimConfig(topo::Scenario::kOmniPath100G, 16, 8, 8, 8_GiB);
  std::vector<harness::AppSpec> apps(2);
  for (int a = 0; a < 2; ++a) {
    apps[a].job.ppn = 8;
    for (std::size_t n = 0; n < 8; ++n) apps[a].job.nodeIds.push_back(a * 8 + n);
    apps[a].ior.blockSize = ior::blockSizeForTotal(8_GiB, apps[a].job.ranks());
  }
  std::vector<double> aggregates;
  std::vector<double> singles;
  for (int rep = 0; rep < 10; ++rep) {
    aggregates.push_back(harness::runConcurrent(base, apps, 9000 + rep).aggregateBandwidth);
    auto single = plafrimConfig(topo::Scenario::kOmniPath100G, 16, 8, 8, 16_GiB);
    singles.push_back(harness::runOnce(single, 9500 + rep).ior.bandwidth);
  }
  const double meanAggregate = stats::summarize(aggregates).mean;
  const double meanSingle = stats::summarize(singles).mean;
  EXPECT_NEAR(meanAggregate / meanSingle, 1.0, 0.15);
}

TEST(Integration, InterferenceSlowsTheForegroundRun) {
  // The protocol must cope with other users' I/O.  Scenario 1 with the
  // foreground already saturating the two server links (balanced (1,1) from
  // 8 nodes): a background application on a ninth node, pinned to the same
  // targets, must take a weighted share of the links and slow the
  // foreground.  (A *shallow* foreground can even speed up under
  // interference -- the competing queue depth pushes the OST arrays up their
  // service ramp; see storage/device.hpp.)
  auto config = plafrimConfig(topo::Scenario::kEthernet10G, 9, 8, 2, 9_GiB);
  config.cluster.network.serverLinkNoiseSigmaLog = 0.0;
  for (auto& host : config.cluster.hosts) {
    for (auto& target : host.targets) target.variability = topo::VariabilitySpec{};
  }
  config.noise = harness::NoiseSpec{0.0, 0.0};
  harness::AppSpec foreground;
  foreground.job = ior::IorJob::onFirstNodes(8, 8);
  foreground.ior.blockSize = ior::blockSizeForTotal(16_GiB, 64);
  foreground.pinnedTargets = std::vector<std::size_t>{0, 4};
  harness::AppSpec background = foreground;
  background.job = ior::IorJob{{8}, 8};  // not used by the foreground job
  background.ior.blockSize = ior::blockSizeForTotal(16_GiB, 8);
  const auto alone = harness::runConcurrent(config, {foreground}, 12);
  const auto contended = harness::runConcurrent(config, {foreground, background}, 12);
  EXPECT_LT(contended.apps[0].bandwidth, 0.95 * alone.apps[0].bandwidth);
}

TEST(Integration, AllocationAnalyzerRecoversCauseOfBimodality) {
  // Random chooser, count 2, Scenario 1: re-binning by allocation must
  // separate the two modes ((0,2) vs (1,1)) cleanly.
  auto config = plafrimConfig(topo::Scenario::kEthernet10G, 8, 8, 2);
  config.fs.chooser = beegfs::ChooserKind::kRandom;
  core::AllocationAnalyzer analyzer;
  for (int rep = 0; rep < 60; ++rep) {
    const auto record = harness::runOnce(config, 10000 + rep);
    analyzer.add(core::Allocation(record.ior.targetsUsed, config.cluster),
                 record.ior.bandwidth);
  }
  const auto groups = analyzer.groups();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups.front().key, "(0,2)");
  EXPECT_EQ(groups.back().key, "(1,1)");
  // Within-group spread is small compared to the between-group gap.
  EXPECT_LT(groups.front().summary.sd * 4,
            groups.back().summary.mean - groups.front().summary.mean);
  EXPECT_GT(analyzer.balanceBandwidthCorrelation(), 0.8);
}

}  // namespace
}  // namespace beesim
