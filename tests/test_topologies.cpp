#include <gtest/gtest.h>

#include "topology/catalyst.hpp"
#include "topology/plafrim.hpp"
#include "util/error.hpp"

namespace beesim::topo {
namespace {

TEST(Plafrim, GeometryMatchesPaper) {
  const auto cfg = makePlafrim(Scenario::kEthernet10G, 8);
  EXPECT_EQ(cfg.nodes.size(), 8u);
  EXPECT_EQ(cfg.hosts.size(), kPlafrimStorageHosts);
  EXPECT_EQ(cfg.targetCount(), kPlafrimStorageHosts * kPlafrimTargetsPerHost);
  cfg.validate();
}

TEST(Plafrim, ScenariosDifferOnlyInNetworkSide) {
  const auto s1 = makePlafrim(Scenario::kEthernet10G, 4);
  const auto s2 = makePlafrim(Scenario::kOmniPath100G, 4);
  // Network side differs...
  EXPECT_LT(s1.hosts[0].nicBandwidth, s2.hosts[0].nicBandwidth);
  EXPECT_LT(s1.nodes[0].clientThroughputCap, s2.nodes[0].clientThroughputCap);
  // ...storage hardware is identical (same machine, different fabric).
  EXPECT_DOUBLE_EQ(s1.hosts[0].targets[0].device.perDiskStream,
                   s2.hosts[0].targets[0].device.perDiskStream);
  EXPECT_DOUBLE_EQ(s1.hosts[0].serviceCap, s2.hosts[0].serviceCap);
}

TEST(Plafrim, Scenario1NetworkIsSlowerThanStorage) {
  const auto cfg = makePlafrim(Scenario::kEthernet10G, 4);
  const storage::HddRaidModel ost(cfg.hosts[0].targets[0].device);
  EXPECT_LT(cfg.hosts[0].nicBandwidth, ost.peakRate());
}

TEST(Plafrim, Scenario2StorageIsSlowerThanNetwork) {
  const auto cfg = makePlafrim(Scenario::kOmniPath100G, 4);
  const storage::HddRaidModel ost(cfg.hosts[0].targets[0].device);
  EXPECT_GT(cfg.hosts[0].nicBandwidth,
            ost.peakRate() * static_cast<double>(cfg.hosts[0].targets.size()));
}

TEST(Plafrim, TargetsCarryLogNormalVariability) {
  const auto cfg = makePlafrim(Scenario::kOmniPath100G, 2);
  EXPECT_GT(cfg.hosts[0].targets[0].variability.sigmaLog, 0.0);
}

TEST(Plafrim, ZeroNodesRejected) {
  EXPECT_THROW(makePlafrim(Scenario::kEthernet10G, 0), util::ConfigError);
}

TEST(Plafrim, CalibrationOverridesApply) {
  PlafrimCalibration cal;
  cal.s1ServerLink = 999.0;
  const auto cfg = makePlafrim(Scenario::kEthernet10G, 2, cal);
  EXPECT_DOUBLE_EQ(cfg.hosts[0].nicBandwidth, 999.0);
}

TEST(Plafrim, ScenarioLabels) {
  EXPECT_NE(std::string(scenarioLabel(Scenario::kEthernet10G)).find("scenario 1"),
            std::string::npos);
  EXPECT_NE(std::string(scenarioLabel(Scenario::kOmniPath100G)).find("scenario 2"),
            std::string::npos);
}

TEST(Catalyst, GeometryMatchesChowdhurySystem) {
  const auto cfg = makeCatalystLike(4);
  EXPECT_EQ(cfg.hosts.size(), 12u);
  EXPECT_EQ(cfg.targetCount(), 24u);
  cfg.validate();
}

TEST(Catalyst, SingleNodeClientIsTheBottleneck) {
  // The whole point of the baseline: one client node cannot outrun even a
  // single OST + OSS, so stripe count looks irrelevant.
  const auto cfg = makeCatalystLike(1);
  const storage::HddRaidModel ost(cfg.hosts[0].targets[0].device);
  EXPECT_LT(cfg.nodes[0].clientThroughputCap, 2.0 * ost.peakRate());
}

TEST(Catalyst, ZeroNodesRejected) {
  EXPECT_THROW(makeCatalystLike(0), util::ConfigError);
}

}  // namespace
}  // namespace beesim::topo
