#include "beegfs/mgmt.hpp"

#include <gtest/gtest.h>

#include "topology/plafrim.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace beesim::beegfs {
namespace {

using namespace beesim::util::literals;

ManagementService makeMgmt() {
  return ManagementService(topo::makePlafrim(topo::Scenario::kEthernet10G, 2), 16_TiB);
}

TEST(Mgmt, RegistersAllTargets) {
  const auto mgmt = makeMgmt();
  EXPECT_EQ(mgmt.targetCount(), 8u);
  EXPECT_EQ(mgmt.hostCount(), 2u);
}

TEST(Mgmt, EntriesCarryPaperNumbering) {
  const auto mgmt = makeMgmt();
  EXPECT_EQ(mgmt.target(0).beegfsNum, 101);
  EXPECT_EQ(mgmt.target(7).beegfsNum, 204);
  EXPECT_EQ(mgmt.target(5).host, 1u);
  EXPECT_EQ(mgmt.target(5).indexInHost, 1u);
}

TEST(Mgmt, AllTargetsOnlineInitially) {
  const auto mgmt = makeMgmt();
  EXPECT_EQ(mgmt.onlineTargets().size(), 8u);
}

TEST(Mgmt, OfflineTargetsDisappearFromOnlineList) {
  auto mgmt = makeMgmt();
  mgmt.setTargetOnline(3, false);
  mgmt.setTargetOnline(6, false);
  const auto online = mgmt.onlineTargets();
  EXPECT_EQ(online.size(), 6u);
  for (const auto t : online) {
    EXPECT_NE(t, 3u);
    EXPECT_NE(t, 6u);
  }
  mgmt.setTargetOnline(3, true);
  EXPECT_EQ(mgmt.onlineTargets().size(), 7u);
}

TEST(Mgmt, UsageAccounting) {
  auto mgmt = makeMgmt();
  mgmt.recordUsage(0, 10_GiB);
  mgmt.recordUsage(0, 5_GiB);
  EXPECT_EQ(mgmt.target(0).used, 15_GiB);
  EXPECT_EQ(mgmt.target(1).used, 0u);
}

TEST(Mgmt, FullTargetRejectsWrites) {
  auto mgmt = makeMgmt();
  mgmt.recordUsage(0, 16_TiB);
  EXPECT_THROW(mgmt.recordUsage(0, 1), util::ConfigError);
}

TEST(Mgmt, ZeroCapacityDisablesAccountingLimit) {
  ManagementService mgmt(topo::makePlafrim(topo::Scenario::kEthernet10G, 2), 0);
  mgmt.recordUsage(0, 100_TiB);
  EXPECT_NO_THROW(mgmt.recordUsage(0, 100_TiB));
}

TEST(Mgmt, UnknownTargetThrows) {
  auto mgmt = makeMgmt();
  EXPECT_THROW(mgmt.target(99), util::ContractError);
  EXPECT_THROW(mgmt.setTargetOnline(99, false), util::ContractError);
  EXPECT_THROW(mgmt.recordUsage(99, 1), util::ContractError);
}

}  // namespace
}  // namespace beesim::beegfs
