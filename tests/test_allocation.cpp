#include "core/allocation.hpp"

#include <gtest/gtest.h>

#include "core/analyzer.hpp"
#include "topology/plafrim.hpp"
#include "util/error.hpp"

namespace beesim::core {
namespace {

topo::ClusterConfig plafrim() { return topo::makePlafrim(topo::Scenario::kEthernet10G, 2); }

TEST(Allocation, ClassifiesTargetsByHost) {
  const auto cluster = plafrim();
  const Allocation alloc({0, 4, 5, 6}, cluster);  // 101 + 201,202,203
  EXPECT_EQ(alloc.perHost(), (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(alloc.minPerHost(), 1u);
  EXPECT_EQ(alloc.maxPerHost(), 3u);
  EXPECT_EQ(alloc.key(), "(1,3)");
  EXPECT_EQ(alloc.totalTargets(), 4u);
}

TEST(Allocation, KeyIsSortedSoHostOrderDoesNotMatter) {
  const auto cluster = plafrim();
  const Allocation a({0, 1, 2, 4}, cluster);  // (3,1)
  const Allocation b({0, 4, 5, 6}, cluster);  // (1,3)
  EXPECT_EQ(a.key(), "(1,3)");
  EXPECT_EQ(a.key(), b.key());
  EXPECT_FALSE(a == b);  // but they are different placements
}

TEST(Allocation, BalanceMetrics) {
  const auto cluster = plafrim();
  const Allocation balanced({0, 1, 4, 5}, cluster);  // (2,2)
  EXPECT_DOUBLE_EQ(balanced.balanceRatio(), 1.0);
  EXPECT_DOUBLE_EQ(balanced.hotHostFraction(), 0.5);

  const Allocation skewed({4, 5, 6}, cluster);  // (0,3)
  EXPECT_DOUBLE_EQ(skewed.balanceRatio(), 0.0);
  EXPECT_DOUBLE_EQ(skewed.hotHostFraction(), 1.0);

  const Allocation thirteen({0, 4, 5, 6}, cluster);  // (1,3)
  EXPECT_DOUBLE_EQ(thirteen.hotHostFraction(), 0.75);
  EXPECT_NEAR(thirteen.balanceRatio(), 1.0 / 3.0, 1e-12);
}

TEST(Allocation, DirectPerHostConstruction) {
  const Allocation alloc(std::vector<std::size_t>{2, 2});
  EXPECT_DOUBLE_EQ(alloc.balanceRatio(), 1.0);
  EXPECT_EQ(alloc.key(), "(2,2)");
}

TEST(Allocation, GeneralizesBeyondTwoHosts) {
  const Allocation alloc(std::vector<std::size_t>{3, 0, 2});
  EXPECT_EQ(alloc.key(), "(0,2,3)");
  EXPECT_DOUBLE_EQ(alloc.balanceRatio(), 0.0);
  EXPECT_NEAR(alloc.hotHostFraction(), 0.6, 1e-12);
}

TEST(Allocation, InvalidConstructionThrows) {
  const auto cluster = plafrim();
  EXPECT_THROW(Allocation({}, cluster), util::ContractError);
  EXPECT_THROW(Allocation(std::vector<std::size_t>{}), util::ContractError);
  EXPECT_THROW(Allocation(std::vector<std::size_t>{0, 0}), util::ContractError);
  EXPECT_THROW(Allocation({99}, cluster), util::ContractError);
}

TEST(Analyzer, GroupsByKeyAndOrdersByMean) {
  const auto cluster = plafrim();
  AllocationAnalyzer analyzer;
  // (0,2) cloud around 1100, (1,1) cloud around 2200 (Fig. 8's extremes).
  for (int i = 0; i < 10; ++i) {
    analyzer.add(Allocation({4, 5}, cluster), 1100.0 + i);
    analyzer.add(Allocation({0, 4}, cluster), 2200.0 + i);
  }
  const auto groups = analyzer.groups();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups.front().key, "(0,2)");
  EXPECT_EQ(groups.back().key, "(1,1)");
  EXPECT_EQ(groups.front().bandwidths.size(), 10u);
  EXPECT_NEAR(groups.back().summary.mean, 2204.5, 0.01);
  EXPECT_DOUBLE_EQ(groups.back().balanceRatio, 1.0);
}

TEST(Analyzer, BalanceCorrelationIsPositiveWhenBalanceHelps) {
  const auto cluster = plafrim();
  AllocationAnalyzer analyzer;
  analyzer.add(Allocation({4, 5}, cluster), 1100.0);      // ratio 0
  analyzer.add(Allocation({0, 4, 5, 6}, cluster), 1460.0);  // ratio 1/3
  analyzer.add(Allocation({0, 4}, cluster), 2200.0);      // ratio 1
  analyzer.add(Allocation({4, 6}, cluster), 1090.0);
  analyzer.add(Allocation({1, 5}, cluster), 2210.0);
  EXPECT_GT(analyzer.balanceBandwidthCorrelation(), 0.9);
}

TEST(Analyzer, CorrelationNeedsTwoPoints) {
  AllocationAnalyzer analyzer;
  analyzer.add(Allocation(std::vector<std::size_t>{1, 1}), 100.0);
  EXPECT_THROW(analyzer.balanceBandwidthCorrelation(), util::ContractError);
}

}  // namespace
}  // namespace beesim::core
