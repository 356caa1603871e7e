#include "beegfs/chooser.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/allocation.hpp"
#include "topology/plafrim.hpp"
#include "util/error.hpp"

namespace beesim::beegfs {
namespace {

topo::ClusterConfig plafrim() { return topo::makePlafrim(topo::Scenario::kEthernet10G, 4); }

std::string allocationKey(const std::vector<std::size_t>& targets,
                          const topo::ClusterConfig& cluster) {
  return core::Allocation(targets, cluster).key();
}

TEST(PlafrimOrder, MatchesReconstructedSequence) {
  const auto cluster = plafrim();
  const auto order = plafrimRoundRobinOrder(cluster);
  // [101, 201, 202, 203, 204, 102, 103, 104] as flat indices.
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 4, 5, 6, 7, 1, 2, 3}));
}

TEST(PlafrimOrder, Count4WindowsAreAlways13) {
  // The paper: a stripe count of 4 on PlaFRIM *always* produces a (1,3)
  // placement -- (101,201,202,203) or (204,102,103,104).
  const auto cluster = plafrim();
  RoundRobinChooser chooser(plafrimRoundRobinOrder(cluster), 0.0);
  util::Rng rng(1);
  std::set<std::string> keys;
  std::set<std::vector<std::size_t>> windows;
  for (int i = 0; i < 16; ++i) {
    auto picks = chooser.choose(4, cluster, rng);
    keys.insert(allocationKey(picks, cluster));
    std::sort(picks.begin(), picks.end());
    windows.insert(picks);
  }
  EXPECT_EQ(keys, (std::set<std::string>{"(1,3)"}));
  EXPECT_EQ(windows.size(), 2u);  // exactly the two placements of the paper
}

TEST(PlafrimOrder, Count6ProducesTwoAllocations) {
  const auto cluster = plafrim();
  RoundRobinChooser chooser(plafrimRoundRobinOrder(cluster), 0.0);
  util::Rng rng(1);
  std::set<std::string> keys;
  for (int i = 0; i < 24; ++i) keys.insert(allocationKey(chooser.choose(6, cluster, rng), cluster));
  // Bimodal source for count 6 (Fig. 6a): (2,4) and (3,3).
  EXPECT_TRUE(keys.count("(3,3)"));
  EXPECT_EQ(keys.size(), 2u);
}

TEST(PlafrimOrder, Count8IsAlwaysBalanced) {
  const auto cluster = plafrim();
  RoundRobinChooser chooser(plafrimRoundRobinOrder(cluster), 0.0);
  util::Rng rng(1);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(allocationKey(chooser.choose(8, cluster, rng), cluster), "(4,4)");
  }
}

TEST(RoundRobin, PointerAdvancesByCount) {
  const auto cluster = plafrim();
  RoundRobinChooser chooser(plafrimRoundRobinOrder(cluster), 0.0);
  util::Rng rng(1);
  EXPECT_EQ(chooser.pointer(), 0u);
  chooser.choose(3, cluster, rng);
  EXPECT_EQ(chooser.pointer(), 3u);
  chooser.choose(6, cluster, rng);
  EXPECT_EQ(chooser.pointer(), 1u);  // wraps mod 8
}

TEST(RoundRobin, RaceKeepsPointerSometimes) {
  const auto cluster = plafrim();
  RoundRobinChooser chooser(plafrimRoundRobinOrder(cluster), 1.0 / 3.0);
  util::Rng rng(7);
  int repeats = 0;
  const int trials = 3000;
  auto previous = chooser.choose(4, cluster, rng);
  for (int i = 0; i < trials; ++i) {
    auto current = chooser.choose(4, cluster, rng);
    if (current == previous) ++repeats;
    previous = std::move(current);
  }
  // Consecutive identical windows happen with the race probability (1/3),
  // reproducing the paper's shared-all-four frequency in Fig. 13.
  EXPECT_NEAR(static_cast<double>(repeats) / trials, 1.0 / 3.0, 0.04);
}

TEST(RoundRobin, InterleavedOrderGivesBalancedCount4) {
  // Ablation: had PlaFRIM's round-robin interleaved hosts, count 4 would be
  // the peak-performance (2,2).
  const auto cluster = plafrim();
  RoundRobinChooser chooser(interleavedOrder(cluster), 0.0,
                            ChooserKind::kRoundRobinInterleaved);
  util::Rng rng(1);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(allocationKey(chooser.choose(4, cluster, rng), cluster), "(2,2)");
  }
}

TEST(RoundRobin, InvalidConstructionThrows) {
  EXPECT_THROW(RoundRobinChooser({}, 0.0), util::ContractError);
  EXPECT_THROW(RoundRobinChooser({0, 1}, 1.5), util::ContractError);
}

TEST(Random, PicksAreDistinctAndInRange) {
  const auto cluster = plafrim();
  RandomChooser chooser;
  util::Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    const auto picks = chooser.choose(5, cluster, rng);
    ASSERT_EQ(picks.size(), 5u);
    std::set<std::size_t> distinct(picks.begin(), picks.end());
    EXPECT_EQ(distinct.size(), 5u);
    for (const auto t : picks) EXPECT_LT(t, 8u);
  }
}

TEST(Random, Count4CoversAllAllocationsIncludingBalanced) {
  // The paper notes a random chooser *would* sometimes produce the balanced
  // (2,2) that round-robin never does.
  const auto cluster = plafrim();
  RandomChooser chooser;
  util::Rng rng(3);
  std::map<std::string, int> keys;
  for (int i = 0; i < 2000; ++i) {
    ++keys[allocationKey(chooser.choose(4, cluster, rng), cluster)];
  }
  EXPECT_GT(keys["(2,2)"], 0);
  EXPECT_GT(keys["(1,3)"], 0);
  EXPECT_GT(keys["(0,4)"], 0);
  // Hypergeometric frequencies: (2,2) 36/70, (1,3) 32/70, (0,4) 2/70.
  EXPECT_NEAR(keys["(2,2)"] / 2000.0, 36.0 / 70.0, 0.05);
  EXPECT_NEAR(keys["(0,4)"] / 2000.0, 2.0 / 70.0, 0.02);
}

/// Balanced chooser property: per-host counts never differ by more than one
/// (and not at all when the count divides the host count).
class BalancedChooserTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BalancedChooserTest, SpreadIsEven) {
  const auto cluster = plafrim();
  BalancedChooser chooser;
  util::Rng rng(4);
  const std::size_t count = GetParam();
  for (int i = 0; i < 50; ++i) {
    const auto picks = chooser.choose(count, cluster, rng);
    const core::Allocation alloc(picks, cluster);
    EXPECT_LE(alloc.maxPerHost() - alloc.minPerHost(), 1u) << "count=" << count;
    if (count % cluster.hosts.size() == 0) {
      EXPECT_DOUBLE_EQ(alloc.balanceRatio(), 1.0) << "count=" << count;
    }
    std::set<std::size_t> distinct(picks.begin(), picks.end());
    EXPECT_EQ(distinct.size(), count);
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, BalancedChooserTest, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(BalancedChooser, HandlesUnevenHosts) {
  auto cluster = plafrim();
  cluster.hosts[0].targets.pop_back();  // 3 + 4 targets
  BalancedChooser chooser;
  util::Rng rng(5);
  const auto picks = chooser.choose(7, cluster, rng);  // must take all targets
  EXPECT_EQ(picks.size(), 7u);
  std::set<std::size_t> distinct(picks.begin(), picks.end());
  EXPECT_EQ(distinct.size(), 7u);
}

TEST(Chooser, CountBoundsAreChecked) {
  const auto cluster = plafrim();
  RandomChooser chooser;
  util::Rng rng(6);
  EXPECT_THROW(chooser.choose(0, cluster, rng), util::ContractError);
  EXPECT_THROW(chooser.choose(9, cluster, rng), util::ContractError);
}

TEST(Chooser, FactoryInstantiatesConfiguredKind) {
  const auto cluster = plafrim();
  BeegfsParams params;
  params.chooser = ChooserKind::kBalanced;
  EXPECT_EQ(makeChooser(params, cluster)->kind(), ChooserKind::kBalanced);
  params.chooser = ChooserKind::kRandom;
  EXPECT_EQ(makeChooser(params, cluster)->kind(), ChooserKind::kRandom);
  params.chooser = ChooserKind::kRoundRobin;
  EXPECT_EQ(makeChooser(params, cluster)->kind(), ChooserKind::kRoundRobin);
  params.chooser = ChooserKind::kRoundRobinInterleaved;
  EXPECT_EQ(makeChooser(params, cluster)->kind(), ChooserKind::kRoundRobinInterleaved);
}

}  // namespace
}  // namespace beesim::beegfs
