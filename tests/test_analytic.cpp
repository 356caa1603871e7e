#include "core/analytic.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/units.hpp"

namespace beesim::core {
namespace {

using namespace beesim::util::literals;

TEST(NetworkBound, Fig3MinRule) {
  // N < M: limited by the client side; N >= M: by the server side.
  EXPECT_DOUBLE_EQ(networkBound(1, 2, 1100.0), 1100.0);
  EXPECT_DOUBLE_EQ(networkBound(2, 2, 1100.0), 2200.0);
  EXPECT_DOUBLE_EQ(networkBound(8, 2, 1100.0), 2200.0);
  EXPECT_DOUBLE_EQ(networkBound(3, 12, 500.0), 1500.0);
}

TEST(NetworkBound, InvalidArgsThrow) {
  EXPECT_THROW(networkBound(0, 2, 1.0), util::ContractError);
  EXPECT_THROW(networkBound(1, 0, 1.0), util::ContractError);
  EXPECT_THROW(networkBound(1, 1, 0.0), util::ContractError);
}

TEST(NetworkLimited, BandwidthFollowsHotHost) {
  const double link = 1100.0;
  EXPECT_DOUBLE_EQ(
      networkLimitedBandwidth(Allocation(std::vector<std::size_t>{0, 2}), link), link);
  EXPECT_DOUBLE_EQ(
      networkLimitedBandwidth(Allocation(std::vector<std::size_t>{1, 1}), link), 2 * link);
  EXPECT_NEAR(networkLimitedBandwidth(Allocation(std::vector<std::size_t>{1, 3}), link),
              link * 4.0 / 3.0, 1e-9);
  EXPECT_NEAR(networkLimitedBandwidth(Allocation(std::vector<std::size_t>{2, 3}), link),
              link * 5.0 / 3.0, 1e-9);
}

TEST(NetworkLimited, PaperOrderingOfFig8Reproduced) {
  // (0,k) < (1,3) < (1,2) == (2,4) < (2,3) < balanced.
  const double link = 1100.0;
  auto bw = [&](std::size_t a, std::size_t b) {
    return networkLimitedBandwidth(Allocation(std::vector<std::size_t>{a, b}), link);
  };
  EXPECT_DOUBLE_EQ(bw(0, 1), bw(0, 3));
  EXPECT_LT(bw(0, 3), bw(1, 3));
  EXPECT_LT(bw(1, 3), bw(1, 2));
  EXPECT_DOUBLE_EQ(bw(1, 2), bw(2, 4));
  EXPECT_LT(bw(2, 4), bw(2, 3));
  EXPECT_LT(bw(2, 3), bw(1, 1));
  EXPECT_DOUBLE_EQ(bw(1, 1), bw(4, 4));
}

TEST(TwoTargetTimeline, Fig9BalancedHalvesTheTime) {
  const auto balanced = twoTargetTimeline(32_GiB, true, 1100.0);
  const auto unbalanced = twoTargetTimeline(32_GiB, false, 1100.0);
  ASSERT_EQ(balanced.size(), 1u);
  ASSERT_EQ(unbalanced.size(), 1u);
  EXPECT_DOUBLE_EQ(balanced[0].totalRate, 2200.0);
  EXPECT_DOUBLE_EQ(unbalanced[0].totalRate, 1100.0);
  EXPECT_NEAR(unbalanced[0].end / balanced[0].end, 2.0, 1e-9);
  // Both move the same volume.
  EXPECT_NEAR(balanced[0].totalRate * balanced[0].end,
              unbalanced[0].totalRate * unbalanced[0].end, 1e-6);
}

TEST(TwoTargetTimeline, InvalidArgsThrow) {
  EXPECT_THROW(twoTargetTimeline(0, true, 1100.0), util::ContractError);
  EXPECT_THROW(twoTargetTimeline(1_GiB, true, 0.0), util::ContractError);
}

}  // namespace
}  // namespace beesim::core
