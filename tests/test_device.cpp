#include "storage/device.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace beesim::storage {
namespace {

TEST(HddRaid, PeakIsDataDisksTimesStreamTimesEfficiency) {
  HddRaidParams params;
  params.disks = 12;
  params.parityDisks = 2;
  params.perDiskStream = 200.0;
  params.writeEfficiency = 0.93;
  const HddRaidModel model(params);
  EXPECT_NEAR(model.peakRate(), 10 * 200.0 * 0.93, 1e-9);
}

TEST(HddRaid, ZeroQueueMeansZeroRate) {
  const HddRaidModel model(HddRaidParams{});
  EXPECT_DOUBLE_EQ(model.serviceRate(0.0), 0.0);
}

TEST(HddRaid, TwoComponentCurveAtItsHalfPoints) {
  HddRaidParams params;
  params.cacheFraction = 0.3;
  params.cacheQHalf = 1.0;
  params.streamQHalf = 30.0;
  params.streamExponent = 2.0;  // quadratic for easy closed-form checks
  const HddRaidModel model(params);
  // At q = cacheQHalf the cache path serves half its share; the stream path
  // is still nearly idle (1/901 of its share).
  const double peak = model.peakRate();
  EXPECT_NEAR(model.serviceRate(1.0), peak * (0.3 * 0.5 + 0.7 * (1.0 / 901.0)), 1e-9);
  // At q = streamQHalf the stream path serves half its share.
  EXPECT_NEAR(model.serviceRate(30.0),
              peak * (0.3 * (30.0 / 31.0) + 0.7 * 0.5), 1e-9);
}

TEST(HddRaid, DeepQueuesPayOffSuperlinearlyInTheMidRange) {
  // The Fig. 13 compensation mechanism: between q=16 and q=32 the service
  // rate grows faster than a simple saturating ramp would allow.
  const HddRaidModel model(HddRaidParams{});
  EXPECT_GT(model.serviceRate(32.0), 1.4 * model.serviceRate(16.0));
}

TEST(HddRaid, ApproachesPeakAtDeepQueues) {
  const HddRaidModel model(HddRaidParams{});
  EXPECT_GT(model.serviceRate(1000.0), 0.99 * model.peakRate());
  EXPECT_LT(model.serviceRate(1000.0), model.peakRate());
}

TEST(HddRaid, NegativeQueueDepthThrows) {
  const HddRaidModel model(HddRaidParams{});
  EXPECT_THROW(model.serviceRate(-1.0), util::ContractError);
}

TEST(HddRaid, InvalidParamsThrow) {
  HddRaidParams p;
  p.disks = 0;
  EXPECT_THROW(HddRaidModel{p}, util::ContractError);
  p = HddRaidParams{};
  p.parityDisks = 12;
  EXPECT_THROW(HddRaidModel{p}, util::ContractError);
  p = HddRaidParams{};
  p.perDiskStream = 0.0;
  EXPECT_THROW(HddRaidModel{p}, util::ContractError);
  p = HddRaidParams{};
  p.writeEfficiency = 1.2;
  EXPECT_THROW(HddRaidModel{p}, util::ContractError);
  p = HddRaidParams{};
  p.cacheFraction = 1.5;
  EXPECT_THROW(HddRaidModel{p}, util::ContractError);
  p = HddRaidParams{};
  p.streamQHalf = -1.0;
  EXPECT_THROW(HddRaidModel{p}, util::ContractError);
  p = HddRaidParams{};
  p.streamExponent = 0.5;
  EXPECT_THROW(HddRaidModel{p}, util::ContractError);
  EXPECT_STREQ(p.invalidReason(), "stream exponent must be >= 1");
  EXPECT_EQ(HddRaidParams{}.invalidReason(), nullptr);
}

/// Ramp monotonicity sweep: service rate is non-decreasing in queue depth
/// across the streaming half-point range.
class RampMonotonicityTest : public ::testing::TestWithParam<double> {};

TEST_P(RampMonotonicityTest, NonDecreasingInQueueDepth) {
  HddRaidParams params;
  params.streamQHalf = GetParam();
  const HddRaidModel model(params);
  double previous = 0.0;
  for (double q = 0.0; q <= 256.0; q += 0.5) {
    const double rate = model.serviceRate(q);
    EXPECT_GE(rate, previous - 1e-12) << "q=" << q;
    previous = rate;
  }
}

INSTANTIATE_TEST_SUITE_P(QHalfSweep, RampMonotonicityTest,
                         ::testing::Values(0.0, 0.5, 2.0, 6.0, 17.0, 64.0));

}  // namespace
}  // namespace beesim::storage
