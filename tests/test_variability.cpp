#include <gtest/gtest.h>

#include <algorithm>

#include "storage/device.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace beesim::storage {
namespace {

TEST(Variability, LogNormalFactorsArePositiveAndVary) {
  EpochNoise noise(0.1, util::Rng(2), 1.0);
  double minF = 1e9;
  double maxF = 0.0;
  for (int e = 0; e < 1000; ++e) {
    const double f = noise.factorAt(e + 0.5);
    EXPECT_GT(f, 0.0);
    minF = std::min(minF, f);
    maxF = std::max(maxF, f);
  }
  EXPECT_LT(minF, 0.95);
  EXPECT_GT(maxF, 1.05);
}

TEST(Variability, LogNormalZeroSigmaIsDeterministic) {
  // sigma = 0 is "no variability": exactly 1.0 at every epoch, negative and
  // far-off ones included, whatever the stream.
  EpochNoise noise(0.0, util::Rng(3), 3.0);
  for (int e = -50; e < 1000; ++e) EXPECT_EQ(noise.factorAt(3.0 * e + 1.0), 1.0) << e;
  EXPECT_EQ(noise.factorAt(1e12), 1.0);
}

TEST(Variability, FactorsArePureFunctionsOfStreamAndEpoch) {
  EpochNoise noise(0.2, util::Rng(4), 1.0);
  // Same (stream, epoch) -> same factor, regardless of query order.
  const double f7 = noise.factorAt(7.5);
  const double f3 = noise.factorAt(3.5);
  EXPECT_DOUBLE_EQ(noise.factorAt(7.5), f7);
  EXPECT_DOUBLE_EQ(noise.factorAt(3.5), f3);
  EXPECT_NE(f3, f7);
  // A different stream sees different factors.
  EpochNoise other(0.2, util::Rng(5), 1.0);
  EXPECT_NE(other.factorAt(7.5), f7);
  // The factor of epoch E is the median-1 log-normal draw of the stream's
  // child E*2+1.
  EXPECT_EQ(f7, util::Rng(4).splitNamed(7 * 2 + 1).logNormalMedian(1.0, 0.2));
}

TEST(Variability, InvalidParametersThrow) {
  EXPECT_THROW(EpochNoise(-0.1, util::Rng(1), 1.0), util::ContractError);
}

TEST(NoisyDevice, FactorIsCachedWithinAnEpoch) {
  EpochNoise noise(0.3, util::Rng(10), 2.0);
  const double f1 = noise.factorAt(0.1);
  const double f2 = noise.factorAt(1.9);  // same epoch [0, 2)
  const double f3 = noise.factorAt(2.1);  // next epoch
  EXPECT_DOUBLE_EQ(f1, f2);
  EXPECT_NE(f1, f3);
}

TEST(NoisyDevice, CurrentRateMultipliesModelAndFactor) {
  const HddRaidParams params;
  NoisyDevice device{HddRaidModel(params), EpochNoise(0.3, util::Rng(11), 1.0)};
  EpochNoise noise(0.3, util::Rng(11), 1.0);
  const HddRaidModel curve(params);
  for (const double q : {0.5, 8.0, 40.0}) {
    EXPECT_EQ(device.currentRate(q, 2.5), curve.serviceRate(q) * noise.factorAt(2.5)) << q;
  }
  EXPECT_EQ(device.currentRate(0.0, 2.5), 0.0);
}

TEST(NoisyDevice, FactorIndependentOfQueryPattern) {
  // Dense and sparse query patterns must agree (factors are epoch-keyed).
  EpochNoise dense(0.3, util::Rng(12), 1.0);
  EpochNoise sparse(0.3, util::Rng(12), 1.0);
  double denseLast = 0.0;
  for (int e = 0; e < 10; ++e) denseLast = dense.factorAt(e + 0.5);
  EXPECT_DOUBLE_EQ(denseLast, sparse.factorAt(9.5));
  // Going back in time is fine too (runs laid out at arbitrary offsets).
  EXPECT_DOUBLE_EQ(sparse.factorAt(0.5), dense.factorAt(0.5));
}

TEST(NoisyDevice, InvalidConstructionThrows) {
  EXPECT_THROW(EpochNoise(0.1, util::Rng(1), 0.0), util::ContractError);
  EXPECT_THROW(EpochNoise(0.1, util::Rng(1), -1.0), util::ContractError);
  HddRaidParams params;
  params.disks = 0;
  EXPECT_THROW((NoisyDevice{HddRaidModel(params), EpochNoise(0.1, util::Rng(1), 1.0)}),
               util::ContractError);
}

}  // namespace
}  // namespace beesim::storage
