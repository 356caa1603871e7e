#include "beegfs/stripe.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace beesim::beegfs {
namespace {

using namespace beesim::util::literals;

/// Brute-force reference: walk every chunk of the region.
std::vector<util::Bytes> bytesPerTargetBruteForce(const StripePattern& pattern,
                                                  util::Bytes offset, util::Bytes length) {
  std::vector<util::Bytes> per(pattern.stripeCount(), 0);
  const auto chunk = pattern.chunkSize();
  util::Bytes position = offset;
  const util::Bytes end = offset + length;
  while (position < end) {
    const auto chunkIndex = position / chunk;
    const auto chunkEnd = (chunkIndex + 1) * chunk;
    const auto piece = std::min(end, chunkEnd) - position;
    per[chunkIndex % pattern.stripeCount()] += piece;
    position += piece;
  }
  return per;
}

TEST(Stripe, SingleTargetGetsEverything) {
  const StripePattern pattern({5}, 512_KiB);
  const auto per = pattern.bytesPerTarget(0, 10_MiB);
  ASSERT_EQ(per.size(), 1u);
  EXPECT_EQ(per[0], 10_MiB);
}

TEST(Stripe, AlignedRegionSplitsEvenly) {
  const StripePattern pattern({0, 1, 2, 3}, 512_KiB);
  const auto per = pattern.bytesPerTarget(0, 8_MiB);  // 16 chunks, 4 each
  for (const auto bytes : per) EXPECT_EQ(bytes, 2_MiB);
}

TEST(Stripe, SubChunkRegionHitsOneTarget) {
  const StripePattern pattern({0, 1, 2}, 512_KiB);
  const auto per = pattern.bytesPerTarget(512_KiB + 100, 1000);
  EXPECT_EQ(per[0], 0u);
  EXPECT_EQ(per[1], 1000u);
  EXPECT_EQ(per[2], 0u);
}

TEST(Stripe, UnalignedEdgesAreCharged) {
  const StripePattern pattern({0, 1}, 1_MiB);
  // [0.5 MiB, 2.5 MiB): 0.5 on chunk0 (t0), 1.0 on chunk1 (t1), 0.5 on
  // chunk2 (t0).
  const auto per = pattern.bytesPerTarget(512_KiB, 2_MiB);
  EXPECT_EQ(per[0], 1_MiB);
  EXPECT_EQ(per[1], 1_MiB);
}

TEST(Stripe, SumAlwaysEqualsLength) {
  const StripePattern pattern({3, 1, 4, 0, 2}, 512_KiB);
  for (const util::Bytes offset : {util::Bytes{0}, util::Bytes{123456}, 5_MiB + 17}) {
    for (const util::Bytes length : {util::Bytes{1}, 512_KiB - 1, 512_KiB, 32_MiB + 9}) {
      const auto per = pattern.bytesPerTarget(offset, length);
      const auto sum = std::accumulate(per.begin(), per.end(), util::Bytes{0});
      EXPECT_EQ(sum, length);
    }
  }
}

TEST(Stripe, ZeroLengthIsAllZeros) {
  const StripePattern pattern({0, 1}, 512_KiB);
  const auto per = pattern.bytesPerTarget(7777, 0);
  EXPECT_EQ(per[0], 0u);
  EXPECT_EQ(per[1], 0u);
}

TEST(Stripe, InvalidConstructionThrows) {
  EXPECT_THROW(StripePattern({}, 512_KiB), util::ContractError);
  EXPECT_THROW(StripePattern({0, 1}, 0), util::ContractError);
  EXPECT_THROW(StripePattern({0, 1, 0}, 512_KiB), util::ContractError);  // duplicate
}

TEST(CountCongruent, KnownValues) {
  EXPECT_EQ(countCongruent(0, 9, 2, 0), 5u);  // 0,2,4,6,8
  EXPECT_EQ(countCongruent(0, 9, 2, 1), 5u);
  EXPECT_EQ(countCongruent(5, 5, 3, 2), 1u);  // 5 % 3 == 2
  EXPECT_EQ(countCongruent(5, 5, 3, 0), 0u);
  EXPECT_EQ(countCongruent(6, 5, 3, 0), 0u);  // empty interval
  EXPECT_EQ(countCongruent(0, 0, 4, 0), 1u);
}

TEST(CountCongruent, PartitionsTheInterval) {
  for (std::uint64_t m = 1; m <= 7; ++m) {
    std::uint64_t total = 0;
    for (std::uint64_t r = 0; r < m; ++r) total += countCongruent(13, 97, m, r);
    EXPECT_EQ(total, 97u - 13u + 1u);
  }
}

TEST(CountCongruent, ContractChecks) {
  EXPECT_THROW(countCongruent(0, 1, 0, 0), util::ContractError);
  EXPECT_THROW(countCongruent(0, 1, 3, 3), util::ContractError);
}

/// Property sweep: closed form == brute force on random regions.
class StripeRandomRegionTest : public ::testing::TestWithParam<int> {};

TEST_P(StripeRandomRegionTest, ClosedFormMatchesBruteForce) {
  util::Rng rng(500 + GetParam());
  const auto count = static_cast<std::size_t>(rng.uniformInt(1, 8));
  std::vector<std::size_t> targets;
  for (const auto t : rng.sampleWithoutReplacement(16, count)) targets.push_back(t);
  const util::Bytes chunk = 1ULL << rng.uniformInt(10, 21);  // 1 KiB .. 2 MiB
  const StripePattern pattern(targets, chunk);

  for (int rep = 0; rep < 10; ++rep) {
    const auto offset = static_cast<util::Bytes>(rng.uniformInt(0, 1 << 26));
    const auto length = static_cast<util::Bytes>(rng.uniformInt(1, 1 << 26));
    EXPECT_EQ(pattern.bytesPerTarget(offset, length),
              bytesPerTargetBruteForce(pattern, offset, length));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomRegions, StripeRandomRegionTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace beesim::beegfs
