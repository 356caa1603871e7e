#include "ior/options.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace beesim::ior {
namespace {

using namespace beesim::util::literals;

TEST(IorOptions, DefaultsMatchThePaper) {
  const IorOptions opts;
  EXPECT_EQ(opts.transferSize, 1_MiB);
  EXPECT_EQ(opts.pattern, AccessPattern::kSharedFile);
  EXPECT_EQ(opts.operation, Operation::kWrite);
  EXPECT_NO_THROW(opts.validate());
}

TEST(IorOptions, TotalBytes) {
  IorOptions opts;
  opts.blockSize = 512_MiB;
  opts.segments = 2;
  EXPECT_EQ(opts.totalBytes(32), 32ULL * 2 * 512_MiB);
}

TEST(IorOptions, SharedFileOffsetsInterleaveRanksWithinSegments) {
  IorOptions opts;
  opts.blockSize = 1_GiB;
  opts.segments = 2;
  // Segment layout: [seg0: rank0, rank1, ..., seg1: rank0, rank1, ...].
  EXPECT_EQ(opts.rankSegmentOffset(0, 4, 0), 0u);
  EXPECT_EQ(opts.rankSegmentOffset(3, 4, 0), 3_GiB);
  EXPECT_EQ(opts.rankSegmentOffset(0, 4, 1), 4_GiB);
  EXPECT_EQ(opts.rankSegmentOffset(2, 4, 1), 6_GiB);
}

TEST(IorOptions, FilePerProcessOffsetsAreLocal) {
  IorOptions opts;
  opts.pattern = AccessPattern::kFilePerProcess;
  opts.blockSize = 1_GiB;
  opts.segments = 3;
  EXPECT_EQ(opts.rankSegmentOffset(5, 8, 2), 2_GiB);
}

TEST(IorOptions, OffsetBoundsChecked) {
  const IorOptions opts;
  EXPECT_THROW(opts.rankSegmentOffset(4, 4, 0), util::ContractError);
  EXPECT_THROW(opts.rankSegmentOffset(0, 4, 1), util::ContractError);
}

TEST(IorOptions, ValidateCatchesNonsense) {
  IorOptions opts;
  opts.blockSize = 0;
  EXPECT_THROW(opts.validate(), util::ConfigError);

  opts = IorOptions{};
  opts.transferSize = 3_MiB;  // does not divide 1 GiB block? 1024/3 no.
  EXPECT_THROW(opts.validate(), util::ConfigError);

  opts = IorOptions{};
  opts.segments = 0;
  EXPECT_THROW(opts.validate(), util::ConfigError);

  opts = IorOptions{};
  opts.testFile = "relative.dat";
  EXPECT_THROW(opts.validate(), util::ConfigError);
}

TEST(IorOptions, DescribeRoundTripsKeyFlags) {
  IorOptions opts;
  opts.blockSize = 4_GiB;
  opts.segments = 2;
  const auto text = opts.describe();
  EXPECT_NE(text.find("-b 4 GiB"), std::string::npos);
  EXPECT_NE(text.find("-s 2"), std::string::npos);
  EXPECT_NE(text.find("POSIX"), std::string::npos);
}

TEST(BlockSizeForTotal, DividesEvenly) {
  EXPECT_EQ(blockSizeForTotal(32_GiB, 32), 1_GiB);
  EXPECT_EQ(blockSizeForTotal(32_GiB, 64), 512_MiB);
  EXPECT_THROW(blockSizeForTotal(32_GiB + 1, 32), util::ConfigError);
}

}  // namespace
}  // namespace beesim::ior
