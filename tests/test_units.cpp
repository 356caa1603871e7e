#include "util/units.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace beesim::util {
namespace {

using namespace beesim::util::literals;

TEST(Units, LiteralsProduceExactByteCounts) {
  EXPECT_EQ(1_KiB, 1024ULL);
  EXPECT_EQ(1_MiB, 1024ULL * 1024);
  EXPECT_EQ(1_GiB, 1024ULL * 1024 * 1024);
  EXPECT_EQ(1_TiB, 1024ULL * 1024 * 1024 * 1024);
  EXPECT_EQ(32_GiB, 32ULL * 1024 * 1024 * 1024);
  EXPECT_EQ(512_KiB, 512ULL * 1024);
}

TEST(Units, ToMiBAndGiB) {
  EXPECT_DOUBLE_EQ(toMiB(1_MiB), 1.0);
  EXPECT_DOUBLE_EQ(toMiB(512_KiB), 0.5);
  EXPECT_DOUBLE_EQ(toGiB(32_GiB), 32.0);
  EXPECT_DOUBLE_EQ(toGiB(512_MiB), 0.5);
}

TEST(Units, BandwidthComputesMiBPerSecond) {
  EXPECT_DOUBLE_EQ(bandwidth(1_GiB, 1.0), 1024.0);
  EXPECT_DOUBLE_EQ(bandwidth(32_GiB, 32.0), 1024.0);
  EXPECT_DOUBLE_EQ(bandwidth(1_MiB, 0.5), 2.0);
}

TEST(Units, BandwidthRejectsNonPositiveTime) {
  EXPECT_THROW(bandwidth(1_MiB, 0.0), ContractError);
  EXPECT_THROW(bandwidth(1_MiB, -1.0), ContractError);
}

TEST(Units, FormatBytesPicksBinarySuffix) {
  EXPECT_EQ(formatBytes(32_GiB), "32 GiB");
  EXPECT_EQ(formatBytes(512_KiB), "512 KiB");
  EXPECT_EQ(formatBytes(1_MiB), "1 MiB");
  EXPECT_EQ(formatBytes(100), "100 B");
  EXPECT_EQ(formatBytes(1536_KiB), "1.50 MiB");
}

TEST(Units, FormatBandwidthAndSeconds) {
  EXPECT_EQ(formatBandwidth(1460.26), "1460.3 MiB/s");
  EXPECT_EQ(formatBandwidth(880.0), "880.0 MiB/s");
  EXPECT_EQ(formatSeconds(2.5), "2.50 s");
  EXPECT_EQ(formatSeconds(0.012), "12.0 ms");
  EXPECT_EQ(formatSeconds(192.0), "3m12s");
  EXPECT_EQ(formatSeconds(12e-6), "12.0 us");
}

TEST(Units, ParseBytesAcceptsCommonSuffixes) {
  EXPECT_EQ(parseBytes("4096"), 4096ULL);
  EXPECT_EQ(parseBytes("1m"), 1_MiB);
  EXPECT_EQ(parseBytes("1MiB"), 1_MiB);
  EXPECT_EQ(parseBytes("1MB"), 1_MiB);
  EXPECT_EQ(parseBytes("32g"), 32_GiB);
  EXPECT_EQ(parseBytes("32 GiB"), 32_GiB);
  EXPECT_EQ(parseBytes("512k"), 512_KiB);
  EXPECT_EQ(parseBytes("2t"), 2_TiB);
  EXPECT_EQ(parseBytes("0.5g"), 512_MiB);
}

TEST(Units, ParseBytesRejectsMalformedInput) {
  EXPECT_THROW(parseBytes(""), ConfigError);
  EXPECT_THROW(parseBytes("abc"), ConfigError);
  EXPECT_THROW(parseBytes("12x"), ConfigError);
  EXPECT_THROW(parseBytes("-5m"), ConfigError);
}

TEST(Units, ParseFormatsRoundTrip) {
  for (const Bytes b : {1_KiB, 17_MiB, 32_GiB, 2_TiB}) {
    EXPECT_EQ(parseBytes(formatBytes(b)), b);
  }
}

}  // namespace
}  // namespace beesim::util
