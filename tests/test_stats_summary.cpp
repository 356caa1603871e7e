#include "stats/summary.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"

namespace beesim::stats {
namespace {

TEST(Summary, KnownSample) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const auto s = summarize(xs);
  EXPECT_EQ(s.n, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.sd, 2.13809, 1e-4);  // sample sd
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.median, 4.5);
}

TEST(Summary, SingleValue) {
  const std::vector<double> xs{3.0};
  const auto s = summarize(xs);
  EXPECT_EQ(s.n, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.sd, 0.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.q1, 3.0);
}

TEST(Summary, EmptySampleThrows) {
  EXPECT_THROW(summarize(std::vector<double>{}), util::ContractError);
}

TEST(Summary, CvIsRelativeSpread) {
  const std::vector<double> xs{90.0, 100.0, 110.0};
  EXPECT_NEAR(summarize(xs).cv(), 10.0 / 100.0, 1e-9);
}

TEST(Quantile, MatchesNumpyLinearInterpolation) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const auto s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(s.q1, 1.75);  // numpy type-7
  EXPECT_DOUBLE_EQ(s.q3, 3.25);
  const auto box = boxPlot(xs);
  EXPECT_DOUBLE_EQ(box.q1, 1.75);
  EXPECT_DOUBLE_EQ(box.median, 2.5);
  EXPECT_DOUBLE_EQ(box.q3, 3.25);
}

TEST(Quantile, UnsortedInputHandled) {
  const std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  const auto s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.q1, 1.75);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(s.q3, 3.25);
  EXPECT_DOUBLE_EQ(boxPlot(xs).median, 2.5);
}

TEST(Quantile, BoundsChecked) {
  // The quartile readers reject the one sample they cannot interpolate
  // (summarize's check is Summary.EmptySampleThrows).
  EXPECT_THROW(boxPlot(std::vector<double>{}), util::ContractError);
}

TEST(BoxPlot, WhiskersAtExtremesWithoutOutliers) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  const auto box = boxPlot(xs);
  EXPECT_DOUBLE_EQ(box.median, 3.0);
  EXPECT_DOUBLE_EQ(box.whiskerLow, 1.0);
  EXPECT_DOUBLE_EQ(box.whiskerHigh, 5.0);
  EXPECT_TRUE(box.outliers.empty());
}

TEST(BoxPlot, OutliersBeyondTukeyFences) {
  std::vector<double> xs{10.0, 11.0, 12.0, 13.0, 14.0, 100.0};
  const auto box = boxPlot(xs);
  ASSERT_EQ(box.outliers.size(), 1u);
  EXPECT_DOUBLE_EQ(box.outliers[0], 100.0);
  EXPECT_LE(box.whiskerHigh, 14.0);
}

TEST(JainIndex, PerfectFairnessIsOne) {
  const std::vector<double> xs{5.0, 5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(jainIndex(xs), 1.0);
}

TEST(JainIndex, OneUserTakingEverythingIsOneOverN) {
  const std::vector<double> xs{10.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(jainIndex(xs), 0.25);
}

TEST(JainIndex, KnownMixedAllocation) {
  // (1+2+3)^2 / (3 * (1+4+9)) = 36/42.
  const std::vector<double> xs{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(jainIndex(xs), 36.0 / 42.0);
}

TEST(JainIndex, ScaleInvariant) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  std::vector<double> scaled;
  for (const double x : xs) scaled.push_back(1000.0 * x);
  EXPECT_DOUBLE_EQ(jainIndex(xs), jainIndex(scaled));
}

TEST(JainIndex, AllZeroIsEquallyNothing) {
  const std::vector<double> xs{0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(jainIndex(xs), 1.0);
}

TEST(JainIndex, ContractViolationsThrow) {
  EXPECT_THROW(jainIndex(std::vector<double>{}), util::ContractError);
  EXPECT_THROW(jainIndex(std::vector<double>{1.0, -0.5}), util::ContractError);
}

TEST(Summary, DescribeContainsKeyNumbers) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const auto text = summarize(xs).describe();
  EXPECT_NE(text.find("n=3"), std::string::npos);
  EXPECT_NE(text.find("mean=2.0"), std::string::npos);
}

}  // namespace
}  // namespace beesim::stats
