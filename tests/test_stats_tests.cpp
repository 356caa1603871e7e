// Hypothesis tests: Welch t-test, Kolmogorov-Smirnov, linear regression.
#include <gtest/gtest.h>

#include <vector>

#include "stats/ks.hpp"
#include "stats/regression.hpp"
#include "stats/ttest.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace beesim::stats {
namespace {

TEST(Welch, KnownTextbookExample) {
  // Classic Welch example (Wikipedia, "Welch's t-test", example data);
  // reference statistics computed independently:
  //   t = -2.70778, df = 26.9527, p < 0.05.
  const std::vector<double> x{27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9,
                              20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7, 21.4};
  const std::vector<double> y{27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8,
                              22.0, 24.8, 20.2, 21.9, 22.1, 22.9, 30.5};
  const auto result = welchTTest(x, y);
  EXPECT_NEAR(result.t, -2.70778, 1e-4);
  EXPECT_NEAR(result.df, 26.9527, 1e-3);
  EXPECT_LT(result.pValue, 0.05);
  EXPECT_GT(result.pValue, 0.005);
  EXPECT_TRUE(result.significantAt(0.05));
}

TEST(Welch, IdenticalDistributionsGiveHighP) {
  util::Rng rng(1);
  std::vector<double> a(100);
  std::vector<double> b(100);
  for (auto& v : a) v = rng.normal(1000.0, 50.0);
  for (auto& v : b) v = rng.normal(1000.0, 50.0);
  const auto result = welchTTest(a, b);
  EXPECT_GT(result.pValue, 0.05);
  EXPECT_FALSE(result.significantAt(0.05));
}

TEST(Welch, ShiftedMeansAreDetected) {
  util::Rng rng(2);
  std::vector<double> a(50);
  std::vector<double> b(50);
  for (auto& v : a) v = rng.normal(1000.0, 30.0);
  for (auto& v : b) v = rng.normal(1100.0, 30.0);
  const auto result = welchTTest(a, b);
  EXPECT_LT(result.pValue, 1e-6);
  EXPECT_NEAR(result.meanDifference, -100.0, 20.0);
}

TEST(Welch, HandlesUnequalVariances) {
  util::Rng rng(3);
  std::vector<double> tight(40);
  std::vector<double> wide(40);
  for (auto& v : tight) v = rng.normal(10.0, 0.1);
  for (auto& v : wide) v = rng.normal(10.0, 5.0);
  const auto result = welchTTest(tight, wide);
  // Degrees of freedom collapse towards the noisier sample's n-1.
  EXPECT_LT(result.df, 45.0);
  EXPECT_GT(result.pValue, 0.01);
}

TEST(Welch, RejectsTooSmallSamples) {
  const std::vector<double> one{1.0};
  const std::vector<double> two{1.0, 2.0};
  EXPECT_THROW(welchTTest(one, two), util::ContractError);
  const std::vector<double> flat{1.0, 1.0};
  EXPECT_THROW(welchTTest(flat, flat), util::ContractError);  // zero variance
}

TEST(Welch, DescribeMentionsStatistics) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{2.0, 3.0, 4.0};
  const auto text = welchTTest(a, b).describe();
  EXPECT_NE(text.find("t="), std::string::npos);
  EXPECT_NE(text.find("p="), std::string::npos);
}

TEST(Ks, NormalSampleAgainstItsOwnFitPasses) {
  util::Rng rng(4);
  std::vector<double> xs(200);
  for (auto& v : xs) v = rng.normal(5.0, 2.0);
  const auto result = ksNormalTestFitted(xs);
  EXPECT_GT(result.pValue, 0.05);
}

TEST(Ks, UniformSampleAgainstNormalFails) {
  util::Rng rng(5);
  std::vector<double> xs(500);
  for (auto& v : xs) v = rng.uniform(0.0, 1.0);
  const auto result = ksNormalTest(xs, 0.5, 0.05);  // absurd reference sd
  EXPECT_LT(result.pValue, 0.001);
}

TEST(Ks, StatisticBoundsAndDegenerateArgs) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const auto result = ksNormalTest(xs, 2.0, 1.0);
  EXPECT_GE(result.statistic, 0.0);
  EXPECT_LE(result.statistic, 1.0);
  EXPECT_THROW(ksNormalTest(xs, 0.0, 0.0), util::ContractError);
  EXPECT_THROW(ksNormalTest(std::vector<double>{}, 0.0, 1.0), util::ContractError);
}

TEST(Regression, ExactLineIsRecovered) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y{5.0, 7.0, 9.0, 11.0};
  const auto fit = linearFit(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
  EXPECT_NEAR(fit.predict(10.0), 23.0, 1e-12);
}

TEST(Regression, NoisyLineHasHighButImperfectR2) {
  util::Rng rng(8);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 1; i <= 50; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i + rng.normal(0.0, 5.0));
  }
  const auto fit = linearFit(x, y);
  EXPECT_NEAR(fit.slope, 3.0, 0.3);
  EXPECT_GT(fit.r2, 0.95);
  EXPECT_LT(fit.r2, 1.0);
}

TEST(Regression, FlatDataHasZeroSlope) {
  const std::vector<double> x{1.0, 2.0, 3.0};
  const std::vector<double> y{4.0, 4.0, 4.0};
  const auto fit = linearFit(x, y);
  EXPECT_NEAR(fit.slope, 0.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);  // zero residual convention
}

TEST(Regression, InvalidInputsThrow) {
  const std::vector<double> two{1.0, 2.0};
  const std::vector<double> three{1.0, 2.0, 3.0};
  EXPECT_THROW(linearFit(two, three), util::ContractError);
  EXPECT_THROW(linearFit(std::vector<double>{1.0}, std::vector<double>{1.0}),
               util::ContractError);
  const std::vector<double> constX{2.0, 2.0, 2.0};
  EXPECT_THROW(linearFit(constX, three), util::ContractError);
}

}  // namespace
}  // namespace beesim::stats
