#include "stats/special.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"

namespace beesim::stats {
namespace {

TEST(Special, LogGammaKnownValues) {
  EXPECT_NEAR(logGamma(1.0), 0.0, 1e-12);
  EXPECT_NEAR(logGamma(2.0), 0.0, 1e-12);
  EXPECT_NEAR(logGamma(5.0), std::log(24.0), 1e-10);
  EXPECT_NEAR(logGamma(0.5), std::log(std::sqrt(M_PI)), 1e-10);
}

TEST(IncompleteBeta, BoundaryValues) {
  EXPECT_DOUBLE_EQ(incompleteBeta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(incompleteBeta(2.0, 3.0, 1.0), 1.0);
}

TEST(IncompleteBeta, SymmetricCaseAtHalf) {
  // I_{1/2}(a, a) = 1/2 by symmetry.
  for (const double a : {0.5, 1.0, 2.0, 7.5}) {
    EXPECT_NEAR(incompleteBeta(a, a, 0.5), 0.5, 1e-10);
  }
}

TEST(IncompleteBeta, UniformSpecialCase) {
  // I_x(1, 1) = x.
  for (const double x : {0.1, 0.37, 0.9}) {
    EXPECT_NEAR(incompleteBeta(1.0, 1.0, x), x, 1e-10);
  }
}

TEST(IncompleteBeta, KnownReferenceValue) {
  // I_{0.4}(2, 3) = 1 - (1-x)^3 (1+3x) at... compute via closed form:
  // for a=2,b=3: I_x = 6x^2(1-x)^2/2 ... use scipy reference 0.5248.
  EXPECT_NEAR(incompleteBeta(2.0, 3.0, 0.4), 0.5248, 2e-4);
}

TEST(IncompleteBeta, InvalidArgumentsThrow) {
  EXPECT_THROW(incompleteBeta(0.0, 1.0, 0.5), util::ContractError);
  EXPECT_THROW(incompleteBeta(1.0, 1.0, -0.1), util::ContractError);
  EXPECT_THROW(incompleteBeta(1.0, 1.0, 1.1), util::ContractError);
}

TEST(StudentT, TwoSidedPValues) {
  // R: 2*pt(-2.0, df=10) = 0.07339.
  EXPECT_NEAR(studentTTwoSidedP(2.0, 10.0), 0.07339, 2e-4);
  EXPECT_NEAR(studentTTwoSidedP(-2.0, 10.0), 0.07339, 2e-4);
  EXPECT_NEAR(studentTTwoSidedP(0.0, 10.0), 1.0, 1e-12);
}

TEST(NormalCdf, KnownValues) {
  EXPECT_NEAR(normalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normalCdf(1.0), 0.841345, 1e-6);
  EXPECT_NEAR(normalCdf(-1.959964), 0.025, 1e-6);
}

TEST(Kolmogorov, TailValues) {
  EXPECT_NEAR(kolmogorovQ(0.0), 1.0, 1e-12);
  // Q(1.36) ~ 0.049 (the classic 5% critical value).
  EXPECT_NEAR(kolmogorovQ(1.36), 0.049, 2e-3);
  EXPECT_LT(kolmogorovQ(2.5), 1e-4);
  EXPECT_THROW(kolmogorovQ(-1.0), util::ContractError);
}

}  // namespace
}  // namespace beesim::stats
