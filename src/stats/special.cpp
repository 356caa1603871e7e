#include "stats/special.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace beesim::stats {

double logGamma(double x) { return std::lgamma(x); }

namespace {

/// Continued-fraction evaluation of the incomplete beta (Numerical Recipes
/// "betacf", modified Lentz method).
double betaContinuedFraction(double a, double b, double x) {
  constexpr int kMaxIterations = 300;
  constexpr double kEps = 3.0e-14;
  constexpr double kFpMin = 1.0e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIterations; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) return h;
  }
  BEESIM_ASSERT(false, "incomplete beta continued fraction did not converge");
  return h;  // unreachable
}

}  // namespace

double incompleteBeta(double a, double b, double x) {
  BEESIM_ASSERT(a > 0.0 && b > 0.0, "incomplete beta needs a, b > 0");
  BEESIM_ASSERT(x >= 0.0 && x <= 1.0, "incomplete beta needs x in [0, 1]");
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;
  const double logBt = logGamma(a + b) - logGamma(a) - logGamma(b) + a * std::log(x) +
                       b * std::log(1.0 - x);
  const double bt = std::exp(logBt);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return bt * betaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - bt * betaContinuedFraction(b, a, 1.0 - x) / b;
}

double studentTTwoSidedP(double t, double df) {
  const double x = df / (df + t * t);
  return incompleteBeta(df / 2.0, 0.5, x);
}

double normalCdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

double kolmogorovQ(double lambda) {
  BEESIM_ASSERT(lambda >= 0.0, "lambda must be >= 0");
  if (lambda < 1e-8) return 1.0;
  double sum = 0.0;
  double sign = 1.0;
  for (int j = 1; j <= 100; ++j) {
    const double term = std::exp(-2.0 * j * j * lambda * lambda);
    sum += sign * term;
    if (term < 1e-16) break;
    sign = -sign;
  }
  return std::clamp(2.0 * sum, 0.0, 1.0);
}

}  // namespace beesim::stats
