// Special functions needed by the hypothesis tests: regularized incomplete
// beta (Student-t tail), error function wrappers (normal CDF), and the
// Kolmogorov distribution tail.  Implemented from scratch (Lentz continued
// fractions / series) so the library has no numerical dependencies; accuracy
// is validated against known values in the tests.
#pragma once

namespace beesim::stats {

/// Natural log of the gamma function (delegates to std::lgamma).
double logGamma(double x);

/// Regularized incomplete beta function I_x(a, b), for a,b > 0, x in [0,1].
double incompleteBeta(double a, double b, double x);

/// Two-sided p-value of a t statistic with `df` degrees of freedom.
double studentTTwoSidedP(double t, double df);

/// Standard normal CDF.
double normalCdf(double z);

/// Kolmogorov distribution complementary CDF Q(lambda) =
/// 2 * sum_{j>=1} (-1)^{j-1} exp(-2 j^2 lambda^2) -- the asymptotic p-value
/// of the KS statistic.
double kolmogorovQ(double lambda);

}  // namespace beesim::stats
