// Kolmogorov-Smirnov tests.
//
// The paper checks normality with a KS test before applying Welch's t-test
// (Section IV-D).  We provide the one-sample test against a Normal(mu,
// sigma), with the asymptotic Kolmogorov p-value.
#pragma once

#include <span>
#include <string>

namespace beesim::stats {

struct KsResult {
  double statistic = 0.0;  // sup |F_empirical - F_reference|
  double pValue = 1.0;

  std::string describe() const;
};

/// One-sample KS test of `sample` against Normal(mean, sd).  sd > 0,
/// sample non-empty.
KsResult ksNormalTest(std::span<const double> sample, double mean, double sd);

/// One-sample KS test against the sample's own fitted normal (Lilliefors
/// setting; p-value is the conservative asymptotic one, as R's ks.test
/// reports when parameters are supplied).
KsResult ksNormalTestFitted(std::span<const double> sample);

}  // namespace beesim::stats
