#include "stats/ks.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats/special.hpp"
#include "stats/summary.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace beesim::stats {

std::string KsResult::describe() const {
  return "D=" + util::fmt(statistic, 4) + " p=" + util::fmt(pValue, 4);
}

KsResult ksNormalTest(std::span<const double> sample, double mean, double sd) {
  BEESIM_ASSERT(!sample.empty(), "KS test of empty sample");
  BEESIM_ASSERT(sd > 0.0, "KS reference sd must be > 0");
  std::vector<double> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  const auto n = static_cast<double>(sorted.size());

  double d = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const double cdf = normalCdf((sorted[i] - mean) / sd);
    const double empiricalHigh = static_cast<double>(i + 1) / n;
    const double empiricalLow = static_cast<double>(i) / n;
    d = std::max({d, std::fabs(empiricalHigh - cdf), std::fabs(cdf - empiricalLow)});
  }

  KsResult result;
  result.statistic = d;
  const double sqrtN = std::sqrt(n);
  result.pValue = kolmogorovQ((sqrtN + 0.12 + 0.11 / sqrtN) * d);
  return result;
}

KsResult ksNormalTestFitted(std::span<const double> sample) {
  const auto s = summarize(sample);
  BEESIM_ASSERT(s.sd > 0.0, "fitted KS test needs non-degenerate sample");
  return ksNormalTest(sample, s.mean, s.sd);
}

}  // namespace beesim::stats
