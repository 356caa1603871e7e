#include "stats/summary.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/table.hpp"

namespace beesim::stats {

namespace {

/// Linear-interpolated quantile (R type-7, matching numpy/pandas defaults)
/// over an already-sorted sample.  summarize/boxPlot need three quantiles
/// each and sort once for all of them.
double quantileSorted(std::span<const double> sorted, double q) {
  if (sorted.size() == 1) return sorted.front();
  const double h = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = h - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

std::vector<double> sortedCopy(std::span<const double> values) {
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace

double jainIndex(std::span<const double> values) {
  BEESIM_ASSERT(!values.empty(), "Jain index of empty sample");
  double sum = 0.0;
  double sumSq = 0.0;
  for (const double x : values) {
    BEESIM_ASSERT(x >= 0.0, "Jain index needs non-negative allocations");
    sum += x;
    sumSq += x * x;
  }
  if (sumSq == 0.0) return 1.0;  // everyone got (equally) nothing
  return sum * sum / (static_cast<double>(values.size()) * sumSq);
}

Summary summarize(std::span<const double> values) {
  BEESIM_ASSERT(!values.empty(), "summary of empty sample");
  Summary s;
  s.n = values.size();
  double sum = 0.0;
  for (const double v : values) sum += v;
  s.mean = sum / static_cast<double>(s.n);
  if (s.n >= 2) {
    double ss = 0.0;
    for (const double v : values) ss += (v - s.mean) * (v - s.mean);
    s.sd = std::sqrt(ss / static_cast<double>(s.n - 1));
  }
  const auto sorted = sortedCopy(values);
  s.min = sorted.front();
  s.max = sorted.back();
  s.median = quantileSorted(sorted, 0.5);
  s.q1 = quantileSorted(sorted, 0.25);
  s.q3 = quantileSorted(sorted, 0.75);
  return s;
}

std::string Summary::describe(int decimals) const {
  return "n=" + std::to_string(n) + " mean=" + util::fmt(mean, decimals) +
         " sd=" + util::fmt(sd, decimals) + " min=" + util::fmt(min, decimals) +
         " q1=" + util::fmt(q1, decimals) + " med=" + util::fmt(median, decimals) +
         " q3=" + util::fmt(q3, decimals) + " max=" + util::fmt(max, decimals);
}

BoxPlot boxPlot(std::span<const double> values) {
  BEESIM_ASSERT(!values.empty(), "box plot of empty sample");
  BoxPlot box;
  const auto sorted = sortedCopy(values);
  box.q1 = quantileSorted(sorted, 0.25);
  box.median = quantileSorted(sorted, 0.5);
  box.q3 = quantileSorted(sorted, 0.75);
  const double iqr = box.q3 - box.q1;
  const double lowFence = box.q1 - 1.5 * iqr;
  const double highFence = box.q3 + 1.5 * iqr;

  box.whiskerLow = box.q1;
  box.whiskerHigh = box.q3;
  bool any = false;
  for (const double v : sorted) {
    if (v >= lowFence && v <= highFence) {
      if (!any) {
        box.whiskerLow = box.whiskerHigh = v;
        any = true;
      } else {
        box.whiskerLow = std::min(box.whiskerLow, v);
        box.whiskerHigh = std::max(box.whiskerHigh, v);
      }
    } else {
      box.outliers.push_back(v);  // already in ascending order
    }
  }
  return box;
}

}  // namespace beesim::stats
