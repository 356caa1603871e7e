// Descriptive statistics: the numbers the paper's figures are built from
// (means for the dotted lines, min/max shading, box-plot quartiles and
// whiskers for Figs. 8/10).
#pragma once

#include <span>
#include <string>
#include <vector>

namespace beesim::stats {

struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  /// Sample standard deviation (n-1 denominator); 0 for n < 2.
  double sd = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// Quartiles are linear-interpolated (R type-7, numpy's default).
  double median = 0.0;
  double q1 = 0.0;  // 25th percentile
  double q3 = 0.0;  // 75th percentile

  /// Coefficient of variation (sd / mean); 0 when mean == 0.
  double cv() const { return mean != 0.0 ? sd / mean : 0.0; }

  std::string describe(int decimals = 1) const;
};

/// Compute a summary.  Precondition: values non-empty.
Summary summarize(std::span<const double> values);

/// Jain's fairness index: (Σx)² / (n·Σx²).  1 = perfectly fair, 1/n = one
/// user takes everything.  Precondition: values non-empty, all >= 0.  An
/// all-zero vector is "equally nothing" and yields 1.
double jainIndex(std::span<const double> values);

/// Tukey box-plot statistics: quartiles plus whiskers at the most extreme
/// points within 1.5*IQR, and the outliers beyond them.
struct BoxPlot {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double whiskerLow = 0.0;
  double whiskerHigh = 0.0;
  std::vector<double> outliers;
};

BoxPlot boxPlot(std::span<const double> values);

}  // namespace beesim::stats
