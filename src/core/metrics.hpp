// Shared scalar metrics derived from per-server load vectors.
//
// The link-imbalance index is the simulator's one-number summary of the
// paper's (min,max) balance story, and it is consumed in three places: the
// RateSampler's virtual-time metrics series, the harness' per-run utilization
// measurement and the CLI's traced-run summary table.  All three MUST agree
// -- a rebalancing controller keyed on the sampler's index would otherwise
// disagree with what campaigns report -- so the definition lives here, once.
//
// Header-only and dependency-free on purpose: the sim layer sits below core
// in the library graph and can include this without linking beesim_core.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

namespace beesim::core {

/// Link-imbalance index over per-link loads (rates, MiB, any same-unit
/// vector): max(load) / mean(load).  1 = perfectly balanced, N = everything
/// through one of N links, 0 = all links idle (sum <= 0).
///
/// This is the metrics series' definition (peak * N / sum), which
/// ext_utilization validated against the paper's Fig. 8 splits: 2.0 for a
/// (0,4) placement, 1.5 for (1,3), 1.0 for balanced.
inline double linkImbalance(std::span<const double> loads) {
  double sum = 0.0;
  double peak = 0.0;
  for (const double load : loads) {
    sum += load;
    peak = std::max(peak, load);
  }
  if (sum <= 0.0) return 0.0;
  return peak * static_cast<double>(loads.size()) / sum;
}

}  // namespace beesim::core
