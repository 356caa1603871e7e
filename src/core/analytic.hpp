// Closed-form models of the paper's two illustrative figures.
//
// Fig. 3: N compute nodes access M storage servers through same-capacity
// links; the network bound is B * min(N, M).
//
// Fig. 9: writing a volume V over two targets, either both on one server
// ((0,2)) or one per server ((1,1)), with per-server link bandwidth B.  The
// balanced placement streams at 2B and finishes in half the time.
//
// The general form (used by the Scenario-1 shape checks): a write striped
// over allocation A is drained at the aggregate rate at which its hottest
// server can forward data, i.e. B * total / max_h A_h, capped by B * #used
// hosts.
#pragma once

#include <cstddef>
#include <vector>

#include "core/allocation.hpp"
#include "util/units.hpp"

namespace beesim::core {

/// Fig. 3: network-bound aggregate bandwidth of N client nodes against M
/// servers with per-link bandwidth B.
util::MiBps networkBound(std::size_t clientNodes, std::size_t servers, util::MiBps linkBandwidth);

/// Steady-state bandwidth of writing over `allocation` when each storage
/// host is reached through one link of `linkBandwidth` (Scenario 1; Fig. 9
/// generalized): linkBandwidth / hotHostFraction == linkBandwidth * total /
/// max_h.
util::MiBps networkLimitedBandwidth(const Allocation& allocation, util::MiBps linkBandwidth);

/// Fig. 9's time series: per-server instantaneous bandwidth over time for a
/// two-target write of `volume`, for both placements.  Each entry is a
/// (startTime, endTime, totalRate) segment.
struct RateSegment {
  util::Seconds begin = 0.0;
  util::Seconds end = 0.0;
  util::MiBps totalRate = 0.0;
};

std::vector<RateSegment> twoTargetTimeline(util::Bytes volume, bool balanced,
                                           util::MiBps linkBandwidth);

}  // namespace beesim::core
