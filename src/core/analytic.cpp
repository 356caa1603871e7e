#include "core/analytic.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace beesim::core {

util::MiBps networkBound(std::size_t clientNodes, std::size_t servers,
                         util::MiBps linkBandwidth) {
  BEESIM_ASSERT(clientNodes >= 1 && servers >= 1, "need at least one node and one server");
  BEESIM_ASSERT(linkBandwidth > 0.0, "link bandwidth must be positive");
  return linkBandwidth * static_cast<double>(std::min(clientNodes, servers));
}

util::MiBps networkLimitedBandwidth(const Allocation& allocation, util::MiBps linkBandwidth) {
  BEESIM_ASSERT(linkBandwidth > 0.0, "link bandwidth must be positive");
  // Data is spread evenly over targets (contiguous striping), so host h
  // carries fraction A_h / total; the run ends when the hottest host drains
  // its share through its link.
  return linkBandwidth / allocation.hotHostFraction();
}

std::vector<RateSegment> twoTargetTimeline(util::Bytes volume, bool balanced,
                                           util::MiBps linkBandwidth) {
  BEESIM_ASSERT(volume > 0, "volume must be positive");
  BEESIM_ASSERT(linkBandwidth > 0.0, "link bandwidth must be positive");
  const double volumeMiB = util::toMiB(volume);
  std::vector<RateSegment> timeline;
  if (balanced) {
    // (1,1): both servers stream at B until V/2 each is written.
    timeline.push_back(RateSegment{0.0, volumeMiB / (2.0 * linkBandwidth),
                                   2.0 * linkBandwidth});
  } else {
    // (0,2): one server's link carries everything.
    timeline.push_back(RateSegment{0.0, volumeMiB / linkBandwidth, linkBandwidth});
  }
  return timeline;
}

}  // namespace beesim::core
