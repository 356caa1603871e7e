#include "storage/device.hpp"

#include <cmath>

#include "util/error.hpp"

namespace beesim::storage {

HddRaidModel::HddRaidModel(const HddRaidParams& params) : params_(params) {
  BEESIM_ASSERT(params.disks > 0, "array needs at least one disk");
  BEESIM_ASSERT(params.parityDisks >= 0 && params.parityDisks < params.disks,
                "parity disks must leave at least one data disk");
  BEESIM_ASSERT(params.perDiskStream > 0.0, "per-disk rate must be positive");
  BEESIM_ASSERT(params.writeEfficiency > 0.0 && params.writeEfficiency <= 1.0,
                "write efficiency must be in (0, 1]");
  BEESIM_ASSERT(params.cacheFraction >= 0.0 && params.cacheFraction <= 1.0,
                "cache fraction must be in [0, 1]");
  BEESIM_ASSERT(params.cacheQHalf >= 0.0, "cache qHalf must be >= 0");
  BEESIM_ASSERT(params.streamQHalf >= 0.0, "stream qHalf must be >= 0");
  BEESIM_ASSERT(params.streamExponent >= 1.0, "stream exponent must be >= 1");
  const int dataDisks = params.disks - params.parityDisks;
  peak_ = dataDisks * params.perDiskStream * params.writeEfficiency;
}

util::MiBps HddRaidModel::serviceRate(double queueDepth) const {
  BEESIM_ASSERT(queueDepth >= 0.0, "queue depth must be >= 0");
  if (queueDepth <= 0.0) return 0.0;
  // Controller/cache path: ordinary saturating ramp, half share at cacheQHalf.
  const double cache =
      params_.cacheQHalf <= 0.0 ? 1.0 : queueDepth / (queueDepth + params_.cacheQHalf);
  // Spindle streaming path: steep Hill ramp, half share at streamQHalf.
  const double qe = std::pow(queueDepth, params_.streamExponent);
  const double sqe = std::pow(params_.streamQHalf, params_.streamExponent);
  const double stream = sqe <= 0.0 ? 1.0 : qe / (qe + sqe);
  return peak_ * (params_.cacheFraction * cache + (1.0 - params_.cacheFraction) * stream);
}

ConstantDeviceModel::ConstantDeviceModel(util::MiBps rate) : rate_(rate) {
  BEESIM_ASSERT(rate >= 0.0, "rate must be >= 0");
}

util::MiBps ConstantDeviceModel::serviceRate(double queueDepth) const {
  return queueDepth > 0.0 ? rate_ : 0.0;
}

}  // namespace beesim::storage
