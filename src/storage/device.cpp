#include "storage/device.hpp"

#include <cmath>

#include "util/error.hpp"

namespace beesim::storage {

const char* HddRaidParams::invalidReason() const {
  if (disks <= 0) return "array needs at least one disk";
  if (parityDisks < 0 || parityDisks >= disks) {
    return "parity disks must leave at least one data disk";
  }
  if (!(std::isfinite(perDiskStream) && perDiskStream > 0.0)) {
    return "per-disk rate must be positive and finite";
  }
  if (!(writeEfficiency > 0.0 && writeEfficiency <= 1.0)) {
    return "write efficiency must be in (0, 1]";
  }
  if (!(cacheFraction >= 0.0 && cacheFraction <= 1.0)) return "cache fraction must be in [0, 1]";
  if (!(std::isfinite(cacheQHalf) && cacheQHalf >= 0.0)) return "cache qHalf must be >= 0";
  if (!(std::isfinite(streamQHalf) && streamQHalf >= 0.0)) return "stream qHalf must be >= 0";
  if (!(std::isfinite(streamExponent) && streamExponent >= 1.0)) {
    return "stream exponent must be >= 1";
  }
  return nullptr;
}

HddRaidModel::HddRaidModel(const HddRaidParams& params) : params_(params) {
  const char* invalid = params.invalidReason();
  BEESIM_ASSERT(invalid == nullptr, invalid);
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

EpochNoise::EpochNoise(double sigmaLog, util::Rng rng, util::Seconds epochLength)
    : sigmaLog_(sigmaLog), rng_(rng), epochLength_(epochLength) {
  BEESIM_ASSERT(sigmaLog >= 0.0, "sigmaLog must be >= 0");
  BEESIM_ASSERT(epochLength > 0.0, "epoch length must be positive");
}

double EpochNoise::factorAt(util::Seconds now) {
  if (sigmaLog_ == 0.0) return 1.0;
  const auto epoch = static_cast<std::int64_t>(std::floor(now / epochLength_));
  if (epoch != cachedEpoch_) {
    cachedEpoch_ = epoch;
    // Per-epoch child stream (odd names; epochs are non-negative in practice,
    // negatives wrap harmlessly).
    auto epochRng = rng_.splitNamed(static_cast<std::uint64_t>(epoch) * 2 + 1);
    cachedFactor_ = epochRng.logNormalMedian(1.0, sigmaLog_);
  }
  return cachedFactor_;
}

}  // namespace beesim::storage
