#include "storage/variability.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace beesim::storage {

namespace {

/// Per-epoch child stream of a device stream.  Epochs are non-negative in
/// practice (virtual time starts at 0), but tolerate negatives defensively.
util::Rng epochStream(const util::Rng& deviceStream, std::int64_t epoch) {
  return deviceStream.splitNamed(static_cast<std::uint64_t>(epoch) * 2 + 1);
}

}  // namespace

std::unique_ptr<VariabilityModel> NoVariability::clone() const {
  return std::make_unique<NoVariability>();
}

LogNormalVariability::LogNormalVariability(double sigmaLog) : sigmaLog_(sigmaLog) {
  BEESIM_ASSERT(sigmaLog >= 0.0, "sigmaLog must be >= 0");
}

double LogNormalVariability::sampleFactor(const util::Rng& deviceStream,
                                          std::int64_t epoch) const {
  auto rng = epochStream(deviceStream, epoch);
  return rng.logNormalMedian(1.0, sigmaLog_);
}

std::unique_ptr<VariabilityModel> LogNormalVariability::clone() const {
  return std::make_unique<LogNormalVariability>(sigmaLog_);
}

GaussianVariability::GaussianVariability(double sigma, double floor, double ceil)
    : sigma_(sigma), floor_(floor), ceil_(ceil) {
  BEESIM_ASSERT(sigma >= 0.0, "sigma must be >= 0");
  BEESIM_ASSERT(floor > 0.0 && floor <= ceil, "need 0 < floor <= ceil");
}

double GaussianVariability::sampleFactor(const util::Rng& deviceStream,
                                         std::int64_t epoch) const {
  auto rng = epochStream(deviceStream, epoch);
  return std::clamp(rng.normal(1.0, sigma_), floor_, ceil_);
}

std::unique_ptr<VariabilityModel> GaussianVariability::clone() const {
  return std::make_unique<GaussianVariability>(sigma_, floor_, ceil_);
}

SlowPhaseVariability::SlowPhaseVariability(double pEnter, double pLeave, double slowFactor,
                                           double sigmaLog, std::int64_t windowEpochs)
    : pEnter_(pEnter),
      pLeave_(pLeave),
      slowFactor_(slowFactor),
      sigmaLog_(sigmaLog),
      windowEpochs_(windowEpochs) {
  BEESIM_ASSERT(pEnter >= 0.0 && pEnter <= 1.0, "pEnter must be a probability");
  BEESIM_ASSERT(pLeave >= 0.0 && pLeave <= 1.0, "pLeave must be a probability");
  BEESIM_ASSERT(pEnter + pLeave > 0.0, "pEnter + pLeave must be positive");
  BEESIM_ASSERT(slowFactor > 0.0 && slowFactor <= 1.0, "slowFactor must be in (0, 1]");
  BEESIM_ASSERT(sigmaLog >= 0.0, "sigmaLog must be >= 0");
  BEESIM_ASSERT(windowEpochs >= 1, "window must span at least one epoch");
}

double SlowPhaseVariability::stationaryDegradedProbability() const {
  return pEnter_ / (pEnter_ + pLeave_);
}

double SlowPhaseVariability::sampleFactor(const util::Rng& deviceStream,
                                          std::int64_t epoch) const {
  // One state draw per *window* (same for all epochs inside it), plus a
  // per-epoch jitter draw.
  const std::int64_t window =
      epoch >= 0 ? epoch / windowEpochs_ : (epoch - windowEpochs_ + 1) / windowEpochs_;
  auto windowRng = deviceStream.splitNamed(static_cast<std::uint64_t>(window) * 2);
  const bool degraded = windowRng.bernoulli(stationaryDegradedProbability());

  auto rng = epochStream(deviceStream, epoch);
  const double base = degraded ? slowFactor_ : 1.0;
  return base * rng.logNormalMedian(1.0, sigmaLog_);
}

std::unique_ptr<VariabilityModel> SlowPhaseVariability::clone() const {
  return std::make_unique<SlowPhaseVariability>(pEnter_, pLeave_, slowFactor_, sigmaLog_,
                                                windowEpochs_);
}

NoisyDevice::NoisyDevice(std::shared_ptr<const DeviceModel> model,
                         std::unique_ptr<VariabilityModel> variability, util::Rng rng,
                         util::Seconds epochLength)
    : model_(std::move(model)),
      variability_(std::move(variability)),
      rng_(rng),
      epochLength_(epochLength) {
  BEESIM_ASSERT(model_ != nullptr, "NoisyDevice needs a device model");
  BEESIM_ASSERT(variability_ != nullptr, "NoisyDevice needs a variability model");
  BEESIM_ASSERT(epochLength_ > 0.0, "epoch length must be positive");
}

double NoisyDevice::factorAt(util::Seconds now) {
  const auto epoch = static_cast<std::int64_t>(std::floor(now / epochLength_));
  if (epoch != cachedEpoch_) {
    cachedEpoch_ = epoch;
    cachedFactor_ = variability_->sampleFactor(rng_, epoch);
    BEESIM_ASSERT(cachedFactor_ > 0.0, "variability factor must be positive");
  }
  return cachedFactor_;
}

util::MiBps NoisyDevice::currentRate(double queueDepth, util::Seconds now) {
  return model_->serviceRate(queueDepth) * factorAt(now);
}

}  // namespace beesim::storage
