// Stochastic performance variability of storage devices.
//
// The paper attributes the large Scenario-2 variance (sd +460% when going
// from 1 to 8 OSTs) to "performance variation of the storage devices",
// citing Cao et al. (FAST'17).  We model that as a multiplicative factor
// applied to a device's deterministic service rate, one factor per *epoch*
// (a configurable virtual-time window), so a long transfer sees a slowly
// wandering rate and two repetitions of an experiment see different device
// moods.
//
// Factors are pure functions of (device stream, epoch): each model derives a
// per-epoch child stream via Rng::splitNamed, so the factor at epoch E does
// not depend on how often (or in which order) the solver queried the device.
// This keeps runs bit-reproducible under the paper's randomized-block
// protocol, where runs are laid out at arbitrary virtual times.
//
// Provided models:
//   * NoVariability           -- factor 1 (deterministic runs, unit tests)
//   * LogNormalVariability    -- median-1 log-normal factor (heavy-ish tail)
//   * GaussianVariability     -- clamped normal around 1
//   * SlowPhaseVariability    -- degraded *episodes* spanning whole windows
//                                of epochs: background scrubbing, RAID
//                                rebuild, thermal throttling produce exactly
//                                such stretches of reduced throughput
#pragma once

#include <cstdint>
#include <limits>
#include <memory>

#include "storage/device.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace beesim::storage {

/// Yields one multiplicative performance factor per epoch.
class VariabilityModel {
 public:
  virtual ~VariabilityModel() = default;

  /// Factor for epoch `epoch`.  Must be > 0 and a pure function of
  /// (deviceStream, epoch).
  virtual double sampleFactor(const util::Rng& deviceStream, std::int64_t epoch) const = 0;

  virtual std::unique_ptr<VariabilityModel> clone() const = 0;
};

class NoVariability final : public VariabilityModel {
 public:
  double sampleFactor(const util::Rng&, std::int64_t) const override { return 1.0; }
  std::unique_ptr<VariabilityModel> clone() const override;
};

class LogNormalVariability final : public VariabilityModel {
 public:
  /// `sigmaLog`: standard deviation in log space (0.08 ~= +-8% typical).
  explicit LogNormalVariability(double sigmaLog);

  double sampleFactor(const util::Rng& deviceStream, std::int64_t epoch) const override;
  std::unique_ptr<VariabilityModel> clone() const override;

 private:
  double sigmaLog_;
};

class GaussianVariability final : public VariabilityModel {
 public:
  /// Normal(1, sigma) clamped to [floor, ceil].
  explicit GaussianVariability(double sigma, double floor = 0.2, double ceil = 1.5);

  double sampleFactor(const util::Rng& deviceStream, std::int64_t epoch) const override;
  std::unique_ptr<VariabilityModel> clone() const override;

 private:
  double sigma_;
  double floor_;
  double ceil_;
};

class SlowPhaseVariability final : public VariabilityModel {
 public:
  /// Episode model: time is divided into windows of `windowEpochs` epochs;
  /// each window is independently degraded with the stationary probability
  /// pEnter / (pEnter + pLeave) (the equilibrium of a two-state chain with
  /// those transition rates).  Degraded windows run at `slowFactor` (< 1);
  /// log-normal jitter `sigmaLog` applies in both states.
  SlowPhaseVariability(double pEnter, double pLeave, double slowFactor, double sigmaLog,
                       std::int64_t windowEpochs = 8);

  double sampleFactor(const util::Rng& deviceStream, std::int64_t epoch) const override;
  std::unique_ptr<VariabilityModel> clone() const override;

  double stationaryDegradedProbability() const;

 private:
  double pEnter_;
  double pLeave_;
  double slowFactor_;
  double sigmaLog_;
  std::int64_t windowEpochs_;
};

/// Couples a deterministic DeviceModel with a VariabilityModel and an Rng
/// stream; caches the factor of the most recent epoch so one epoch sees one
/// factor no matter how many solver passes query the device.
class NoisyDevice {
 public:
  NoisyDevice(std::shared_ptr<const DeviceModel> model,
              std::unique_ptr<VariabilityModel> variability, util::Rng rng,
              util::Seconds epochLength);

  /// Effective service rate at `now` for the given queue depth.
  util::MiBps currentRate(double queueDepth, util::Seconds now);

  /// The noise factor in effect at `now`.
  double factorAt(util::Seconds now);

  const DeviceModel& model() const { return *model_; }

 private:
  std::shared_ptr<const DeviceModel> model_;
  std::unique_ptr<VariabilityModel> variability_;
  util::Rng rng_;
  util::Seconds epochLength_;
  std::int64_t cachedEpoch_ = std::numeric_limits<std::int64_t>::min();
  double cachedFactor_ = 1.0;
};

}  // namespace beesim::storage
