// Storage device service models.
//
// A device model maps an effective queue depth (number of outstanding
// requests, possibly fractional in the fluid abstraction) to a service rate
// in MiB/s.  The RAID-array model uses a two-component saturating curve:
//
//   v(q) = peak * [ w * q/(q + qc)  +  (1-w) * q^e/(q^e + qs^e) ]
//
//   * The first term is the *controller/write-back cache* path: it absorbs
//     shallow queues almost immediately (qc ~ 1), which is why a single
//     compute node already extracts ~400 MiB/s per OST (paper Fig. 4b,
//     1 node ~1630 MiB/s over 4 OSTs).
//   * The second term is the *spindle streaming* path: RAID-6 full-stripe
//     writes and the elevator need a deep, re-orderable queue before all
//     data disks stream concurrently, so it ramps steeply (Hill exponent e)
//     around qs.
//
// The slow second component is what makes the paper's coupled observations
// emerge: more OSTs need more compute nodes to pay off (Fig. 11: stripe 8
// beats stripe 4 only from ~32 nodes), and concurrent applications that
// share OSTs push the shared targets deeper into their queue ramp, almost
// exactly compensating the unused spindles (Fig. 13's "sharing is
// harmless").  OST queue depth scales with client inflight / stripe count.
#pragma once

#include "util/units.hpp"

namespace beesim::storage {

/// Abstract deterministic service model (noise is layered separately, see
/// variability.hpp).
class DeviceModel {
 public:
  virtual ~DeviceModel() = default;

  /// Service rate at the given effective queue depth (>= 0).
  virtual util::MiBps serviceRate(double queueDepth) const = 0;

  /// Asymptotic streaming rate (queueDepth -> infinity).
  virtual util::MiBps peakRate() const = 0;
};

/// Parameters of a RAID array of rotating disks exposed as one target.
struct HddRaidParams {
  /// Total number of disks in the array.
  int disks = 12;
  /// Disks worth of parity (RAID-6 -> 2).
  int parityDisks = 2;
  /// Sequential streaming rate of one disk, MiB/s.
  util::MiBps perDiskStream = 200.0;
  /// Multiplicative efficiency of the RAID/write path (parity computation,
  /// stripe alignment, local file system overhead), in (0, 1].
  double writeEfficiency = 0.93;
  /// Fraction of the peak served by the controller/cache path (fast ramp).
  double cacheFraction = 0.28;
  /// Queue depth at which the cache path reaches half of its share.
  double cacheQHalf = 1.0;
  /// Queue depth at which the spindle-streaming path reaches half of its
  /// share.
  double streamQHalf = 33.0;
  /// Hill exponent of the streaming ramp (steepness of the transition from
  /// seek-bound to streaming behaviour).
  double streamExponent = 4.0;
};

/// RAID array of HDDs with a saturating concurrency ramp.
class HddRaidModel final : public DeviceModel {
 public:
  explicit HddRaidModel(const HddRaidParams& params);

  util::MiBps serviceRate(double queueDepth) const override;
  util::MiBps peakRate() const override { return peak_; }

  const HddRaidParams& params() const { return params_; }

 private:
  HddRaidParams params_;
  util::MiBps peak_;
};

/// Fixed-rate device (no ramp) -- useful for tests and analytic baselines.
class ConstantDeviceModel final : public DeviceModel {
 public:
  explicit ConstantDeviceModel(util::MiBps rate);

  util::MiBps serviceRate(double queueDepth) const override;
  util::MiBps peakRate() const override { return rate_; }

 private:
  util::MiBps rate_;
};

}  // namespace beesim::storage
