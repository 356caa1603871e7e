// Storage device service model and its performance variability.
//
// The device model maps an effective queue depth (number of outstanding
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
//
// Variability: the paper attributes the large Scenario-2 variance (sd +460%
// when going from 1 to 8 OSTs) to "performance variation of the storage
// devices", citing Cao et al. (FAST'17).  EpochNoise models that as a
// median-1 log-normal factor on a deterministic rate, one factor per *epoch*
// (a fixed virtual-time window), so a long transfer sees a slowly wandering
// rate and two repetitions of an experiment see different device moods.
// The factor of epoch E is drawn from a child stream derived with
// Rng::splitNamed, so it does not depend on how often (or in which order)
// the solver queried the device.  This keeps runs bit-reproducible under
// the paper's randomized-block protocol, where runs are laid out at
// arbitrary virtual times.
#pragma once

#include <cstdint>
#include <limits>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace beesim::storage {

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

  /// Why these values describe no array (e.g. "stream exponent must be
  /// >= 1"), or nullptr when they are valid.
  const char* invalidReason() const;
};

/// RAID array of HDDs with a saturating concurrency ramp.
class HddRaidModel {
 public:
  explicit HddRaidModel(const HddRaidParams& params);

  /// Service rate at the given effective queue depth (>= 0).
  util::MiBps serviceRate(double queueDepth) const;
  /// Asymptotic streaming rate (queueDepth -> infinity).
  util::MiBps peakRate() const { return peak_; }

  const HddRaidParams& params() const { return params_; }

 private:
  HddRaidParams params_;
  util::MiBps peak_;
};

/// Per-epoch median-1 log-normal performance factor of one device or link.
/// Caches the factor of the most recent epoch, so one epoch sees one factor
/// no matter how many solver passes query it.
class EpochNoise {
 public:
  /// `sigmaLog`: standard deviation in log space (0.08 ~= +-8% typical;
  /// 0 = no noise, the factor is exactly 1).
  EpochNoise(double sigmaLog, util::Rng rng, util::Seconds epochLength);

  /// The factor in effect at `now`.
  double factorAt(util::Seconds now);

 private:
  double sigmaLog_;
  util::Rng rng_;
  util::Seconds epochLength_;
  std::int64_t cachedEpoch_ = std::numeric_limits<std::int64_t>::min();
  double cachedFactor_ = 1.0;
};

/// A storage target's service: its HDD curve times its per-epoch noise.
struct NoisyDevice {
  HddRaidModel curve;
  EpochNoise noise;

  /// Effective service rate at `now` for the given queue depth.
  util::MiBps currentRate(double queueDepth, util::Seconds now) {
    return curve.serviceRate(queueDepth) * noise.factorAt(now);
  }
};

}  // namespace beesim::storage
