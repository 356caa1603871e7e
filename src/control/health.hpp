// Gray-failure health monitor (DESIGN.md §2.9).
//
// Crash faults announce themselves through the registry; fail-slow servers
// do not.  A target serving at 5% of its rate stays online, never trips the
// client watchdog, and silently destroys the balance the paper shows
// dominates I/O performance.  This monitor closes the detection gap:
//
//   * sense -- a sim::RateSampler (attached through addObserver, so it
//     composes with run-level observability) samples every server NIC's
//     rate every 0.25 s of virtual time; per server the monitor keeps an
//     EWMA (alpha 0.3) of the observed rate;
//   * score -- each *busy* server is compared against the median EWMA of its
//     busy peers.  A server below `suspectRatio` x peer-median is suspect.
//     The score is peer-relative on purpose: a whole-cluster slowdown (noise
//     epoch, shared-network congestion) moves the median with it and
//     false-positives nothing;
//   * act -- a suspect that stays below the ratio for `suspectPatience`
//     seconds is quarantined: its registry HostHealth flips (mgmt.hpp), its
//     create weight drops to a 0.05 drain through the WeightedChooser path
//     (new files avoid it) and the hedging picker shuns it as a destination.
//     After `probationDelay` the host enters probation at weight 0.5; one
//     clean second re-admits it, a relapse re-quarantines it.
//
// The monitor draws no randomness and acts only on rate history, so runs
// with identical histories take identical actions -- campaigns stay
// `--jobs`-invariant and disabled runs bitwise-identical (nothing is even
// constructed when HealthPolicy::enabled is false).
#pragma once

#include <cstddef>
#include <vector>

#include "beegfs/filesystem.hpp"
#include "sim/trace.hpp"
#include "util/units.hpp"

namespace beesim::control {

/// Tuning knobs of the monitor (CLI: --suspect-*).
struct HealthPolicy {
  /// Master switch; when false the harness does not construct the monitor.
  bool enabled = false;
  /// A busy server running below this fraction of its busy peers' median
  /// EWMA is suspect (must be in (0, 1)).
  double suspectRatio = 0.5;
  /// Seconds a server must stay suspect before it is quarantined.
  util::Seconds suspectPatience = 1.0;
  /// Quarantine dwell time before the probation probe re-admits traffic.
  util::Seconds probationDelay = 5.0;
};

/// What the monitor observed/did during a run (exported as gray_* columns).
struct HealthStats {
  std::size_t samples = 0;       ///< grid points while armed, idle prefix included
  std::size_t suspects = 0;      ///< healthy -> suspect transitions
  std::size_t quarantines = 0;   ///< suspect -> quarantined transitions
  std::size_t probations = 0;    ///< quarantined -> probation transitions
  std::size_t readmissions = 0;  ///< probation -> healthy transitions
  std::size_t relapses = 0;      ///< probation -> quarantined transitions

  bool operator==(const HealthStats&) const = default;
};

class HealthMonitor {
 public:
  /// Attaches a RateSampler over every server NIC and wraps the
  /// filesystem's chooser in a WeightedChooser (invisible until a drain
  /// skews the weights).  `policy.enabled` must be true.
  HealthMonitor(beegfs::FileSystem& fs, const HealthPolicy& policy);

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Samples include the idle prefix the sampler only counts (no-op samples).
  HealthStats stats() const {
    HealthStats stats = stats_;
    stats.samples += sampler_.idleSamples();
    return stats;
  }

  /// Stop reacting to samples and restore uniform weights; the registry
  /// keeps the final health verdicts for post-run inspection.  Called when
  /// the foreground job completes so migration/resync tails cannot trip the
  /// detector against their own traffic; the sampler detaches.
  void disarm();

 private:
  struct HostState {
    beegfs::HostHealth health = beegfs::HostHealth::kHealthy;
    double ewma = -1.0;             ///< -1 = no sample banked yet
    util::Seconds belowSince = -1.0;   ///< start of the current below streak
    util::Seconds cleanSince = -1.0;   ///< start of the current probation streak
    std::uint64_t probationEpoch = 0;  ///< guards stale probation timers
  };

  void onSample(const sim::MetricsSample& sample);
  void quarantine(std::size_t host, util::Seconds now);
  void enterProbation(std::size_t host, std::uint64_t epoch);
  void readmit(std::size_t host);

  beegfs::FileSystem& fs_;
  HealthPolicy policy_;
  sim::RateSampler sampler_;
  HealthStats stats_;
  std::vector<HostState> hosts_;
  bool disarmed_ = false;
};

}  // namespace beesim::control
