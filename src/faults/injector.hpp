// FaultInjector: executes a FaultSchedule against one live Deployment.
//
// Each event is scheduled in the deployment's event engine at run start and,
// when it fires, flips the management registry's online state and drives the
// affected capacities to their new values (via the Deployment health hooks +
// FluidSimulator::invalidateCapacities so in-flight flows re-solve at the
// fault instant).  The injector holds no randomness -- stochastic schedules
// are materialized beforehand (generateSchedule) so parallel campaign
// executors stay row-identical to serial ones.
#pragma once

#include "beegfs/deployment.hpp"
#include "faults/schedule.hpp"

namespace beesim::faults {

/// What the injector actually fired (diagnostics / campaign columns).
struct InjectorStats {
  std::size_t targetFailures = 0;
  std::size_t targetRecoveries = 0;
  std::size_t hostFailures = 0;
  std::size_t hostRecoveries = 0;
  std::size_t linkDegradations = 0;
  std::size_t targetDegradations = 0;

  std::size_t total() const {
    return targetFailures + targetRecoveries + hostFailures + hostRecoveries +
           linkDegradations + targetDegradations;
  }

  bool operator==(const InjectorStats&) const = default;
};

class FaultInjector {
 public:
  /// The schedule must already be normalized against this deployment's
  /// target/host counts (normalize() is re-run defensively).  The injector
  /// must outlive the simulation run.
  FaultInjector(beegfs::Deployment& deployment, FaultSchedule schedule);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedule every event at absolute time `origin` + event.at.  Call before
  /// the run (events in the past are invalid).  Arm before launching jobs:
  /// the engine's FIFO tie-break then guarantees a t=0 fault is applied
  /// before the job's first metadata operation.
  void arm(util::Seconds origin = 0.0);

  const InjectorStats& stats() const { return stats_; }

 private:
  void apply(const FaultEvent& event);
  /// Recompute one target's registry state and health from its outstanding
  /// causes: offline while its own failure *or* its host's crash is
  /// outstanding; otherwise online at its current degrade fraction.
  void applyTargetState(std::size_t target);
  /// Recompute one host link's health: 0 while the host crash is
  /// outstanding, else the current link-degrade fraction.
  void applyLinkState(std::size_t host);

  beegfs::Deployment& deployment_;
  FaultSchedule schedule_;
  InjectorStats stats_;
  // Per-resource outage causes.  A recovery clears only its own cause: a
  // host reboot must not revive a target that failed independently, nor
  // repair a link that was degraded by its own event (the PR 3 injector
  // clobbered both).
  std::vector<bool> targetFailed_;
  std::vector<bool> hostFailed_;
  std::vector<double> targetDegrade_;
  std::vector<double> linkDegrade_;
};

}  // namespace beesim::faults
