// Fault schedules: timed failure/recovery events executed in virtual time.
//
// A FaultSchedule is a list of events relative to a run's start -- storage
// targets going offline and coming back, whole-OSS crashes, links degrading
// to a fraction of their capacity.  Schedules are either written explicitly
// (parseSchedule's compact grammar, used by the CLI and benches) or drawn
// from a stochastic MTTF/MTTR renewal process (generateSchedule), always from
// an Rng split off the campaign stream so runs stay deterministic per seed.
// The FaultInjector (injector.hpp) executes a schedule against a Deployment.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace beesim::faults {

enum class FaultKind {
  kTargetFail,    // one OST goes offline (registry + capacity -> 0)
  kTargetRecover, // it comes back healthy
  kHostFail,      // a whole OSS crashes: its link and every OST on it
  kHostRecover,   // the OSS reboots: link and all its OSTs healthy again
  kLinkDegrade,   // a server link drops to `fraction` of capacity (1 = repaired)
  kTargetDegrade, // fail-slow: one OST serves at `fraction` of its rate while
                  // staying registered online (1 = repaired)
};

struct FaultEvent {
  /// Virtual time relative to the run's start.
  util::Seconds at = 0.0;
  FaultKind kind = FaultKind::kTargetFail;
  /// Flat target index (kTarget*) or storage-host index (kHost*, kLinkDegrade).
  std::size_t index = 0;
  /// kLinkDegrade / kTargetDegrade only: capacity multiplier in [0, 1].
  /// 0 is legal and models the gray-failure extreme -- a dead-but-online
  /// resource the crash-fault watchdog can never see because the registry
  /// still reports the target online.  Such chunks only terminate through
  /// hedging (HedgePolicy) or a later repair event; schedules that drive a
  /// resource to 0 without either will stall the run.
  double fraction = 1.0;
};

struct FaultSchedule {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }

  /// True if any event can strand in-flight chunks (target/host failures).
  /// Such schedules require a ClientFaultPolicy mode other than kNone.
  bool hasFailures() const;

  /// Sort events by time and validate them against a deployment size (index
  /// bounds, degrade fractions in [0, 1], non-negative times).  Simultaneous
  /// events are ordered by a deterministic tie-break independent of input
  /// order: recoveries first, then degrades, then failures (so a fail and a
  /// recover of the same resource at the same instant net out to *failed*),
  /// then ascending index, then ascending fraction.  Throws
  /// util::ConfigError on invalid events.
  void normalize(std::size_t targetCount, std::size_t hostCount);

  /// Drop every event outside the half-open window [0, horizon): an event at
  /// exactly t == horizon is excluded, failures and recoveries alike.  This
  /// is the contract generateSchedule enforces on its output.
  void clampToHorizon(util::Seconds horizon);
};

/// Stochastic fault generator: each target/host alternates up and down with
/// exponential sojourn times (mean MTTF up, mean MTTR down), the classic
/// renewal availability model.  A mean of 0 disables that failure class.
struct StochasticFaultSpec {
  util::Seconds targetMttf = 0.0;
  util::Seconds targetMttr = 0.0;
  util::Seconds hostMttf = 0.0;
  util::Seconds hostMttr = 0.0;
  /// Fail-slow (gray) episodes: each target alternates healthy/degraded with
  /// these means; a degrade onset carries a service-rate multiplier drawn
  /// uniformly from [0, degradeCeiling] (deterministically from the
  /// campaign rng stream), the matching recovery restores fraction 1.
  util::Seconds degradeMttf = 0.0;
  util::Seconds degradeMttr = 0.0;
  /// Link stutters: same renewal shape per host link (kLinkDegrade events
  /// with a drawn fraction, repaired back to 1).
  util::Seconds linkStutterMttf = 0.0;
  util::Seconds linkStutterMttr = 0.0;
  /// Worst-case (largest) drawn degrade/stutter multiplier, in [0, 1].  The
  /// draw's floor is 0 (dead-but-online, see FaultEvent::fraction).
  double degradeCeiling = 0.25;
  /// Events are generated in the half-open window [0, horizon): an event
  /// landing exactly on the horizon is dropped, failures and recoveries
  /// alike (FaultSchedule::clampToHorizon documents and enforces this).
  util::Seconds horizon = 0.0;
};

/// Draw a schedule from `spec` for a deployment with `targetCount` targets
/// and `hostCount` hosts.  Deterministic given the rng state; the result is
/// already normalized.
FaultSchedule generateSchedule(const StochasticFaultSpec& spec, std::size_t targetCount,
                               std::size_t hostCount, util::Rng& rng);

/// Parse a compact schedule, events separated by ';' or ','.  Grammar:
///
///   off:t3@30        target 3 fails at t=30s
///   on:t3@90         target 3 recovers at t=90s
///   off:h1@60        host (OSS) 1 crashes at t=60s
///   on:h1@120        host 1 reboots
///   link:h0@40=0.5   host 0's link drops to 50% capacity at t=40s
///   link:h0@80=1     ... and is repaired at t=80s
///   slow:t3@30=0.1   target 3 fail-slows to 10% service rate at t=30s
///   slow:t3@90=1     ... and recovers at t=90s
///
/// Degrade fractions may be 0 (dead-but-online; see FaultEvent::fraction).
///
/// Whitespace around tokens is ignored.  Throws util::ConfigError on syntax
/// errors.  Bounds are checked later by FaultSchedule::normalize.
FaultSchedule parseSchedule(const std::string& text);

/// A run's complete fault configuration: explicit events plus an optional
/// stochastic generator whose events get appended (from a dedicated rng
/// split) before the run starts.
struct FaultPlan {
  FaultSchedule schedule;
  std::optional<StochasticFaultSpec> stochastic;

  bool empty() const { return schedule.empty() && !stochastic.has_value(); }
};

}  // namespace beesim::faults
