// Single-experiment execution: one IOR run on a freshly booted simulated
// system, under sampled environment noise.
//
// Each repetition builds its own FluidSimulator + Deployment + FileSystem so
// no state leaks between runs -- the simulated analogue of the paper's
// protocol choice to avoid warm-up and caching effects (Section III-B/C).
// A run is the one-application case of runConcurrent (concurrent.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "beegfs/params.hpp"
#include "control/health.hpp"
#include "control/rebalance.hpp"
#include "faults/injector.hpp"
#include "faults/schedule.hpp"
#include "ior/mdtest.hpp"
#include "ior/options.hpp"
#include "ior/runner.hpp"
#include "qos/manager.hpp"
#include "sim/trace.hpp"
#include "topology/cluster.hpp"

namespace beesim::harness {

/// Per-run environment noise: the "mood" of the production system, sampled
/// once per repetition as log-normal factors on network links and storage
/// devices.
struct NoiseSpec {
  double networkSigmaLog = 0.015;
  double storageSigmaLog = 0.04;
};

/// Per-run observability.  Everything defaults off: a run with the defaults
/// attaches no observer and the solver never reads the host clock (campaign
/// CSVs keep their exact legacy bytes).  Observers only read events, so an
/// observed run is bitwise identical to the unobserved one.
struct ObservabilityOptions {
  /// Fill IorResult::util with the measured per-server traffic split.
  bool utilization = false;
  /// Measure solver wall time (FluidSimulator::setProfiling).
  bool profile = false;
  /// Exports written after the drain (empty = none): the flow event log as
  /// JSONL and as Chrome-trace JSON, and the metrics series (server NICs and
  /// MDTs as tracked links) as CSV.  Every export except a ring-format event
  /// log alone attaches a FlowTracer, which also fills IorResult::util.
  std::string traceJsonl;
  std::string traceChrome;
  std::string metricsCsv;
  /// 0 keeps the exact event log of the FlowTracer; N keeps the newest N
  /// records in a bounded RingTraceSink (40 bytes each) instead.
  std::size_t ringCapacity = 0;
  /// Metrics-series sampling interval (virtual seconds).
  util::Seconds metricsDt = 0.1;
};

/// What a run's exports wrote (empty unless an export was requested).
struct TraceReport {
  std::size_t events = 0;    ///< event-log records held
  std::uint64_t dropped = 0; ///< ring records lost to wrap-around
  std::size_t samples = 0;   ///< metrics-series samples
  /// Per-resource traffic, in resource-index order (FlowTracer only).
  std::vector<sim::ResourceUsage> usage;
};

/// Everything needed to execute one benchmark run.
struct RunConfig {
  topo::ClusterConfig cluster;
  beegfs::BeegfsParams fs;
  ior::IorJob job;
  ior::IorOptions ior;
  /// Bypass the target chooser with an explicit allocation (N-1 only).
  std::optional<std::vector<std::size_t>> pinnedTargets;
  NoiseSpec noise;
  /// Virtual system time at which the run starts (the protocol spaces runs
  /// out in time so device-noise epochs differ; see protocol.hpp).
  util::Seconds startAt = 0.0;
  /// Mid-run fault injection: explicit events (relative to startAt) and/or a
  /// stochastic MTTF/MTTR generator.  An empty plan leaves the run bitwise
  /// identical to pre-fault-model builds (no extra rng splits, no watchdogs).
  /// Schedules with target/host failures require fs.faults.mode != kNone.
  faults::FaultPlan faults;
  /// Run-level observability (utilization, profiling, trace exports).
  ObservabilityOptions observe;
  /// Closed-loop rebalancing (DESIGN.md §2.6).  Disabled by default: the
  /// controller is then never constructed and the run stays bitwise
  /// identical to pre-controller builds.
  control::RebalancePolicy rebalance;
  /// Gray-failure detection (DESIGN.md §2.9).  Disabled by default: the
  /// monitor is then never constructed and the run stays bitwise identical
  /// to pre-monitor builds.
  control::HealthPolicy health;
  /// Multi-tenant QoS (DESIGN.md §2.8).  Disabled by default: the manager is
  /// then never constructed and the run stays bitwise identical to
  /// pre-QoS builds.  Each application (for runOnce, the whole job) is
  /// registered with its AppSpec::qos, else at qos.rate/qos.burst.
  qos::QosPolicy qos;
  /// mdtest-style metadata phase appended after the IOR job completes (the
  /// IO500's bw-then-md shape; DESIGN.md §2.10).  Requires the queued
  /// metadata model (fs.meta.queued).  Unset leaves the run bitwise
  /// identical to md-free builds.
  std::optional<ior::MdtestOptions> mdtest;
  /// Inert (runConcurrent rejects nonzero); the next benchmark change removes it.
  double solverEpsilon = 0.0;
};

/// One run's record: the one-application ConcurrentResult projected onto
/// the app's IorResult plus the experiment's counters (concurrent.hpp).
/// Which features ran is a property of the RunConfig (features(),
/// campaign.hpp).
struct RunRecord {
  ior::IorResult ior;
  beegfs::EnvironmentFactors environment;
  std::uint64_t seed = 0;
  /// What the injector fired (zeroed unless the config armed a fault plan).
  faults::InjectorStats injected;
  /// What the controller did (zeroed unless config.rebalance.enabled).
  control::RebalanceStats rebalance;
  /// What the monitor observed/did (zeroed unless config.health.enabled).
  control::HealthStats health;
  /// True when an mdtest metadata phase ran (config.mdtest set).
  bool mdActive = false;
  /// What the metadata phase measured (zeroed when !mdActive).
  ior::MdtestResult md;
  /// True when the QoS manager ran (config.qos.enabled).
  bool qosActive = false;
  /// What the QoS layer did (zeroed when !qosActive).
  qos::QosStats qos;
  /// Solver work done by this run (counted whether or not profiled).
  std::size_t resolves = 0;
  std::size_t solverIterations = 0;
  /// Inert (always 0) for campaign_bench; the next benchmark change removes it.
  std::size_t deferredResolves = 0;
  /// Host wall-clock cost of the run; solveSeconds stays 0 unless
  /// observe.profile is on (the solver never reads the clock otherwise).
  double wallSeconds = 0.0;
  double solveSeconds = 0.0;
  TraceReport trace;
};

/// Execute one run to completion: projectRun(runSingle(config, seed))
/// (concurrent.hpp).  Deterministic given (config, seed).
RunRecord runOnce(const RunConfig& config, std::uint64_t seed);

}  // namespace beesim::harness
