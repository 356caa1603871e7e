// Concurrent-application experiments (Section IV-D).
//
// Several IOR applications run at once on one deployment, on disjoint node
// sets (as in the paper), each with its own stripe configuration or pinned
// allocation.  The aggregate bandwidth follows the paper's Equation 1:
//
//              sum_i vol_i
//   ------------------------------------
//   max_i(end_i)  -  min_i(start_i)
//
// runConcurrent is the only function that assembles a simulated system.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "beegfs/params.hpp"
#include "harness/run.hpp"
#include "ior/options.hpp"
#include "ior/runner.hpp"
#include "topology/cluster.hpp"

namespace beesim::harness {

/// One application of a concurrent experiment.
struct AppSpec {
  ior::IorJob job;
  ior::IorOptions ior;
  std::optional<std::vector<std::size_t>> pinnedTargets;
  /// Start offset relative to the experiment start (0 = simultaneous).
  /// Must be finite and >= 0.
  util::Seconds startOffset = 0.0;
  /// Per-application QoS reservation (rate/burst/SLO); unset apps fall back
  /// to base.qos's defaults.  Requires base.qos.enabled.
  std::optional<qos::QosAppSpec> qos;
};

struct ConcurrentResult {
  /// Per-application results, in AppSpec order.
  std::vector<ior::IorResult> apps;
  /// Paper Equation 1.
  util::MiBps aggregateBandwidth = 0.0;
  /// Number of distinct targets used by >= 2 applications.
  std::size_t sharedTargets = 0;
  /// Union of targets across applications.
  std::size_t distinctTargets = 0;
  beegfs::EnvironmentFactors environment;
  std::uint64_t seed = 0;
  /// What the controller did (zeroed unless base.rebalance.enabled).
  control::RebalanceStats rebalance;
  /// What the injector fired (zeroed unless base.faults is non-empty).
  faults::InjectorStats injected;
  /// What the monitor observed/did (zeroed unless base.health.enabled).
  control::HealthStats health;
  /// Experiment-wide hedging accounting (zeroed unless base.fs.hedge.enabled).
  beegfs::HedgeStats hedge;
  /// True when every application ran an mdtest metadata phase
  /// (base.mdtest set; phases contend on the shared MDTs).
  bool mdActive = false;
  /// Per-application metadata results, in AppSpec order (empty when
  /// !mdActive).
  std::vector<ior::MdtestResult> appMd;
  /// Experiment-wide metadata view (aggregateMdtest over appMd).
  ior::MdtestResult md;
  /// True when the QoS manager ran for this experiment.
  bool qosActive = false;
  /// Aggregated QoS accounting; sloViolations counts apps whose achieved
  /// bandwidth fell below sloTolerance * sloRate (zeroed when !qosActive).
  qos::QosStats qos;
  /// Mirroring accounting after the drain (zeroed unless base.fs.mirror).
  beegfs::MirrorStats mirror;
  /// Per-server traffic split over the Eq. 1 window (ObservabilityOptions).
  ior::RunUtilization util;
  TraceReport trace;
  std::size_t resolves = 0;
  std::size_t solverIterations = 0;
  double wallSeconds = 0.0;
  /// Host wall time inside the solver; stays 0 unless base.observe.profile.
  double solveSeconds = 0.0;
};

/// Run all applications concurrently on one deployment built from
/// `base.cluster`/`base.fs`/`base.noise` (base.job/base.ior/
/// base.pinnedTargets are ignored).  Node sets must be pairwise disjoint.
/// With >= 2 apps, app a's test file and mdtest dir get an ".app<a>"
/// suffix; a lone app keeps the configured names.  Deterministic given
/// (inputs, seed).
ConcurrentResult runConcurrent(const RunConfig& base, const std::vector<AppSpec>& apps,
                               std::uint64_t seed);

/// runConcurrent with the one app (config.job, config.ior, config.pinnedTargets).
ConcurrentResult runSingle(const RunConfig& config, std::uint64_t seed);

/// Move a one-app result into a RunRecord; its IorResult takes the
/// experiment's mirror, hedge and utilization accounting.
RunRecord projectRun(ConcurrentResult&& result);

/// Paper Equation 1 over per-app (start, end, bytes) triples.  A zero-length
/// window (every app had zero duration, e.g. all-zero-byte jobs) yields 0.
util::MiBps aggregateBandwidth(const std::vector<ior::IorResult>& apps);

/// The QoS SLO rule: an app violates its SLO when it moved bytes at less
/// than `tolerance` * sloRate(spec).  Zero-demand apps cannot violate.
bool violatesSlo(const ior::IorResult& app, const qos::QosAppSpec& spec, double tolerance);

}  // namespace beesim::harness
