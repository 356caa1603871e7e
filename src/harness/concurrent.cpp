#include "harness/concurrent.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <set>

#include "beegfs/deployment.hpp"
#include "beegfs/filesystem.hpp"
#include "core/metrics.hpp"
#include "faults/injector.hpp"
#include "sim/fluid.hpp"
#include "sim/trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace beesim::harness {

namespace {

/// The run's observability sinks (ObservabilityOptions).  They attach
/// through FluidSimulator::addObserver and only read events, so an observed
/// run stays bitwise identical to the unobserved one.
struct RunObservers {
  RunObservers(const ObservabilityOptions& options, beegfs::Deployment& deployment)
      : observe(options),
        exports(!options.traceJsonl.empty() || !options.traceChrome.empty() ||
                !options.metricsCsv.empty()) {
    const bool eventLog = !observe.traceJsonl.empty() || !observe.traceChrome.empty();
    if (eventLog && observe.ringCapacity > 0) {
      ring.emplace(deployment.fluid(), observe.ringCapacity);
    }
    if (!observe.utilization && observe.metricsCsv.empty() && (ring || !eventLog)) return;
    tracer.emplace(deployment.fluid());
    if (!exports) return;
    if (!observe.metricsCsv.empty() || !observe.traceChrome.empty()) {
      tracer->setMetricsInterval(observe.metricsDt);
    }
    const auto& hosts = deployment.cluster().hosts;
    for (std::size_t h = 0; h < hosts.size(); ++h) {
      tracer->trackLink(deployment.serverNicResource(h), hosts[h].name);
    }
    // Under the queued metadata model the MDTs are fluid resources too.
    for (std::size_t m = 0; m < deployment.mdtCount(); ++m) {
      tracer->trackLink(deployment.mdtResource(m), "mdt" + std::to_string(m));
    }
  }

  /// After the drain: the per-server split over the Eq. 1 `window`, then
  /// the requested exports.
  void finish(const beegfs::Deployment& deployment, util::Seconds window,
              ConcurrentResult& result) const {
    if (tracer) {
      auto& util = result.util;
      util.active = true;
      for (std::size_t h = 0; h < deployment.cluster().hosts.size(); ++h) {
        const auto link = deployment.serverNicResource(h);
        util.serverMiB.push_back(tracer->resourceMiB(link));
        util.serverBusyFrac.push_back(window > 0.0 ? tracer->resourceBusyTime(link) / window
                                                   : 0.0);
      }
      util.linkImbalance = core::linkImbalance(util.serverMiB);
    }
    if (!exports) return;
    const sim::EventLog& events = ring ? ring->log() : tracer->log();
    if (!observe.traceJsonl.empty()) events.writeJsonl(observe.traceJsonl);
    if (!observe.traceChrome.empty()) {
      events.writeChromeTrace(observe.traceChrome, ring ? "" : tracer->linkCounterTracks());
    }
    auto& report = result.trace;
    report.events = events.size();
    report.dropped = events.dropped();
    if (!tracer) return;
    if (!observe.metricsCsv.empty()) tracer->writeMetricsCsv(observe.metricsCsv);
    report.samples = tracer->samples().size();
    report.usage = tracer->resourceUsage();
  }

  const ObservabilityOptions& observe;
  const bool exports;
  std::optional<sim::RingTraceSink> ring;
  std::optional<sim::FlowTracer> tracer;
};

}  // namespace

util::MiBps aggregateBandwidth(const std::vector<ior::IorResult>& apps) {
  BEESIM_ASSERT(!apps.empty(), "aggregate bandwidth of zero applications");
  util::Bytes totalBytes = 0;
  util::Seconds earliestStart = apps.front().start;
  util::Seconds latestEnd = apps.front().end;
  for (const auto& app : apps) {
    totalBytes += app.totalBytes;
    earliestStart = std::min(earliestStart, app.start);
    latestEnd = std::max(latestEnd, app.end);
  }
  // A degenerate window (every app resolved instantly, e.g. all jobs wrote
  // zero bytes) is 0 MiB/s, not a contract violation in util::bandwidth.
  const util::Seconds elapsed = latestEnd - earliestStart;
  if (elapsed <= 0.0) return 0.0;
  return util::bandwidth(totalBytes, elapsed);
}

bool violatesSlo(const ior::IorResult& app, const qos::QosAppSpec& spec, double tolerance) {
  return app.totalBytes > 0 && app.bandwidth < tolerance * qos::sloRate(spec);
}

ConcurrentResult runConcurrent(const RunConfig& base, const std::vector<AppSpec>& apps,
                               std::uint64_t seed) {
  const auto wallStart = std::chrono::steady_clock::now();
  BEESIM_ASSERT(!apps.empty(), "concurrent experiment needs >= 1 application");

  // Node sets must be pairwise disjoint (the paper's setup: applications do
  // not share compute nodes).
  std::set<std::size_t> seenNodes;
  for (const auto& app : apps) {
    for (const auto node : app.job.nodeIds) {
      if (!seenNodes.insert(node).second) {
        throw util::ConfigError("concurrent applications must not share compute nodes");
      }
    }
    // A negative offset would silently schedule the app before base.startAt
    // (i.e. before the deployment's fault plan and noise epochs assume any
    // traffic exists); NaN/inf would hang the engine.
    if (!std::isfinite(app.startOffset) || app.startOffset < 0.0) {
      throw util::ConfigError("AppSpec::startOffset must be finite and >= 0");
    }
    if (app.qos && !base.qos.enabled) {
      throw util::ConfigError("per-app QoS specs require an enabled base QoS policy");
    }
  }
  if (base.solverEpsilon != 0.0) {
    throw util::ConfigError("RunConfig::solverEpsilon must be 0: the fluid core is exact");
  }
  if (base.mdtest && !base.fs.meta.queued) {
    throw util::ConfigError(
        "the mdtest metadata phase requires the queued metadata model "
        "(BeegfsParams::meta.queued; --mdts/--meta-rate on the CLI)");
  }

  // Construction order is part of the determinism contract (DESIGN.md §2.1).
  // Optional layers exist (and take rng splits) only when enabled, so runs
  // without them keep their exact legacy bytes.
  util::Rng rng(seed);
  beegfs::EnvironmentFactors env;
  env.network = rng.logNormalMedian(1.0, base.noise.networkSigmaLog);
  env.storage = rng.logNormalMedian(1.0, base.noise.storageSigmaLog);

  sim::FluidSimulator fluid;
  beegfs::Deployment deployment(fluid, base.cluster, base.fs, rng.split(), env);
  beegfs::FileSystem fs(deployment, rng.split());
  const RunObservers observers(base.observe, deployment);
  if (base.observe.profile) fluid.setProfiling(true);

  // The controllers attach their own rate samplers to the same observer list.
  std::optional<control::RebalanceController> rebalance;
  if (base.rebalance.enabled) rebalance.emplace(fs, base.rebalance);
  std::optional<control::HealthMonitor> health;
  if (base.health.enabled) health.emplace(fs, base.health);

  // QoS: one token bucket per application (DESIGN.md §2.8).  Apps without an
  // explicit spec inherit the policy's default reservation.
  std::optional<qos::QosManager> qosManager;
  if (base.qos.enabled) {
    qosManager.emplace(fluid, base.qos);
    for (const auto& app : apps) {
      qosManager->registerApp(app.qos ? *app.qos : qos::makeAppSpec(base.qos),
                              app.job.nodeIds);
    }
    fs.setQosManager(&*qosManager);
  }

  ConcurrentResult result;
  result.seed = seed;
  result.environment = env;
  result.apps.resize(apps.size());

  // Fault plan: stochastic events draw from a dedicated split (the plan is a
  // pure function of the seed).  Arming before the jobs launch lets the FIFO
  // tie-break apply a t=0 fault ahead of the first metadata operation.
  std::optional<faults::FaultInjector> injector;
  if (!base.faults.empty()) {
    faults::FaultSchedule schedule = base.faults.schedule;
    if (base.faults.stochastic) {
      util::Rng faultRng = rng.split();
      const auto generated =
          faults::generateSchedule(*base.faults.stochastic, base.cluster.targetCount(),
                                   base.cluster.hosts.size(), faultRng);
      schedule.events.insert(schedule.events.end(), generated.events.begin(),
                             generated.events.end());
    }
    schedule.normalize(base.cluster.targetCount(), base.cluster.hosts.size());
    if (schedule.hasFailures() &&
        base.fs.faults.mode == beegfs::ClientFaultPolicy::Mode::kNone) {
      throw util::ConfigError(
          "fault schedule contains target/host failures but no client fault "
          "policy is set (BeegfsParams::faults.mode)");
    }
    injector.emplace(deployment, std::move(schedule));
    injector->arm(base.startAt);
  }

  std::size_t remaining = apps.size();
  std::size_t mdRemaining = base.mdtest ? apps.size() : 0;
  if (base.mdtest) result.appMd.resize(apps.size());
  for (std::size_t a = 0; a < apps.size(); ++a) {
    // Distinct names so the N-1 files and md dirs do not collide; a lone app
    // keeps the configured ones (and with them its MDT placement).
    const std::string suffix = apps.size() > 1 ? ".app" + std::to_string(a) : "";
    auto options = apps[a].ior;
    options.testFile += suffix;
    ior::launchIor(
        fs, apps[a].job, options, base.startAt + apps[a].startOffset,
        [&, a, suffix](const ior::IorResult& r) {
          result.apps[a] = r;
          // Freeze the controllers once the *last* application completes:
          // they keep serving the survivors of a staggered schedule.
          if (--remaining == 0) {
            if (rebalance) rebalance->disarm();
            if (health) health->disarm();
          }
          // IO500-style phasing per application: each app's md phase chases
          // its own bandwidth phase, so staggered apps' metadata ops overlap
          // and contend on the shared MDTs.
          if (base.mdtest) {
            auto mdOptions = *base.mdtest;
            mdOptions.dir += suffix;
            ior::launchMdtest(fs, apps[a].job, mdOptions, fluid.now(),
                              [&result, &mdRemaining, a](const ior::MdtestResult& md) {
                                result.appMd[a] = md;
                                --mdRemaining;
                              });
          }
        },
        apps[a].pinnedTargets);
  }
  fluid.run();
  // Drain invariant: nothing outlives the run -- no flow, and no chunk op
  // waiting on a leg, a retry or QoS admission.
  BEESIM_ASSERT(fluid.activeFlows() == 0, "a flow outlived the drained run");
  BEESIM_ASSERT(fs.inFlightChunks() == 0, "a chunk outlived the drained run");
  BEESIM_ASSERT(remaining == 0, "a concurrent application did not complete");
  BEESIM_ASSERT(mdRemaining == 0, "a concurrent mdtest phase did not complete");

  // The file system is fresh per run, so its totals after the drain are this
  // run's, including resyncs and switchovers that outlive the jobs.
  if (base.mdtest) {
    result.mdActive = true;
    result.md = ior::aggregateMdtest(result.appMd);
  }
  if (base.fs.mirror.enabled) result.mirror = fs.mirrorStats();
  if (rebalance) result.rebalance = rebalance->stats();
  if (health) result.health = health->stats();
  if (base.fs.hedge.enabled) result.hedge = fs.hedgeStats();
  if (injector) result.injected = injector->stats();
  if (qosManager) {
    result.qosActive = true;
    result.qos = qosManager->stats();
    for (std::size_t a = 0; a < apps.size(); ++a) {
      if (violatesSlo(result.apps[a], qosManager->appSpec(a), base.qos.sloTolerance)) {
        ++result.qos.sloViolations;
      }
    }
  }

  result.aggregateBandwidth = aggregateBandwidth(result.apps);
  util::Seconds earliestStart = result.apps.front().start;
  util::Seconds latestEnd = result.apps.front().end;
  std::map<std::size_t, int> owners;
  for (const auto& app : result.apps) {
    earliestStart = std::min(earliestStart, app.start);
    latestEnd = std::max(latestEnd, app.end);
    for (const auto target : app.targetsUsed) ++owners[target];
  }
  observers.finish(deployment, latestEnd - earliestStart, result);
  result.distinctTargets = owners.size();
  result.sharedTargets = static_cast<std::size_t>(
      std::count_if(owners.begin(), owners.end(), [](const auto& kv) { return kv.second >= 2; }));
  result.resolves = fluid.resolveCount();
  result.solverIterations = fluid.solverIterations();
  result.solveSeconds = fluid.solveSeconds();
  result.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wallStart).count();
  return result;
}

}  // namespace beesim::harness
