#include "harness/concurrent.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "beegfs/deployment.hpp"
#include "beegfs/filesystem.hpp"
#include "faults/injector.hpp"
#include "sim/fluid.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace beesim::harness {

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

ConcurrentResult runConcurrent(const RunConfig& base, const std::vector<AppSpec>& apps,
                               std::uint64_t seed) {
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
  if (base.mdtest && !base.fs.meta.queued) {
    throw util::ConfigError(
        "the mdtest metadata phase requires the queued metadata model "
        "(BeegfsParams::meta.queued; --mdts/--meta-rate on the CLI)");
  }

  util::Rng rng(seed);
  beegfs::EnvironmentFactors env;
  env.network = rng.logNormalMedian(1.0, base.noise.networkSigmaLog);
  env.storage = rng.logNormalMedian(1.0, base.noise.storageSigmaLog);

  sim::FluidSimulator fluid;
  if (base.solverEpsilon > 0.0) fluid.setSolverEpsilon(base.solverEpsilon);
  beegfs::Deployment deployment(fluid, base.cluster, base.fs, rng.split(), env);
  beegfs::FileSystem fs(deployment, rng.split());
  if (base.observe.profile) fluid.setProfiling(true);

  // Same contract as runOnce: the controller only exists when enabled, so
  // default concurrent experiments stay bitwise identical.
  std::optional<control::RebalanceController> rebalance;
  if (base.rebalance.enabled) rebalance.emplace(fs, base.rebalance);

  // Gray-failure detection composes with concurrent apps unchanged: the
  // monitor watches server NICs, not applications.
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

  // Fault plan: same rng discipline as runOnce (a dedicated split only when
  // the plan is non-empty, so default experiments keep their exact bytes).
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
    result.faultsActive = true;
  }

  std::size_t remaining = apps.size();
  std::size_t mdRemaining = base.mdtest ? apps.size() : 0;
  if (base.mdtest) result.appMd.resize(apps.size());
  for (std::size_t a = 0; a < apps.size(); ++a) {
    // Distinct file names so the N-1 files do not collide.
    auto options = apps[a].ior;
    options.testFile += ".app" + std::to_string(a);
    ior::launchIor(
        fs, apps[a].job, options, base.startAt + apps[a].startOffset,
        [&result, &remaining, &mdRemaining, &rebalance, &health, &base, &fs, &fluid,
         &apps, a](const ior::IorResult& r) {
          result.apps[a] = r;
          // Disarm once the *last* application completes: the controller
          // keeps serving the survivors of a staggered schedule.
          if (--remaining == 0) {
            if (rebalance) rebalance->disarm();
            if (health) health->disarm();
          }
          // IO500-style phasing per application: each app's md phase chases
          // its own bandwidth phase, so staggered apps' metadata ops overlap
          // and contend on the shared MDTs.
          if (base.mdtest) {
            auto mdOptions = *base.mdtest;
            mdOptions.dir += ".app" + std::to_string(a);
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
  BEESIM_ASSERT(remaining == 0, "a concurrent application did not complete");
  BEESIM_ASSERT(mdRemaining == 0, "a concurrent mdtest phase did not complete");
  if (base.mdtest) {
    result.mdActive = true;
    result.md = ior::aggregateMdtest(result.appMd);
  }
  if (rebalance) {
    rebalance->cancel();
    result.rebalanceActive = true;
    result.rebalance = rebalance->stats();
  }
  if (health) {
    result.healthActive = true;
    result.health = health->stats();
  }
  if (base.fs.hedge.enabled) {
    result.hedgeActive = true;
    result.hedge = fs.hedgeStats();
  }
  if (injector) result.injected = injector->stats();
  if (qosManager) {
    result.qosActive = true;
    result.qos = qosManager->stats();
    // An app violates its SLO when it achieved less than tolerance * sloRate
    // while it ran; zero-demand apps cannot violate.
    for (std::size_t a = 0; a < apps.size(); ++a) {
      if (result.apps[a].totalBytes == 0) continue;
      const auto slo = qos::sloRate(qosManager->appSpec(a));
      if (result.apps[a].bandwidth < base.qos.sloTolerance * slo) {
        ++result.qos.sloViolations;
      }
    }
  }

  result.deferredResolves = fluid.deferredResolves();
  result.solveSeconds = fluid.solveSeconds();
  result.aggregateBandwidth = aggregateBandwidth(result.apps);

  // Sharing statistics.
  std::map<std::size_t, int> owners;
  for (const auto& app : result.apps) {
    for (const auto target : app.targetsUsed) ++owners[target];
  }
  result.distinctTargets = owners.size();
  result.sharedTargets = static_cast<std::size_t>(
      std::count_if(owners.begin(), owners.end(), [](const auto& kv) { return kv.second >= 2; }));
  return result;
}

}  // namespace beesim::harness
