#include "traced.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "beegfs/deployment.hpp"
#include "beegfs/filesystem.hpp"
#include "control/health.hpp"
#include "faults/injector.hpp"
#include "ior/mdtest.hpp"
#include "ior/runner.hpp"
#include "qos/manager.hpp"
#include "sim/fluid.hpp"
#include "util/rng.hpp"

namespace campaign_bench {

namespace {

using namespace beesim;

/// Run `fn` inside a span; returns the span's host seconds.
template <typename Fn>
double inSpan(SpanLog& log, const char* name, int parent, long rep, Fn&& fn) {
  const int id = log.open(name, parent, rep);
  fn();
  log.close(id);
  return log.seconds(id);
}

/// Counts flows and solver hand-offs at the fluid core's observer boundary,
/// timing its own callbacks so they can be subtracted from the event loop.
/// Flows that cross a metadata target are metadata operations; every other
/// flow carries data.
class LayerObserver final : public sim::FluidObserver {
 public:
  explicit LayerObserver(beegfs::Deployment& deployment) : fluid_(deployment.fluid()) {
    for (std::size_t k = 0; k < deployment.mdtCount(); ++k) {
      mdts_.push_back(deployment.mdtResource(k).value);
    }
    fluid_.addObserver(this);
  }
  ~LayerObserver() override { fluid_.removeObserver(this); }
  LayerObserver(const LayerObserver&) = delete;
  LayerObserver& operator=(const LayerObserver&) = delete;

  void onFlowStarted(sim::FlowId id, std::span<const sim::ResourceIndex> path, util::Bytes,
                     sim::SimTime) override {
    const auto t0 = Clock::now();
    ++started;
    const bool meta = std::any_of(path.begin(), path.end(), [&](sim::ResourceIndex r) {
      return std::find(mdts_.begin(), mdts_.end(), r.value) != mdts_.end();
    });
    if (!meta) {
      if (!firstData) firstData = t0;
      data_.insert(id.value);
    }
    seconds += secondsBetween(t0, Clock::now());
  }
  void onRatesSolved(sim::SimTime, std::span<const sim::FlowId> ids,
                     std::span<const util::MiBps>, std::size_t) override {
    const auto t0 = Clock::now();
    solvedFlows += ids.size();
    seconds += secondsBetween(t0, Clock::now());
  }
  void onFlowCompleted(const sim::FlowStats& stats) override {
    const auto t0 = Clock::now();
    if (data_.erase(stats.id.value) != 0) landed += static_cast<double>(stats.bytes);
    seconds += secondsBetween(t0, Clock::now());
  }
  void onFlowCancelled(const sim::FlowStats& stats) override {
    const auto t0 = Clock::now();
    ++cancelled;
    data_.erase(stats.id.value);
    seconds += secondsBetween(t0, Clock::now());
  }

  std::size_t started = 0;
  std::size_t cancelled = 0;
  std::size_t solvedFlows = 0;
  double landed = 0.0;
  double seconds = 0.0;
  std::optional<Clock::time_point> firstData;

 private:
  sim::FluidSimulator& fluid_;
  std::vector<std::uint32_t> mdts_;
  std::unordered_set<std::uint64_t> data_;
};

void requireModelled(const harness::RunConfig& config, bool concurrent) {
  const bool unsupported = config.rebalance.enabled || config.fs.mirror.enabled ||
                           config.observe.utilization || config.observe.profile ||
                           (concurrent && (!config.faults.empty() || config.health.enabled ||
                                           config.mdtest || config.fs.hedge.enabled)) ||
                           (!concurrent && config.qos.enabled);
  if (unsupported) {
    throw std::logic_error("the traced composition does not model a feature this workload uses");
  }
}

beegfs::EnvironmentFactors sampleEnvironment(const harness::RunConfig& config, util::Rng& rng) {
  beegfs::EnvironmentFactors env;
  env.network = rng.logNormalMedian(1.0, config.noise.networkSigmaLog);
  env.storage = rng.logNormalMedian(1.0, config.noise.storageSigmaLog);
  return env;
}

/// Materialize and arm the fault plan exactly as the harness does.
void armFaults(const harness::RunConfig& config, beegfs::Deployment& deployment, util::Rng& rng,
               std::optional<faults::FaultInjector>& injector) {
  if (config.faults.empty()) return;
  faults::FaultSchedule schedule = config.faults.schedule;
  if (config.faults.stochastic) {
    util::Rng faultRng = rng.split();
    const auto generated =
        faults::generateSchedule(*config.faults.stochastic, config.cluster.targetCount(),
                                 config.cluster.hosts.size(), faultRng);
    schedule.events.insert(schedule.events.end(), generated.events.begin(),
                           generated.events.end());
  }
  schedule.normalize(config.cluster.targetCount(), config.cluster.hosts.size());
  injector.emplace(deployment, std::move(schedule));
  injector->arm(config.startAt);
}

/// Fill the sample fields every composition shares.
void collectCommon(LayerSample& s, sim::FluidSimulator& fluid, beegfs::FileSystem& fs,
                   const LayerObserver& observer, Clock::time_point runStart) {
  s.solve = fluid.solveSeconds();
  s.observer = observer.seconds;
  s.resolves = static_cast<double>(fluid.resolveCount());
  s.iterations = static_cast<double>(fluid.solverIterations());
  s.solvedFlows = static_cast<double>(observer.solvedFlows);
  s.flowsStarted = static_cast<double>(observer.started);
  s.flowsCancelled = static_cast<double>(observer.cancelled);
  s.dataBytesLanded = observer.landed;
  s.hedges = static_cast<double>(fs.hedgeStats().hedgesIssued);
  s.hedgeWins = static_cast<double>(fs.hedgeStats().hedgeWins);
  s.hedgeDupMiB = util::toMiB(fs.hedgeStats().bytesHedged);
  s.failovers = static_cast<double>(fs.faultStats().failovers + fs.mirrorStats().failovers);
  s.metaOps = static_cast<double>(fs.deployment().meta().opsServed());
  if (observer.firstData) s.metaPhase += secondsBetween(runStart, *observer.firstData);
}

/// The observer's view of "all planned bytes land": completed data flows
/// carried at least the planned bytes (hedges and rewrites may add more).
void checkLanded(const LayerSample& s, util::Bytes planned, std::vector<std::string>& errors) {
  if (s.dataBytesLanded < static_cast<double>(planned)) {
    errors.emplace_back("completed data flows carried fewer bytes than planned");
  }
}

/// harness::runOnce, one span per layer call.
TracedRep tracedRunOnce(const Workload& workload, const PlannedRep& planned, SpanLog& log,
                        long rep) {
  TracedRep out;
  auto& s = out.sample;
  harness::RunRecord record;
  harness::RunConfig config = workload.entries.at(planned.configIndex).config;
  config.startAt = planned.systemTime;
  requireModelled(config, false);

  const int repSpan = log.open("rep", -1, rep);
  util::Rng rng(planned.seed);
  const auto env = sampleEnvironment(config, rng);
  sim::FluidSimulator fluid;
  if (config.solverEpsilon > 0.0) fluid.setSolverEpsilon(config.solverEpsilon);
  const int buildSpan = log.open("beegfs.build", repSpan, rep);
  beegfs::Deployment deployment(fluid, config.cluster, config.fs, rng.split(), env);
  beegfs::FileSystem fs(deployment, rng.split());
  log.close(buildSpan);
  s.build = log.seconds(buildSpan);

  LayerObserver observer(deployment);
  fluid.setProfiling(true);
  std::optional<control::HealthMonitor> health;
  inSpan(log, "control.attach", repSpan, rep, [&] {
    if (config.health.enabled) health.emplace(fs, config.health);
  });
  std::optional<faults::FaultInjector> injector;
  inSpan(log, "faults.arm", repSpan, rep, [&] { armFaults(config, deployment, rng, injector); });

  bool finished = false;
  bool mdFinished = !config.mdtest.has_value();
  int runSpan = -1;
  Clock::time_point iorDone;
  s.launch += inSpan(log, "ior.launch", repSpan, rep, [&] {
    ior::launchIor(
        fs, config.job, config.ior, config.startAt,
        [&](const ior::IorResult& result) {
          record.ior = result;
          finished = true;
          if (health) health->disarm();
          if (!config.mdtest) return;
          iorDone = Clock::now();
          s.nested = inSpan(log, "ior.launchMdtest", runSpan, rep, [&] {
            ior::launchMdtest(fs, config.job, *config.mdtest, fluid.now(),
                              [&](const ior::MdtestResult& md) {
                                record.md = md;
                                mdFinished = true;
                                s.metaPhase += secondsBetween(iorDone, Clock::now());
                              });
          });
          s.launch += s.nested;
        },
        config.pinnedTargets);
  });
  runSpan = log.open("sim.run", repSpan, rep);
  const auto runStart = Clock::now();
  fluid.run();
  log.close(runSpan);
  s.run = log.seconds(runSpan);

  inSpan(log, "harness.collect", repSpan, rep, [&] {
    if (!finished || !mdFinished) throw std::runtime_error("traced run did not complete");
    record.seed = planned.seed;
    record.environment = env;
    if (config.mdtest) record.mdActive = true;
    if (injector) record.injected = injector->stats();
    if (health) record.health = health->stats();
    if (config.fs.hedge.enabled) record.ior.hedge = fs.hedgeStats();
    record.resolves = fluid.resolveCount();
    record.solverIterations = fluid.solverIterations();
    record.deferredResolves = fluid.deferredResolves();
    collectCommon(s, fluid, fs, observer, runStart);
    s.healthSamples = static_cast<double>(record.health.samples);
    s.quarantines = static_cast<double>(record.health.quarantines);
  });
  log.close(repSpan);
  s.rep = log.seconds(repSpan);
  out.output = outputOf(record);
  out.errors = checkRep(workload, planned, record);
  checkLanded(s, config.ior.totalBytes(config.job.ranks()), out.errors);
  return out;
}

/// harness::runConcurrent, one span per layer call.
TracedRep tracedRunConcurrent(const Workload& workload, const PlannedRep& planned,
                              SpanLog& log, long rep) {
  TracedRep out;
  auto& s = out.sample;
  harness::RunConfig base = workload.base;
  base.startAt = planned.systemTime;
  requireModelled(base, true);
  const auto& apps = workload.apps;

  const int repSpan = log.open("rep", -1, rep);
  util::Rng rng(planned.seed);
  harness::ConcurrentResult result;
  result.seed = planned.seed;
  result.environment = sampleEnvironment(base, rng);
  sim::FluidSimulator fluid;
  const int buildSpan = log.open("beegfs.build", repSpan, rep);
  beegfs::Deployment deployment(fluid, base.cluster, base.fs, rng.split(), result.environment);
  beegfs::FileSystem fs(deployment, rng.split());
  log.close(buildSpan);
  s.build = log.seconds(buildSpan);

  LayerObserver observer(deployment);
  fluid.setProfiling(true);
  std::optional<qos::QosManager> qosManager;
  inSpan(log, "qos.attach", repSpan, rep, [&] {
    if (!base.qos.enabled) return;
    qosManager.emplace(fluid, base.qos);
    for (const auto& app : apps) {
      qosManager->registerApp(app.qos ? *app.qos : qos::makeAppSpec(base.qos), app.job.nodeIds);
    }
    fs.setQosManager(&*qosManager);
  });

  result.apps.resize(apps.size());
  std::size_t remaining = apps.size();
  for (std::size_t a = 0; a < apps.size(); ++a) {
    auto options = apps[a].ior;
    options.testFile += ".app" + std::to_string(a);
    s.launch += inSpan(log, "ior.launch", repSpan, rep, [&] {
      ior::launchIor(
          fs, apps[a].job, options, base.startAt + apps[a].startOffset,
          [&result, &remaining, a](const ior::IorResult& r) {
            result.apps[a] = r;
            --remaining;
          },
          apps[a].pinnedTargets);
    });
  }
  const int runSpan = log.open("sim.run", repSpan, rep);
  const auto runStart = Clock::now();
  fluid.run();
  log.close(runSpan);
  s.run = log.seconds(runSpan);

  inSpan(log, "harness.collect", repSpan, rep, [&] {
    if (remaining != 0) throw std::runtime_error("traced run did not complete");
    if (qosManager) {
      result.qosActive = true;
      result.qos = qosManager->stats();
      for (std::size_t a = 0; a < apps.size(); ++a) {
        if (result.apps[a].totalBytes == 0) continue;
        const auto slo = qos::sloRate(qosManager->appSpec(a));
        if (result.apps[a].bandwidth < base.qos.sloTolerance * slo) ++result.qos.sloViolations;
      }
      s.deferrals = static_cast<double>(result.qos.deferrals);
    }
    result.aggregateBandwidth = harness::aggregateBandwidth(result.apps);
    std::map<std::size_t, int> owners;
    for (const auto& app : result.apps) {
      for (const auto target : app.targetsUsed) ++owners[target];
    }
    result.distinctTargets = owners.size();
    result.sharedTargets = static_cast<std::size_t>(std::count_if(
        owners.begin(), owners.end(), [](const auto& kv) { return kv.second >= 2; }));
    collectCommon(s, fluid, fs, observer, runStart);
  });
  log.close(repSpan);
  s.rep = log.seconds(repSpan);
  out.output = outputOf(result);
  out.errors = checkRep(workload, planned, result);
  util::Bytes plannedBytes = 0;
  for (const auto& app : apps) plannedBytes += app.ior.totalBytes(app.job.ranks());
  checkLanded(s, plannedBytes, out.errors);
  return out;
}

}  // namespace

int SpanLog::open(const char* name, int parent, long rep) {
  spans_.push_back(Span{name, Clock::now(), {}, parent, rep});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::close(int id) { spans_[id].end = Clock::now(); }

bool SpanLog::writeChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const auto micros = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    if (span.end < span.start) continue;  // left open by an exception
    out << (first ? "\n" : ",\n") << "{\"name\":\"" << span.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << micros(span.start)
        << ",\"dur\":" << micros(span.end) - micros(span.start) << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << span.parent << ",\"rep\":" << span.rep << "}}";
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

TracedRep tracedRep(const Workload& workload, const PlannedRep& planned, SpanLog& log,
                    long rep) {
  return workload.concurrent ? tracedRunConcurrent(workload, planned, log, rep)
                             : tracedRunOnce(workload, planned, log, rep);
}

}  // namespace campaign_bench
