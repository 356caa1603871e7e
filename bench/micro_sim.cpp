// Micro-benchmarks of the simulator core (google-benchmark): the max-min
// solver at various flow populations, the event queue, and one full IOR run
// per scenario -- the numbers that bound how fast campaigns execute.
//
// Before the google-benchmark suite runs, main() measures the fluid-core
// resolve throughput -- the pre-change baseline (full allocating rebuild +
// global solve per event) against the incremental component-aware resolver
// -- across flow-count sweeps and component shapes, and writes the numbers
// to BENCH_fluid_core.json (override the path with BEESIM_BENCH_JSON).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string_view>

#include "beegfs/deployment.hpp"
#include "beegfs/filesystem.hpp"
#include "harness/run.hpp"
#include "ior/runner.hpp"
#include "sim/fluid.hpp"
#include "sim/maxmin.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "topology/plafrim.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using namespace beesim;
using namespace beesim::util::literals;

void BM_MaxMinSolver(benchmark::State& state) {
  const auto nFlows = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  std::vector<sim::SolverResource> resources(24);
  for (auto& r : resources) r.capacity = rng.uniform(100.0, 2000.0);
  std::vector<sim::SolverFlow> flows(nFlows);
  for (auto& f : flows) {
    for (const auto r : rng.sampleWithoutReplacement(resources.size(), 5)) {
      f.resources.push_back(static_cast<std::uint32_t>(r));
    }
    f.weight = rng.uniform(0.5, 4.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::solveMaxMin(resources, flows));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nFlows));
}
BENCHMARK(BM_MaxMinSolver)->Arg(64)->Arg(256)->Arg(1024)->Arg(2048);

void BM_EventQueue(benchmark::State& state) {
  const auto nEvents = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  for (auto _ : state) {
    sim::Simulator simulator;
    for (std::size_t i = 0; i < nEvents; ++i) {
      simulator.schedule(rng.uniform(0.0, 1000.0), [] {});
    }
    benchmark::DoNotOptimize(simulator.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nEvents));
}
BENCHMARK(BM_EventQueue)->Arg(1024)->Arg(16384);

void BM_FullIorRun(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    harness::RunConfig config;
    config.cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, nodes);
    config.fs.defaultStripe.stripeCount = 8;
    config.job = ior::IorJob::onFirstNodes(nodes, 8);
    config.ior.blockSize = ior::blockSizeForTotal(32_GiB, config.job.ranks());
    benchmark::DoNotOptimize(harness::runOnce(config, 42));
  }
}
BENCHMARK(BM_FullIorRun)->Arg(4)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_StripeByteMath(benchmark::State& state) {
  const beegfs::StripePattern pattern({0, 1, 2, 3, 4, 5, 6, 7}, 512_KiB);
  util::Rng rng(3);
  for (auto _ : state) {
    const auto offset = static_cast<util::Bytes>(rng.uniformInt(0, 1LL << 35));
    benchmark::DoNotOptimize(pattern.bytesPerTarget(offset, 4_GiB));
  }
}
BENCHMARK(BM_StripeByteMath);

// --- Fluid-core resolve throughput: baseline vs incremental ------------

/// A fixed multi-app max-min problem in both the legacy (allocating) input
/// form and the flat CSR form the workspace consumes.
struct CoreScenario {
  std::vector<sim::SolverResource> resources;
  std::vector<sim::SolverFlow> flows;

  std::vector<double> capacity;
  std::vector<std::uint32_t> adjacency;
  std::vector<std::uint32_t> adjOffset;
  std::vector<std::uint32_t> adjLen;
  std::vector<double> weight;
  std::vector<double> rateCap;
  /// Flow slots per app == per connected component when targets are
  /// disjoint; with shared targets every app touches every resource.
  std::vector<std::vector<std::uint32_t>> appFlows;
};

CoreScenario makeCoreScenario(std::size_t nApps, std::size_t flowsPerApp,
                              std::size_t resourcesPerApp, bool shared,
                              std::uint64_t seed) {
  util::Rng rng(seed);
  CoreScenario s;
  const std::size_t nRes = shared ? resourcesPerApp : nApps * resourcesPerApp;
  s.resources.resize(nRes);
  s.capacity.resize(nRes);
  for (std::size_t r = 0; r < nRes; ++r) {
    s.capacity[r] = rng.uniform(100.0, 2000.0);
    s.resources[r].capacity = s.capacity[r];
  }
  const std::size_t nFlows = nApps * flowsPerApp;
  s.flows.resize(nFlows);
  s.adjOffset.resize(nFlows);
  s.adjLen.resize(nFlows);
  s.weight.resize(nFlows);
  s.rateCap.resize(nFlows);
  s.appFlows.resize(nApps);
  const std::size_t pathLen = std::min<std::size_t>(3, resourcesPerApp);
  for (std::size_t a = 0; a < nApps; ++a) {
    for (std::size_t i = 0; i < flowsPerApp; ++i) {
      const auto f = static_cast<std::uint32_t>(a * flowsPerApp + i);
      s.adjOffset[f] = static_cast<std::uint32_t>(s.adjacency.size());
      s.adjLen[f] = static_cast<std::uint32_t>(pathLen);
      for (const auto r : rng.sampleWithoutReplacement(resourcesPerApp, pathLen)) {
        const auto res = static_cast<std::uint32_t>(shared ? r : a * resourcesPerApp + r);
        s.adjacency.push_back(res);
        s.flows[f].resources.push_back(res);
      }
      s.weight[f] = rng.uniform(0.5, 4.0);
      s.flows[f].weight = s.weight[f];
      s.appFlows[a].push_back(f);
    }
  }
  return s;
}

struct Measurement {
  double nsPerResolve = 0.0;
  double iterationsPerResolve = 0.0;
};

/// Time `resolve(event)` until enough wall-clock has elapsed; `resolve`
/// returns the solver iteration count of that event.
template <typename Resolve>
Measurement measureResolves(Resolve&& resolve) {
  using Clock = std::chrono::steady_clock;
  for (std::size_t i = 0; i < 10; ++i) (void)resolve(i);  // warm-up
  std::size_t events = 0;
  std::size_t iterations = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  while (elapsed < 0.25 || events < 100) {
    iterations += resolve(events);
    ++events;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  }
  Measurement m;
  m.nsPerResolve = elapsed * 1e9 / static_cast<double>(events);
  m.iterationsPerResolve = static_cast<double>(iterations) / static_cast<double>(events);
  return m;
}

util::JsonValue benchFluidCoreScenario(const std::string& name, std::size_t nApps,
                                       std::size_t flowsPerApp,
                                       std::size_t resourcesPerApp, bool shared) {
  const auto scenario =
      makeCoreScenario(nApps, flowsPerApp, resourcesPerApp, shared, 20220714);

  // Baseline: what every flow event cost before the incremental resolver --
  // rebuild the solver input (per-flow resource vectors and all) and solve
  // the *world*, allocations included.
  const auto baseline = measureResolves([&](std::size_t) {
    std::vector<sim::SolverFlow> flows(scenario.flows.size());
    for (std::size_t f = 0; f < flows.size(); ++f) {
      flows[f].resources.reserve(scenario.flows[f].resources.size());
      for (const auto r : scenario.flows[f].resources) flows[f].resources.push_back(r);
      flows[f].weight = scenario.flows[f].weight;
      flows[f].rateCap = scenario.flows[f].rateCap;
    }
    return sim::solveMaxMin(scenario.resources, flows).iterations;
  });

  // Incremental: a flow event dirties one app's component and re-solves only
  // that subset through the persistent workspace (zero allocations).
  const sim::SolverView view{scenario.capacity, scenario.adjacency, scenario.adjOffset,
                             scenario.adjLen,   scenario.weight,    scenario.rateCap};
  sim::SolverWorkspace workspace;
  std::vector<double> rates(scenario.weight.size(), 0.0);
  const auto incremental = measureResolves([&](std::size_t event) {
    return workspace.solveSubset(view, scenario.appFlows[event % nApps], rates);
  });

  util::JsonObject entry;
  entry["name"] = name;
  entry["shape"] = shared ? "shared" : "disjoint";
  entry["apps"] = static_cast<double>(nApps);
  entry["flows"] = static_cast<double>(nApps * flowsPerApp);
  entry["resources"] = static_cast<double>(scenario.capacity.size());
  entry["baseline_ns_per_resolve"] = baseline.nsPerResolve;
  entry["incremental_ns_per_resolve"] = incremental.nsPerResolve;
  entry["baseline_resolves_per_s"] = 1e9 / baseline.nsPerResolve;
  entry["incremental_resolves_per_s"] = 1e9 / incremental.nsPerResolve;
  entry["baseline_solver_iterations"] = baseline.iterationsPerResolve;
  entry["incremental_solver_iterations"] = incremental.iterationsPerResolve;
  entry["speedup"] = baseline.nsPerResolve / incremental.nsPerResolve;
  return util::JsonValue(std::move(entry));
}

/// End-to-end FluidSimulator numbers (event loop + capacity evaluation +
/// component bookkeeping included), for context next to the solver-level
/// comparison.
util::JsonValue benchFluidSimulator(bool disjoint) {
  sim::FluidSimulator fluid;
  fluid.setResolveInterval(0.01);
  constexpr std::size_t kApps = 2;
  constexpr std::size_t kResPerApp = 8;
  constexpr std::size_t kFlowsPerApp = 64;
  std::vector<sim::ResourceIndex> links;
  const std::size_t nRes = disjoint ? kApps * kResPerApp : kResPerApp;
  for (std::size_t r = 0; r < nRes; ++r) {
    links.push_back(fluid.addResource(sim::ResourceSpec{
        "link" + std::to_string(r), [](const sim::ResourceLoad& load) {
          return 500.0 + 100.0 * std::sin(load.time);
        }}));
  }
  util::Rng rng(99);
  for (std::size_t a = 0; a < kApps; ++a) {
    for (std::size_t i = 0; i < kFlowsPerApp; ++i) {
      sim::FlowSpec spec;
      for (const auto r : rng.sampleWithoutReplacement(kResPerApp, 3)) {
        spec.path.push_back(links[disjoint ? a * kResPerApp + r : r]);
      }
      spec.bytes = 1_TiB;  // nothing completes inside the window
      spec.queueWeight = rng.uniform(0.5, 4.0);
      fluid.startFlow(std::move(spec));
    }
  }
  fluid.engine().runUntil(1.0);  // warm up
  const auto resolves0 = fluid.resolveCount();
  const auto iterations0 = fluid.solverIterations();
  const auto start = std::chrono::steady_clock::now();
  fluid.engine().runUntil(21.0);  // ~2000 periodic resolves
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  const auto resolves = fluid.resolveCount() - resolves0;
  const auto iterations = fluid.solverIterations() - iterations0;

  util::JsonObject entry;
  entry["name"] = std::string("fluid_sim_") + (disjoint ? "disjoint" : "shared");
  entry["shape"] = disjoint ? "disjoint" : "shared";
  entry["apps"] = static_cast<double>(kApps);
  entry["flows"] = static_cast<double>(kApps * kFlowsPerApp);
  entry["resources"] = static_cast<double>(nRes);
  entry["ns_per_resolve"] = elapsed * 1e9 / static_cast<double>(resolves);
  entry["resolves_per_s"] = static_cast<double>(resolves) / elapsed;
  entry["solver_iterations_per_resolve"] =
      static_cast<double>(iterations) / static_cast<double>(resolves);
  return util::JsonValue(std::move(entry));
}

void writeFluidCoreBench() {
  util::JsonArray scenarios;
  double disjointHeadline = 0.0;
  double sharedHeadline = 0.0;
  for (const std::size_t flowsPerApp : {32u, 128u, 512u}) {
    for (const bool shared : {false, true}) {
      const std::string name = std::string(shared ? "shared" : "disjoint") +
                               "_two_app_" + std::to_string(2 * flowsPerApp) + "f";
      auto entry = benchFluidCoreScenario(name, 2, flowsPerApp, 16, shared);
      const double speedup = entry.at("speedup").asNumber();
      if (flowsPerApp == 128) (shared ? sharedHeadline : disjointHeadline) = speedup;
      scenarios.push_back(std::move(entry));
    }
  }
  scenarios.push_back(benchFluidSimulator(true));
  scenarios.push_back(benchFluidSimulator(false));

  util::JsonObject headline;
  headline["disjoint_two_app_speedup"] = disjointHeadline;
  headline["shared_two_app_speedup"] = sharedHeadline;
  util::JsonObject doc;
  doc["benchmark"] = "fluid_core";
  doc["scenarios"] = util::JsonValue(std::move(scenarios));
  doc["headline"] = util::JsonValue(std::move(headline));

  const char* out = std::getenv("BEESIM_BENCH_JSON");
  const std::string path = out != nullptr && *out != '\0' ? out : "BENCH_fluid_core.json";
  std::ofstream file(path);
  file << util::JsonValue(std::move(doc)).dump(2) << "\n";
  std::cout << "fluid-core resolve throughput written to " << path
            << " (disjoint two-app speedup " << disjointHeadline
            << "x, shared " << sharedHeadline << "x)\n";
}

// --- Cluster-scale fluid bench: exact resolves, trace sinks ------------
//
// The scale campaign behind results/BENCH_fluid_scale.json.  Three parts:
//
//   * a 10k-flow / 1k-resource wobbling-capacity scenario, timed on the
//     exact resolve path;
//   * the same scenario untraced vs FlowTracer vs RingTraceSink, measuring
//     tracing overhead as a percentage of untraced wall time;
//   * a paper-topology campaign scaled ~1000x in rank count (the paper's
//     Scenario-2 jobs are 4 nodes x 8 ppn = 32 ranks), run once end to end
//     through runOnce.
//
// Modes (environment-selected so ctest reuses one binary):
//   BEESIM_BENCH_SMOKE=1   tiny sizes, seconds -- the tier-1 ctest smoke;
//   (unset)                full sizes, written to BENCH_fluid_scale.json
//                          (override with BEESIM_SCALE_JSON).
// End-to-end regressions are gated by bench/e2e_guard.py, not here.

bool envFlag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' && std::string_view(v) != "0";
}

struct ScaleShape {
  std::size_t apps = 0;
  std::size_t resPerApp = 0;
  std::size_t flowsPerApp = 0;
  double minWallSeconds = 0.0;  // repeat the window until this much elapsed
};

struct ScaleLeg {
  double resolvesPerS = 0.0;
  double eventsPerS = 0.0;
  double wallPerSimSecond = 0.0;  // host seconds per simulated second
};

/// Build the wobbling-capacity scenario and run it for `simWindow` virtual
/// seconds per repetition until `minWall` host seconds elapsed.  Per-app
/// resources are disjoint, so the solver sees `apps` independent components;
/// every capacity wobbles each resolve tick, so every component re-solves on
/// every tick.
template <typename Attach>
ScaleLeg runScaleLeg(const ScaleShape& shape, double simWindow, Attach&& attach) {
  sim::FluidSimulator fluid;
  fluid.setResolveInterval(0.01);
  std::vector<sim::ResourceIndex> links;
  const std::size_t nRes = shape.apps * shape.resPerApp;
  links.reserve(nRes);
  for (std::size_t r = 0; r < nRes; ++r) {
    const double phase = 0.1 * static_cast<double>(r);
    links.push_back(fluid.addResource(sim::ResourceSpec{
        "link" + std::to_string(r), [phase](const sim::ResourceLoad& load) {
          return 500.0 + 2.0 * std::sin(3.0 * load.time + phase);
        }}));
  }
  util::Rng rng(20220714);
  const std::size_t pathLen = std::min<std::size_t>(3, shape.resPerApp);
  for (std::size_t a = 0; a < shape.apps; ++a) {
    for (std::size_t i = 0; i < shape.flowsPerApp; ++i) {
      sim::FlowSpec spec;
      for (const auto r : rng.sampleWithoutReplacement(shape.resPerApp, pathLen)) {
        spec.path.push_back(links[a * shape.resPerApp + r]);
      }
      spec.bytes = 1_TiB;  // nothing completes inside the window
      spec.queueWeight = rng.uniform(0.5, 4.0);
      fluid.startFlow(std::move(spec));
    }
  }
  auto hold = attach(fluid);  // optional observer, kept alive for the run
  (void)hold;
  fluid.engine().runUntil(0.5);  // warm-up: pools sized, first solves
  const auto resolves0 = fluid.resolveCount();
  std::size_t events = 0;
  double simEnd = 0.5;
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    simEnd += simWindow;
    events += fluid.engine().runUntil(simEnd);
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                  .count();
  } while (elapsed < shape.minWallSeconds);
  ScaleLeg leg;
  leg.resolvesPerS = static_cast<double>(fluid.resolveCount() - resolves0) / elapsed;
  leg.eventsPerS = static_cast<double>(events) / elapsed;
  leg.wallPerSimSecond = elapsed / (simEnd - 0.5);
  return leg;
}

struct NoObserver {
  int operator()(sim::FluidSimulator&) const { return 0; }
};

/// Scale-bench repetitions per leg (set by mode).  Each leg keeps its best
/// (lowest wall-per-sim-second) repetition: transient noise -- scheduler
/// preemption, frequency ramps -- only ever makes a run *slower*, so the
/// minimum is the stable estimator.
std::size_t gScaleRepeats = 1;

/// Run a set of legs `gScaleRepeats` times round-robin and keep each leg's
/// best repetition.  Interleaving matters: running all repetitions of one leg
/// back to back would let slow drift (turbo decay, thermal throttling) bias
/// whichever leg happens to run last, which shows up as phantom overhead in
/// the traced-vs-untraced comparison.
std::vector<ScaleLeg> bestScaleLegs(
    const std::vector<std::function<ScaleLeg()>>& legs) {
  std::vector<ScaleLeg> best;
  best.reserve(legs.size());
  for (const auto& leg : legs) best.push_back(leg());
  for (std::size_t i = 1; i < gScaleRepeats; ++i) {
    for (std::size_t j = 0; j < legs.size(); ++j) {
      const ScaleLeg rep = legs[j]();
      if (rep.wallPerSimSecond < best[j].wallPerSimSecond) best[j] = rep;
    }
  }
  return best;
}

util::JsonValue benchScaleSolver(const ScaleShape& shape, double simWindow) {
  const ScaleLeg leg =
      bestScaleLegs({[&] { return runScaleLeg(shape, simWindow, NoObserver{}); }}).front();

  util::JsonObject entry;
  entry["name"] = "scale_" + std::to_string(shape.apps * shape.flowsPerApp) + "f_" +
                  std::to_string(shape.apps * shape.resPerApp) + "r";
  entry["flows"] = static_cast<double>(shape.apps * shape.flowsPerApp);
  entry["resources"] = static_cast<double>(shape.apps * shape.resPerApp);
  entry["components"] = static_cast<double>(shape.apps);
  entry["resolves_per_s"] = leg.resolvesPerS;
  entry["events_per_s"] = leg.eventsPerS;
  return util::JsonValue(std::move(entry));
}

util::JsonValue benchScaleTracing(const ScaleShape& shape, double simWindow) {
  // All three legs run the same scenario; only the attached observer
  // differs, so the wall-time delta is tracing cost alone.
  std::uint64_t ringRecorded = 0;
  const auto legs = bestScaleLegs({
      [&] { return runScaleLeg(shape, simWindow, NoObserver{}); },
      [&] {
        return runScaleLeg(shape, simWindow, [](sim::FluidSimulator& f) {
          return std::make_unique<sim::FlowTracer>(f);
        });
      },
      [&] {
        return runScaleLeg(shape, simWindow, [&](sim::FluidSimulator& f) {
          struct Hold {
            sim::RingTraceSink sink;
            std::uint64_t* recorded;
            Hold(sim::FluidSimulator& fluid, std::uint64_t* out)
                : sink(fluid, 1u << 20), recorded(out) {}
            ~Hold() { *recorded = sink.recorded(); }
          };
          return std::make_unique<Hold>(f, &ringRecorded);
        });
      },
  });
  const ScaleLeg& untraced = legs[0];
  const ScaleLeg& fullTraced = legs[1];
  const ScaleLeg& ringTraced = legs[2];

  const auto overheadPct = [&](const ScaleLeg& leg) {
    return 100.0 * (leg.wallPerSimSecond - untraced.wallPerSimSecond) /
           untraced.wallPerSimSecond;
  };
  util::JsonObject entry;
  entry["flows"] = static_cast<double>(shape.apps * shape.flowsPerApp);
  entry["resources"] = static_cast<double>(shape.apps * shape.resPerApp);
  entry["untraced_events_per_s"] = untraced.eventsPerS;
  entry["full_tracer_overhead_pct"] = overheadPct(fullTraced);
  entry["ring_sink_overhead_pct"] = overheadPct(ringTraced);
  entry["ring_records"] = static_cast<double>(ringRecorded);
  return util::JsonValue(std::move(entry));
}

util::JsonValue benchScaleCampaign(std::size_t nodes) {
  // The paper's Scenario-2 jobs are 4 nodes x 8 ppn; `nodes` scales that
  // topology up while keeping the per-rank working set small enough that the
  // leg finishes in seconds.  runOnce builds the whole stack (deployment,
  // filesystem, striping, IOR), so this measures the fluid core where it
  // actually lives.
  harness::RunConfig config;
  config.cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, nodes);
  config.fs.defaultStripe.stripeCount = 8;
  config.job = ior::IorJob::onFirstNodes(nodes, 8);
  config.ior.blockSize = ior::blockSizeForTotal(
      static_cast<util::Bytes>(config.job.ranks()) * 4_MiB, config.job.ranks());
  const auto record = harness::runOnce(config, 42);

  util::JsonObject entry;
  entry["name"] = "paper_topology_x" + std::to_string(config.job.ranks() / 32);
  entry["nodes"] = static_cast<double>(nodes);
  entry["ranks"] = static_cast<double>(config.job.ranks());
  entry["wall_s"] = record.wallSeconds;
  entry["resolves"] = static_cast<double>(record.resolves);
  entry["bandwidth_mibps"] = record.ior.bandwidth;
  return util::JsonValue(std::move(entry));
}

int runScaleBench(bool smoke) {
  ScaleShape shape{100, 10, 100, 0.8};
  double simWindow = 1.0;
  std::size_t campaignNodes = 4096;  // 32768 ranks = 1024x the paper's 32
  gScaleRepeats = 5;
  if (smoke) {
    shape = ScaleShape{4, 8, 25, 0.0};
    simWindow = 0.2;
    campaignNodes = 32;
    gScaleRepeats = 1;
  }

  util::JsonArray scenarios;
  scenarios.push_back(benchScaleSolver(shape, simWindow));
  util::JsonValue tracing = benchScaleTracing(shape, simWindow);
  util::JsonValue campaign = benchScaleCampaign(campaignNodes);

  util::JsonObject headline;
  headline["scale_events_per_s"] = scenarios.front().at("events_per_s").asNumber();
  headline["ring_overhead_pct"] = tracing.at("ring_sink_overhead_pct").asNumber();
  util::JsonObject doc;
  doc["benchmark"] = "fluid_scale";
  doc["mode"] = smoke ? "smoke" : "full";
  doc["scenarios"] = util::JsonValue(std::move(scenarios));
  doc["tracing"] = std::move(tracing);
  doc["campaign"] = std::move(campaign);
  doc["headline"] = util::JsonValue(std::move(headline));
  const util::JsonValue result(std::move(doc));

  const char* outEnv = std::getenv("BEESIM_SCALE_JSON");
  const std::string path = outEnv != nullptr && *outEnv != '\0'
                               ? outEnv
                               : (smoke ? std::string() : std::string("BENCH_fluid_scale.json"));
  if (!path.empty()) {
    std::ofstream file(path);
    file << result.dump(2) << "\n";
    std::cout << "fluid-scale campaign written to " << path << "\n";
  }
  std::cout << "fluid-scale: " << result.at("headline").at("scale_events_per_s").asNumber()
            << " exact resolve events/s, ring tracing overhead "
            << result.at("headline").at("ring_overhead_pct").asNumber() << "% (full tracer "
            << result.at("tracing").at("full_tracer_overhead_pct").asNumber() << "%)\n";

  // ctest smoke: the numbers are too small to threshold, but the machinery
  // must hold together -- the ring recorded events.
  if (smoke && result.at("tracing").at("ring_records").asNumber() <= 0.0) {
    std::cerr << "scale smoke: ring sink recorded nothing\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (envFlag("BEESIM_BENCH_SMOKE")) return runScaleBench(true);
  writeFluidCoreBench();
  const int scaleRc = runScaleBench(false);
  if (scaleRc != 0) return scaleRc;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
