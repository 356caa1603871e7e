// Micro-benchmarks of the simulator core (google-benchmark): the max-min
// solver at various flow populations, the event queue, one full IOR run per
// scenario, one mdtest run on the queued metadata path and one IOR write on
// the client chunk path -- the numbers that bound how fast campaigns
// execute.
//
// Before the google-benchmark suite runs, main() measures the fluid-core
// resolve throughput -- the pre-change baseline (full allocating rebuild +
// global solve per event) against the incremental component-aware resolver
// -- across flow-count sweeps and component shapes, and writes the numbers
// to BENCH_fluid_core.json (bench::writeReport; BEESIM_RESULTS_DIR picks
// the directory).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <string_view>

#include "beegfs/deployment.hpp"
#include "bench/common.hpp"
#include "beegfs/filesystem.hpp"
#include "harness/run.hpp"
#include "ior/mdtest.hpp"
#include "ior/runner.hpp"
#include "sim/fluid.hpp"
#include "sim/maxmin.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "topology/plafrim.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using namespace beesim;
using namespace beesim::util::literals;

void BM_MaxMinSolver(benchmark::State& state) {
  // The walk alone: the CSR view is built once and one workspace is reused
  // across iterations, as the fluid core does, so no iteration allocates.
  const auto nFlows = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  std::vector<double> capacity(24);
  for (auto& c : capacity) c = rng.uniform(100.0, 2000.0);
  std::vector<std::uint32_t> adjacency;
  std::vector<std::uint32_t> adjOffset(nFlows);
  std::vector<std::uint32_t> adjLen(nFlows, 5);
  std::vector<double> weight(nFlows);
  const std::vector<double> rateCap(nFlows, 0.0);
  std::vector<std::uint32_t> subset(nFlows);
  for (std::size_t f = 0; f < nFlows; ++f) {
    adjOffset[f] = static_cast<std::uint32_t>(adjacency.size());
    for (const auto r : rng.sampleWithoutReplacement(capacity.size(), 5)) {
      adjacency.push_back(static_cast<std::uint32_t>(r));
    }
    weight[f] = rng.uniform(0.5, 4.0);
    subset[f] = static_cast<std::uint32_t>(f);
  }
  const sim::SolverView view{capacity, adjacency, adjOffset, adjLen, weight, rateCap};
  sim::SolverWorkspace workspace;
  std::vector<double> rates(nFlows, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workspace.solveSubset(view, subset, rates));
    benchmark::ClobberMemory();
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

void BM_MetadataOps(benchmark::State& state) {
  // The queued metadata path (DESIGN.md §2.10) end to end: one mdtest run,
  // 16 ranks x 256 files through create, stat and unlink, on four
  // hash-sharded MDTs (set-up included).  ops_per_s is metadata ops per
  // host CPU second.
  const auto cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 2);
  beegfs::BeegfsParams params;
  params.meta.queued = true;
  params.meta.mdtCount = 4;
  const auto job = ior::IorJob::onFirstNodes(2, 8);
  ior::MdtestOptions options;
  options.filesPerRank = 256;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    sim::FluidSimulator fluid;
    util::Rng rng(42);
    beegfs::Deployment deployment(fluid, cluster, params, rng.split());
    beegfs::FileSystem fs(deployment, rng.split());
    ops += ior::runMdtest(fs, job, options).totalOps;
  }
  state.counters["ops_per_s"] =
      benchmark::Counter(static_cast<double>(ops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MetadataOps)->Unit(benchmark::kMillisecond);

void BM_ChunkOps(benchmark::State& state) {
  // The client chunk path (DESIGN.md §2.3) end to end: one N-1 IOR write,
  // 16 ranks x 256 segments of 1 MiB over 4 targets in 512 KiB chunks
  // (8192 chunk ops, set-up included), plain (arg 0) or on the hedged path
  // with its lag checks (arg 1).  chunk_ops_per_s is chunk ops per host CPU
  // second.
  const auto cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 2);
  beegfs::BeegfsParams params;
  params.hedge.enabled = state.range(0) == 1;
  params.hedge.deadline = 0.05;
  const auto job = ior::IorJob::onFirstNodes(2, 8);
  ior::IorOptions options;
  options.transferSize = 1_MiB;
  options.blockSize = 1_MiB;
  options.segments = 256;
  const auto opsPerRun = static_cast<std::uint64_t>(job.ranks()) *
                         static_cast<std::uint64_t>(options.segments) *
                         (options.blockSize / params.defaultStripe.chunkSize);
  std::uint64_t ops = 0;
  for (auto _ : state) {
    sim::FluidSimulator fluid;
    util::Rng rng(42);
    beegfs::Deployment deployment(fluid, cluster, params, rng.split());
    beegfs::FileSystem fs(deployment, rng.split());
    benchmark::DoNotOptimize(ior::runIor(fs, job, options).bandwidth);
    ops += opsPerRun;
  }
  state.counters["chunk_ops_per_s"] =
      benchmark::Counter(static_cast<double>(ops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ChunkOps)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

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

harness::ResultRow benchFluidCoreScenario(const std::string& name, std::size_t nApps,
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

  harness::ResultRow row;
  row.factors = {{"scenario", name}, {"shape", shared ? "shared" : "disjoint"}};
  row.metrics = {{"apps", static_cast<double>(nApps)},
                 {"flows", static_cast<double>(nApps * flowsPerApp)},
                 {"resources", static_cast<double>(scenario.capacity.size())},
                 {"baseline_ns_per_resolve", baseline.nsPerResolve},
                 {"incremental_ns_per_resolve", incremental.nsPerResolve},
                 {"baseline_resolves_per_s", 1e9 / baseline.nsPerResolve},
                 {"incremental_resolves_per_s", 1e9 / incremental.nsPerResolve},
                 {"baseline_solver_iterations", baseline.iterationsPerResolve},
                 {"incremental_solver_iterations", incremental.iterationsPerResolve},
                 {"speedup", baseline.nsPerResolve / incremental.nsPerResolve}};
  return row;
}

/// End-to-end FluidSimulator numbers (event loop + capacity evaluation +
/// component bookkeeping included), for context next to the solver-level
/// comparison.
harness::ResultRow benchFluidSimulator(bool disjoint) {
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

  const std::string shape = disjoint ? "disjoint" : "shared";
  harness::ResultRow row;
  row.factors = {{"scenario", "fluid_sim_" + shape}, {"shape", shape}};
  row.metrics = {{"apps", static_cast<double>(kApps)},
                 {"flows", static_cast<double>(kApps * kFlowsPerApp)},
                 {"resources", static_cast<double>(nRes)},
                 {"ns_per_resolve", elapsed * 1e9 / static_cast<double>(resolves)},
                 {"resolves_per_s", static_cast<double>(resolves) / elapsed},
                 {"solver_iterations_per_resolve",
                  static_cast<double>(iterations) / static_cast<double>(resolves)}};
  return row;
}

void writeFluidCoreBench() {
  harness::ResultStore store;
  for (const std::size_t flowsPerApp : {32u, 128u, 512u}) {
    for (const bool shared : {false, true}) {
      const std::string name = std::string(shared ? "shared" : "disjoint") +
                               "_two_app_" + std::to_string(2 * flowsPerApp) + "f";
      store.add(benchFluidCoreScenario(name, 2, flowsPerApp, 16, shared));
    }
  }
  store.add(benchFluidSimulator(true));
  store.add(benchFluidSimulator(false));
  bench::writeReport("fluid_core", store, {});
  const auto speedup = [&](const char* scenario) {
    return store.metric("speedup", {{"scenario", scenario}}).front();
  };
  std::cout << "fluid-core: disjoint two-app speedup " << speedup("disjoint_two_app_256f")
            << "x, shared " << speedup("shared_two_app_256f") << "x\n";
}

// --- Cluster-scale fluid bench: exact resolves, trace sinks ------------
//
// The scale campaign behind results/BENCH_fluid_scale.json.  Three parts,
// one report row each:
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
//                          writes no file;
//   (unset)                full sizes, written to BENCH_fluid_scale.json.
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

/// "<flows>f_<resources>r", the size part of a scale row's scenario name.
std::string scaleSize(const ScaleShape& shape) {
  return std::to_string(shape.apps * shape.flowsPerApp) + "f_" +
         std::to_string(shape.apps * shape.resPerApp) + "r";
}

harness::ResultRow benchScaleSolver(const ScaleShape& shape, double simWindow) {
  const ScaleLeg leg =
      bestScaleLegs({[&] { return runScaleLeg(shape, simWindow, NoObserver{}); }}).front();

  harness::ResultRow row;
  row.factors = {{"scenario", "scale_" + scaleSize(shape)}};
  row.metrics = {{"flows", static_cast<double>(shape.apps * shape.flowsPerApp)},
                 {"resources", static_cast<double>(shape.apps * shape.resPerApp)},
                 {"components", static_cast<double>(shape.apps)},
                 {"resolves_per_s", leg.resolvesPerS},
                 {"events_per_s", leg.eventsPerS}};
  return row;
}

harness::ResultRow benchScaleTracing(const ScaleShape& shape, double simWindow) {
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
            ~Hold() { *recorded = sink.log().recorded(); }
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
  harness::ResultRow row;
  row.factors = {{"scenario", "tracing_" + scaleSize(shape)}};
  row.metrics = {{"flows", static_cast<double>(shape.apps * shape.flowsPerApp)},
                 {"resources", static_cast<double>(shape.apps * shape.resPerApp)},
                 {"untraced_events_per_s", untraced.eventsPerS},
                 {"full_tracer_overhead_pct", overheadPct(fullTraced)},
                 {"ring_sink_overhead_pct", overheadPct(ringTraced)},
                 {"ring_records", static_cast<double>(ringRecorded)}};
  return row;
}

harness::ResultRow benchScaleCampaign(std::size_t nodes) {
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

  harness::ResultRow row;
  row.factors = {{"scenario", "paper_topology_x" + std::to_string(config.job.ranks() / 32)}};
  row.metrics = {{"nodes", static_cast<double>(nodes)},
                 {"ranks", static_cast<double>(config.job.ranks())},
                 {"wall_s", record.wallSeconds},
                 {"resolves", static_cast<double>(record.resolves)},
                 {"bandwidth_mibps", record.ior.bandwidth}};
  return row;
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

  const auto solver = benchScaleSolver(shape, simWindow);
  const auto tracing = benchScaleTracing(shape, simWindow);
  harness::ResultStore store;
  store.add(solver);
  store.add(tracing);
  store.add(benchScaleCampaign(campaignNodes));
  if (!smoke) bench::writeReport("fluid_scale", store, {});
  std::cout << "fluid-scale: " << solver.metrics.at("events_per_s")
            << " exact resolve events/s, ring tracing overhead "
            << tracing.metrics.at("ring_sink_overhead_pct") << "% (full tracer "
            << tracing.metrics.at("full_tracer_overhead_pct") << "%)\n";

  // ctest smoke: the numbers are too small to threshold, but the machinery
  // must hold together -- the ring recorded events.
  if (smoke && tracing.metrics.at("ring_records") <= 0.0) {
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
