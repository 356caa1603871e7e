// The run-level observability pipeline end to end: observer fan-out through
// FluidSimulator's observer list, the RateSampler's rates and sample grid,
// the FlowTracer's metrics series and Chrome-trace export, and the
// utilization/profiling data flowing up into campaign rows and totals.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "harness/campaign.hpp"
#include "harness/run.hpp"
#include "ior/options.hpp"
#include "sim/fluid.hpp"
#include "sim/trace.hpp"
#include "topology/plafrim.hpp"
#include "util/json.hpp"
#include "util/units.hpp"

namespace beesim::sim {
namespace {

using namespace beesim::util::literals;

struct CountingObserver final : FluidObserver {
  int started = 0;
  int solved = 0;
  int completed = 0;
  int cancelled = 0;
  void onFlowStarted(FlowId, std::span<const ResourceIndex>, util::Bytes,
                     SimTime) override {
    ++started;
  }
  void onRatesSolved(SimTime, std::span<const FlowId>, std::span<const util::MiBps>,
                     std::size_t) override {
    ++solved;
  }
  void onFlowCompleted(const FlowStats&) override { ++completed; }
  void onFlowCancelled(const FlowStats&) override { ++cancelled; }
};

/// Removes `target` (itself by default) from the simulator on the first
/// flow start -- exercises mutation of the observer list mid-dispatch.
struct SelfRemovingObserver final : FluidObserver {
  explicit SelfRemovingObserver(FluidSimulator& fluid, FluidObserver* target = nullptr)
      : fluid_(fluid), target_(target != nullptr ? target : this) {}
  int started = 0;
  void onFlowStarted(FlowId, std::span<const ResourceIndex>, util::Bytes,
                     SimTime) override {
    ++started;
    fluid_.removeObserver(target_);
  }
  void onRatesSolved(SimTime, std::span<const FlowId>, std::span<const util::MiBps>,
                     std::size_t) override {}
  void onFlowCompleted(const FlowStats&) override {}

 private:
  FluidSimulator& fluid_;
  FluidObserver* target_;
};

void runOneFlow(FluidSimulator& fluid, ResourceIndex link) {
  fluid.startFlow(FlowSpec{.path = {link}, .bytes = 10_MiB, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = nullptr});
  fluid.run();
}

TEST(Observers, FansOutToEveryObserverInAttachmentOrder) {
  FluidSimulator fluid;
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(100.0)});
  CountingObserver a;
  CountingObserver b;
  fluid.addObserver(&a);
  fluid.addObserver(&b);
  runOneFlow(fluid, link);

  EXPECT_EQ(a.started, 1);
  EXPECT_EQ(b.started, 1);
  EXPECT_EQ(a.completed, 1);
  EXPECT_EQ(b.completed, 1);
  EXPECT_GT(a.solved, 0);
  EXPECT_EQ(a.solved, b.solved);
}

TEST(Observers, RemoveDetachesOnlyThatObserver) {
  FluidSimulator fluid;
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(100.0)});
  CountingObserver a;
  CountingObserver b;
  fluid.addObserver(&a);
  fluid.addObserver(&b);
  fluid.removeObserver(&a);
  // Removing an observer that is not attached is a no-op.
  CountingObserver stranger;
  fluid.removeObserver(&stranger);
  runOneFlow(fluid, link);

  EXPECT_EQ(a.started, 0);
  EXPECT_EQ(b.started, 1);
}

TEST(Observers, AttachedMidRunComposesWithResident) {
  // An observer that is already attached (and has seen events) keeps
  // receiving them after a second one attaches mid-run.
  FluidSimulator fluid;
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(100.0)});
  CountingObserver resident;
  CountingObserver added;
  fluid.addObserver(&resident);
  runOneFlow(fluid, link);

  fluid.addObserver(&added);
  runOneFlow(fluid, link);

  EXPECT_EQ(resident.started, 2);
  EXPECT_EQ(resident.completed, 2);
  EXPECT_EQ(added.started, 1);
  EXPECT_EQ(added.completed, 1);
}

TEST(Observers, SelfRemovalDuringDispatchIsSafe) {
  FluidSimulator fluid;
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(100.0)});
  SelfRemovingObserver quitter(fluid);
  CountingObserver survivor;
  fluid.addObserver(&quitter);
  fluid.addObserver(&survivor);
  runOneFlow(fluid, link);
  runOneFlow(fluid, link);

  EXPECT_EQ(quitter.started, 1);  // only the first flow
  EXPECT_EQ(survivor.started, 2);
}

TEST(Observers, RemovingAnEarlierObserverMidDispatchSkipsNoLaterOne) {
  // The middle observer detaches the first one while the start event is
  // being dispatched; the shift must not make the dispatch skip the third.
  FluidSimulator fluid;
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(100.0)});
  CountingObserver first;
  SelfRemovingObserver remover(fluid, &first);
  CountingObserver last;
  fluid.addObserver(&first);
  fluid.addObserver(&remover);
  fluid.addObserver(&last);
  runOneFlow(fluid, link);

  EXPECT_EQ(first.started, 1);
  EXPECT_EQ(first.completed, 0);  // detached before the flow finished
  EXPECT_EQ(remover.started, 1);
  EXPECT_EQ(last.started, 1);
  EXPECT_EQ(last.completed, 1);
}

TEST(Observers, DuplicateAddIsIgnored) {
  FluidSimulator fluid;
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(100.0)});
  CountingObserver a;
  fluid.addObserver(&a);
  fluid.addObserver(&a);
  runOneFlow(fluid, link);
  EXPECT_EQ(a.started, 1);
}

TEST(Tracer, DoesNotClobberEarlierObserver) {
  // Regression: the FlowTracer constructor used to claim the single observer
  // slot and silently disconnected whatever was installed before it.
  FluidSimulator fluid;
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(100.0)});
  CountingObserver first;
  fluid.addObserver(&first);
  FlowTracer tracer(fluid);
  runOneFlow(fluid, link);

  EXPECT_EQ(first.started, 1);
  EXPECT_FALSE(tracer.events().empty());
}

TEST(Tracer, DestructionDetachesOnlyItself) {
  // Regression: the FlowTracer destructor used to clear the observer slot and
  // tore down observers installed *after* it.
  FluidSimulator fluid;
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(100.0)});
  auto tracer = std::make_unique<FlowTracer>(fluid);
  CountingObserver later;
  fluid.addObserver(&later);
  tracer.reset();
  runOneFlow(fluid, link);

  EXPECT_EQ(later.started, 1);
  EXPECT_EQ(later.completed, 1);
}

TEST(Tracer, IdleResourcesReportZeroRows) {
  // Regression: resourceUsage() only covered resources that ever saw a
  // nonzero rate, so idle links/OSTs were missing from the report.
  FluidSimulator fluid;
  FlowTracer tracer(fluid);
  const auto busy = fluid.addResource(ResourceSpec{"busy", constantCapacity(100.0)});
  const auto idle = fluid.addResource(ResourceSpec{"idle", constantCapacity(100.0)});
  (void)idle;
  runOneFlow(fluid, busy);

  const auto usage = tracer.resourceUsage();
  ASSERT_EQ(usage.size(), fluid.resourceCount());
  EXPECT_EQ(usage[1].name, "idle");
  EXPECT_EQ(usage[1].mib, 0.0);
  EXPECT_EQ(usage[1].busyTime, 0.0);
  EXPECT_EQ(usage[1].peakRate, 0.0);
  EXPECT_GT(usage[0].mib, 0.0);
}

TEST(Tracer, MetricsSeriesSamplesRatesAndImbalance) {
  FluidSimulator fluid;
  FlowTracer tracer(fluid);
  const auto a = fluid.addResource(ResourceSpec{"a", constantCapacity(10.0)});
  const auto b = fluid.addResource(ResourceSpec{"b", constantCapacity(10.0)});
  tracer.setMetricsInterval(1.0);
  tracer.trackLink(a, "linkA");
  tracer.trackLink(b, "linkB");
  // One 10 s flow through a only: every sample sees 10 MiB/s on linkA, 0 on
  // linkB, so the imbalance index is exactly 2 (all traffic on one of two).
  fluid.startFlow(FlowSpec{.path = {a}, .bytes = 100_MiB, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = nullptr});
  fluid.run();

  ASSERT_EQ(tracer.samples().size(), 10u);  // t = 1..10
  for (const auto& sample : tracer.samples()) {
    EXPECT_EQ(sample.activeFlows, 1u);
    EXPECT_NEAR(sample.aggregateRate, 10.0, 1e-9);
    ASSERT_EQ(sample.linkRates.size(), 2u);
    EXPECT_NEAR(sample.linkRates[0], 10.0, 1e-9);
    EXPECT_NEAR(sample.linkRates[1], 0.0, 1e-9);
    EXPECT_NEAR(sample.linkImbalance, 2.0, 1e-9);
  }
  EXPECT_NEAR(tracer.samples().front().time, 1.0, 1e-12);
  EXPECT_NEAR(tracer.samples().back().time, 10.0, 1e-12);
}

TEST(Tracer, MetricsCsvHasHeaderAndOneRowPerSample) {
  FluidSimulator fluid;
  FlowTracer tracer(fluid);
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(10.0)});
  tracer.setMetricsInterval(0.5);
  tracer.trackLink(link, "linkA");
  fluid.startFlow(FlowSpec{.path = {link}, .bytes = 20_MiB, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = nullptr});
  fluid.run();

  const auto csv = tracer.metricsCsv();
  std::istringstream lines(csv);
  std::string header;
  std::getline(lines, header);
  EXPECT_EQ(header, "t,active_flows,aggregate_mibps,link_imbalance,linkA");
  std::size_t rows = 0;
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, tracer.samples().size());
}

TEST(Tracer, ChromeTraceRoundTripsThroughJsonParser) {
  FluidSimulator fluid;
  FlowTracer tracer(fluid);
  const auto link = fluid.addResource(ResourceSpec{"srv \"0\"", constantCapacity(10.0)});
  tracer.setMetricsInterval(0.5);
  tracer.trackLink(link, "srv \"0\"");  // name needing JSON escaping
  const auto id = fluid.startFlow(FlowSpec{.path = {link}, .bytes = 10_MiB,
                                           .queueWeight = 1.0, .rateCap = 0.0,
                                           .onComplete = nullptr});
  fluid.run();

  const auto doc = util::parseJson(tracer.toChromeTrace());
  ASSERT_TRUE(doc.isObject());
  EXPECT_EQ(doc.at("displayTimeUnit").asString(), "ms");
  const auto& events = doc.at("traceEvents").asArray();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().at("ph").asString(), "M");
  bool sawBegin = false;
  bool sawEnd = false;
  bool sawCounter = false;
  for (const auto& event : events) {
    const auto& ph = event.at("ph").asString();
    if (ph == "b" && event.at("id").asNumber() == static_cast<double>(id.value)) {
      sawBegin = true;
      EXPECT_EQ(event.at("args").at("bytes").asNumber(),
                static_cast<double>(10_MiB));
    }
    if (ph == "e") sawEnd = true;
    if (ph == "C" && event.at("name").asString() == "link_mibps") {
      sawCounter = true;
      EXPECT_TRUE(event.at("args").has("srv \"0\""));
    }
  }
  EXPECT_TRUE(sawBegin);
  EXPECT_TRUE(sawEnd);
  EXPECT_TRUE(sawCounter);
}

TEST(Tracer, WriteChromeTraceAndMetricsToFiles) {
  FluidSimulator fluid;
  FlowTracer tracer(fluid);
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(10.0)});
  tracer.setMetricsInterval(0.5);
  tracer.trackLink(link, "link");
  runOneFlow(fluid, link);

  const auto dir = std::filesystem::temp_directory_path();
  const auto tracePath = dir / "beesim_obs_trace.json";
  const auto metricsPath = dir / "beesim_obs_metrics.csv";
  tracer.writeChromeTrace(tracePath);
  tracer.writeMetricsCsv(metricsPath);
  EXPECT_GT(std::filesystem::file_size(tracePath), 0u);
  EXPECT_GT(std::filesystem::file_size(metricsPath), 0u);
  // The file round-trips through the JSON parser too.
  std::ifstream in(tracePath);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(util::parseJson(buffer.str()).isObject());
  std::filesystem::remove(tracePath);
  std::filesystem::remove(metricsPath);
}

// -- RateSampler: the rate layer the controllers sense through -------------

TEST(RateSampler, LinkRatesMatchTheFluidUnderChurn) {
  // Oracle: at every grid point the sampled per-link rate is the sum of
  // flowRate over the live flows crossing the link, read from the fluid
  // itself by a probe event at the same virtual time.
  FluidSimulator fluid;
  const std::vector<ResourceIndex> nics = {
      fluid.addResource(ResourceSpec{"srv0", constantCapacity(150.0)}),
      fluid.addResource(ResourceSpec{"srv1", constantCapacity(170.0)})};
  const std::vector<ResourceIndex> clients = {
      fluid.addResource(ResourceSpec{"cli0", constantCapacity(120.0)}),
      fluid.addResource(ResourceSpec{"cli1", constantCapacity(90.0)}),
      fluid.addResource(ResourceSpec{"cli2", constantCapacity(200.0)})};
  RateSampler sampler(fluid);
  constexpr util::Seconds kDt = 0.25;
  sampler.setMetricsInterval(kDt);
  for (const auto nic : nics) sampler.trackLink(nic);
  std::vector<MetricsSample> samples;
  sampler.setSampleListener([&samples](const MetricsSample& s) { samples.push_back(s); });

  struct Started {
    FlowId id;
    std::vector<ResourceIndex> path;
  };
  std::vector<Started> flows;
  const auto start = [&](SimTime at, std::vector<ResourceIndex> path, util::Bytes bytes,
                         double queueWeight, SimTime cancelAt) {
    fluid.engine().scheduleAfter(at, [&, path, bytes, queueWeight, cancelAt, at] {
      const auto id = fluid.startFlow(FlowSpec{.path = path, .bytes = bytes,
                                               .queueWeight = queueWeight, .rateCap = 0.0,
                                               .onComplete = nullptr});
      flows.push_back({id, path});
      if (cancelAt > at) {
        fluid.engine().scheduleAfter(cancelAt - at, [&fluid, id] { fluid.cancelFlow(id); });
      }
    });
  };
  // Client writes onto both servers; every third is cancelled mid-flight.
  for (int i = 0; i < 12; ++i) {
    const SimTime at = 0.11 + 0.43 * i;  // never on the 0.25 s grid
    const SimTime cancelAt = i % 3 == 2 ? at + 0.61 : 0.0;
    start(at, {clients[i % 3], nics[i % 2]}, (50 + 37 * i) * 1_MiB, 1.0, cancelAt);
  }
  // A low-weight migration crossing both server NICs.
  start(1.09, {nics[0], nics[1]}, 150_MiB, 0.25, 0.0);

  struct Probe {
    SimTime time = 0.0;
    std::size_t active = 0;
    std::vector<double> rates;
    std::vector<std::uint32_t> counts;
  };
  std::vector<Probe> probes;
  SimTime t = kDt;  // the sampler's grid: attach time 0, repeated += dt
  for (int k = 0; k < 80; ++k, t += kDt) {
    fluid.engine().scheduleAfter(t, [&, t] {
      Probe probe{t, 0, std::vector<double>(nics.size(), 0.0),
                  std::vector<std::uint32_t>(nics.size(), 0)};
      for (const auto& flow : flows) {
        if (!fluid.flowActive(flow.id)) continue;
        ++probe.active;
        for (std::size_t l = 0; l < nics.size(); ++l) {
          const auto crosses = [&](ResourceIndex r) { return r.value == nics[l].value; };
          if (std::none_of(flow.path.begin(), flow.path.end(), crosses)) continue;
          probe.rates[l] += fluid.flowRate(flow.id);
          ++probe.counts[l];
        }
      }
      probes.push_back(std::move(probe));
    });
  }
  fluid.run();

  ASSERT_GE(samples.size(), 20u);
  ASSERT_LE(samples.size(), probes.size());
  bool sawMigrationOverlap = false;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto& sample = samples[i];
    const auto& probe = probes[i];
    ASSERT_EQ(sample.time, probe.time);
    EXPECT_EQ(sample.activeFlows, probe.active) << "t=" << sample.time;
    for (std::size_t l = 0; l < nics.size(); ++l) {
      EXPECT_EQ(sample.linkFlows[l], probe.counts[l]) << "t=" << sample.time;
      EXPECT_NEAR(sample.linkRates[l], probe.rates[l], 1e-9) << "t=" << sample.time;
    }
    sawMigrationOverlap |= sample.linkFlows[0] > 1 && sample.linkFlows[1] > 1;
  }
  EXPECT_TRUE(sawMigrationOverlap);
  EXPECT_EQ(sampler.idleSamples(), 0u);
}

TEST(RateSampler, IdlePrefixIsCountedNotDispatched) {
  // A run that starts late in virtual time: the grid points before its first
  // flow are counted, never built or dispatched, and the first dispatched
  // sample is the one a full series (FlowTracer) takes after that flow.
  FluidSimulator fluid;
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(100.0)});
  constexpr util::Seconds kDt = 0.25;
  constexpr SimTime kStart = 1e4;
  FlowTracer tracer(fluid);
  tracer.setMetricsInterval(kDt);
  tracer.trackLink(link, "link");
  RateSampler sampler(fluid);
  sampler.setMetricsInterval(kDt);
  sampler.trackLink(link);
  bool started = false;
  std::vector<SimTime> times;
  sampler.setSampleListener([&](const MetricsSample& s) {
    EXPECT_TRUE(started) << "sample at t=" << s.time << " before the first flow";
    times.push_back(s.time);
  });
  fluid.engine().scheduleAfter(kStart, [&] {
    started = true;
    fluid.startFlow(FlowSpec{.path = {link}, .bytes = 50_MiB, .queueWeight = 1.0,
                             .rateCap = 0.0, .onComplete = nullptr});
  });
  fluid.run();

  std::size_t gridPoints = 0;
  SimTime next = kDt;
  while (next <= kStart) {
    ++gridPoints;
    next += kDt;
  }
  EXPECT_EQ(sampler.idleSamples(), gridPoints);
  EXPECT_EQ(tracer.idleSamples(), 0u);
  ASSERT_FALSE(times.empty());
  EXPECT_EQ(times.front(), next);
  ASSERT_EQ(tracer.samples().size(), gridPoints + times.size());
  EXPECT_EQ(tracer.samples()[gridPoints].time, times.front());
  EXPECT_EQ(tracer.samples().back().time, times.back());
}

TEST(RateSampler, IdlePrefixCountFollowsTheRoundedGrid) {
  // The idle prefix is skipped in closed form per binade; the count and the
  // first sample time must still be those of the repeated += dt, including
  // intervals that are not binary fractions and binades where dt rounds
  // half-way: 0.1 and 0.3 have one below 1 s, and 0.5 + 2^-40 rounds
  // half-way at every step of [8192, 16384).
  for (const double dt : {0.1, 0.3, 1.0 / 3.0, 0.05, 0.25, 1.7, 0.5 + std::ldexp(1.0, -40)}) {
    for (const SimTime first : {0.6, 1e4 + 0.0123, 98765.4321}) {
      FluidSimulator fluid;
      const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(100.0)});
      RateSampler sampler(fluid);
      sampler.setMetricsInterval(dt);
      sampler.trackLink(link);
      SimTime firstSample = -1.0;
      sampler.setSampleListener([&firstSample](const MetricsSample& s) {
        if (firstSample < 0.0) firstSample = s.time;
      });
      fluid.engine().scheduleAfter(first, [&] {
        fluid.startFlow(FlowSpec{.path = {link}, .bytes = 1000_MiB, .queueWeight = 1.0,
                                 .rateCap = 0.0, .onComplete = nullptr});
      });
      fluid.run();

      std::size_t gridPoints = 0;
      SimTime next = dt;
      while (next <= first) {
        ++gridPoints;
        next += dt;
      }
      EXPECT_EQ(sampler.idleSamples(), gridPoints) << "dt=" << dt << " first=" << first;
      EXPECT_EQ(firstSample, next) << "dt=" << dt << " first=" << first;
    }
  }
}

}  // namespace
}  // namespace beesim::sim

namespace beesim::harness {
namespace {

using namespace beesim::util::literals;

RunConfig smallConfig() {
  RunConfig config;
  config.cluster = topo::makePlafrim(topo::Scenario::kEthernet10G, 2);
  config.fs.defaultStripe.stripeCount = 4;
  config.job = ior::IorJob::onFirstNodes(2, 8);
  config.ior.blockSize = ior::blockSizeForTotal(2_GiB, config.job.ranks());
  return config;
}

TEST(Observability, UtilizationFillsPerServerSplit) {
  auto config = smallConfig();
  config.pinnedTargets = std::vector<std::size_t>{0, 4, 5, 6};  // (1,3)
  config.observe.utilization = true;
  const auto record = runOnce(config, 11);

  ASSERT_TRUE(record.ior.util.active);
  ASSERT_EQ(record.ior.util.serverMiB.size(), 2u);
  const double total = record.ior.util.serverMiB[0] + record.ior.util.serverMiB[1];
  EXPECT_NEAR(total, util::toMiB(record.ior.totalBytes), total * 1e-6);
  EXPECT_NEAR(record.ior.util.serverMiB[1] / total, 0.75, 1e-6);
  EXPECT_NEAR(record.ior.util.linkImbalance, 1.5, 1e-6);
  EXPECT_GT(record.ior.util.serverBusyFrac[1], record.ior.util.serverBusyFrac[0]);
  EXPECT_LE(record.ior.util.serverBusyFrac[1], 1.0 + 1e-9);
}

TEST(Observability, TracedRunsMatchUntracedBitwise) {
  auto plain = smallConfig();
  auto traced = smallConfig();
  traced.observe.utilization = true;
  traced.observe.profile = true;
  const auto a = runOnce(plain, 7);
  const auto b = runOnce(traced, 7);
  EXPECT_DOUBLE_EQ(a.ior.bandwidth, b.ior.bandwidth);
  EXPECT_DOUBLE_EQ(a.ior.end, b.ior.end);
  EXPECT_EQ(a.resolves, b.resolves);
  // Only the profiled run pays for (and reports) solver wall time.
  EXPECT_EQ(a.solveSeconds, 0.0);
  EXPECT_GT(b.solveSeconds, 0.0);
}

TEST(Observability, CampaignRowsCarryUtilizationColumnsOnlyWhenEnabled) {
  std::vector<CampaignEntry> entries(1);
  entries[0].config = smallConfig();
  ProtocolOptions protocol;
  protocol.repetitions = 2;

  ExecutorOptions serialExec;
  serialExec.jobs = 1;
  const auto plain = executeCampaign(entries, protocol, 5, nullptr, serialExec);
  for (const auto& row : plain.rows()) {
    EXPECT_EQ(row.metrics.count("srv0_mib"), 0u);
    EXPECT_EQ(row.metrics.count("link_imbalance"), 0u);
  }

  entries[0].config.observe.utilization = true;
  const auto observed = executeCampaign(entries, protocol, 5, nullptr, serialExec);
  for (const auto& row : observed.rows()) {
    EXPECT_EQ(row.metrics.count("srv0_mib"), 1u);
    EXPECT_EQ(row.metrics.count("srv0_busy_frac"), 1u);
    EXPECT_EQ(row.metrics.count("srv1_mib"), 1u);
    EXPECT_EQ(row.metrics.count("link_imbalance"), 1u);
  }
  // Observation does not perturb the measured bandwidth.
  EXPECT_EQ(plain.metric("bandwidth_mibps"), observed.metric("bandwidth_mibps"));
}

TEST(Observability, ObservedCampaignCsvInvariantToJobs) {
  std::vector<CampaignEntry> entries(1);
  entries[0].config = smallConfig();
  entries[0].config.observe.utilization = true;
  entries[0].config.observe.profile = true;
  ProtocolOptions protocol;
  protocol.repetitions = 4;

  ExecutorOptions serialExec;
  serialExec.jobs = 1;
  ExecutorOptions parallelExec;
  parallelExec.jobs = 4;
  const auto serial = executeCampaign(entries, protocol, 9, nullptr, serialExec);
  const auto parallel = executeCampaign(entries, protocol, 9, nullptr, parallelExec);

  const auto dir = std::filesystem::temp_directory_path();
  const auto pathA = dir / "beesim_obs_serial.csv";
  const auto pathB = dir / "beesim_obs_parallel.csv";
  serial.writeCsv(pathA);
  parallel.writeCsv(pathB);
  std::ifstream a(pathA);
  std::ifstream b(pathB);
  std::stringstream bufA;
  std::stringstream bufB;
  bufA << a.rdbuf();
  bufB << b.rdbuf();
  EXPECT_EQ(bufA.str(), bufB.str());
  EXPECT_NE(bufA.str().find("link_imbalance"), std::string::npos);
  std::filesystem::remove(pathA);
  std::filesystem::remove(pathB);
}

TEST(Observability, CampaignTotalsAccumulateInCommitOrder) {
  std::vector<CampaignEntry> entries(1);
  entries[0].config = smallConfig();
  entries[0].config.observe.profile = true;
  ProtocolOptions protocol;
  protocol.repetitions = 3;

  CampaignTotals totals;
  ExecutorOptions exec;
  exec.jobs = 1;
  exec.totals = &totals;
  (void)executeCampaign(entries, protocol, 13, nullptr, exec);

  EXPECT_EQ(totals.runs, 3u);
  EXPECT_GT(totals.resolves, 0u);
  EXPECT_GT(totals.solverIterations, 0u);
  EXPECT_GT(totals.solveSeconds, 0.0);
  EXPECT_GT(totals.runWallSeconds, 0.0);
  EXPECT_GE(totals.runWallSeconds, totals.maxRunWallSeconds);
  EXPECT_GT(totals.campaignWallSeconds, 0.0);

  // The deterministic counters are --jobs invariant.
  CampaignTotals parallelTotals;
  exec.jobs = 4;
  exec.totals = &parallelTotals;
  (void)executeCampaign(entries, protocol, 13, nullptr, exec);
  EXPECT_EQ(parallelTotals.runs, totals.runs);
  EXPECT_EQ(parallelTotals.resolves, totals.resolves);
  EXPECT_EQ(parallelTotals.solverIterations, totals.solverIterations);
}

}  // namespace
}  // namespace beesim::harness
