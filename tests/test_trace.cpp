#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include "beegfs/deployment.hpp"
#include "beegfs/filesystem.hpp"
#include "ior/runner.hpp"
#include "topology/plafrim.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/string_util.hpp"
#include "util/units.hpp"

namespace beesim::sim {
namespace {

using namespace beesim::util::literals;

TEST(Trace, RecordsStartRatesComplete) {
  FluidSimulator fluid;
  FlowTracer tracer(fluid);
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(100.0)});
  fluid.startFlow(FlowSpec{.path = {link}, .bytes = 100_MiB, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = nullptr});
  fluid.run();

  const auto events = tracer.log().snapshot();
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events.front().kind, TraceRecord::Kind::kStart);
  EXPECT_EQ(events.back().kind, TraceRecord::Kind::kComplete);
  EXPECT_EQ(events.back().bytes, 100_MiB);
  EXPECT_NEAR(events.back().value, 100.0, 1e-6);
}

TEST(Trace, ResourceUsageBanksExactBytes) {
  FluidSimulator fluid;
  FlowTracer tracer(fluid);
  const auto a = fluid.addResource(ResourceSpec{"a", constantCapacity(100.0)});
  const auto b = fluid.addResource(ResourceSpec{"b", constantCapacity(50.0)});
  // Two flows: one crosses a only, one crosses a and b.
  fluid.startFlow(FlowSpec{.path = {a}, .bytes = 60_MiB, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = nullptr});
  fluid.startFlow(FlowSpec{.path = {a, b}, .bytes = 30_MiB, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = nullptr});
  fluid.run();

  EXPECT_NEAR(tracer.resourceMiB(a), 90.0, 1e-6);  // both flows
  EXPECT_NEAR(tracer.resourceMiB(b), 30.0, 1e-6);  // only the second
  const auto usage = tracer.resourceUsage();
  ASSERT_EQ(usage.size(), 2u);
  EXPECT_EQ(usage[0].name, "a");
  EXPECT_GT(usage[0].peakRate, 0.0);
  EXPECT_GT(usage[0].busyTime, 0.0);
}

TEST(Trace, JsonlLinesAreValidJson) {
  FluidSimulator fluid;
  FlowTracer tracer(fluid);
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(10.0)});
  fluid.startFlow(FlowSpec{.path = {link}, .bytes = 10_MiB, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = nullptr});
  fluid.run();

  const auto jsonl = tracer.log().toJsonl();
  int lines = 0;
  for (const auto& line : util::split(jsonl, '\n')) {
    if (line.empty()) continue;
    ++lines;
    const auto doc = util::parseJson(line);
    EXPECT_TRUE(doc.isObject());
    EXPECT_TRUE(doc.has("ev"));
    EXPECT_TRUE(doc.has("t"));
  }
  EXPECT_GE(lines, 3);
}

TEST(Trace, EndToEndOstTrafficDecomposition) {
  // The headline use: trace a whole IOR run and decompose traffic per OST.
  // A (1,3) allocation must put 1/4 of the bytes on each used target and
  // 3/4 of the total through server 2's link.
  FluidSimulator fluid;
  auto cluster = topo::makePlafrim(topo::Scenario::kEthernet10G, 4);
  cluster.network.serverLinkNoiseSigmaLog = 0.0;
  for (auto& host : cluster.hosts) {
    for (auto& target : host.targets) target.variability = topo::VariabilitySpec{};
  }
  beegfs::Deployment deployment(fluid, cluster, beegfs::BeegfsParams{}, util::Rng(1));
  beegfs::FileSystem fs(deployment, util::Rng(2));
  FlowTracer tracer(fluid);

  ior::IorOptions options;
  options.blockSize = ior::blockSizeForTotal(8_GiB, 32);
  const auto result = ior::runIor(fs, ior::IorJob::onFirstNodes(4, 8), options,
                                  std::vector<std::size_t>{0, 4, 5, 6});

  const double totalMiB = util::toMiB(result.totalBytes);
  for (const auto target : result.targetsUsed) {
    EXPECT_NEAR(tracer.resourceMiB(deployment.ostResource(target)), totalMiB / 4.0,
                totalMiB * 1e-6);
  }
  EXPECT_NEAR(tracer.resourceMiB(deployment.serverNicResource(1)), 0.75 * totalMiB,
              totalMiB * 1e-6);
  EXPECT_NEAR(tracer.resourceMiB(deployment.serverNicResource(0)), 0.25 * totalMiB,
              totalMiB * 1e-6);
}

TEST(Trace, RecordsCancelledFlows) {
  FluidSimulator fluid;
  FlowTracer tracer(fluid);
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(100.0)});
  const auto id = fluid.startFlow(FlowSpec{.path = {link}, .bytes = 100_MiB,
                                           .queueWeight = 1.0, .rateCap = 0.0,
                                           .onComplete = nullptr});
  fluid.engine().schedule(0.5, [&] { fluid.cancelFlow(id); });
  fluid.run();

  const auto events = tracer.log().snapshot();
  ASSERT_FALSE(events.empty());
  const auto& last = events.back();
  EXPECT_EQ(last.kind, TraceRecord::Kind::kCancel);
  EXPECT_EQ(last.flow, id.value);
  EXPECT_EQ(last.bytes, 50_MiB);  // bytes left at cancel
  // Progress up to the cancel is banked; nothing after.
  EXPECT_NEAR(tracer.resourceMiB(link), 50.0, 1e-6);
  EXPECT_NE(tracer.log().toJsonl().find("\"ev\":\"cancel\""), std::string::npos);
}

TEST(Trace, WriteJsonlToFile) {
  FluidSimulator fluid;
  FlowTracer tracer(fluid);
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(10.0)});
  fluid.startFlow(FlowSpec{.path = {link}, .bytes = 1_MiB, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = nullptr});
  fluid.run();
  const auto path = std::filesystem::temp_directory_path() / "beesim_trace_test.jsonl";
  tracer.log().writeJsonl(path);
  EXPECT_GT(std::filesystem::file_size(path), 0u);
  std::filesystem::remove(path);
}

TEST(Trace, DetachesOnDestruction) {
  FluidSimulator fluid;
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(10.0)});
  {
    FlowTracer tracer(fluid);
  }
  // No dangling observer: the simulation must run fine after detach.
  fluid.startFlow(FlowSpec{.path = {link}, .bytes = 1_MiB, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = nullptr});
  fluid.run();
  SUCCEED();
}

// --- RingTraceSink ------------------------------------------------------

TEST(RingTrace, RecordsFlowLifecycle) {
  FluidSimulator fluid;
  RingTraceSink ring(fluid, 64);
  const auto nic = fluid.addResource(ResourceSpec{"nic", constantCapacity(200.0)});
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(100.0)});
  const auto id = fluid.startFlow(FlowSpec{.path = {nic, link}, .bytes = 100_MiB,
                                           .queueWeight = 1.0, .rateCap = 0.0,
                                           .onComplete = nullptr});
  fluid.run();

  EXPECT_EQ(ring.log().capacity(), 64u);
  EXPECT_EQ(ring.log().dropped(), 0u);
  EXPECT_EQ(ring.log().recorded(), ring.log().size());
  const auto records = ring.log().snapshot();
  ASSERT_GE(records.size(), 3u);
  EXPECT_EQ(records.front().kind,
            TraceRecord::Kind::kStart);
  EXPECT_EQ(records.front().flow, id.value);
  EXPECT_EQ(records.front().bytes, 100_MiB);
  EXPECT_EQ(records.front().aux, 2u) << "kStart aux carries the path length";
  EXPECT_EQ(records.back().kind,
            TraceRecord::Kind::kComplete);
  EXPECT_EQ(records.back().bytes, 100_MiB);
  EXPECT_NEAR(records.back().value, 100.0, 1e-6) << "kComplete value = mean MiB/s";
  // Snapshot is oldest first and time-sorted.
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i - 1].time, records[i].time);
  }
}

TEST(RingTrace, WrapOverwritesOldestAndCountsDrops) {
  FluidSimulator fluid;
  RingTraceSink ring(fluid, 4);
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(100.0)});
  for (int i = 0; i < 6; ++i) {
    fluid.engine().schedule(static_cast<double>(i), [&fluid, link] {
      fluid.startFlow(FlowSpec{.path = {link}, .bytes = 10_MiB, .queueWeight = 1.0,
                               .rateCap = 0.0, .onComplete = nullptr});
    });
  }
  fluid.run();

  EXPECT_EQ(ring.log().size(), 4u);
  EXPECT_GT(ring.log().recorded(), 4u);
  EXPECT_EQ(ring.log().dropped(), ring.log().recorded() - 4u);
  const auto records = ring.log().snapshot();
  ASSERT_EQ(records.size(), 4u);
  // The retained window is the *newest* records, oldest first.
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i - 1].time, records[i].time);
  }
  EXPECT_EQ(records.back().kind,
            TraceRecord::Kind::kComplete);
  // The drain announces the loss up front.
  const auto jsonl = ring.log().toJsonl();
  const auto firstLine = jsonl.substr(0, jsonl.find('\n'));
  const auto doc = util::parseJson(firstLine);
  EXPECT_EQ(doc.at("ev").asString(), "drops");
  EXPECT_EQ(static_cast<std::uint64_t>(doc.at("count").asNumber()), ring.log().dropped());
}

TEST(RingTrace, JsonlLinesAreValidJson) {
  FluidSimulator fluid;
  RingTraceSink ring(fluid, 256);
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(10.0)});
  const auto id = fluid.startFlow(FlowSpec{.path = {link}, .bytes = 10_MiB,
                                           .queueWeight = 1.0, .rateCap = 0.0,
                                           .onComplete = nullptr});
  fluid.engine().schedule(0.5, [&] { fluid.cancelFlow(id); });
  fluid.run();

  int lines = 0;
  bool sawCancel = false;
  for (const auto& line : util::split(ring.log().toJsonl(), '\n')) {
    if (line.empty()) continue;
    ++lines;
    const auto doc = util::parseJson(line);
    ASSERT_TRUE(doc.isObject());
    ASSERT_TRUE(doc.has("ev"));
    if (doc.at("ev").asString() == "cancel") sawCancel = true;
  }
  EXPECT_GE(lines, 2);
  EXPECT_TRUE(sawCancel);
}

TEST(RingTrace, ChromeTraceIsValidJson) {
  FluidSimulator fluid;
  RingTraceSink ring(fluid, 256);
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(10.0)});
  fluid.startFlow(FlowSpec{.path = {link}, .bytes = 10_MiB, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = nullptr});
  fluid.run();

  const auto doc = util::parseJson(ring.log().toChromeTrace());
  ASSERT_TRUE(doc.isObject());
  ASSERT_TRUE(doc.has("traceEvents"));
  EXPECT_GT(doc.at("traceEvents").asArray().size(), 0u);
}

TEST(RingTrace, WritesJsonlToFile) {
  FluidSimulator fluid;
  RingTraceSink ring(fluid, 64);
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(10.0)});
  fluid.startFlow(FlowSpec{.path = {link}, .bytes = 1_MiB, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = nullptr});
  fluid.run();
  const auto path = std::filesystem::temp_directory_path() / "beesim_ring_test.jsonl";
  ring.log().writeJsonl(path);
  EXPECT_GT(std::filesystem::file_size(path), 0u);
  std::filesystem::remove(path);
}

TEST(RingTrace, DetachesOnDestructionAndRejectsZeroCapacity) {
  FluidSimulator fluid;
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(10.0)});
  {
    RingTraceSink ring(fluid, 8);
  }
  fluid.startFlow(FlowSpec{.path = {link}, .bytes = 1_MiB, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = nullptr});
  fluid.run();
  EXPECT_THROW(RingTraceSink(fluid, 0), util::ContractError);
}

TEST(RingTrace, ComposesWithFlowTracer) {
  // Both sinks observe the same run through the observer hub; the cheap ring
  // must not perturb the exact tracer's accounting.
  FluidSimulator fluid;
  FlowTracer tracer(fluid);
  RingTraceSink ring(fluid, 128);
  const auto link = fluid.addResource(ResourceSpec{"link", constantCapacity(100.0)});
  fluid.startFlow(FlowSpec{.path = {link}, .bytes = 50_MiB, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = nullptr});
  fluid.run();
  EXPECT_NEAR(tracer.resourceMiB(link), 50.0, 1e-6);
  EXPECT_GE(ring.log().size(), 3u);
}

// --- Export bytes --------------------------------------------------------

// Both sinks' renderings of one small run, byte for byte: two disjoint
// links, a rate-capped flow joining the first, a cancel and two completions.
// The tracer samples every 0.5 s and tracks srv0; the 6-record ring wraps.
TEST(TraceExport, BothSinksRenderPinnedBytes) {
  FluidSimulator fluid;
  FlowTracer tracer(fluid);
  RingTraceSink ring(fluid, 6);
  const auto link = fluid.addResource(ResourceSpec{"srv0", constantCapacity(100.0)});
  const auto other = fluid.addResource(ResourceSpec{"srv1", constantCapacity(40.0)});
  tracer.setMetricsInterval(0.5);
  tracer.trackLink(link, "srv0");
  const auto cancelled = fluid.startFlow(FlowSpec{.path = {link}, .bytes = 100_MiB,
                                                  .queueWeight = 1.0, .rateCap = 0.0,
                                                  .onComplete = nullptr});
  fluid.startFlow(FlowSpec{.path = {other}, .bytes = 60_MiB, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = nullptr});
  fluid.engine().schedule(0.25, [&fluid, link] {
    fluid.startFlow(FlowSpec{.path = {link}, .bytes = 30_MiB, .queueWeight = 1.0,
                             .rateCap = 20.0, .onComplete = nullptr});
  });
  fluid.engine().schedule(1.0, [&] { fluid.cancelFlow(cancelled); });
  fluid.run();

  EXPECT_EQ(tracer.log().toJsonl(), R"({"ev":"start","t":0.000000,"flow":1,"bytes":104857600}
{"ev":"start","t":0.000000,"flow":2,"bytes":62914560}
{"ev":"rates","t":0.000000,"active":2,"total_mibps":140.000}
{"ev":"start","t":0.250000,"flow":3,"bytes":31457280}
{"ev":"rates","t":0.250000,"active":3,"total_mibps":140.000}
{"ev":"cancel","t":1.000000,"flow":1,"bytes_left":15728640}
{"ev":"rates","t":1.000000,"active":2,"total_mibps":60.000}
{"ev":"complete","t":1.500000,"flow":2,"bytes":62914560,"mean_mibps":40.000}
{"ev":"complete","t":1.750000,"flow":3,"bytes":31457280,"mean_mibps":20.000}
)");
  EXPECT_EQ(tracer.log().toChromeTrace(tracer.linkCounterTracks()), R"({"displayTimeUnit":"ms","traceEvents":[
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"beesim"}},
{"name":"flow","cat":"flow","ph":"b","id":1,"pid":1,"tid":1,"ts":0.000,"args":{"bytes":104857600}},
{"name":"flow","cat":"flow","ph":"b","id":2,"pid":1,"tid":1,"ts":0.000,"args":{"bytes":62914560}},
{"name":"aggregate_mibps","ph":"C","pid":1,"ts":0.000,"args":{"mibps":140.000}},
{"name":"active_flows","ph":"C","pid":1,"ts":0.000,"args":{"flows":2}},
{"name":"flow","cat":"flow","ph":"b","id":3,"pid":1,"tid":1,"ts":250000.000,"args":{"bytes":31457280}},
{"name":"aggregate_mibps","ph":"C","pid":1,"ts":250000.000,"args":{"mibps":140.000}},
{"name":"active_flows","ph":"C","pid":1,"ts":250000.000,"args":{"flows":3}},
{"name":"flow","cat":"flow","ph":"e","id":1,"pid":1,"tid":1,"ts":1000000.000,"args":{"cancelled":true,"bytes_left":15728640}},
{"name":"aggregate_mibps","ph":"C","pid":1,"ts":1000000.000,"args":{"mibps":60.000}},
{"name":"active_flows","ph":"C","pid":1,"ts":1000000.000,"args":{"flows":2}},
{"name":"flow","cat":"flow","ph":"e","id":2,"pid":1,"tid":1,"ts":1500000.000,"args":{"mean_mibps":40.000}},
{"name":"flow","cat":"flow","ph":"e","id":3,"pid":1,"tid":1,"ts":1750000.000,"args":{"mean_mibps":20.000}},
{"name":"link_mibps","ph":"C","pid":1,"ts":500000.000,"args":{"srv0":100.000}},
{"name":"link_imbalance","ph":"C","pid":1,"ts":500000.000,"args":{"imbalance":1.0000}},
{"name":"link_mibps","ph":"C","pid":1,"ts":1000000.000,"args":{"srv0":100.000}},
{"name":"link_imbalance","ph":"C","pid":1,"ts":1000000.000,"args":{"imbalance":1.0000}},
{"name":"link_mibps","ph":"C","pid":1,"ts":1500000.000,"args":{"srv0":20.000}},
{"name":"link_imbalance","ph":"C","pid":1,"ts":1500000.000,"args":{"imbalance":1.0000}}
]}
)");
  EXPECT_EQ(ring.log().toJsonl(), R"({"ev":"drops","count":3}
{"ev":"start","t":0.250000,"flow":3,"bytes":31457280}
{"ev":"rates","t":0.250000,"active":3,"solved":2,"solved_mibps":100.000}
{"ev":"cancel","t":1.000000,"flow":1,"bytes_left":15728640}
{"ev":"rates","t":1.000000,"active":2,"solved":1,"solved_mibps":20.000}
{"ev":"complete","t":1.500000,"flow":2,"bytes":62914560,"mean_mibps":40.000}
{"ev":"complete","t":1.750000,"flow":3,"bytes":31457280,"mean_mibps":20.000}
)");
  EXPECT_EQ(ring.log().toChromeTrace(), R"({"displayTimeUnit":"ms","traceEvents":[
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"beesim"}},
{"name":"flow","cat":"flow","ph":"b","id":3,"pid":1,"tid":1,"ts":250000.000,"args":{"bytes":31457280}},
{"name":"solved_mibps","ph":"C","pid":1,"ts":250000.000,"args":{"mibps":100.000}},
{"name":"active_flows","ph":"C","pid":1,"ts":250000.000,"args":{"flows":3}},
{"name":"flow","cat":"flow","ph":"e","id":1,"pid":1,"tid":1,"ts":1000000.000,"args":{"cancelled":true,"bytes_left":15728640}},
{"name":"solved_mibps","ph":"C","pid":1,"ts":1000000.000,"args":{"mibps":20.000}},
{"name":"active_flows","ph":"C","pid":1,"ts":1000000.000,"args":{"flows":2}},
{"name":"flow","cat":"flow","ph":"e","id":2,"pid":1,"tid":1,"ts":1500000.000,"args":{"mean_mibps":40.000}},
{"name":"flow","cat":"flow","ph":"e","id":3,"pid":1,"tid":1,"ts":1750000.000,"args":{"mean_mibps":20.000}}
]}
)");
}

}  // namespace
}  // namespace beesim::sim
