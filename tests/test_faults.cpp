// Mid-run fault injection: schedule parsing/generation, the injector's
// effect on a live deployment, client retry/failover semantics, and
// determinism of fault campaigns across serial and parallel executors.
#include "faults/injector.hpp"
#include "faults/schedule.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "beegfs/deployment.hpp"
#include "beegfs/filesystem.hpp"
#include "harness/campaign.hpp"
#include "ior/runner.hpp"
#include "topology/plafrim.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace beesim {
namespace {

using namespace beesim::util::literals;
using beegfs::ClientFaultPolicy;

// -- Schedule grammar -----------------------------------------------------

TEST(FaultSchedule, ParsesEveryEventKind) {
  const auto s = faults::parseSchedule("off:t3@30; on:t3@90, off:h1@60;on:h1@120;link:h0@40=0.5");
  ASSERT_EQ(s.events.size(), 5u);
  EXPECT_EQ(s.events[0].kind, faults::FaultKind::kTargetFail);
  EXPECT_EQ(s.events[0].index, 3u);
  EXPECT_DOUBLE_EQ(s.events[0].at, 30.0);
  EXPECT_EQ(s.events[1].kind, faults::FaultKind::kTargetRecover);
  EXPECT_EQ(s.events[2].kind, faults::FaultKind::kHostFail);
  EXPECT_EQ(s.events[3].kind, faults::FaultKind::kHostRecover);
  EXPECT_EQ(s.events[4].kind, faults::FaultKind::kLinkDegrade);
  EXPECT_DOUBLE_EQ(s.events[4].fraction, 0.5);
  EXPECT_TRUE(s.hasFailures());
}

TEST(FaultSchedule, DescribeRoundTrips) {
  // Every field of every parsed event, in input order; failures and
  // recoveries carry the default fraction 1.
  const auto s = faults::parseSchedule("off:t3@30;link:h0@40=0.5;on:t3@90");
  ASSERT_EQ(s.events.size(), 3u);
  EXPECT_EQ(s.events[0].kind, faults::FaultKind::kTargetFail);
  EXPECT_EQ(s.events[0].index, 3u);
  EXPECT_DOUBLE_EQ(s.events[0].at, 30.0);
  EXPECT_DOUBLE_EQ(s.events[0].fraction, 1.0);
  EXPECT_EQ(s.events[1].kind, faults::FaultKind::kLinkDegrade);
  EXPECT_EQ(s.events[1].index, 0u);
  EXPECT_DOUBLE_EQ(s.events[1].at, 40.0);
  EXPECT_DOUBLE_EQ(s.events[1].fraction, 0.5);
  EXPECT_EQ(s.events[2].kind, faults::FaultKind::kTargetRecover);
  EXPECT_EQ(s.events[2].index, 3u);
  EXPECT_DOUBLE_EQ(s.events[2].at, 90.0);
  EXPECT_DOUBLE_EQ(s.events[2].fraction, 1.0);
}

TEST(FaultSchedule, RejectsMalformedEvents) {
  EXPECT_THROW(faults::parseSchedule("off:t3"), util::ConfigError);
  EXPECT_THROW(faults::parseSchedule("off:x3@10"), util::ConfigError);
  EXPECT_THROW(faults::parseSchedule("boom:t3@10"), util::ConfigError);
  EXPECT_THROW(faults::parseSchedule("link:h0@10"), util::ConfigError);
  EXPECT_THROW(faults::parseSchedule("link:t0@10=0.5"), util::ConfigError);
  EXPECT_THROW(faults::parseSchedule("off:t3@ten"), util::ConfigError);
}

TEST(FaultSchedule, NormalizeChecksBoundsAndSorts) {
  auto s = faults::parseSchedule("on:t1@50;off:t1@10");
  s.normalize(8, 2);
  EXPECT_EQ(s.events[0].kind, faults::FaultKind::kTargetFail);

  auto outOfRange = faults::parseSchedule("off:t9@1");
  EXPECT_THROW(outOfRange.normalize(8, 2), util::ConfigError);
  auto badHost = faults::parseSchedule("off:h2@1");
  EXPECT_THROW(badHost.normalize(8, 2), util::ConfigError);
  // Dead-but-online (fraction 0) became legal with the gray-failure model;
  // out-of-range fractions are still rejected.
  auto deadLink = faults::FaultSchedule{
      {faults::FaultEvent{1.0, faults::FaultKind::kLinkDegrade, 0, 0.0}}};
  EXPECT_NO_THROW(deadLink.normalize(8, 2));
  auto overUnity = faults::FaultSchedule{
      {faults::FaultEvent{1.0, faults::FaultKind::kLinkDegrade, 0, 1.5}}};
  EXPECT_THROW(overUnity.normalize(8, 2), util::ConfigError);
  auto negative = faults::FaultSchedule{
      {faults::FaultEvent{1.0, faults::FaultKind::kTargetDegrade, 0, -0.1}}};
  EXPECT_THROW(negative.normalize(8, 2), util::ConfigError);
}

TEST(FaultSchedule, StochasticGeneratorIsDeterministicAndAlternates) {
  faults::StochasticFaultSpec spec;
  spec.targetMttf = 40.0;
  spec.targetMttr = 15.0;
  spec.horizon = 300.0;

  util::Rng a(7);
  util::Rng b(7);
  const auto s1 = faults::generateSchedule(spec, 8, 2, a);
  const auto s2 = faults::generateSchedule(spec, 8, 2, b);
  ASSERT_FALSE(s1.events.empty());
  ASSERT_EQ(s1.events.size(), s2.events.size());
  for (std::size_t i = 0; i < s1.events.size(); ++i) {
    EXPECT_EQ(s1.events[i].kind, s2.events[i].kind);
    EXPECT_EQ(s1.events[i].index, s2.events[i].index);
    EXPECT_DOUBLE_EQ(s1.events[i].at, s2.events[i].at);
  }

  // Per target the process alternates fail -> recover -> fail ... in time.
  for (std::size_t t = 0; t < 8; ++t) {
    bool up = true;
    for (const auto& e : s1.events) {
      if (e.index != t) continue;
      EXPECT_EQ(e.kind, up ? faults::FaultKind::kTargetFail
                           : faults::FaultKind::kTargetRecover);
      up = !up;
    }
  }
}

TEST(FaultSchedule, ClampToHorizonIsHalfOpen) {
  // The horizon contract: events live in [0, horizon).  An event at exactly
  // t == horizon is dropped -- failures and recoveries alike, so a schedule
  // can never end on a recovery that sneaks in at the boundary.
  auto s = faults::parseSchedule("off:t0@9.999;on:t0@10;off:t1@10;link:h0@10.5=0.5");
  s.clampToHorizon(10.0);
  ASSERT_EQ(s.events.size(), 1u);
  EXPECT_EQ(s.events[0].kind, faults::FaultKind::kTargetFail);
  EXPECT_DOUBLE_EQ(s.events[0].at, 9.999);

  // Clamping an already-clamped schedule is a no-op.
  s.clampToHorizon(10.0);
  EXPECT_EQ(s.events.size(), 1u);
}

TEST(FaultSchedule, GeneratedEventsStayStrictlyInsideHorizon) {
  faults::StochasticFaultSpec spec;
  spec.targetMttf = 5.0;
  spec.targetMttr = 2.0;
  spec.hostMttf = 8.0;
  spec.hostMttr = 3.0;
  spec.horizon = 20.0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    util::Rng rng(seed);
    const auto s = faults::generateSchedule(spec, 8, 2, rng);
    for (const auto& e : s.events) {
      EXPECT_LT(e.at, spec.horizon) << "seed " << seed;
    }
  }
}

// -- Injector against a live deployment -----------------------------------

struct System {
  sim::FluidSimulator fluid;
  topo::ClusterConfig cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  beegfs::Deployment deployment;
  beegfs::FileSystem fs;

  explicit System(beegfs::BeegfsParams params = {})
      : deployment(fluid, cluster, params, util::Rng(1)), fs(deployment, util::Rng(2)) {}
};

/// Degraded-mode policy with short timeouts so tests stay fast.
beegfs::BeegfsParams degradedParams() {
  beegfs::BeegfsParams params;
  params.faults.mode = ClientFaultPolicy::Mode::kDegraded;
  params.faults.ioTimeout = 0.2;
  params.faults.backoffBase = 0.05;
  params.faults.maxRetries = 3;
  return params;
}

TEST(FaultInjector, AppliesTargetAndHostEventsToRegistryAndCapacity) {
  System system;
  faults::FaultInjector injector(
      system.deployment, faults::parseSchedule("off:t4@1;link:h0@2=0.25;on:t4@3;off:h1@4;on:h1@5"));
  injector.arm();
  system.fluid.engine().scheduleAfter(1.5, [&] {
    EXPECT_FALSE(system.deployment.mgmt().target(4).online);
    EXPECT_DOUBLE_EQ(system.deployment.targetHealth(4), 0.0);
  });
  system.fluid.engine().scheduleAfter(2.5, [&] {
    EXPECT_DOUBLE_EQ(system.deployment.hostLinkHealth(0), 0.25);
  });
  system.fluid.engine().scheduleAfter(3.5, [&] {
    EXPECT_TRUE(system.deployment.mgmt().target(4).online);
    EXPECT_DOUBLE_EQ(system.deployment.targetHealth(4), 1.0);
  });
  system.fluid.engine().scheduleAfter(4.5, [&] {
    // A host crash takes down the link and every target it serves.
    EXPECT_DOUBLE_EQ(system.deployment.hostLinkHealth(1), 0.0);
    for (std::size_t t = 4; t < 8; ++t) {
      EXPECT_FALSE(system.deployment.mgmt().target(t).online);
    }
  });
  system.fluid.run();
  EXPECT_EQ(injector.stats().targetFailures, 1u);
  EXPECT_EQ(injector.stats().targetRecoveries, 1u);
  EXPECT_EQ(injector.stats().hostFailures, 1u);
  EXPECT_EQ(injector.stats().hostRecoveries, 1u);
  EXPECT_EQ(injector.stats().linkDegradations, 1u);
  EXPECT_EQ(injector.stats().total(), 5u);
}

TEST(FaultInjector, MidRunTargetFailureFailsOverAndCompletes) {
  System system(degradedParams());
  faults::FaultInjector injector(system.deployment, faults::parseSchedule("off:t4@0.05"));
  injector.arm();

  const auto handle = system.fs.createPinned("/victim", {0, 4}, 512_KiB);
  bool done = false;
  util::Seconds doneAt = 0.0;
  system.fs.writeAsync(0, handle, 0, 1_GiB, 8.0, [&](util::Seconds t) {
    done = true;
    doneAt = t;
  });
  system.fluid.run();

  ASSERT_TRUE(done);
  const auto& stats = system.fs.faultStats();
  EXPECT_FALSE(stats.aborted);
  EXPECT_GE(stats.timeouts, 1u);
  EXPECT_EQ(stats.retries, 0u);  // the target never came back
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.bytesRewritten, 512_MiB);  // the full per-target chunk
  EXPECT_GT(stats.degradedTime, 0.0);
  EXPECT_GT(doneAt, 0.0);

  // The stripe is degraded: slot 1, and only slot 1, moved to a surviving
  // target.
  EXPECT_EQ(system.fs.effectiveTarget(handle, 0), 0u);
  const auto substitute = system.fs.effectiveTarget(handle, 1);
  EXPECT_NE(substitute, 4u);
  EXPECT_TRUE(system.deployment.mgmt().target(substitute).online);
}

TEST(FaultInjector, RetrySucceedsWhenTargetRecovers) {
  auto params = degradedParams();
  params.faults.backoffBase = 0.3;  // first retry check lands after recovery
  System system(params);
  faults::FaultInjector injector(system.deployment,
                                 faults::parseSchedule("off:t4@0.05;on:t4@0.4"));
  injector.arm();

  const auto handle = system.fs.createPinned("/bounce", {0, 4}, 512_KiB);
  bool done = false;
  system.fs.writeAsync(0, handle, 0, 1_GiB, 8.0, [&](util::Seconds) { done = true; });
  system.fluid.run();

  ASSERT_TRUE(done);
  const auto& stats = system.fs.faultStats();
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.failovers, 0u);  // same-target retry, no degraded stripe
  EXPECT_EQ(stats.bytesRewritten, 512_MiB);
  EXPECT_EQ(system.fs.effectiveTarget(handle, 0), 0u);
  EXPECT_EQ(system.fs.effectiveTarget(handle, 1), 4u);
}

TEST(FaultInjector, StrictModeAbortsTheJob) {
  auto params = degradedParams();
  params.faults.mode = ClientFaultPolicy::Mode::kStrict;
  System system(params);
  faults::FaultInjector injector(system.deployment, faults::parseSchedule("off:t4@0.05"));
  injector.arm();

  ior::IorOptions options;
  options.blockSize = 256_MiB;
  const auto result =
      ior::runIor(system.fs, ior::IorJob::onFirstNodes(1, 1), options, {{0ul, 4ul}});
  EXPECT_TRUE(result.failed);
  EXPECT_TRUE(result.faults.aborted);
  EXPECT_DOUBLE_EQ(result.bandwidth, 0.0);
  EXPECT_GE(result.faults.timeouts, 1u);
  EXPECT_EQ(result.faults.failovers, 0u);
  EXPECT_TRUE(system.fs.faultsAborted());
}

TEST(FaultInjector, FaultAtTimeZeroMatchesStaticOffline) {
  // Regression: an injector event at t=0 must behave exactly like marking
  // the target offline before the run -- the injector is armed before the
  // job launch, and the engine's FIFO tie-break orders it first.
  beegfs::BeegfsParams faultParams = degradedParams();
  faultParams.defaultStripe.stripeCount = 8;
  System withInjector(faultParams);
  faults::FaultInjector injector(withInjector.deployment, faults::parseSchedule("off:t4@0"));
  injector.arm();

  beegfs::BeegfsParams staticParams;
  staticParams.defaultStripe.stripeCount = 8;
  System withStatic(staticParams);
  withStatic.deployment.mgmt().setTargetOnline(4, false);
  withStatic.deployment.setTargetHealth(4, 0.0);

  ior::IorOptions options;
  options.blockSize = ior::blockSizeForTotal(4_GiB, 16);
  const auto job = ior::IorJob::onFirstNodes(4, 4);
  const auto a = ior::runIor(withInjector.fs, job, options);
  const auto b = ior::runIor(withStatic.fs, job, options);

  EXPECT_EQ(a.targetsUsed, b.targetsUsed);
  EXPECT_DOUBLE_EQ(a.bandwidth, b.bandwidth);
  EXPECT_DOUBLE_EQ(a.end, b.end);
  EXPECT_EQ(a.faults.timeouts, 0u);  // nothing was ever sent to the dead target
}

TEST(FaultInjector, WatchdogsAloneDoNotPerturbHealthyRuns) {
  // Arming a fault policy without any faults must not change results: the
  // watchdog events observe, they never touch rates.
  beegfs::BeegfsParams plain;
  plain.defaultStripe.stripeCount = 8;
  System off(plain);
  auto armed = plain;
  armed.faults.mode = ClientFaultPolicy::Mode::kDegraded;
  armed.faults.ioTimeout = 0.5;
  System on(armed);

  ior::IorOptions options;
  options.blockSize = ior::blockSizeForTotal(4_GiB, 16);
  const auto job = ior::IorJob::onFirstNodes(4, 4);
  const auto a = ior::runIor(off.fs, job, options);
  const auto b = ior::runIor(on.fs, job, options);
  EXPECT_DOUBLE_EQ(a.bandwidth, b.bandwidth);
  EXPECT_EQ(b.faults.timeouts, 0u);
}

// -- Harness integration ---------------------------------------------------

harness::RunConfig faultRunConfig() {
  harness::RunConfig config;
  config.cluster = topo::makePlafrim(topo::Scenario::kEthernet10G, 4);
  config.fs = degradedParams();
  config.fs.faults.ioTimeout = 0.5;
  config.job = ior::IorJob::onFirstNodes(4, 4);
  config.ior.blockSize = ior::blockSizeForTotal(4_GiB, config.job.ranks());
  config.faults.schedule = faults::parseSchedule("off:t1@2;on:t1@8");
  return config;
}

TEST(FaultHarness, RunOnceIsDeterministicAndSurfacesCounters) {
  const auto config = faultRunConfig();
  const auto a = harness::runOnce(config, 42);
  const auto b = harness::runOnce(config, 42);
  EXPECT_EQ(a.injected.targetFailures, 1u);
  EXPECT_EQ(a.injected.targetRecoveries, 1u);
  EXPECT_DOUBLE_EQ(a.ior.bandwidth, b.ior.bandwidth);
  EXPECT_EQ(a.ior.faults.timeouts, b.ior.faults.timeouts);
  EXPECT_EQ(a.ior.faults.failovers, b.ior.faults.failovers);
  EXPECT_DOUBLE_EQ(a.ior.faults.degradedTime, b.ior.faults.degradedTime);
}

TEST(FaultHarness, FailureScheduleWithoutPolicyThrows) {
  auto config = faultRunConfig();
  config.fs.faults.mode = ClientFaultPolicy::Mode::kNone;
  EXPECT_THROW(harness::runOnce(config, 42), util::ConfigError);
}

TEST(FaultHarness, EmptyPlanLeavesRecordUnflagged) {
  auto config = faultRunConfig();
  config.faults = {};
  config.fs.faults.mode = ClientFaultPolicy::Mode::kNone;
  const auto record = harness::runOnce(config, 42);
  EXPECT_EQ(record.injected.total(), 0u);
  EXPECT_EQ(record.ior.faults.timeouts, 0u);
}

TEST(FaultHarness, CampaignRowsAreIdenticalSerialVsParallel) {
  // The acceptance bar: a fault-schedule campaign must be bitwise
  // row-identical between --jobs 1 and --jobs 8.
  std::vector<harness::CampaignEntry> entries(2);
  entries[0].config = faultRunConfig();
  entries[0].factors = {{"sched", "bounce"}};
  entries[1].config = faultRunConfig();
  entries[1].config.faults.schedule = faults::parseSchedule("off:h1@2");
  entries[1].factors = {{"sched", "crash"}};

  harness::ProtocolOptions protocol;
  protocol.repetitions = 3;

  harness::ExecutorOptions serial;
  serial.jobs = 1;
  harness::ExecutorOptions parallel;
  parallel.jobs = 8;
  const auto storeA = harness::executeCampaign(entries, protocol, 2022, nullptr, serial);
  const auto storeB = harness::executeCampaign(entries, protocol, 2022, nullptr, parallel);

  const auto pathA = std::filesystem::temp_directory_path() / "beesim_faults_serial.csv";
  const auto pathB = std::filesystem::temp_directory_path() / "beesim_faults_parallel.csv";
  storeA.writeCsv(pathA);
  storeB.writeCsv(pathB);
  const auto slurp = [](const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  const auto textA = slurp(pathA);
  EXPECT_FALSE(textA.empty());
  EXPECT_EQ(textA, slurp(pathB));
  EXPECT_NE(textA.find("fault_failovers"), std::string::npos);
  std::filesystem::remove(pathA);
  std::filesystem::remove(pathB);
}

TEST(FaultHarness, StochasticPlanIsSeedDeterministic) {
  auto config = faultRunConfig();
  config.faults.schedule = {};
  faults::StochasticFaultSpec spec;
  spec.targetMttf = 6.0;
  spec.targetMttr = 2.0;
  spec.horizon = 12.0;
  config.faults.stochastic = spec;
  const auto a = harness::runOnce(config, 9);
  const auto b = harness::runOnce(config, 9);
  EXPECT_DOUBLE_EQ(a.ior.bandwidth, b.ior.bandwidth);
  EXPECT_EQ(a.injected.total(), b.injected.total());
}

}  // namespace
}  // namespace beesim
