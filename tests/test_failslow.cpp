// Gray-failure robustness suite (DESIGN.md §2.9): fail-slow injection
// (slow: grammar, degrade renewal streams, normalize tie-break), injector
// cause-tracking across overlapping outages, hedged writes rescuing
// dead-but-online resources (plus the lag check's exclude-self peer median
// and pinned hedge outcomes), the peer-relative HealthMonitor (including the
// no-false-positive property on statistically identical servers), QoS
// charge-once under hedging, campaign column gating / --jobs invariance, CLI
// flag plumbing, a randomized fail-slow chaos soak, and an all-features
// chaos soak (crashes, mirroring, hedging, QoS, rebalancing, mdtest).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "beegfs/deployment.hpp"
#include "beegfs/filesystem.hpp"
#include "beegfs/peer_median.hpp"
#include "cli/commands.hpp"
#include "control/health.hpp"
#include "faults/injector.hpp"
#include "faults/schedule.hpp"
#include "harness/campaign.hpp"
#include "harness/concurrent.hpp"
#include "harness/executor.hpp"
#include "harness/protocol.hpp"
#include "harness/run.hpp"
#include "ior/mdtest.hpp"
#include "ior/options.hpp"
#include "ior/runner.hpp"
#include "qos/manager.hpp"
#include "sim/fluid.hpp"
#include "topology/plafrim.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace beesim {
namespace {

using namespace beesim::util::literals;

// -- Schedule grammar and normalize tie-break --------------------------------

TEST(FailSlowSchedule, SlowVerbRoundTripsThroughDescribe) {
  const auto schedule =
      faults::parseSchedule("slow:t3@30=0.1;slow:t3@90=1;slow:t2@20=0");
  ASSERT_EQ(schedule.events.size(), 3u);
  const std::size_t index[] = {3, 3, 2};
  const double at[] = {30.0, 90.0, 20.0};
  const double fraction[] = {0.1, 1.0, 0.0};  // 0: dead-but-online
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(schedule.events[i].kind, faults::FaultKind::kTargetDegrade) << i;
    EXPECT_EQ(schedule.events[i].index, index[i]) << i;
    EXPECT_DOUBLE_EQ(schedule.events[i].at, at[i]) << i;
    EXPECT_DOUBLE_EQ(schedule.events[i].fraction, fraction[i]) << i;
  }
  // Degrade events alone strand nothing: no client fault policy is required.
  EXPECT_FALSE(schedule.hasFailures());
}

std::vector<faults::FaultKind> normalizedKinds(const std::string& text) {
  auto schedule = faults::parseSchedule(text);
  schedule.normalize(8, 2);
  std::vector<faults::FaultKind> kinds;
  for (const auto& event : schedule.events) kinds.push_back(event.kind);
  return kinds;
}

TEST(FailSlowSchedule, SimultaneousConflictingEventsOrderIndependently) {
  // A fail and a recover of the same resource at the same instant must net
  // out to *failed* regardless of the textual order: recoveries sort first.
  const auto a = normalizedKinds("off:t3@10;on:t3@10;slow:t3@10=0.2");
  const auto b = normalizedKinds("slow:t3@10=0.2;on:t3@10;off:t3@10");
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a[0], faults::FaultKind::kTargetRecover);
  EXPECT_EQ(a[1], faults::FaultKind::kTargetDegrade);
  EXPECT_EQ(a[2], faults::FaultKind::kTargetFail);

  // The net state is "failed" in both orders: apply through an injector.
  for (const auto* text : {"off:t3@0;on:t3@0", "on:t3@0;off:t3@0"}) {
    sim::FluidSimulator fluid;
    const auto cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
    beegfs::BeegfsParams params;
    params.faults.mode = beegfs::ClientFaultPolicy::Mode::kDegraded;
    beegfs::Deployment deployment(fluid, cluster, params, util::Rng(1));
    faults::FaultInjector injector(deployment, faults::parseSchedule(text));
    injector.arm();
    fluid.run();
    EXPECT_FALSE(deployment.mgmt().target(3).online) << text;
  }
}

TEST(FailSlowSchedule, DegradeRenewalIsDeterministicAndLeavesCrashStreamAlone) {
  faults::StochasticFaultSpec crashOnly;
  crashOnly.targetMttf = 40.0;
  crashOnly.targetMttr = 5.0;
  crashOnly.horizon = 200.0;

  auto withDegrades = crashOnly;
  withDegrades.degradeMttf = 30.0;
  withDegrades.degradeMttr = 6.0;
  withDegrades.degradeCeiling = 0.25;

  util::Rng rngA(77);
  util::Rng rngB(77);
  util::Rng rngC(77);
  const auto base = faults::generateSchedule(crashOnly, 8, 2, rngA);
  const auto mixed = faults::generateSchedule(withDegrades, 8, 2, rngB);
  const auto mixed2 = faults::generateSchedule(withDegrades, 8, 2, rngC);

  // Deterministic: identical spec + rng state => identical schedule.
  ASSERT_EQ(mixed.events.size(), mixed2.events.size());
  for (std::size_t i = 0; i < mixed.events.size(); ++i) {
    EXPECT_DOUBLE_EQ(mixed.events[i].at, mixed2.events[i].at);
    EXPECT_EQ(mixed.events[i].kind, mixed2.events[i].kind);
  }

  // The degrade stream is drawn *after* the crash streams, so enabling it
  // must not move a single crash event (old seeds keep their plans).
  std::vector<faults::FaultEvent> baseCrashes;
  std::vector<faults::FaultEvent> mixedCrashes;
  for (const auto& e : base.events) {
    if (e.kind != faults::FaultKind::kTargetDegrade) baseCrashes.push_back(e);
  }
  for (const auto& e : mixed.events) {
    if (e.kind != faults::FaultKind::kTargetDegrade) mixedCrashes.push_back(e);
  }
  ASSERT_EQ(baseCrashes.size(), mixedCrashes.size());
  for (std::size_t i = 0; i < baseCrashes.size(); ++i) {
    EXPECT_DOUBLE_EQ(baseCrashes[i].at, mixedCrashes[i].at);
    EXPECT_EQ(baseCrashes[i].kind, mixedCrashes[i].kind);
    EXPECT_EQ(baseCrashes[i].index, mixedCrashes[i].index);
  }

  // Drawn severities respect the configured range and alternate with full
  // repairs (fraction 1).
  std::size_t onsets = 0;
  for (const auto& e : mixed.events) {
    if (e.kind != faults::FaultKind::kTargetDegrade) continue;
    EXPECT_GE(e.fraction, 0.0);
    if (e.fraction < 1.0) {
      EXPECT_LE(e.fraction, withDegrades.degradeCeiling);
      ++onsets;
    }
    EXPECT_LT(e.at, withDegrades.horizon);
  }
  EXPECT_GT(onsets, 0u);
}

TEST(FailSlowSchedule, SeverityCeilingMustLieInUnitInterval) {
  faults::StochasticFaultSpec spec;
  spec.degradeMttf = 30.0;
  spec.degradeMttr = 6.0;
  spec.horizon = 100.0;
  for (const double ceiling : {0.0, 1.0}) {
    spec.degradeCeiling = ceiling;
    util::Rng rng(5);
    EXPECT_NO_THROW(faults::generateSchedule(spec, 4, 2, rng)) << ceiling;
  }
  for (const double ceiling : {-0.1, 1.1}) {
    spec.degradeCeiling = ceiling;
    util::Rng rng(5);
    EXPECT_THROW(faults::generateSchedule(spec, 4, 2, rng), util::ConfigError) << ceiling;
  }
}

// -- Injector cause-tracking (PR satellite: recovery clobbering) -------------

struct InjectorRig {
  sim::FluidSimulator fluid;
  topo::ClusterConfig cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  beegfs::Deployment deployment;

  explicit InjectorRig()
      : deployment(fluid, cluster, [] {
          beegfs::BeegfsParams params;
          params.faults.mode = beegfs::ClientFaultPolicy::Mode::kDegraded;
          return params;
        }(), util::Rng(1)) {}

  void run(const std::string& schedule) {
    faults::FaultInjector injector(deployment, faults::parseSchedule(schedule));
    injector.arm();
    fluid.run();
  }
};

TEST(FailSlowInjector, HostRebootDoesNotReviveIndependentlyFailedTarget) {
  // Target 4 fails on its own at t=1; its host crashes at t=2 and reboots at
  // t=3.  The reboot clears only the host cause: target 4 stays down until
  // its own recovery at t=4.
  InjectorRig rig;
  rig.run("off:t4@1;off:h1@2;on:h1@3");
  EXPECT_FALSE(rig.deployment.mgmt().target(4).online);
  EXPECT_TRUE(rig.deployment.mgmt().target(5).online);  // host cause cleared
  EXPECT_DOUBLE_EQ(rig.deployment.hostLinkHealth(1), 1.0);

  InjectorRig rig2;
  rig2.run("off:t4@1;off:h1@2;on:h1@3;on:t4@4");
  EXPECT_TRUE(rig2.deployment.mgmt().target(4).online);
}

TEST(FailSlowInjector, OrderingOfOverlappingCausesDoesNotMatter) {
  // Same net causes in the opposite arrival order: host crash first, then
  // the independent target failure, then the reboot.
  InjectorRig rig;
  rig.run("off:h1@1;off:t4@2;on:h1@3");
  EXPECT_FALSE(rig.deployment.mgmt().target(4).online);
  EXPECT_TRUE(rig.deployment.mgmt().target(5).online);
}

TEST(FailSlowInjector, HostRebootPreservesIndependentLinkDegrade) {
  // The link was degraded to 0.3 by its own event before the crash; the
  // reboot restores the *crash* cause only, leaving the stutter in force.
  InjectorRig rig;
  rig.run("link:h1@1=0.3;off:h1@2;on:h1@3");
  EXPECT_DOUBLE_EQ(rig.deployment.hostLinkHealth(1), 0.3);
  InjectorRig rig2;
  rig2.run("link:h1@1=0.3;off:h1@2;on:h1@3;link:h1@4=1");
  EXPECT_DOUBLE_EQ(rig2.deployment.hostLinkHealth(1), 1.0);
}

TEST(FailSlowInjector, HostRebootPreservesIndependentTargetDegrade) {
  InjectorRig rig;
  rig.run("slow:t4@1=0.1;off:h1@2;on:h1@3");
  EXPECT_TRUE(rig.deployment.mgmt().target(4).online);
  EXPECT_DOUBLE_EQ(rig.deployment.targetHealth(4), 0.1);
}

TEST(FailSlowInjector, TargetDegradeScalesServiceRate) {
  // One rank, one pinned target: halving the target's service rate roughly
  // halves the measured bandwidth (the OST is the bottleneck).
  auto bandwidthAt = [](double fraction) {
    sim::FluidSimulator fluid;
    auto cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 1);
    cluster.network.serverLinkNoiseSigmaLog = 0.0;
    for (auto& host : cluster.hosts) {
      for (auto& target : host.targets) target.variability = topo::VariabilitySpec{};
    }
    beegfs::Deployment deployment(fluid, cluster, beegfs::BeegfsParams{}, util::Rng(1));
    beegfs::FileSystem fs(deployment, util::Rng(2));
    if (fraction < 1.0) {
      const auto schedule = "slow:t0@0=" + std::to_string(fraction);
      faults::FaultInjector injector(deployment, faults::parseSchedule(schedule));
      injector.arm();
      ior::IorOptions options;
      options.blockSize = ior::blockSizeForTotal(2_GiB, 8);
      return ior::runIor(fs, ior::IorJob::onFirstNodes(1, 8), options, {{0}}).bandwidth;
    }
    ior::IorOptions options;
    options.blockSize = ior::blockSizeForTotal(2_GiB, 8);
    return ior::runIor(fs, ior::IorJob::onFirstNodes(1, 8), options, {{0}}).bandwidth;
  };
  const double healthy = bandwidthAt(1.0);
  const double degraded = bandwidthAt(0.5);
  ASSERT_GT(degraded, 0.0);
  EXPECT_NEAR(healthy / degraded, 2.0, 0.25);
}

// -- Hedged writes ------------------------------------------------------------

TEST(FailSlowHedge, DeadButOnlineTargetIsHedgedNotStalled) {
  // Target 0 serves at rate 0 while staying registered online: the crash
  // watchdog never fires (no registry flip), so without hedging the run
  // would stall forever.  The hedge re-issues the chunk elsewhere and wins.
  sim::FluidSimulator fluid;
  const auto cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  beegfs::BeegfsParams params;
  params.hedge.enabled = true;
  params.hedge.deadline = 0.3;
  beegfs::Deployment deployment(fluid, cluster, params, util::Rng(1));
  beegfs::FileSystem fs(deployment, util::Rng(2));
  faults::FaultInjector injector(deployment, faults::parseSchedule("slow:t0@0=0"));
  injector.arm();

  const auto handle = fs.createPinned("/gray", {0, 4}, 512_KiB);
  bool done = false;
  fs.writeAsync(0, handle, 0, 512_MiB, 8.0, [&](util::Seconds) { done = true; });
  fluid.run();

  EXPECT_TRUE(done);
  EXPECT_GE(fs.hedgeStats().hedgesIssued, 1u);
  EXPECT_GE(fs.hedgeStats().hedgeWins, 1u);
  EXPECT_EQ(fs.inFlightChunks(), 0u);
}

TEST(FailSlowHedge, WatchdogSharesTheLagCheckTimerAtEqualCadence) {
  // A chunk op has one check timer for the watchdog and the lag check.  With
  // ioTimeout equal to the hedge deadline both checks fall due at the same
  // instants, so arming the watchdog adds no engine event and moves no hedge
  // decision (target 0 crawls at 5% while staying online: hedged, never
  // timed out).
  const auto runHedged = [](beegfs::ClientFaultPolicy::Mode mode) {
    sim::FluidSimulator fluid;
    const auto cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
    beegfs::BeegfsParams params;
    params.faults.mode = mode;
    params.faults.ioTimeout = 0.5;
    params.hedge.enabled = true;
    params.hedge.deadline = 0.5;
    beegfs::Deployment deployment(fluid, cluster, params, util::Rng(1));
    beegfs::FileSystem fs(deployment, util::Rng(2));
    faults::FaultInjector injector(deployment, faults::parseSchedule("slow:t0@0=0.05"));
    injector.arm();
    const auto handle = fs.createPinned("/gray", {0, 4}, 512_KiB);
    bool done = false;
    fs.writeAsync(0, handle, 0, 2_GiB, 8.0, [&](util::Seconds) { done = true; });
    const std::size_t events = fluid.engine().run();
    EXPECT_TRUE(done);
    EXPECT_EQ(fs.inFlightChunks(), 0u);
    EXPECT_EQ(fs.faultStats().timeouts, 0u);
    return std::pair{events, fs.hedgeStats()};
  };
  const auto [unwatchedEvents, unwatchedHedge] =
      runHedged(beegfs::ClientFaultPolicy::Mode::kNone);
  const auto [watchedEvents, watchedHedge] =
      runHedged(beegfs::ClientFaultPolicy::Mode::kDegraded);
  EXPECT_GE(unwatchedHedge.hedgesIssued, 1u);
  EXPECT_EQ(watchedEvents, unwatchedEvents);
  EXPECT_EQ(watchedHedge, unwatchedHedge);
}

TEST(FailSlowHedge, SharedTimerKeepsEachCheckOnItsOwnCadence) {
  // Watchdog every 0.5 s, lag check every 0.3 s, both from the write's issue
  // at t = 0.  Target 0 crashes at t = 0.1; target 4 serves at rate 0 while
  // staying online.  Both stalled chunks are hedged by the first lag check
  // at exactly 0.3, and the crash is detected by the first watchdog at
  // exactly 0.5 -- not at a lag-check instant (0.3, 0.6).
  sim::FluidSimulator fluid;
  const auto cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  beegfs::BeegfsParams params;
  params.faults.mode = beegfs::ClientFaultPolicy::Mode::kDegraded;
  params.faults.ioTimeout = 0.5;
  params.hedge.enabled = true;
  params.hedge.deadline = 0.3;
  beegfs::Deployment deployment(fluid, cluster, params, util::Rng(1));
  beegfs::FileSystem fs(deployment, util::Rng(2));
  faults::FaultInjector injector(deployment,
                                 faults::parseSchedule("off:t0@0.1;slow:t4@0=0"));
  injector.arm();
  const auto handle = fs.createPinned("/mixed", {0, 4}, 512_KiB);
  bool done = false;
  fs.writeAsync(0, handle, 0, 2_GiB, 8.0, [&](util::Seconds) { done = true; });

  auto& engine = fluid.engine();
  engine.runUntil(std::nextafter(0.3, 0.0));
  EXPECT_EQ(fs.hedgeStats().hedgesIssued, 0u);
  engine.runUntil(0.3);
  EXPECT_EQ(fs.hedgeStats().hedgesIssued, 2u);
  engine.runUntil(std::nextafter(0.5, 0.0));
  EXPECT_EQ(fs.faultStats().timeouts, 0u);
  engine.runUntil(0.5);
  EXPECT_EQ(fs.faultStats().timeouts, 1u);
  engine.runUntil(0.6);
  EXPECT_EQ(fs.faultStats().timeouts, 1u);

  fluid.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(fs.inFlightChunks(), 0u);
}

TEST(FailSlowHedge, ChecksDueTogetherShareOneEngineEvent) {
  // One write over 8 healthy, noise-free targets issues its 8 chunk ops at
  // once, so their check timers fall due at the same instants and would
  // have been adjacent engine events: they share one check batch, and every
  // check instant dispatches exactly one event besides the fluid's
  // resolves, not one per op.
  sim::FluidSimulator fluid;
  auto cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  cluster.network.serverLinkNoiseSigmaLog = 0.0;
  for (auto& host : cluster.hosts) {
    for (auto& target : host.targets) target.variability = topo::VariabilitySpec{};
  }
  beegfs::BeegfsParams params;
  params.faults.mode = beegfs::ClientFaultPolicy::Mode::kDegraded;
  params.faults.ioTimeout = 0.5;
  params.hedge.enabled = true;
  params.hedge.deadline = 0.5;
  beegfs::Deployment deployment(fluid, cluster, params, util::Rng(1));
  beegfs::FileSystem fs(deployment, util::Rng(2));
  const auto handle = fs.createPinned("/wide", {0, 1, 2, 3, 4, 5, 6, 7}, 512_KiB);
  bool done = false;
  fs.writeAsync(0, handle, 0, 4_GiB, 8.0, [&](util::Seconds) { done = true; });

  auto& engine = fluid.engine();
  std::size_t instants = 0;
  for (double at = 0.5; fs.inFlightChunks() == 8; at += 0.5) {
    engine.runUntil(std::nextafter(at, 0.0));
    if (fs.inFlightChunks() != 8) break;
    const auto resolves = fluid.resolveCount();
    const auto events = engine.runUntil(at);
    EXPECT_EQ(events - (fluid.resolveCount() - resolves), 1u) << "check instant t = " << at;
    ++instants;
  }
  EXPECT_GE(instants, 2u);
  fluid.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(fs.hedgeStats().hedgesIssued, 0u);
  EXPECT_EQ(fs.faultStats().timeouts, 0u);
}

TEST(FailSlowWatchdog, CheckBatchKeepsDispatchOrder) {
  // Writes A and B both go to target 0, which crashes after their issue.
  // Their watchdogs fall due at the same instant, but a probe scheduled
  // between the two writeAsync calls sits between them in dispatch order,
  // so A and B may not share a check batch: the probe sees A's timeout and
  // not yet B's.
  sim::FluidSimulator fluid;
  const auto cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  beegfs::BeegfsParams params;
  params.faults.mode = beegfs::ClientFaultPolicy::Mode::kDegraded;
  params.faults.ioTimeout = 0.5;
  beegfs::Deployment deployment(fluid, cluster, params, util::Rng(1));
  beegfs::FileSystem fs(deployment, util::Rng(2));
  faults::FaultInjector injector(deployment, faults::parseSchedule("off:t0@0.1"));
  injector.arm();
  const auto a = fs.createPinned("/a", {0}, 512_KiB);
  const auto b = fs.createPinned("/b", {0}, 512_KiB);
  std::size_t done = 0;
  fs.writeAsync(0, a, 0, 1_GiB, 4.0, [&](util::Seconds) { ++done; });
  std::optional<std::size_t> seen;
  fluid.engine().schedule(params.faults.ioTimeout,
                          [&] { seen = fs.faultStats().timeouts; });
  fs.writeAsync(1, b, 0, 1_GiB, 4.0, [&](util::Seconds) { ++done; });

  fluid.engine().runUntil(params.faults.ioTimeout);
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(*seen, 1u);
  EXPECT_EQ(fs.faultStats().timeouts, 2u);
  fluid.run();
  EXPECT_EQ(done, 2u);
  EXPECT_EQ(fs.inFlightChunks(), 0u);
}

TEST(FailSlowHedge, NearZeroLinkDegradeCompletesUnderWatchdogAndHedge) {
  // PR satellite: watchdog + near-zero kLinkDegrade must terminate.  Host
  // 1's link drops to ~0 while everything stays online; chunks homed there
  // hedge across to host 0 instead of stalling.
  harness::RunConfig config;
  config.cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  config.fs.defaultStripe.stripeCount = 8;
  config.fs.faults.mode = beegfs::ClientFaultPolicy::Mode::kDegraded;
  config.fs.faults.ioTimeout = 0.5;
  config.fs.hedge.enabled = true;
  config.fs.hedge.deadline = 0.3;
  config.faults.schedule = faults::parseSchedule("link:h1@0=0.000001");
  config.job = ior::IorJob::onFirstNodes(4, 8);
  config.ior.blockSize = ior::blockSizeForTotal(1_GiB, 32);
  const auto record = harness::runOnce(config, 9);  // asserts completion
  EXPECT_FALSE(record.ior.failed);
  EXPECT_GE(record.ior.hedge.hedgesIssued, 1u);
  EXPECT_GT(record.ior.bandwidth, 0.0);
}

TEST(FailSlowHedge, HealthyRunsIssueNoHedgesAndMatchBaseline) {
  // With no fault in sight the hedge timers observe healthy rates and never
  // fire: bandwidth must match the unhedged run on the same seed.
  harness::RunConfig config;
  config.cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  config.fs.defaultStripe.stripeCount = 4;
  config.job = ior::IorJob::onFirstNodes(4, 8);
  config.ior.blockSize = ior::blockSizeForTotal(1_GiB, 32);
  const auto plain = harness::runOnce(config, 5);
  config.fs.hedge.enabled = true;
  const auto hedged = harness::runOnce(config, 5);
  EXPECT_EQ(hedged.ior.hedge.hedgesIssued, 0u);
  EXPECT_DOUBLE_EQ(hedged.ior.bandwidth, plain.ior.bandwidth);
}

TEST(FailSlowHedge, QosTokensAreChargedOncePerLogicalByte) {
  // Hedge legs are server-side re-issues riding the original admission:
  // tokens must cover the logical bytes exactly once even when hedges fire.
  sim::FluidSimulator fluid;
  const auto cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  beegfs::BeegfsParams params;
  params.hedge.enabled = true;
  params.hedge.deadline = 0.3;
  beegfs::Deployment deployment(fluid, cluster, params, util::Rng(1));
  beegfs::FileSystem fs(deployment, util::Rng(2));

  qos::QosPolicy policy;
  policy.enabled = true;
  policy.rate = 400.0;
  qos::QosManager manager(fluid, policy);
  manager.registerApp(qos::makeAppSpec(policy), {0});
  fs.setQosManager(&manager);

  faults::FaultInjector injector(deployment, faults::parseSchedule("slow:t0@0=0"));
  injector.arm();

  const auto handle = fs.createPinned("/qos-gray", {0, 4}, 512_KiB);
  bool done = false;
  fs.writeAsync(0, handle, 0, 512_MiB, 8.0, [&](util::Seconds) { done = true; });
  fluid.run();

  ASSERT_TRUE(done);
  EXPECT_GE(fs.hedgeStats().hedgesIssued, 1u);
  EXPECT_DOUBLE_EQ(manager.stats().tokensIssued, static_cast<double>(512_MiB));
}

std::optional<double> peerMedianOracle(std::vector<double> values, double self) {
  values.erase(std::find(values.begin(), values.end(), self));
  if (values.empty()) return std::nullopt;
  std::sort(values.begin(), values.end());
  return values[(values.size() - 1) / 2];
}

TEST(FailSlowHedge, ExcludeSelfMedianMatchesBruteForceOracle) {
  // The lag check picks its peer median out of one sorted snapshot of every
  // track's rate.  It must equal the per-check answer -- drop one copy of
  // self, sort, take the lower median -- bit for bit.
  EXPECT_EQ(beegfs::lowerMedianExcludingSelf(std::vector<double>{7.0}, 7.0), std::nullopt);
  EXPECT_EQ(beegfs::lowerMedianExcludingSelf(std::vector<double>{0.0, 3.0}, 0.0), 3.0);
  EXPECT_EQ(beegfs::lowerMedianExcludingSelf(std::vector<double>{0.0, 3.0}, 3.0), 0.0);
  EXPECT_EQ(beegfs::lowerMedianExcludingSelf(std::vector<double>{1.0, 5.0, 5.0, 5.0}, 5.0),
            5.0);

  util::Rng rng(14);
  for (int trial = 0; trial < 3000; ++trial) {
    // The first trials pin n = 1 (no peers) and n = 2; the rest are wider.
    const auto n = static_cast<std::size_t>(trial < 100 ? 1 + trial % 2
                                                        : rng.uniformInt(1, 40));
    // Few distinct levels force runs of ties; zeros model stalled legs.
    const bool continuous = trial % 4 == 0;
    const auto levels = rng.uniformInt(1, 5);
    std::vector<double> values(n);
    for (auto& v : values) {
      if (rng.bernoulli(0.2)) {
        v = 0.0;
      } else {
        v = continuous ? rng.uniform(0.0, 1000.0)
                       : 12.5 * static_cast<double>(rng.uniformInt(1, levels));
      }
    }
    auto sorted = values;
    std::sort(sorted.begin(), sorted.end());
    // Self takes every member's value in turn: the minimum, the maximum, and
    // every position inside a tie run.
    for (const double self : values) {
      EXPECT_EQ(beegfs::lowerMedianExcludingSelf(sorted, self), peerMedianOracle(values, self))
          << "trial=" << trial << " n=" << n << " self=" << self;
    }
  }
}

TEST(FailSlowHedge, GrayRunHedgeDecisionsArePinned) {
  // Small gray_s1-shaped runs: stochastic fail-slow episodes, the health
  // monitor and hedged writes in degraded mode.  Every hedge decision feeds
  // the counts below, so a stale peer-rate snapshot shows up as a changed
  // count.  The values were recorded with the per-check peer scan the
  // snapshot replaced; seed 3 re-hedges lagging hedge legs, seed 2 mixes
  // hedge and primary wins.
  struct Pinned {
    util::Bytes total;
    std::uint64_t seed;
    beegfs::HedgeStats hedge;
    double bandwidth;
  };
  const Pinned pinned[] = {
      {4_GiB, 3, {.hedgesIssued = 183, .hedgeWins = 0, .primaryWins = 168,
                  .bytesHedged = 1535115264}, 1493.4659714754814},
      {6_GiB, 2, {.hedgesIssued = 128, .hedgeWins = 43, .primaryWins = 85,
                  .bytesHedged = 1610612736}, 1688.3065741083765},
  };
  for (const auto& pin : pinned) {
    harness::RunConfig config;
    config.cluster = topo::makePlafrim(topo::Scenario::kEthernet10G, 8);
    config.fs.defaultStripe.stripeCount = 8;
    config.fs.faults.mode = beegfs::ClientFaultPolicy::Mode::kDegraded;
    config.fs.faults.ioTimeout = 0.5;
    config.fs.faults.backoffBase = 0.25;
    config.fs.faults.maxRetries = 1;
    config.fs.hedge.enabled = true;
    config.fs.hedge.deadline = 0.5;
    config.health.enabled = true;
    faults::StochasticFaultSpec slow;
    slow.degradeMttf = 5.0;
    slow.degradeMttr = 0.5;
    slow.degradeCeiling = 0.25;
    slow.horizon = 120.0;
    config.faults.stochastic = slow;
    config.job = ior::IorJob::onFirstNodes(8, 8);
    config.ior.blockSize = ior::blockSizeForTotal(pin.total, 64);
    const auto record = harness::runOnce(config, pin.seed);
    const auto& hedge = record.ior.hedge;
    EXPECT_EQ(hedge.hedgesIssued, pin.hedge.hedgesIssued) << "seed=" << pin.seed;
    EXPECT_EQ(hedge.hedgeWins, pin.hedge.hedgeWins) << "seed=" << pin.seed;
    EXPECT_EQ(hedge.primaryWins, pin.hedge.primaryWins) << "seed=" << pin.seed;
    EXPECT_EQ(hedge.bytesHedged, pin.hedge.bytesHedged) << "seed=" << pin.seed;
    // Floating-point reassociation in the fluid core may move the bandwidth
    // by a few ULP; the tolerance contract is 1e-9 relative.
    EXPECT_NEAR(record.ior.bandwidth, pin.bandwidth, 1e-9 * pin.bandwidth)
        << "seed=" << pin.seed;
  }
}

TEST(FailSlowHedge, PeerSnapshotMatchesASortedRebuildAtEveryCheck) {
  // The lag check keeps its peer-rate snapshot sorted incrementally and
  // re-reads it only after a walk.  Under the solver check every lag check
  // compares it against a sorted rebuild, bit for bit.  Gray runs as above,
  // plus target crashes: the watchdog then untracks hedged ops, and with
  // ioTimeout equal to the hedge deadline their peers' checks land at the
  // same instants, before the walk that follows the cancels.
  const char* previous = std::getenv("BEESIM_SOLVER_CHECK");
  const std::string saved = previous != nullptr ? previous : "";
  ::setenv("BEESIM_SOLVER_CHECK", "1", 1);
  beegfs::HedgeStats total;
  std::size_t timeouts = 0;
  for (const std::uint64_t seed : {2, 3}) {
    harness::RunConfig config;
    config.cluster = topo::makePlafrim(topo::Scenario::kEthernet10G, 8);
    config.fs.defaultStripe.stripeCount = 8;
    config.fs.faults.mode = beegfs::ClientFaultPolicy::Mode::kDegraded;
    config.fs.faults.ioTimeout = 0.5;
    config.fs.faults.backoffBase = 0.25;
    config.fs.faults.maxRetries = 1;
    config.fs.hedge.enabled = true;
    config.fs.hedge.deadline = 0.5;
    config.health.enabled = true;
    faults::StochasticFaultSpec slow;
    slow.targetMttf = 4.0;
    slow.targetMttr = 0.75;
    slow.degradeMttf = 5.0;
    slow.degradeMttr = 0.5;
    slow.degradeCeiling = 0.25;
    slow.horizon = 120.0;
    config.faults.stochastic = slow;
    config.job = ior::IorJob::onFirstNodes(8, 8);
    config.ior.blockSize = ior::blockSizeForTotal(4_GiB, 64);
    const auto record = harness::runOnce(config, seed);  // asserts at every check
    total.hedgesIssued += record.ior.hedge.hedgesIssued;
    total.hedgeWins += record.ior.hedge.hedgeWins;
    timeouts += record.ior.faults.timeouts;
  }
  if (previous != nullptr) {
    ::setenv("BEESIM_SOLVER_CHECK", saved.c_str(), 1);
  } else {
    ::unsetenv("BEESIM_SOLVER_CHECK");
  }
  EXPECT_GT(total.hedgesIssued, 0u);
  EXPECT_GT(total.hedgeWins, 0u);
  EXPECT_GT(timeouts, 0u);
}

// -- HealthMonitor ------------------------------------------------------------

harness::RunConfig monitorConfig(util::Bytes total = 2_GiB) {
  harness::RunConfig config;
  config.cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  config.fs.defaultStripe.stripeCount = 8;
  config.job = ior::IorJob::onFirstNodes(4, 8);
  config.ior.blockSize = ior::blockSizeForTotal(total, config.job.ranks());
  config.health.enabled = true;
  config.health.suspectRatio = 0.5;
  config.health.suspectPatience = 0.75;
  return config;
}

TEST(FailSlowMonitor, NeverQuarantinesStatisticallyIdenticalServers) {
  // Property (PR satellite): servers drawn from the *same* distribution must
  // not be quarantined -- under zero variability and under the default
  // log-normal device/link noise alike, across seeds.
  for (const bool variability : {false, true}) {
    for (const std::uint64_t seed : {1ull, 7ull, 23ull, 91ull, 404ull}) {
      auto config = monitorConfig(1_GiB);
      if (!variability) {
        config.cluster.network.serverLinkNoiseSigmaLog = 0.0;
        for (auto& host : config.cluster.hosts) {
          for (auto& target : host.targets) {
            target.variability = topo::VariabilitySpec{};
          }
        }
        config.noise = harness::NoiseSpec{0.0, 0.0};
      }
      const auto record = harness::runOnce(config, seed);
      EXPECT_GT(record.health.samples, 0u);
      EXPECT_EQ(record.health.quarantines, 0u)
          << "variability=" << variability << " seed=" << seed;
    }
  }
}

TEST(FailSlowMonitor, QuarantinesGrayHostAndReadmitsAfterRepair) {
  // Every target of host 1 fail-slows to 5% at t=1 and is repaired at t=6:
  // the peer-relative score flags the host, quarantine drains it, and the
  // probation probe re-admits it.  24 GiB keeps host 0 busy (a peer to score
  // against) through detection, quarantine, and the probation timer.
  auto config = monitorConfig(24_GiB);
  std::string schedule;
  for (int t = 4; t < 8; ++t) {
    schedule += "slow:t" + std::to_string(t) + "@1=0.05;";
    schedule += "slow:t" + std::to_string(t) + "@6=1;";
  }
  config.faults.schedule = faults::parseSchedule(schedule);
  const auto record = harness::runOnce(config, 3);
  EXPECT_GE(record.health.suspects, 1u);
  EXPECT_GE(record.health.quarantines, 1u);
  EXPECT_GE(record.health.probations, 1u);
}

TEST(FailSlowMonitor, QuarantineSwitchesMirroredPrimariesOffTheGrayHost) {
  // Buddy-mirrored files hedge by switchover: once the monitor quarantines
  // host 1, every good group whose primary sits there promotes its
  // secondary on host 0 (FileSystem::hedgeMirrorGroupsOnHost).  The
  // secondary holds every acked byte, so nothing is lost, and runOnce
  // asserts that no flow and no chunk op outlives the drained run.
  auto config = monitorConfig(8_GiB);
  config.fs.mirror.enabled = true;
  config.fs.defaultStripe.mirror = true;
  config.fs.hedge.enabled = true;
  config.faults.schedule = faults::parseSchedule(
      "slow:t4@1=0.05;slow:t5@1=0.05;slow:t6@1=0.05;slow:t7@1=0.05");
  const auto record = harness::runOnce(config, 3);
  EXPECT_GE(record.health.quarantines, 1u);
  EXPECT_GE(record.ior.hedge.mirrorSwitchovers, 1u);
  EXPECT_EQ(record.ior.mirror.bytesLost, 0u);
  EXPECT_FALSE(record.ior.failed);
  EXPECT_EQ(record.ior.totalBytes, 8_GiB);
}

TEST(FailSlowMonitor, ConvoyedIdlePeersStillTestifyAgainstTheStraggler) {
  // A host-wide link stutter convoys every rank behind host 1's crawling
  // chunks, so host 0 sits idle at most sample instants.  Its busy-gated
  // EWMA must retain the last-known healthy rate as evidence -- if idle
  // samples decayed it (or idle peers were skipped), `below` would flicker
  // and the patience window would never close.  Scenario 1: server links
  // are the bottleneck, so the NIC-level rate carries the whole signal.
  auto config = monitorConfig(8_GiB);
  config.cluster = topo::makePlafrim(topo::Scenario::kEthernet10G, 4);
  config.faults.schedule = faults::parseSchedule("link:h1@1=0.08");
  const auto record = harness::runOnce(config, 5);
  EXPECT_GE(record.health.suspects, 1u);
  EXPECT_GE(record.health.quarantines, 1u);
}

TEST(FailSlowMonitor, DetectionIsPeerRelativeUnderClusterWideSlowdown) {
  // Both hosts stutter to 30% at once: the peer median moves with the
  // cluster, so nobody is below ratio x median and nothing is quarantined.
  auto config = monitorConfig(2_GiB);
  config.faults.schedule = faults::parseSchedule("link:h0@2=0.3;link:h1@2=0.3");
  const auto record = harness::runOnce(config, 11);
  EXPECT_EQ(record.health.quarantines, 0u);
}

TEST(FailSlowMonitor, CliKnobValidation) {
  control::HealthPolicy policy;
  policy.enabled = true;
  auto cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  sim::FluidSimulator fluid;
  beegfs::Deployment deployment(fluid, cluster, beegfs::BeegfsParams{}, util::Rng(1));
  beegfs::FileSystem fs(deployment, util::Rng(2));
  policy.suspectRatio = 1.5;
  EXPECT_THROW(control::HealthMonitor(fs, policy), util::ContractError);
  policy.suspectRatio = 0.5;
  policy.suspectPatience = 0.0;
  EXPECT_THROW(control::HealthMonitor(fs, policy), util::ContractError);
}

// -- Campaign plumbing --------------------------------------------------------

harness::CampaignEntry grayEntry() {
  harness::CampaignEntry entry;
  entry.config = monitorConfig(1_GiB);
  entry.config.fs.hedge.enabled = true;
  entry.config.faults.schedule = faults::parseSchedule(
      "slow:t4@1=0.05;slow:t5@1=0.05;slow:t6@1=0.05;slow:t7@1=0.05");
  return entry;
}

TEST(FailSlowCampaign, ColumnsAreGatedAndJobsInvariant) {
  const auto entry = grayEntry();
  harness::ProtocolOptions protocol;
  protocol.repetitions = 3;
  harness::ExecutorOptions serial;
  serial.jobs = 1;
  harness::ExecutorOptions parallel;
  parallel.jobs = 4;
  const auto a = harness::executeCampaign({entry}, protocol, 99, nullptr, serial);
  const auto b = harness::executeCampaign({entry}, protocol, 99, nullptr, parallel);
  for (const std::string metric :
       {"bandwidth_mibps", "gray_samples", "gray_suspects", "gray_quarantines",
        "gray_probations", "gray_readmissions", "gray_relapses", "hedge_issued",
        "hedge_wins", "hedge_primary_wins", "hedge_mirror_switchovers", "hedge_mib"}) {
    EXPECT_EQ(a.metric(metric, {}), b.metric(metric, {})) << metric;
  }

  // Feature off => the columns must not exist at all (golden-bytes contract).
  harness::CampaignEntry off = entry;
  off.config.health = control::HealthPolicy{};
  off.config.fs.hedge = beegfs::HedgePolicy{};
  off.config.faults = faults::FaultPlan{};
  const auto gated = harness::executeCampaign({off}, protocol, 99, nullptr, serial);
  EXPECT_THROW(gated.metric("gray_quarantines", {}), util::ContractError);
  EXPECT_THROW(gated.metric("hedge_issued", {}), util::ContractError);
}

TEST(FailSlowCampaign, DisabledFeaturesKeepLegacyBytes) {
  // The detector/hedge master switches off must reproduce the exact same
  // rows as a build that never heard of them: same seed, same bandwidth to
  // the last bit, no gray/hedge columns.
  harness::CampaignEntry entry;
  entry.config = monitorConfig(512_MiB);
  entry.config.health = control::HealthPolicy{};  // off
  harness::ProtocolOptions protocol;
  protocol.repetitions = 2;
  harness::ExecutorOptions serial;
  serial.jobs = 1;
  const auto a = harness::executeCampaign({entry}, protocol, 7, nullptr, serial);
  const auto b = harness::executeCampaign({entry}, protocol, 7, nullptr, serial);
  EXPECT_EQ(a.metric("bandwidth_mibps", {}), b.metric("bandwidth_mibps", {}));
  EXPECT_THROW(a.metric("gray_samples", {}), util::ContractError);
}

TEST(FailSlowConcurrent, MonitorAndHedgeComposeWithTenants) {
  harness::RunConfig base;
  base.cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  base.fs.defaultStripe.stripeCount = 8;
  base.fs.hedge.enabled = true;
  base.health.enabled = true;
  base.health.suspectRatio = 0.5;
  std::vector<harness::AppSpec> specs(2);
  specs[0].job = ior::IorJob{{0, 1}, 8};
  specs[1].job = ior::IorJob{{2, 3}, 8};
  for (auto& spec : specs) {
    spec.ior.blockSize = ior::blockSizeForTotal(512_MiB, spec.job.ranks());
  }
  const auto result = harness::runConcurrent(base, specs, 17);
  EXPECT_GT(result.health.samples, 0u);
  EXPECT_GT(result.aggregateBandwidth, 0.0);
}

// -- CLI flag plumbing --------------------------------------------------------

int runCliCapture(std::vector<std::string> argv, std::string* out = nullptr) {
  std::ostringstream o;
  std::ostringstream e;
  const int code = cli::runCli(argv, o, e);
  if (out) *out = o.str();
  return code;
}

TEST(FailSlowCli, KnobsWithoutMasterSwitchAreRejected) {
  EXPECT_NE(runCliCapture({"run", "--nodes", "2", "--fail-slow-mttr", "5"}), 0);
  EXPECT_NE(runCliCapture({"run", "--nodes", "2", "--fail-slow-severity", "0.1"}), 0);
  EXPECT_NE(runCliCapture({"run", "--nodes", "2", "--suspect-patience", "2"}), 0);
  EXPECT_NE(runCliCapture({"run", "--nodes", "2", "--hedge-deadline", "1"}), 0);
  EXPECT_NE(runCliCapture({"run", "--nodes", "2", "--hedge-ratio", "0.2"}), 0);
}

TEST(FailSlowCli, BoundsAreValidated) {
  EXPECT_NE(runCliCapture({"run", "--nodes", "2", "--fail-slow", "0"}), 0);
  EXPECT_NE(runCliCapture({"run", "--nodes", "2", "--fail-slow", "30",
                           "--fail-slow-severity", "1.5"}), 0);
  EXPECT_NE(runCliCapture({"run", "--nodes", "2", "--suspect-ratio", "1.2"}), 0);
  EXPECT_NE(runCliCapture({"run", "--nodes", "2", "--suspect-ratio", "0.5",
                           "--suspect-patience", "0"}), 0);
  EXPECT_NE(runCliCapture({"run", "--nodes", "2", "--hedge", "--hedge-ratio", "2"}), 0);
}

TEST(FailSlowCli, RunReportsHealthAndHedgeTotals) {
  std::string out;
  ASSERT_EQ(runCliCapture({"run", "--nodes", "2", "--reps", "1", "--total", "256m",
                           "--faults", "slow:t4@1=0.05", "--suspect-ratio", "0.5",
                           "--hedge"},
                          &out),
            0);
  EXPECT_NE(out.find("health (totals over 1 reps)"), std::string::npos);
  EXPECT_NE(out.find("hedge (totals over 1 reps)"), std::string::npos);
}

TEST(FailSlowCli, SlowGrammarAndFailSlowFlagAreAccepted) {
  std::string out;
  EXPECT_EQ(runCliCapture({"run", "--nodes", "2", "--reps", "1", "--total", "128m",
                           "--fail-slow", "40", "--fail-slow-mttr", "4",
                           "--fail-slow-severity", "0.2", "--hedge"},
                          &out),
            0);
  EXPECT_NE(out.find("bandwidth:"), std::string::npos);
}

// -- Chaos soak (CI: randomized schedules, logged seeds) ----------------------

TEST(FailSlowChaos, RandomizedFailSlowNeverStallsOrDoubleSpends) {
  // Randomized fail-slow campaigns with the full mitigation stack.  Each
  // seed's plan may drive targets to fraction 0 (dead-but-online); the run
  // must still terminate (runOnce asserts completion) and QoS tokens must
  // cover the logical bytes exactly once.  Seeds are logged so CI failures
  // reproduce with --gtest_filter + the printed seed.
  std::size_t seeds = 10;
  if (const char* env = std::getenv("BEESIM_CHAOS_SEEDS")) {
    seeds = static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
  }
  for (std::size_t i = 0; i < seeds; ++i) {
    const std::uint64_t seed = 1000 + 37 * i;
    std::cout << "[chaos] fail-slow soak seed=" << seed << "\n";
    harness::RunConfig config;
    config.cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
    config.fs.defaultStripe.stripeCount = 8;
    config.fs.faults.mode = beegfs::ClientFaultPolicy::Mode::kDegraded;
    config.fs.faults.ioTimeout = 0.5;
    config.fs.hedge.enabled = true;
    config.fs.hedge.deadline = 0.4;
    config.health.enabled = true;
    config.health.suspectRatio = 0.5;
    config.qos.enabled = true;
    config.qos.rate = 800.0;
    faults::StochasticFaultSpec spec;
    spec.degradeMttf = 6.0;
    spec.degradeMttr = 3.0;
    spec.degradeCeiling = 0.3;  // draws from [0, 0.3]: includes dead-but-online
    spec.linkStutterMttf = 10.0;
    spec.linkStutterMttr = 2.0;
    spec.horizon = 60.0;
    config.faults.stochastic = spec;
    config.job = ior::IorJob::onFirstNodes(4, 8);
    config.ior.blockSize = ior::blockSizeForTotal(1_GiB, 32);
    const auto record = harness::runOnce(config, seed);  // asserts completion
    EXPECT_FALSE(record.ior.failed) << "seed=" << seed;
    ASSERT_TRUE(record.qosActive);
    EXPECT_DOUBLE_EQ(record.qos.tokensIssued,
                     static_cast<double>(record.ior.totalBytes))
        << "seed=" << seed;
  }
}

// All features at once: every chunk lifecycle (plain with the watchdog ladder,
// mirrored, hedged, QoS-deferred) under crashes, fail-slow and stutters.
harness::RunConfig allFeaturesConfig(bool mirrored, bool hedge) {
  harness::RunConfig config;
  config.cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  config.fs.defaultStripe.stripeCount = 8;
  config.fs.faults.mode = beegfs::ClientFaultPolicy::Mode::kDegraded;
  config.fs.faults.ioTimeout = 0.5;
  config.fs.faults.backoffBase = 0.25;
  config.fs.faults.maxRetries = 2;
  config.fs.mirror.enabled = mirrored;
  config.fs.defaultStripe.mirror = mirrored;
  config.fs.hedge.enabled = hedge;
  config.fs.hedge.deadline = 0.4;
  config.fs.meta.queued = true;
  config.fs.meta.mdtCount = 2;
  config.health.enabled = true;
  config.health.suspectRatio = 0.5;
  config.qos.enabled = true;
  config.qos.rate = 800.0;
  // Slot migration moves plain slots only; mirrored slots move by group.
  config.rebalance.enabled = !mirrored;
  faults::StochasticFaultSpec spec;
  spec.targetMttf = 6.0;
  spec.targetMttr = 0.75;
  spec.hostMttf = 60.0;
  spec.hostMttr = 0.4;
  spec.degradeMttf = 3.0;
  spec.degradeMttr = 1.5;
  spec.degradeCeiling = 0.3;
  spec.linkStutterMttf = 5.0;
  spec.linkStutterMttr = 1.0;
  spec.horizon = 30.0;
  config.faults.stochastic = spec;
  config.job = ior::IorJob::onFirstNodes(4, 8);
  config.ior.blockSize = ior::blockSizeForTotal(4_GiB, 32);
  ior::MdtestOptions md;
  md.filesPerRank = 4;
  config.mdtest = md;
  return config;
}

TEST(Chaos, AllFeaturesTerminateConserveAndDrain) {
  // Each seed must terminate without aborting, charge QoS tokens exactly
  // once per logical byte, and drain: runOnce asserts that no flow and no
  // chunk op is live after the simulation ran dry.  Two seeds per variant
  // pin the outcome, so any change in chunk-lifecycle event order shows.
  struct Variant {
    const char* name;
    bool mirrored;
    bool hedge;
  };
  const Variant variants[] = {
      {"mirrored+hedge", true, true},
      {"mirrored", true, false},
      {"plain+hedge", false, true},
      {"plain", false, false},
  };
  struct Pinned {
    double bandwidth;
    std::size_t timeouts;
    std::size_t failovers;
    util::Bytes bytesRewritten;
    std::size_t hedges;
    std::size_t mirrorFailovers;
  };
  // [variant][seed index] for the first two soak seeds.  Mirrored files
  // hedge only through quarantine switchovers and none fires here, so both
  // mirrored variants pin the same values.  plain+hedge at seed 2000 was
  // re-recorded when the watchdog and the lag check came to share one timer
  // per op: ioTimeout (0.5) differs from the deadline (0.4), so checks of
  // several ops due at one instant now run op by op, not in scheduling
  // order.  With the deadline at 0.5 every variant and seed was unchanged.
  const Pinned pinned[4][2] = {
      {{603.4825525573948, 0, 0, 0, 0, 13}, {562.05468380534705, 0, 0, 134217728, 0, 14}},
      {{603.4825525573948, 0, 0, 0, 0, 13}, {562.05468380534705, 0, 0, 134217728, 0, 14}},
      {{529.48490358758295, 18, 10, 301989888, 199, 0},
       {464.71694515189461, 10, 6, 167772160, 149, 0}},
      {{514.34032067501812, 40, 16, 671088640, 0, 0},
       {421.07332303429638, 41, 22, 687865856, 0, 0}},
  };
  std::size_t seeds = 3;
  if (const char* env = std::getenv("BEESIM_CHAOS_SEEDS")) {
    seeds = std::max<std::size_t>(2, std::strtoul(env, nullptr, 10));
  }
  for (std::size_t v = 0; v < 4; ++v) {
    const auto& variant = variants[v];
    for (std::size_t i = 0; i < seeds; ++i) {
      const std::uint64_t seed = 2000 + 41 * i;
      std::cout << "[chaos] all-features " << variant.name << " seed=" << seed << "\n";
      const auto config = allFeaturesConfig(variant.mirrored, variant.hedge);
      const auto record = harness::runOnce(config, seed);  // asserts the drain
      EXPECT_FALSE(record.ior.failed) << variant.name << " seed=" << seed;
      ASSERT_TRUE(record.qosActive);
      EXPECT_DOUBLE_EQ(record.qos.tokensIssued, static_cast<double>(record.ior.totalBytes))
          << variant.name << " seed=" << seed;
      EXPECT_TRUE(record.mdActive);
      if (i >= 2) continue;
      const auto& pin = pinned[v][i];
      EXPECT_EQ(record.ior.bandwidth, pin.bandwidth) << variant.name << " seed=" << seed;
      EXPECT_EQ(record.ior.faults.timeouts, pin.timeouts) << variant.name << " seed=" << seed;
      EXPECT_EQ(record.ior.faults.failovers, pin.failovers) << variant.name << " seed=" << seed;
      EXPECT_EQ(record.ior.faults.bytesRewritten, pin.bytesRewritten)
          << variant.name << " seed=" << seed;
      EXPECT_EQ(record.ior.hedge.hedgesIssued, pin.hedges) << variant.name << " seed=" << seed;
      EXPECT_EQ(record.ior.mirror.failovers, pin.mirrorFailovers)
          << variant.name << " seed=" << seed;
    }
  }

  // Jobs invariance: the same campaign at --jobs 1 and --jobs 4.
  harness::CampaignEntry entry;
  entry.config = allFeaturesConfig(/*mirrored=*/false, /*hedge=*/true);
  harness::ProtocolOptions protocol;
  protocol.repetitions = 3;
  harness::ExecutorOptions serial;
  serial.jobs = 1;
  harness::ExecutorOptions parallel;
  parallel.jobs = 4;
  const auto a = harness::executeCampaign({entry}, protocol, 5, nullptr, serial);
  const auto b = harness::executeCampaign({entry}, protocol, 5, nullptr, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a.rows()[r].factors, b.rows()[r].factors) << "row " << r;
    EXPECT_EQ(a.rows()[r].metrics, b.rows()[r].metrics) << "row " << r;
  }
}

}  // namespace
}  // namespace beesim
