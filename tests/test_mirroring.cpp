// Storage buddy-mirror groups: registration rules, the failover/revive
// contracts, synchronous write replication, zero-loss primary failover,
// background resync, and the property that random fault schedules can never
// promote an offline or inconsistent secondary (the registry enforces it
// with ContractError, so a violation fails the run loudly).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "beegfs/deployment.hpp"
#include "beegfs/filesystem.hpp"
#include "beegfs/mgmt.hpp"
#include "faults/injector.hpp"
#include "faults/schedule.hpp"
#include "harness/campaign.hpp"
#include "ior/runner.hpp"
#include "topology/plafrim.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace beesim {
namespace {

using namespace beesim::util::literals;
using beegfs::ClientFaultPolicy;
using beegfs::MirrorState;

// -- Registry: group registration and state contracts -----------------------

topo::ClusterConfig testCluster() {
  return topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
}

TEST(MirrorRegistry, RegisterValidatesMembers) {
  beegfs::ManagementService mgmt(testCluster(), 0);
  // PlaFRIM: targets 0..3 on host 0, 4..7 on host 1.
  EXPECT_THROW(mgmt.registerMirrorGroup(0, 1), util::ConfigError);   // same host
  EXPECT_THROW(mgmt.registerMirrorGroup(0, 99), util::ConfigError);  // unknown

  const auto id = mgmt.registerMirrorGroup(0, 4);
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(mgmt.mirrorGroupCount(), 1u);
  EXPECT_EQ(mgmt.mirrorGroupOf(0), std::optional<std::size_t>{0});
  EXPECT_EQ(mgmt.mirrorGroupOf(4), std::optional<std::size_t>{0});
  EXPECT_FALSE(mgmt.mirrorGroupOf(1).has_value());

  // Each target belongs to at most one group.
  EXPECT_THROW(mgmt.registerMirrorGroup(0, 5), util::ConfigError);
  EXPECT_THROW(mgmt.registerMirrorGroup(5, 4), util::ConfigError);
}

TEST(MirrorRegistry, DefaultPairsSpanHostsAndBalancePrimaries) {
  const auto cluster = testCluster();
  const auto pairs = beegfs::defaultMirrorPairs(cluster);
  ASSERT_EQ(pairs.size(), 4u);

  beegfs::ManagementService mgmt(cluster, 0);
  std::set<std::size_t> members;
  std::size_t primariesOnHost0 = 0;
  for (const auto& [primary, secondary] : pairs) {
    EXPECT_NE(mgmt.target(primary).host, mgmt.target(secondary).host);
    members.insert(primary);
    members.insert(secondary);
    if (mgmt.target(primary).host == 0) ++primariesOnHost0;
  }
  EXPECT_EQ(members.size(), 8u);       // every target is in exactly one group
  EXPECT_EQ(primariesOnHost0, 2u);     // alternating orientation: 2 + 2
}

TEST(MirrorRegistry, FailoverRefusesUnsafePromotions) {
  beegfs::ManagementService mgmt(testCluster(), 0);
  const auto id = mgmt.registerMirrorGroup(0, 4);

  mgmt.failOverMirrorGroup(id);
  EXPECT_EQ(mgmt.mirrorGroup(id).primary, 4u);
  EXPECT_EQ(mgmt.mirrorGroup(id).secondary, 0u);
  EXPECT_EQ(mgmt.mirrorGroup(id).state, MirrorState::kNeedsResync);

  // A stale secondary must never be promoted.
  EXPECT_THROW(mgmt.failOverMirrorGroup(id), util::ContractError);

  // Nor an offline one, even when the copies agree.
  mgmt.setMirrorState(id, MirrorState::kGood);
  mgmt.setTargetOnline(0, false);
  EXPECT_THROW(mgmt.failOverMirrorGroup(id), util::ContractError);
}

TEST(MirrorRegistry, ReviveRequiresBadGroupAndOnlineMember) {
  beegfs::ManagementService mgmt(testCluster(), 0);
  const auto id = mgmt.registerMirrorGroup(0, 4);

  // Only bad groups can be revived.
  EXPECT_THROW(mgmt.reviveMirrorGroup(id, 4), util::ContractError);

  mgmt.setMirrorState(id, MirrorState::kBad);
  EXPECT_THROW(mgmt.reviveMirrorGroup(id, 1), util::ContractError);  // not a member
  mgmt.setTargetOnline(4, false);
  EXPECT_THROW(mgmt.reviveMirrorGroup(id, 4), util::ContractError);  // offline

  mgmt.setTargetOnline(4, true);
  mgmt.reviveMirrorGroup(id, 4);
  EXPECT_EQ(mgmt.mirrorGroup(id).primary, 4u);
  EXPECT_EQ(mgmt.mirrorGroup(id).state, MirrorState::kNeedsResync);
}

TEST(MirrorRegistry, ResyncDebtCannotBeOverSettled) {
  beegfs::ManagementService mgmt(testCluster(), 0);
  const auto id = mgmt.registerMirrorGroup(0, 4);
  mgmt.addResyncDebt(id, 100_MiB);
  EXPECT_THROW(mgmt.settleResyncDebt(id, 101_MiB), util::ContractError);
  mgmt.settleResyncDebt(id, 100_MiB);
  EXPECT_EQ(mgmt.mirrorGroup(id).resyncDebt, 0u);
}

// -- FileSystem: mirrored creation, replication, failover, resync ------------

struct System {
  sim::FluidSimulator fluid;
  topo::ClusterConfig cluster = testCluster();
  beegfs::Deployment deployment;
  beegfs::FileSystem fs;

  explicit System(beegfs::BeegfsParams params = {})
      : deployment(fluid, cluster, params, util::Rng(1)), fs(deployment, util::Rng(2)) {}
};

/// Mirrored deployment with a degraded-mode client (short timeouts).
beegfs::BeegfsParams mirrorParams() {
  beegfs::BeegfsParams params;
  params.mirror.enabled = true;
  params.defaultStripe.mirror = true;
  params.faults.mode = ClientFaultPolicy::Mode::kDegraded;
  params.faults.ioTimeout = 0.2;
  params.faults.backoffBase = 0.05;
  params.faults.maxRetries = 3;
  return params;
}

TEST(MirrorFileSystem, CreateStripesOverGroupPrimaries) {
  auto params = mirrorParams();
  params.defaultStripe.stripeCount = 4;
  System system(params);

  const auto handle = system.fs.create("/data/file");
  const auto& info = system.fs.info(handle);
  EXPECT_TRUE(info.mirrored);
  auto targets = info.pattern.targets();
  std::sort(targets.begin(), targets.end());
  // Default pairing on PlaFRIM: primaries 0 and 2 on host 0, 5 and 7 on
  // host 1 (orientation alternates per group).
  EXPECT_EQ(targets, (std::vector<std::size_t>{0, 2, 5, 7}));
}

TEST(MirrorFileSystem, CreateRequiresRegisteredAndUsableGroups) {
  // Mirrored striping without any registered groups is a config error.
  beegfs::BeegfsParams noGroups;
  noGroups.defaultStripe.mirror = true;
  System ungrouped(noGroups);
  EXPECT_THROW(ungrouped.fs.create("/f"), util::ConfigError);

  // Drive every group to bad (secondary first, then the primary) and the
  // create must refuse: no consistent copy is reachable anywhere.
  System system(mirrorParams());
  auto& mgmt = system.deployment.mgmt();
  for (const std::size_t secondary : {4, 1, 6, 3}) {
    mgmt.setTargetOnline(secondary, false);
  }
  for (const std::size_t primary : {0, 5, 2, 7}) {
    mgmt.setTargetOnline(primary, false);
  }
  for (std::size_t gid = 0; gid < mgmt.mirrorGroupCount(); ++gid) {
    EXPECT_EQ(mgmt.mirrorGroup(gid).state, MirrorState::kBad);
  }
  EXPECT_THROW(system.fs.create("/f"), util::ConfigError);
}

TEST(MirrorFileSystem, HealthyWriteReplicatesEveryChunkBeforeAck) {
  auto params = mirrorParams();
  params.mirror.groups = {{0, 4}};
  System system(params);

  const auto handle = system.fs.createPinned("/m", {0}, 512_KiB);
  EXPECT_TRUE(system.fs.info(handle).mirrored);
  bool done = false;
  system.fs.writeAsync(0, handle, 0, 256_MiB, 8.0, [&](util::Seconds) { done = true; });
  system.fluid.run();

  ASSERT_TRUE(done);
  const auto& stats = system.fs.mirrorStats();
  EXPECT_EQ(stats.replicaFlows, 1u);
  EXPECT_EQ(stats.bytesReplicated, 256_MiB);
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(stats.bytesLost, 0u);
  EXPECT_EQ(stats.resyncJobs, 0u);

  const auto& mgmt = system.deployment.mgmt();
  EXPECT_EQ(mgmt.mirrorGroup(0).state, MirrorState::kGood);
  EXPECT_EQ(mgmt.mirrorGroup(0).resyncDebt, 0u);
  // Both copies were charged to capacity accounting.
  EXPECT_EQ(mgmt.target(0).used, 256_MiB);
  EXPECT_EQ(mgmt.target(4).used, 256_MiB);
}

TEST(MirrorFileSystem, PrimaryFailoverLosesNothingAndResyncs) {
  auto params = mirrorParams();
  params.mirror.groups = {{0, 4}};
  System system(params);
  faults::FaultInjector injector(system.deployment,
                                 faults::parseSchedule("off:t0@0.05;on:t0@5"));
  injector.arm();

  const auto handle = system.fs.createPinned("/victim", {0}, 512_KiB);
  bool done = false;
  system.fs.writeAsync(0, handle, 0, 1_GiB, 8.0, [&](util::Seconds) { done = true; });
  system.fluid.run();

  ASSERT_TRUE(done);
  const auto& stats = system.fs.mirrorStats();
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.bytesLost, 0u);  // the acceptance bar: failover loses nothing
  // The replica leg keeps its progress: only the remainder is re-sent.
  EXPECT_GT(stats.bytesResent, 0u);
  EXPECT_LT(stats.bytesResent, 1_GiB);

  // No rewrite, no stripe degradation, no watchdog involvement.
  EXPECT_EQ(system.fs.faultStats().bytesRewritten, 0u);
  EXPECT_EQ(system.fs.faultStats().failovers, 0u);
  EXPECT_EQ(system.fs.faultStats().timeouts, 0u);
  EXPECT_EQ(system.fs.effectiveTarget(handle, 0), 0u);

  // After the old primary returned, the background resync drained the debt.
  const auto& group = system.deployment.mgmt().mirrorGroup(0);
  EXPECT_EQ(group.primary, 4u);
  EXPECT_EQ(group.state, MirrorState::kGood);
  EXPECT_EQ(group.resyncDebt, 0u);
  EXPECT_GE(stats.resyncJobs, 1u);
  EXPECT_EQ(stats.bytesResynced, 1_GiB);  // the failed-over chunk, owed in full
  EXPECT_GT(stats.resyncSeconds, 0.0);
}

TEST(MirrorFileSystem, SecondaryDeathDegradesThenRecoveryResyncs) {
  auto params = mirrorParams();
  params.mirror.groups = {{0, 4}};
  System system(params);
  faults::FaultInjector injector(system.deployment,
                                 faults::parseSchedule("off:t4@0.05;on:t4@5"));
  injector.arm();

  const auto handle = system.fs.createPinned("/m", {0}, 512_KiB);
  bool done = false;
  util::Seconds doneAt = 0.0;
  system.fs.writeAsync(0, handle, 0, 1_GiB, 8.0, [&](util::Seconds t) {
    done = true;
    doneAt = t;
  });
  system.fluid.run();

  ASSERT_TRUE(done);
  // The write finished single-copy against the primary; the cancelled
  // replica is untrusted, so the whole chunk became resync debt.
  const auto& stats = system.fs.mirrorStats();
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(stats.bytesLost, 0u);
  EXPECT_EQ(stats.resyncJobs, 1u);
  EXPECT_EQ(stats.bytesResynced, 1_GiB);

  const auto& group = system.deployment.mgmt().mirrorGroup(0);
  EXPECT_EQ(group.primary, 0u);  // no failover: the primary never blinked
  EXPECT_EQ(group.state, MirrorState::kGood);
  EXPECT_EQ(group.resyncDebt, 0u);
  EXPECT_GT(doneAt, 0.0);
}

TEST(MirrorFileSystem, MirroredReadFailsOverToSurvivingCopy) {
  auto params = mirrorParams();
  params.mirror.groups = {{0, 4}};
  System system(params);
  faults::FaultInjector injector(system.deployment, faults::parseSchedule("off:t0@0.05"));
  injector.arm();

  const auto handle = system.fs.createPinned("/r", {0}, 512_KiB);
  system.fs.truncate(handle, 1_GiB);
  bool done = false;
  system.fs.readAsync(0, handle, 0, 1_GiB, 8.0, [&](util::Seconds) { done = true; });
  system.fluid.run();

  ASSERT_TRUE(done);
  const auto& stats = system.fs.mirrorStats();
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.replicaFlows, 0u);  // reads replicate nothing
  EXPECT_EQ(stats.bytesResent, 0u);   // re-fetch, not re-send
  EXPECT_EQ(stats.bytesLost, 0u);
  // Reads leave no debt; the group just waits for the old primary.
  const auto& group = system.deployment.mgmt().mirrorGroup(0);
  EXPECT_EQ(group.primary, 4u);
  EXPECT_EQ(group.state, MirrorState::kNeedsResync);
  EXPECT_EQ(group.resyncDebt, 0u);
}

TEST(MirrorFileSystem, DoubleFailureCountsLostBytesAndRecovers) {
  auto params = mirrorParams();
  params.mirror.groups = {{0, 4}};
  System system(params);
  // Secondary dies first (debt accrues), then the primary: the group goes
  // bad.  The only debt is the in-flight chunk's, which never acked and is
  // rewritten elsewhere, so nothing is lost.  Both members return later and
  // the group heals with nothing left to stream.
  faults::FaultInjector injector(
      system.deployment, faults::parseSchedule("off:t4@0.05;off:t0@0.5;on:t4@5;on:t0@6"));
  injector.arm();

  const auto handle = system.fs.createPinned("/d", {0}, 512_KiB);
  bool done = false;
  system.fs.writeAsync(0, handle, 0, 1_GiB, 8.0, [&](util::Seconds) { done = true; });
  system.fluid.run();

  ASSERT_TRUE(done);
  const auto& stats = system.fs.mirrorStats();
  EXPECT_EQ(stats.failovers, 0u);      // never a safe promotion to make
  EXPECT_EQ(stats.bytesLost, 0u);      // the un-acked chunk lands again
  EXPECT_EQ(stats.resyncJobs, 0u);     // the debt died with the group
  // The in-flight chunk fell back to the degraded-stripe ladder.
  EXPECT_EQ(system.fs.faultStats().bytesRewritten, 1_GiB);
  EXPECT_NE(system.fs.effectiveTarget(handle, 0), 0u);

  const auto& group = system.deployment.mgmt().mirrorGroup(0);
  EXPECT_EQ(group.state, MirrorState::kGood);
  EXPECT_EQ(group.resyncDebt, 0u);
}

TEST(MirrorFileSystem, PrimaryLossCountsOnlyAckedSingleCopyBytes) {
  auto params = mirrorParams();
  params.mirror.groups = {{0, 4}};
  System system(params);
  // With the secondary down, a first write acks single-copy; a second one is
  // still in flight when the primary dies.  Only the acked write is lost;
  // the in-flight one is rewritten elsewhere.
  faults::FaultInjector injector(
      system.deployment, faults::parseSchedule("off:t4@0;off:t0@1;on:t4@5;on:t0@6"));
  injector.arm();

  const auto handle = system.fs.createPinned("/d", {0}, 512_KiB);
  util::Seconds ackedAt = -1.0;
  util::Seconds secondDoneAt = -1.0;
  system.fs.writeAsync(0, handle, 0, 64_MiB, 8.0, [&](util::Seconds t) {
    ackedAt = t;
    system.fs.writeAsync(0, handle, 64_MiB, 2_GiB, 8.0,
                         [&](util::Seconds t2) { secondDoneAt = t2; });
  });
  system.fluid.run();

  ASSERT_GE(ackedAt, 0.0);
  ASSERT_LT(ackedAt, 1.0);       // acked before the primary crash
  ASSERT_GT(secondDoneAt, 1.0);  // still in flight at the crash
  const auto& stats = system.fs.mirrorStats();
  EXPECT_EQ(stats.bytesLost, 64_MiB);
  EXPECT_EQ(system.fs.faultStats().bytesRewritten, 2_GiB);
}

TEST(MirrorFileSystem, ResyncRateCapStretchesTheStream) {
  for (const double rate : {0.0, 50.0}) {
    auto params = mirrorParams();
    params.mirror.groups = {{0, 4}};
    params.mirror.resyncRate = rate;
    System system(params);
    faults::FaultInjector injector(system.deployment,
                                   faults::parseSchedule("off:t4@0.05;on:t4@5"));
    injector.arm();
    const auto handle = system.fs.createPinned("/m", {0}, 512_KiB);
    system.fs.writeAsync(0, handle, 0, 1_GiB, 8.0, [](util::Seconds) {});
    system.fluid.run();
    const auto& stats = system.fs.mirrorStats();
    ASSERT_EQ(stats.bytesResynced, 1_GiB);
    if (rate > 0.0) {
      // 1 GiB at 50 MiB/s: the cap, not the links, sets the pace.
      EXPECT_GE(stats.resyncSeconds, 1024.0 / 50.0 * 0.99);
    } else {
      EXPECT_LT(stats.resyncSeconds, 1024.0 / 50.0);
    }
  }
}

// -- Harness integration and the safety property -----------------------------

harness::RunConfig mirrorRunConfig() {
  harness::RunConfig config;
  config.cluster = topo::makePlafrim(topo::Scenario::kEthernet10G, 4);
  config.fs.mirror.enabled = true;
  config.fs.defaultStripe.mirror = true;
  config.fs.defaultStripe.stripeCount = 4;
  config.fs.faults.mode = ClientFaultPolicy::Mode::kDegraded;
  config.fs.faults.ioTimeout = 0.5;
  config.fs.faults.backoffBase = 0.25;
  config.fs.faults.maxRetries = 2;
  config.job = ior::IorJob::onFirstNodes(4, 4);
  config.ior.blockSize = ior::blockSizeForTotal(4_GiB, config.job.ranks());
  return config;
}

TEST(MirrorHarness, RunOnceSurfacesMirrorCounters) {
  auto config = mirrorRunConfig();
  config.faults.schedule = faults::parseSchedule("off:h1@2");
  const auto a = harness::runOnce(config, 42);
  const auto b = harness::runOnce(config, 42);
  EXPECT_TRUE(a.mirrorActive);
  EXPECT_GT(a.ior.mirror.bytesReplicated, 0u);
  EXPECT_DOUBLE_EQ(a.ior.bandwidth, b.ior.bandwidth);
  EXPECT_EQ(a.ior.mirror.failovers, b.ior.mirror.failovers);
  EXPECT_EQ(a.ior.mirror.bytesResynced, b.ior.mirror.bytesResynced);
  EXPECT_EQ(a.ior.mirror.bytesLost, b.ior.mirror.bytesLost);
}

TEST(MirrorHarness, UnmirroredRunsCarryNoMirrorCounters) {
  auto config = mirrorRunConfig();
  config.fs.mirror.enabled = false;
  config.fs.defaultStripe.mirror = false;
  const auto record = harness::runOnce(config, 42);
  EXPECT_FALSE(record.mirrorActive);
  EXPECT_EQ(record.ior.mirror.replicaFlows, 0u);
  EXPECT_EQ(record.ior.mirror.bytesReplicated, 0u);
}

TEST(MirrorHarness, CampaignRowsAreIdenticalSerialVsParallel) {
  // Mirrored campaigns meet the same bar as fault campaigns: bitwise
  // row-identical between --jobs 1 and --jobs 8, and the mirror columns
  // only appear when mirroring is on.
  std::vector<harness::CampaignEntry> entries(2);
  entries[0].config = mirrorRunConfig();
  entries[0].factors = {{"sched", "healthy"}};
  entries[1].config = mirrorRunConfig();
  entries[1].config.faults.schedule = faults::parseSchedule("off:h1@2;on:h1@6");
  entries[1].factors = {{"sched", "crash"}};

  harness::ProtocolOptions protocol;
  protocol.repetitions = 3;

  harness::ExecutorOptions serial;
  serial.jobs = 1;
  harness::ExecutorOptions parallel;
  parallel.jobs = 8;
  const auto storeA = harness::executeCampaign(entries, protocol, 2022, nullptr, serial);
  const auto storeB = harness::executeCampaign(entries, protocol, 2022, nullptr, parallel);

  const auto pathA = std::filesystem::temp_directory_path() / "beesim_mirror_serial.csv";
  const auto pathB = std::filesystem::temp_directory_path() / "beesim_mirror_parallel.csv";
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
  EXPECT_NE(textA.find("mirror_failovers"), std::string::npos);
  EXPECT_NE(textA.find("resync_mib"), std::string::npos);
  std::filesystem::remove(pathA);
  std::filesystem::remove(pathB);
}

TEST(MirrorProperty, RandomSchedulesNeverPromoteUnsafeSecondaries) {
  // Safety property behind ISSUE satellite 3: across seeded random fault
  // schedules, a failover (or revive) must never select an offline or
  // inconsistent copy.  The registry asserts exactly that with
  // ContractError, so it suffices to drive many randomized runs to
  // completion -- any unsafe promotion would throw out of runOnce.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    auto config = mirrorRunConfig();
    faults::StochasticFaultSpec spec;
    spec.targetMttf = 5.0;
    spec.targetMttr = 2.0;
    spec.hostMttf = 20.0;
    spec.hostMttr = 4.0;
    spec.horizon = 15.0;
    config.faults.stochastic = spec;

    harness::RunRecord record;
    ASSERT_NO_THROW(record = harness::runOnce(config, seed)) << "seed " << seed;
    EXPECT_TRUE(record.mirrorActive);
    // Replication happened (the run started healthy), and byte loss is only
    // possible via the double-failure path, never a failover.
    EXPECT_GT(record.ior.mirror.bytesReplicated, 0u) << "seed " << seed;
    const auto again = harness::runOnce(config, seed);
    EXPECT_DOUBLE_EQ(record.ior.bandwidth, again.ior.bandwidth) << "seed " << seed;
    EXPECT_EQ(record.ior.mirror.failovers, again.ior.mirror.failovers);
    EXPECT_EQ(record.ior.mirror.bytesLost, again.ior.mirror.bytesLost);
  }
}

}  // namespace
}  // namespace beesim
