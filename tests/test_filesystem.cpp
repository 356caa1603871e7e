#include "beegfs/filesystem.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "alloc_probe.hpp"
#include "core/allocation.hpp"
#include "faults/injector.hpp"
#include "faults/schedule.hpp"
#include "ior/runner.hpp"
#include "topology/plafrim.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace beesim::beegfs {
namespace {

using namespace beesim::util::literals;

struct Fixture {
  sim::FluidSimulator fluid;
  topo::ClusterConfig cluster = topo::makePlafrim(topo::Scenario::kEthernet10G, 4);
  Deployment deployment;
  FileSystem fs;

  explicit Fixture(BeegfsParams params = {})
      : deployment(fluid, cluster, params, util::Rng(1)), fs(deployment, util::Rng(2)) {}
};

TEST(FileSystem, DefaultDirectoryUsesDeploymentDefaults) {
  Fixture f;
  const auto& pattern = f.fs.info(f.fs.create("/anything/file")).pattern;
  EXPECT_EQ(pattern.stripeCount(), 4u);  // PlaFRIM default
  EXPECT_EQ(pattern.chunkSize(), 512_KiB);
}

TEST(FileSystem, CreateUsesDirectoryStripeCount) {
  BeegfsParams params;
  params.defaultStripe = StripeSettings{8, 1_MiB};
  Fixture f(params);
  const auto handle = f.fs.create("/wide/out.dat");
  EXPECT_EQ(f.fs.info(handle).pattern.stripeCount(), 8u);
  EXPECT_EQ(f.fs.info(handle).pattern.chunkSize(), 1_MiB);
}

TEST(FileSystem, RoundRobinCreateAlwaysGives13OnPlafrim) {
  BeegfsParams params;
  params.rrCreateRaceProbability = 0.0;
  Fixture f(params);
  for (int i = 0; i < 8; ++i) {
    const auto handle = f.fs.create("/beegfs/f" + std::to_string(i));
    const core::Allocation alloc(f.fs.info(handle).pattern.targets(), f.cluster);
    EXPECT_EQ(alloc.key(), "(1,3)");
  }
}

TEST(FileSystem, CreatePinnedBypassesChooser) {
  Fixture f;
  const auto handle = f.fs.createPinned("/pinned", {0, 4}, 1_MiB);
  EXPECT_EQ(f.fs.info(handle).pattern.targets(), (std::vector<std::size_t>{0, 4}));
  EXPECT_EQ(f.fs.info(handle).pattern.chunkSize(), 1_MiB);
}

TEST(FileSystem, CreatePinnedRejectsUnknownTargets) {
  Fixture f;
  EXPECT_THROW(f.fs.createPinned("/pinned", {99}, 1_MiB), util::ContractError);
}

TEST(FileSystem, StripeCountClampsToOnlineTargets) {
  BeegfsParams params;
  params.defaultStripe.stripeCount = 8;
  Fixture f(params);
  for (std::size_t t = 2; t < 8; ++t) f.deployment.mgmt().setTargetOnline(t, false);
  const auto handle = f.fs.create("/clamped");
  EXPECT_EQ(f.fs.info(handle).pattern.stripeCount(), 2u);
}

TEST(FileSystem, OfflineTargetsAreAvoided) {
  BeegfsParams params;
  params.chooser = ChooserKind::kRandom;
  Fixture f(params);
  f.deployment.mgmt().setTargetOnline(0, false);
  f.deployment.mgmt().setTargetOnline(1, false);
  for (int i = 0; i < 50; ++i) {
    const auto handle = f.fs.create("/nofail/f" + std::to_string(i));
    for (const auto t : f.fs.info(handle).pattern.targets()) {
      EXPECT_TRUE(f.deployment.mgmt().target(t).online);
    }
  }
}

TEST(FileSystem, NoOnlineTargetsThrows) {
  Fixture f;
  for (std::size_t t = 0; t < 8; ++t) f.deployment.mgmt().setTargetOnline(t, false);
  EXPECT_THROW(f.fs.create("/doomed"), util::ConfigError);
}

TEST(FileSystem, WriteCompletesAndTracksSizeAndUsage) {
  Fixture f;
  const auto handle = f.fs.createPinned("/w", {0, 4}, 512_KiB);
  f.deployment.setNodeProcesses(0, 1);
  bool done = false;
  f.fs.writeAsync(0, handle, 0, 64_MiB, 4.0, [&](util::Seconds) { done = true; });
  f.fluid.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(f.fs.info(handle).size, 64_MiB);
  EXPECT_EQ(f.deployment.mgmt().target(0).used, 32_MiB);
  EXPECT_EQ(f.deployment.mgmt().target(4).used, 32_MiB);
}

TEST(FileSystem, BalancedWriteIsFasterThanUnbalancedOnScenario1) {
  // The Fig. 9 effect at file-system level: same bytes, (1,1) vs (0,2).
  // The writing node's client stack must not be the bottleneck, so lift it.
  auto timeFor = [](std::vector<std::size_t> targets) {
    sim::FluidSimulator fluid;
    auto cluster = topo::makePlafrim(topo::Scenario::kEthernet10G, 1);
    cluster.nodes[0].clientThroughputCap = 1e5;
    cluster.nodes[0].nicBandwidth = 1e5;
    Deployment deployment(fluid, cluster, BeegfsParams{}, util::Rng(1));
    FileSystem fs(deployment, util::Rng(2));
    const auto handle = fs.createPinned("/x", std::move(targets), 512_KiB);
    double end = 0.0;
    fs.writeAsync(0, handle, 0, 2_GiB, 64.0, [&](util::Seconds t) { end = t; });
    fluid.run();
    return end;
  };
  const double balanced = timeFor({0, 4});
  const double unbalanced = timeFor({4, 5});
  EXPECT_LT(balanced, unbalanced);
  EXPECT_NEAR(unbalanced / balanced, 2.0, 0.15);
}

TEST(FileSystem, ZeroLengthWriteCompletesViaEvent) {
  Fixture f;
  const auto handle = f.fs.createPinned("/z", {0}, 512_KiB);
  bool done = false;
  f.fs.writeAsync(0, handle, 0, 0, 1.0, [&](util::Seconds) { done = true; });
  EXPECT_FALSE(done);  // asynchronous: fires from the event loop
  f.fluid.run();
  EXPECT_TRUE(done);
}

TEST(FileSystem, InvalidArgumentsThrow) {
  Fixture f;
  EXPECT_THROW(f.fs.create("relative/path"), util::ContractError);
  EXPECT_THROW(f.fs.info(FileHandle{42}), util::ContractError);
  const auto handle = f.fs.createPinned("/v", {0}, 512_KiB);
  EXPECT_THROW(f.fs.writeAsync(0, handle, 0, 1_MiB, 0.0, nullptr), util::ContractError);
  EXPECT_THROW(f.fs.writeAsync(0, FileHandle{42}, 0, 1_MiB, 1.0, nullptr),
               util::ContractError);
}

TEST(FileSystem, ReadRequiresDataToExist) {
  Fixture f;
  const auto handle = f.fs.createPinned("/r", {0, 4}, 512_KiB);
  EXPECT_THROW(f.fs.readAsync(0, handle, 0, 1_MiB, 1.0, nullptr), util::ContractError);
  f.fs.truncate(handle, 2_MiB);
  bool done = false;
  f.fs.readAsync(0, handle, 0, 2_MiB, 4.0, [&](util::Seconds) { done = true; });
  f.fluid.run();
  EXPECT_TRUE(done);
  // Reads do not consume capacity accounting.
  EXPECT_EQ(f.deployment.mgmt().target(0).used, 0u);
}

TEST(FileSystem, TruncateSetsLogicalSize) {
  Fixture f;
  const auto handle = f.fs.createPinned("/t", {1}, 512_KiB);
  EXPECT_EQ(f.fs.info(handle).size, 0u);
  f.fs.truncate(handle, 5_GiB);
  EXPECT_EQ(f.fs.info(handle).size, 5_GiB);
  EXPECT_THROW(f.fs.truncate(FileHandle{42}, 1), util::ContractError);
}

TEST(FileSystem, FileCountTracksCreates) {
  Fixture f;
  EXPECT_EQ(f.fs.fileCount(), 0u);
  f.fs.create("/a");
  f.fs.createPinned("/b", {1}, 512_KiB);
  EXPECT_EQ(f.fs.fileCount(), 2u);
}

// -- Allocation-free chunk ops and stale references. --------------------------

/// Counts the flows that landed (chunk legs, here).
class LandedFlows final : public sim::FluidObserver {
 public:
  void onFlowStarted(sim::FlowId, std::span<const sim::ResourceIndex>, util::Bytes,
                     sim::SimTime) override {}
  void onRatesSolved(sim::SimTime, std::span<const sim::FlowId>,
                     std::span<const util::MiBps>, std::size_t) override {}
  void onFlowCompleted(const sim::FlowStats&) override { ++count; }
  std::size_t count = 0;
};

/// What a warmed-up window of an IOR write did.
struct WarmWindow {
  std::uint64_t allocations = 0;
  std::size_t legsLanded = 0;
  std::size_t hedgesIssued = 0;
  std::size_t replicaFlows = 0;
};

/// Runs a 2-node x 4-rank N-1 IOR write of 1 MiB segments under `params`
/// (after `prepare`, if any, set up the deployment), and counts the heap
/// allocations of the events that land `window` chunk legs after `warmup`
/// legs warmed every pool on the path.  `untilHedges`, when set, stretches
/// the warm-up and the window until that many hedge legs were issued in each.
WarmWindow measureWarmWindow(const BeegfsParams& params,
                             const std::function<void(Deployment&)>& prepare,
                             std::optional<std::vector<std::size_t>> pinned,
                             std::size_t warmup, std::size_t window,
                             std::size_t untilHedges = 0) {
  sim::FluidSimulator fluid;
  fluid.setSolverCheck(false);  // the differential check allocates by design
  const auto cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  Deployment deployment(fluid, cluster, params, util::Rng(1));
  FileSystem fs(deployment, util::Rng(2));
  if (prepare) prepare(deployment);
  LandedFlows landed;
  fluid.addObserver(&landed);
  ior::IorOptions options;
  options.transferSize = 1_MiB;
  options.blockSize = 1_MiB;
  options.segments = 1000;
  bool finished = false;
  ior::launchIor(fs, ior::IorJob{{0, 1}, 4}, options, 0.0,
                 [&finished](const ior::IorResult&) { finished = true; }, std::move(pinned));
  const auto stepUntil = [&](std::size_t legs, std::size_t hedges) {
    while ((landed.count < legs || fs.hedgeStats().hedgesIssued < hedges) &&
           fluid.engine().step()) {
    }
  };
  stepUntil(warmup, untilHedges);
  WarmWindow out;
  const std::size_t legsBefore = landed.count;
  const auto hedgesBefore = fs.hedgeStats().hedgesIssued;
  const auto replicasBefore = fs.mirrorStats().replicaFlows;
  {
    test::AllocProbe probe;
    stepUntil(legsBefore + window, hedgesBefore + untilHedges);
    out.allocations = probe.count();
  }
  out.legsLanded = landed.count - legsBefore;
  out.hedgesIssued = fs.hedgeStats().hedgesIssued - hedgesBefore;
  out.replicaFlows = fs.mirrorStats().replicaFlows - replicasBefore;
  EXPECT_FALSE(finished) << "the window must end inside the write";
  fluid.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(fs.inFlightChunks(), 0u);
  fluid.removeObserver(&landed);
  return out;
}

/// Targets 0 and 1 take turns at serving at rate 0 (while staying online),
/// swapping every `period` seconds, `turnsLeft` times.
struct TakingTurns {
  Deployment* deployment = nullptr;
  util::Seconds period = 0.05;
  int turnsLeft = 40;
  std::size_t dead = 1;

  void take() {
    deployment->setTargetHealth(dead, 1.0);
    dead = 1 - dead;
    deployment->setTargetHealth(dead, 0.0);
    deployment->fluid().invalidateCapacities();
    if (--turnsLeft > 0) deployment->fluid().engine().scheduleAfter(period, [this] { take(); });
    else deployment->setTargetHealth(dead, 1.0);
  }
};

TEST(FileSystem, SteadyStateChunkOpAllocatesNothing) {
  // A warmed-up chunk op -- transfer and op slots, the stack route, the leg
  // start and its 16-byte completion callback, check batches, and the IOR
  // rank's next segment -- makes no heap allocation on the plain, mirrored
  // and hedged paths.
  {
    BeegfsParams params;  // plain, with the watchdog's check batches running
    params.faults.mode = ClientFaultPolicy::Mode::kDegraded;
    params.faults.ioTimeout = 0.002;
    const auto plain = measureWarmWindow(params, nullptr, std::nullopt, 2000, 1000);
    EXPECT_EQ(plain.allocations, 0u) << "a steady-state plain chunk op must not allocate";
    EXPECT_GE(plain.legsLanded, 1000u);
  }
  {
    BeegfsParams params;
    params.mirror.enabled = true;
    params.defaultStripe.mirror = true;
    const auto mirrored = measureWarmWindow(params, nullptr, std::nullopt, 2000, 1000);
    EXPECT_EQ(mirrored.allocations, 0u) << "a steady-state mirrored chunk op must not allocate";
    EXPECT_GE(mirrored.replicaFlows, 400u);
  }
  {
    // Every chunk goes to slot 0.  Targets 0 and 1 (host 0) take turns at
    // serving at rate 0 while staying online, and the others are offline,
    // so each turn stalls the chunks homed on the dead one; they are hedged
    // onto the other, whose win re-homes the slot, back and forth.  One
    // self-rescheduling event drives the turns, so the engine's pending set
    // stays the size the warm-up reached.
    BeegfsParams params;
    params.hedge.enabled = true;
    params.hedge.deadline = 0.005;
    TakingTurns turns;
    const auto hedged = measureWarmWindow(
        params,
        [&turns](Deployment& deployment) {
          for (std::size_t t = 2; t < 8; ++t) deployment.mgmt().setTargetOnline(t, false);
          turns.deployment = &deployment;
          turns.take();
        },
        std::vector<std::size_t>{0}, 200, 200, /*untilHedges=*/8);
    EXPECT_EQ(hedged.allocations, 0u) << "a steady-state hedged chunk op must not allocate";
    EXPECT_GE(hedged.hedgesIssued, 8u);
  }
}

/// A noise-free 4-node PlaFRIM deployment whose targets serve identically.
topo::ClusterConfig quietCluster() {
  auto cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  cluster.network.serverLinkNoiseSigmaLog = 0.0;
  for (auto& host : cluster.hosts) {
    for (auto& target : host.targets) target.variability = topo::VariabilitySpec{};
  }
  return cluster;
}

/// Records the end time of every flow that landed.
class LandingTimes final : public sim::FluidObserver {
 public:
  void onFlowStarted(sim::FlowId, std::span<const sim::ResourceIndex>, util::Bytes,
                     sim::SimTime) override {}
  void onRatesSolved(sim::SimTime, std::span<const sim::FlowId>,
                     std::span<const util::MiBps>, std::size_t) override {}
  void onFlowCompleted(const sim::FlowStats& stats) override { ends.push_back(stats.endTime); }
  std::vector<double> ends;
};

TEST(FileSystem, SecondHedgedLegLandingAfterSlotReuseIsANoOp) {
  // Target 0 serves at rate 0 (online) until t = 0.3, so the write's one
  // chunk is hedged onto target 1 by the lag check at 0.3.  Target 0
  // recovers right after that check, so both legs have every byte left and
  // move at the same rate: they land in the same resolve.  The first to land
  // resolves the op, and the write's completion issues a second write whose
  // op takes the freed slot; then the other leg's callback arrives with a
  // stale reference and must leave the new op alone.
  sim::FluidSimulator fluid;
  BeegfsParams params;
  params.hedge.enabled = true;
  params.hedge.deadline = 0.3;
  Deployment deployment(fluid, quietCluster(), params, util::Rng(1));
  FileSystem fs(deployment, util::Rng(2));
  for (std::size_t t = 2; t < 8; ++t) deployment.mgmt().setTargetOnline(t, false);
  LandingTimes landings;
  fluid.addObserver(&landings);
  const auto handle = fs.createPinned("/reuse", {0}, 512_KiB);
  std::vector<double> done;
  fs.writeAsync(0, handle, 0, 512_KiB, 4.0, [&](util::Seconds first) {
    done.push_back(first);
    fs.writeAsync(0, handle, 512_KiB, 512_KiB, 4.0,
                  [&](util::Seconds second) { done.push_back(second); });
    EXPECT_EQ(fs.inFlightChunks(), 1u);
  });
  // Armed after the write, so the recovery at 0.3 follows the lag check.
  faults::FaultInjector injector(deployment, faults::parseSchedule("slow:t0@0=0;slow:t0@0.3=1"));
  injector.arm();
  fluid.run();
  fluid.removeObserver(&landings);

  ASSERT_EQ(fs.hedgeStats().hedgesIssued, 1u);
  ASSERT_GE(landings.ends.size(), 2u);
  EXPECT_EQ(landings.ends[0], landings.ends[1]) << "both legs must land in one resolve";
  ASSERT_EQ(done.size(), 2u);
  // The stale leg neither resolved the second write early nor counted a
  // second win.
  EXPECT_GT(done[1], done[0]);
  EXPECT_EQ(fs.hedgeStats().hedgeWins + fs.hedgeStats().primaryWins, 1u);
  EXPECT_EQ(fs.inFlightChunks(), 0u);
  EXPECT_EQ(fs.info(handle).size, 1_MiB);
}

TEST(FileSystem, CheckEntryOfAResolvedOpIsANoOpOnItsSlotsNextOccupant) {
  // The first write's chunk lands long before its watchdog entry falls due
  // at t = 0.5; its completion issues a second write whose op takes the
  // freed slot.  Target 0 crashes at 0.1, so only the second op's own
  // watchdog, one ioTimeout after its issue, may time it out: the stale
  // entry at 0.5 must run no check on the new occupant and arm nothing.
  sim::FluidSimulator fluid;
  BeegfsParams params;
  params.faults.mode = ClientFaultPolicy::Mode::kDegraded;
  params.faults.ioTimeout = 0.5;
  Deployment deployment(fluid, quietCluster(), params, util::Rng(1));
  FileSystem fs(deployment, util::Rng(2));
  faults::FaultInjector injector(deployment, faults::parseSchedule("off:t0@0.1"));
  injector.arm();
  const auto handle = fs.createPinned("/stale", {0}, 512_KiB);
  double secondIssue = -1.0;
  bool secondDone = false;
  fs.writeAsync(0, handle, 0, 512_KiB, 4.0, [&](util::Seconds first) {
    secondIssue = first;
    // One 1 GiB chunk op: still in flight when target 0 crashes.
    fs.writeAsync(0, handle, 512_KiB, 1_GiB, 4.0, [&](util::Seconds) { secondDone = true; });
  });

  auto& engine = fluid.engine();
  engine.runUntil(std::nextafter(0.5, 0.0));
  ASSERT_GT(secondIssue, 0.0);
  ASSERT_LT(secondIssue, 0.1);
  EXPECT_EQ(fs.inFlightChunks(), 1u);
  const auto resolves = fluid.resolveCount();
  const auto events = engine.runUntil(0.5);
  EXPECT_EQ(events - (fluid.resolveCount() - resolves), 1u) << "only the stale batch fires";
  EXPECT_EQ(fs.faultStats().timeouts, 0u);
  engine.runUntil(std::nextafter(secondIssue + 0.5, 0.0));
  EXPECT_EQ(fs.faultStats().timeouts, 0u);
  engine.runUntil(secondIssue + 0.5);
  EXPECT_EQ(fs.faultStats().timeouts, 1u);
  fluid.run();
  EXPECT_TRUE(secondDone);
  EXPECT_EQ(fs.inFlightChunks(), 0u);
}

/// What a single-copy mirrored write reports after a plain write whose
/// chunk ops were hedged, timed out and retried.
struct AfterDirtyOps {
  HedgeStats dirtyHedges;
  ClientFaultStats dirtyFaults;
  HedgeStats hedges;
  ClientFaultStats faults;
  MirrorStats mirror;
  double cleanDone = -1.0;
};

/// `trim`: drop the op slabs' blocks between the two writes, so the second
/// write's ops are fresh entries instead of the first write's.
AfterDirtyOps writeAfterDirtyOps(bool trim) {
  sim::FluidSimulator fluid;
  BeegfsParams params;
  params.faults.mode = ClientFaultPolicy::Mode::kDegraded;
  params.faults.ioTimeout = 0.05;
  params.hedge.enabled = true;
  params.hedge.deadline = 0.1;
  params.mirror.enabled = true;
  params.mirror.groups = {{5, 1}, {6, 3}};
  params.defaultStripe.mirror = true;
  Deployment deployment(fluid, quietCluster(), params, util::Rng(1));
  FileSystem fs(deployment, util::Rng(2));
  // The secondaries are down, so the mirrored write is single-copy: its ops
  // complete on their primary leg alone.
  deployment.mgmt().setTargetOnline(1, false);
  deployment.mgmt().setTargetOnline(3, false);
  // Target 0 serves at rate 0 while online (its chunk is hedged); target 2
  // crashes (its chunk times out and is retried or failed over).
  faults::FaultInjector injector(
      deployment, faults::parseSchedule("slow:t0@0=0;off:t2@0.001;slow:t0@0.5=1;on:t2@0.6"));
  injector.arm();
  const auto dirty = fs.createPinned("/dirty", {0, 2}, 512_KiB);
  const auto clean = fs.createPinned("/clean", {5, 6}, 512_KiB);
  AfterDirtyOps out;
  fs.writeAsync(0, dirty, 0, 64_MiB, 4.0, [&](util::Seconds) {
    out.dirtyHedges = fs.hedgeStats();
    out.dirtyFaults = fs.faultStats();
    fluid.engine().scheduleAfter(0.0, [&] {
      EXPECT_EQ(fs.inFlightChunks(), 0u);
      if (trim) {
        const auto token = std::make_shared<int>(0);
        fs.hold(token);
        fs.release(token.get());  // nothing in flight: trims the slabs
      }
      fs.writeAsync(1, clean, 0, 4_MiB, 4.0, [&](util::Seconds at) { out.cleanDone = at; });
    });
  });
  fluid.run();
  out.hedges = fs.hedgeStats();
  out.faults = fs.faultStats();
  out.mirror = fs.mirrorStats();
  return out;
}

TEST(FileSystem, RecycledChunkOpBehavesLikeAFreshOne) {
  // A new op in a reused slab entry starts from what the entry's last op
  // left (failure time, legs, completion rule, hedge tracking); only the
  // fields a new op reads are reset.  The mirrored write that reuses the
  // entries of a hedged, timed-out and retried write must behave exactly
  // like the same write on fresh entries.
  const auto recycled = writeAfterDirtyOps(false);
  const auto fresh = writeAfterDirtyOps(true);
  ASSERT_GE(recycled.dirtyHedges.hedgesIssued, 1u);
  ASSERT_GE(recycled.dirtyFaults.timeouts, 1u);
  ASSERT_GT(recycled.dirtyFaults.degradedTime, 0.0);
  ASSERT_GT(recycled.cleanDone, 0.0);
  EXPECT_EQ(recycled.cleanDone, fresh.cleanDone);
  EXPECT_EQ(recycled.faults, fresh.faults);
  EXPECT_EQ(recycled.hedges, fresh.hedges);
  EXPECT_EQ(recycled.mirror, fresh.mirror);
  EXPECT_EQ(recycled.mirror.replicaFlows, 0u);
  // The mirrored write failed nothing and hedged nothing.
  EXPECT_EQ(recycled.faults, recycled.dirtyFaults);
  EXPECT_EQ(recycled.hedges, recycled.dirtyHedges);
}

}  // namespace
}  // namespace beesim::beegfs
