// Metadata-path suite (DESIGN.md §2.10): MetaService accounting and edge
// cases, directory->MDT sharding, the queued MDS/MDT service model, the
// mdtest driver, metaTime consistency across run/concurrent/campaign, rng
// isolation of the queued model, and the --jobs invariance contract.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "beegfs/deployment.hpp"
#include "beegfs/filesystem.hpp"
#include "beegfs/mdshard.hpp"
#include "beegfs/meta.hpp"
#include "faults/schedule.hpp"
#include "harness/campaign.hpp"
#include "harness/concurrent.hpp"
#include "harness/executor.hpp"
#include "harness/protocol.hpp"
#include "harness/run.hpp"
#include "ior/mdtest.hpp"
#include "ior/options.hpp"
#include "sim/fluid.hpp"
#include "topology/plafrim.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace beesim {
namespace {

using namespace beesim::util::literals;

// -- MetaService scalar model: accounting + edge cases -----------------------

TEST(MetaAccounting, OpenAllCountsOneOpPerRank) {
  beegfs::MetaService meta(beegfs::MetaParams{}, util::Rng(1));
  meta.createCost();
  EXPECT_EQ(meta.opsServed(), 1u);
  // The historical bug: openAllCost(n) serves n concurrent opens but bumped
  // the counter exactly once.
  meta.openAllCost(8);
  EXPECT_EQ(meta.opsServed(), 9u);
  meta.statCost();
  meta.unlinkCost();
  EXPECT_EQ(meta.opsServed(), 11u);
}

TEST(MetaAccounting, ZeroLatenciesCostNothingButStillCount) {
  beegfs::MetaParams params;
  params.createLatency = 0.0;
  params.openLatency = 0.0;
  params.statLatency = 0.0;
  params.unlinkLatency = 0.0;
  beegfs::MetaService meta(params, util::Rng(2));
  EXPECT_DOUBLE_EQ(meta.createCost(), 0.0);
  EXPECT_DOUBLE_EQ(meta.openAllCost(64), 0.0);
  EXPECT_DOUBLE_EQ(meta.statCost(), 0.0);
  EXPECT_DOUBLE_EQ(meta.unlinkCost(), 0.0);
  EXPECT_EQ(meta.opsServed(), 67u);
}

TEST(MetaAccounting, ZeroSigmaIsDeterministic) {
  beegfs::MetaParams params;
  params.jitterSigmaLog = 0.0;
  beegfs::MetaService a(params, util::Rng(3));
  beegfs::MetaService b(params, util::Rng(4));  // different seed, same costs
  EXPECT_DOUBLE_EQ(a.createCost(), params.createLatency);
  EXPECT_DOUBLE_EQ(a.createCost(), b.createCost());
  EXPECT_DOUBLE_EQ(a.statCost(), params.statLatency);
  EXPECT_DOUBLE_EQ(a.unlinkCost(), params.unlinkLatency);
}

TEST(MetaAccounting, OpenAllCostIsMonotoneInRankCount) {
  beegfs::MetaParams params;
  params.jitterSigmaLog = 0.0;  // isolate the pile-up curve from jitter
  beegfs::MetaService meta(params, util::Rng(5));
  double previous = 0.0;
  for (const std::size_t ranks : {1u, 2u, 8u, 64u, 512u}) {
    const double cost = meta.openAllCost(ranks);
    EXPECT_GT(cost, previous) << "ranks=" << ranks;
    previous = cost;
  }
}

TEST(MetaAccounting, UnlinkCostIsJitteredAroundItsLatency) {
  beegfs::MetaParams params;
  params.unlinkLatency = 0.002;
  beegfs::MetaService meta(params, util::Rng(6));
  for (int i = 0; i < 64; ++i) {
    const double cost = meta.unlinkCost();
    EXPECT_GT(cost, 0.0);
    EXPECT_LT(cost, 0.1);  // log-normal jitter around 2 ms stays far below
  }
}

// -- Directory -> MDT sharding -----------------------------------------------

TEST(MdShard, ParentDirExtraction) {
  EXPECT_EQ(beegfs::mdParentDir("/beegfs/dir/file"), "/beegfs/dir");
  EXPECT_EQ(beegfs::mdParentDir("/file"), "/");
  EXPECT_EQ(beegfs::mdParentDir("file"), "file");
}

TEST(MdShard, HashShardingIsDeterministicWithDirectoryAffinity) {
  beegfs::MdShardChooser a(beegfs::MdShardKind::kHashDir, 4);
  beegfs::MdShardChooser b(beegfs::MdShardKind::kHashDir, 4);
  // Same path -> same shard, across instances and calls (stateless).
  EXPECT_EQ(a.shardOf("/beegfs/d0/f1"), b.shardOf("/beegfs/d0/f1"));
  EXPECT_EQ(a.shardOf("/beegfs/d0/f1"), a.shardOf("/beegfs/d0/f1"));
  // All entries of one directory live on one MDT (the BeeGFS contract).
  EXPECT_EQ(a.shardOf("/beegfs/d0/f1"), a.shardOf("/beegfs/d0/f2"));
}

TEST(MdShard, HashShardingSpreadsDistinctDirectories) {
  beegfs::MdShardChooser chooser(beegfs::MdShardKind::kHashDir, 4);
  std::set<std::size_t> shards;
  for (int r = 0; r < 64; ++r) {
    const auto shard = chooser.shardOf("/beegfs/mdtest/rank" + std::to_string(r) + "/f0");
    ASSERT_LT(shard, 4u);
    shards.insert(shard);
  }
  // 64 FNV-hashed directories over 4 shards must reach more than one MDT.
  EXPECT_GE(shards.size(), 2u);
}

TEST(MdShard, RoundRobinCyclesAndSingleMdtIsAlwaysZero) {
  beegfs::MdShardChooser rr(beegfs::MdShardKind::kRoundRobin, 3);
  EXPECT_EQ(rr.shardOf("/a"), 0u);
  EXPECT_EQ(rr.shardOf("/b"), 1u);
  EXPECT_EQ(rr.shardOf("/c"), 2u);
  EXPECT_EQ(rr.shardOf("/d"), 0u);
  beegfs::MdShardChooser one(beegfs::MdShardKind::kHashDir, 1);
  EXPECT_EQ(one.shardOf("/anything/at/all"), 0u);
}

// -- Queued MDT service model ------------------------------------------------

beegfs::BeegfsParams queuedParams(unsigned mdts, double sigma = 0.0) {
  beegfs::BeegfsParams params;
  params.meta.queued = true;
  params.meta.mdtCount = mdts;
  params.meta.jitterSigmaLog = sigma;
  return params;
}

TEST(MetaQueued, LoneOpLatencyIsSaturationDepthOverRate) {
  sim::FluidSimulator fluid;
  const auto cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  const auto params = queuedParams(1);
  beegfs::Deployment deployment(fluid, cluster, params, util::Rng(7));
  auto& meta = deployment.meta();
  ASSERT_TRUE(meta.queuedModel());
  util::Seconds createEnd = -1.0;
  meta.opAsync(beegfs::MetaOpKind::kCreate, "/beegfs/f",
               [&](util::Seconds at) { createEnd = at; });
  fluid.run();
  // A lone op sees rampFactor(1) = 1/saturationDepth of the saturation
  // capacity, so its latency is saturationDepth/rate (6.4 ms with defaults,
  // deliberately in the ballpark of the scalar model's 4 ms create).
  const double expected = params.meta.saturationDepth / params.meta.createRate;
  EXPECT_NEAR(createEnd, expected, 1e-4 * expected);
}

TEST(MetaQueued, SaturatedMdtServesTheConfiguredRate) {
  sim::FluidSimulator fluid;
  const auto cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  const auto params = queuedParams(1);
  beegfs::Deployment deployment(fluid, cluster, params, util::Rng(8));
  auto& meta = deployment.meta();
  const int ops = 256;
  int completed = 0;
  util::Seconds lastEnd = 0.0;
  for (int i = 0; i < ops; ++i) {
    meta.opAsync(beegfs::MetaOpKind::kStat, "/beegfs/dir/f", [&](util::Seconds at) {
      ++completed;
      lastEnd = at;
    });
  }
  fluid.run();
  ASSERT_EQ(completed, ops);
  // 256 identical concurrent ops share the MDT at rampFactor(256) of the
  // saturation rate and all finish together.
  const double ramp = 256.0 / (256.0 + params.meta.saturationDepth - 1.0);
  const double expected = ops / (meta.rateFor(beegfs::MetaOpKind::kStat) * ramp);
  EXPECT_NEAR(lastEnd, expected, 0.01 * expected);
  EXPECT_EQ(meta.opsServed(), static_cast<std::uint64_t>(ops));
  EXPECT_EQ(meta.mdtOps().at(0), static_cast<std::uint64_t>(ops));
}

TEST(MetaQueued, RatesKeepTheDefaultProfileRatios) {
  // Only the create rate is configured; open/stat/unlink keep the default
  // profile's 4:8:1.6 ratios to it, whoever sets createRate.
  auto params = queuedParams(1).meta;
  params.createRate = 5000.0;
  const beegfs::MetaService meta(params, util::Rng(1));
  EXPECT_EQ(meta.rateFor(beegfs::MetaOpKind::kCreate), 5000.0);
  EXPECT_EQ(meta.rateFor(beegfs::MetaOpKind::kOpen), 20000.0);
  EXPECT_EQ(meta.rateFor(beegfs::MetaOpKind::kStat), 40000.0);
  EXPECT_EQ(meta.rateFor(beegfs::MetaOpKind::kUnlink), 8000.0);
}

TEST(MetaQueued, OpsLandOnTheirDirectoryShard) {
  sim::FluidSimulator fluid;
  const auto cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  beegfs::Deployment deployment(fluid, cluster, queuedParams(4), util::Rng(9));
  auto& meta = deployment.meta();
  const auto s1 = meta.opAsync(beegfs::MetaOpKind::kCreate, "/beegfs/d7/a", nullptr);
  const auto s2 = meta.opAsync(beegfs::MetaOpKind::kUnlink, "/beegfs/d7/b", nullptr);
  EXPECT_EQ(s1, s2);  // same parent directory -> same MDT
  EXPECT_EQ(s1, meta.shardOf("/beegfs/d7/c"));
  fluid.run();
  std::uint64_t total = 0;
  for (const auto n : meta.mdtOps()) total += n;
  EXPECT_EQ(total, 2u);
  EXPECT_EQ(meta.mdtOps().at(s1), 2u);
}

TEST(MetaQueued, InvalidQueuedParametersThrow) {
  sim::FluidSimulator fluid;
  const auto cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  auto params = queuedParams(1);
  params.meta.createRate = 0.0;
  EXPECT_THROW(beegfs::Deployment(fluid, cluster, params, util::Rng(1)),
               util::ContractError);
  params = queuedParams(1);
  params.meta.saturationDepth = 0.5;
  EXPECT_THROW(beegfs::Deployment(fluid, cluster, params, util::Rng(1)),
               util::ContractError);
}

// -- mdtest driver -----------------------------------------------------------

ior::IorJob smallJob() { return ior::IorJob{{0, 1}, 4}; }  // 8 ranks

TEST(Mdtest, PhasesRunInOrderWithBarriers) {
  sim::FluidSimulator fluid;
  const auto cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  util::Rng rng(11);
  beegfs::Deployment deployment(fluid, cluster, queuedParams(2, 0.25), rng.split());
  beegfs::FileSystem fs(deployment, rng.split());
  ior::MdtestOptions options;
  options.filesPerRank = 16;
  const auto result = ior::runMdtest(fs, smallJob(), options);

  const std::uint64_t perPhase = 8u * 16u;
  EXPECT_EQ(result.create.ops, perPhase);
  EXPECT_EQ(result.stat.ops, perPhase);
  EXPECT_EQ(result.unlink.ops, perPhase);
  EXPECT_EQ(result.totalOps, 3 * perPhase);
  // Barriers: stat only starts once the last create finished, unlink once
  // the last stat finished.
  EXPECT_GT(result.create.end, result.create.start);
  EXPECT_GE(result.stat.start, result.create.end);
  EXPECT_GE(result.unlink.start, result.stat.end);
  EXPECT_EQ(result.end, result.unlink.end);
  EXPECT_GT(result.opsPerSec, 0.0);
  // Stat is the cheapest op, so its phase throughput leads.
  EXPECT_GT(result.stat.opsPerSec, result.create.opsPerSec);
  // Per-MDT accounting covers every op.
  std::uint64_t mdtTotal = 0;
  for (const auto n : result.mdtOps) mdtTotal += n;
  EXPECT_EQ(mdtTotal, result.totalOps);
}

TEST(Mdtest, SharedDirectoryFunnelsOntoOneMdt) {
  const auto cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  const auto run = [&](bool uniqueDirs) {
    sim::FluidSimulator fluid;
    util::Rng rng(12);
    beegfs::Deployment deployment(fluid, cluster, queuedParams(4), rng.split());
    beegfs::FileSystem fs(deployment, rng.split());
    ior::MdtestOptions options;
    options.filesPerRank = 8;
    options.uniqueDirPerRank = uniqueDirs;
    return ior::runMdtest(fs, smallJob(), options);
  };
  const auto shared = run(false);
  const auto unique = run(true);
  // One shared directory puts every op on one of the 4 MDTs: max/mean = 4.
  EXPECT_DOUBLE_EQ(shared.mdtImbalance, 4.0);
  // Per-rank directories hash across MDTs, and the parallelism shows up as
  // metadata throughput.
  EXPECT_LT(unique.mdtImbalance, shared.mdtImbalance);
  EXPECT_GT(unique.opsPerSec, shared.opsPerSec);
}

TEST(Mdtest, RequiresTheQueuedModel) {
  sim::FluidSimulator fluid;
  const auto cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  util::Rng rng(13);
  beegfs::Deployment deployment(fluid, cluster, beegfs::BeegfsParams{}, rng.split());
  beegfs::FileSystem fs(deployment, rng.split());
  EXPECT_THROW(ior::runMdtest(fs, smallJob(), ior::MdtestOptions{}), util::ConfigError);
}

TEST(Mdtest, OptionValidationRejectsDegenerateRuns) {
  ior::MdtestOptions options;
  options.filesPerRank = 0;
  EXPECT_THROW(options.validate(), util::ConfigError);
  options = {};
  options.inflightPerRank = 0;
  EXPECT_THROW(options.validate(), util::ConfigError);
  options = {};
  options.createPhase = options.statPhase = options.unlinkPhase = false;
  EXPECT_THROW(options.validate(), util::ConfigError);
  options = {};
  options.dir.clear();
  EXPECT_THROW(options.validate(), util::ConfigError);
}

// -- Harness integration -----------------------------------------------------

harness::RunConfig metadataRun(util::Bytes total = 64_MiB) {
  harness::RunConfig config;
  config.cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  config.fs.defaultStripe.stripeCount = 4;
  config.job = ior::IorJob::onFirstNodes(4, 8);
  config.ior.blockSize = ior::blockSizeForTotal(total, config.job.ranks());
  return config;
}

TEST(MetadataRun, QueuedModelKeepsPlacementAndNoiseStreams) {
  // Satellite 2's contract: flipping the queued model on consumes nothing
  // from the placement or device-noise rng streams -- same seed, same
  // environment draws, same target allocation.
  auto scalar = metadataRun();
  auto queued = metadataRun();
  queued.fs.meta.queued = true;
  queued.fs.meta.mdtCount = 2;
  const auto a = harness::runOnce(scalar, 42);
  const auto b = harness::runOnce(queued, 42);
  EXPECT_EQ(a.environment.network, b.environment.network);
  EXPECT_EQ(a.environment.storage, b.environment.storage);
  ASSERT_EQ(a.ior.targetsUsed.size(), b.ior.targetsUsed.size());
  EXPECT_EQ(a.ior.targetsUsed, b.ior.targetsUsed);
  // Both models charge a metadata window before I/O starts.
  EXPECT_GT(a.ior.metaTime, 0.0);
  EXPECT_GT(b.ior.metaTime, 0.0);
}

TEST(MetadataRun, MdtestPhaseRequiresQueuedModel) {
  auto config = metadataRun();
  config.mdtest = ior::MdtestOptions{};
  EXPECT_THROW(harness::runOnce(config, 1), util::ConfigError);
  harness::RunConfig base;
  base.cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  base.mdtest = ior::MdtestOptions{};
  std::vector<harness::AppSpec> specs(1);
  specs[0].job = smallJob();
  specs[0].ior.blockSize = ior::blockSizeForTotal(32_MiB, specs[0].job.ranks());
  EXPECT_THROW(harness::runConcurrent(base, specs, 1), util::ConfigError);
}

TEST(MetadataRun, MdPhaseFollowsTheBandwidthPhase) {
  auto config = metadataRun();
  config.fs.meta.queued = true;
  config.fs.meta.mdtCount = 2;
  ior::MdtestOptions md;
  md.filesPerRank = 8;
  config.mdtest = md;
  const auto record = harness::runOnce(config, 7);
  ASSERT_TRUE(record.mdActive);
  EXPECT_GE(record.md.start, record.ior.end);
  EXPECT_EQ(record.md.totalOps, 3u * 32u * 8u);  // 32 ranks, 3 phases
  EXPECT_GT(record.md.opsPerSec, 0.0);
  // Without the phase the record stays inert.
  config.mdtest.reset();
  EXPECT_FALSE(harness::runOnce(config, 7).mdActive);
}

TEST(MetadataRun, MetaTimeAgreesBetweenRunAndConcurrent) {
  // runOnce is the one-app runConcurrent: for every feature mix, the
  // RunRecord must be the exact projection of the 1-app ConcurrentResult
  // (bandwidth, metadata window, allocation, and each feature's counters,
  // including those snapshot after the drain).
  struct Mix {
    const char* name;
    std::function<void(harness::RunConfig&)> apply;
    std::function<bool(const harness::ConcurrentResult&)> engaged;
  };
  const std::vector<Mix> mixes = {
      {"scalar metadata", [](harness::RunConfig&) {},
       [](const harness::ConcurrentResult& r) { return r.apps[0].metaTime > 0.0; }},
      {"queued metadata",
       [](harness::RunConfig& c) {
         c.fs.meta.queued = true;
         c.fs.meta.mdtCount = 2;
       },
       [](const harness::ConcurrentResult& r) { return r.apps[0].metaTime > 0.0; }},
      {"faults + mirroring",
       [](harness::RunConfig& c) {
         c.faults.schedule = faults::parseSchedule("off:t0@0.1;on:t0@0.25");
         c.fs.faults.mode = beegfs::ClientFaultPolicy::Mode::kDegraded;
         c.fs.mirror.enabled = true;
         c.fs.defaultStripe.mirror = true;
       },
       [](const harness::ConcurrentResult& r) {
         return r.faultsActive && r.mirror.failovers > 0 && r.mirror.resyncJobs > 0;
       }},
      {"fail-slow + health + hedge",
       [](harness::RunConfig& c) {
         c.faults.schedule = faults::parseSchedule("slow:t1@0.05=0.05");
         c.health.enabled = true;
         c.health.suspectRatio = 0.5;
         c.fs.hedge.enabled = true;
       },
       [](const harness::ConcurrentResult& r) {
         return r.healthActive && r.health.samples > 0 && r.hedge.hedgesIssued > 0;
       }},
      {"qos",
       [](harness::RunConfig& c) {
         c.qos.enabled = true;
         c.qos.rate = 200.0;
       },
       [](const harness::ConcurrentResult& r) { return r.qosActive && r.qos.deferrals > 0; }},
      {"mdtest on queued MDTs",
       [](harness::RunConfig& c) {
         c.fs.meta.queued = true;
         c.fs.meta.mdtCount = 4;
         c.mdtest = ior::MdtestOptions{};
         c.mdtest->filesPerRank = 8;
       },
       [](const harness::ConcurrentResult& r) { return r.mdActive && r.appMd[0].totalOps > 0; }},
      {"utilization",
       [](harness::RunConfig& c) { c.observe.utilization = true; },
       [](const harness::ConcurrentResult& r) { return r.util.active; }},
  };
  for (const auto& mix : mixes) {
    SCOPED_TRACE(mix.name);
    auto config = metadataRun(512_MiB);
    mix.apply(config);
    std::vector<harness::AppSpec> specs(1);
    specs[0].job = config.job;
    specs[0].ior = config.ior;
    const auto once = harness::runOnce(config, 99);
    const auto conc = harness::runConcurrent(config, specs, 99);
    ASSERT_EQ(conc.apps.size(), 1u);
    EXPECT_TRUE(mix.engaged(conc));

    auto ior = conc.apps[0];
    if (config.fs.mirror.enabled) ior.mirror = conc.mirror;
    if (conc.hedgeActive) ior.hedge = conc.hedge;
    ior.util = conc.util;
    EXPECT_TRUE(once.ior == ior);
    EXPECT_EQ(once.ior.bandwidth, conc.aggregateBandwidth);
    EXPECT_EQ(once.ior.metaTime, conc.apps[0].metaTime);
    EXPECT_EQ(once.ior.targetsUsed, conc.apps[0].targetsUsed);
    EXPECT_TRUE(once.environment == conc.environment);
    EXPECT_EQ(once.faultsActive, conc.faultsActive);
    EXPECT_TRUE(once.injected == conc.injected);
    EXPECT_EQ(once.mirrorActive, config.fs.mirror.enabled);
    EXPECT_EQ(once.rebalanceActive, conc.rebalanceActive);
    EXPECT_TRUE(once.rebalance == conc.rebalance);
    EXPECT_EQ(once.healthActive, conc.healthActive);
    EXPECT_TRUE(once.health == conc.health);
    EXPECT_EQ(once.hedgeActive, conc.hedgeActive);
    EXPECT_EQ(once.mdActive, conc.mdActive);
    if (conc.mdActive) {
      EXPECT_TRUE(once.md == conc.appMd[0]);
    }
    EXPECT_EQ(once.qosActive, conc.qosActive);
    EXPECT_TRUE(once.qos == conc.qos);
    EXPECT_EQ(once.resolves, conc.resolves);
    EXPECT_EQ(once.solverIterations, conc.solverIterations);
  }
}

TEST(MetadataRun, CampaignMetaSecondsMatchesTheRecordUnderFaults) {
  // Satellite 3, campaign side: the meta_seconds column is exactly
  // IorResult::metaTime even when a fault plan perturbs the run.
  harness::CampaignEntry entry;
  entry.config = metadataRun();
  entry.config.faults.schedule = faults::parseSchedule("slow:t1@0.05=0.5");
  harness::ProtocolOptions protocol;
  protocol.repetitions = 3;
  harness::ExecutorOptions serial;
  serial.jobs = 1;
  std::size_t checked = 0;
  harness::executeCampaign(
      {entry}, protocol, 11,
      [&](const harness::RunRecord& record, harness::ResultRow& row) {
        EXPECT_DOUBLE_EQ(row.metrics.at("meta_seconds"), record.ior.metaTime);
        EXPECT_GT(record.ior.metaTime, 0.0);
        ++checked;
      },
      serial);
  EXPECT_EQ(checked, 3u);
}

TEST(MetadataConcurrent, PerAppPhasesAggregate) {
  harness::RunConfig base;
  base.cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  base.fs.defaultStripe.stripeCount = 4;
  base.fs.meta.queued = true;
  base.fs.meta.mdtCount = 4;
  ior::MdtestOptions md;
  md.filesPerRank = 8;
  base.mdtest = md;
  std::vector<harness::AppSpec> specs(2);
  specs[0].job = ior::IorJob{{0, 1}, 4};
  specs[1].job = ior::IorJob{{2, 3}, 4};
  for (auto& spec : specs) {
    spec.ior.blockSize = ior::blockSizeForTotal(32_MiB, spec.job.ranks());
  }
  specs[1].startOffset = 0.25;
  const auto result = harness::runConcurrent(base, specs, 21);
  ASSERT_TRUE(result.mdActive);
  ASSERT_EQ(result.appMd.size(), 2u);
  const std::uint64_t perApp = 3u * 8u * 8u;
  EXPECT_EQ(result.appMd[0].totalOps, perApp);
  EXPECT_EQ(result.appMd[1].totalOps, perApp);
  EXPECT_EQ(result.md.totalOps, 2 * perApp);
  // The aggregate window spans both apps' phases.
  EXPECT_LE(result.md.start, result.appMd[0].start);
  EXPECT_GE(result.md.end, result.appMd[1].end);
  std::uint64_t mdtTotal = 0;
  for (const auto n : result.md.mdtOps) mdtTotal += n;
  EXPECT_EQ(mdtTotal, result.md.totalOps);
}

// -- Campaign column gating + --jobs invariance ------------------------------

TEST(MetadataCampaign, MdColumnsAreGatedOnTheMdtestPhase) {
  harness::CampaignEntry entry;
  entry.config = metadataRun();
  entry.config.fs.meta.queued = true;
  harness::ProtocolOptions protocol;
  protocol.repetitions = 2;
  harness::ExecutorOptions serial;
  serial.jobs = 1;
  // Queued model alone: no md_* columns (the phase gates them, not the
  // model).
  const auto off = harness::executeCampaign({entry}, protocol, 5, nullptr, serial);
  EXPECT_THROW(off.metric("md_seconds", {}), util::ContractError);
  ior::MdtestOptions md;
  md.filesPerRank = 8;
  entry.config.mdtest = md;
  const auto on = harness::executeCampaign({entry}, protocol, 5, nullptr, serial);
  for (const std::string metric : {"md_seconds", "md_total_ops", "md_ops_s",
                                   "md_create_ops_s", "md_stat_ops_s",
                                   "md_unlink_ops_s", "md_mdt_imbalance"}) {
    EXPECT_EQ(on.metric(metric, {}).size(), 2u) << metric;
  }
  for (const auto ops : on.metric("md_total_ops", {})) {
    EXPECT_DOUBLE_EQ(ops, 3.0 * 32.0 * 8.0);
  }
}

TEST(MetadataCampaign, InertParamsKeepLegacyBytes) {
  // Satellite 2's campaign-level regression: metadata knobs without the
  // queued master switch must reproduce the exact same rows as a config
  // that never heard of them.
  harness::CampaignEntry vanilla;
  vanilla.config = metadataRun();
  harness::CampaignEntry knobs;
  knobs.config = metadataRun();
  knobs.config.fs.meta.mdtCount = 4;
  knobs.config.fs.meta.createRate = 50.0;
  knobs.config.fs.meta.shard = beegfs::MdShardKind::kRoundRobin;
  harness::ProtocolOptions protocol;
  protocol.repetitions = 3;
  harness::ExecutorOptions serial;
  serial.jobs = 1;
  const auto a = harness::executeCampaign({vanilla}, protocol, 7, nullptr, serial);
  const auto b = harness::executeCampaign({knobs}, protocol, 7, nullptr, serial);
  EXPECT_EQ(a.metric("bandwidth_mibps", {}), b.metric("bandwidth_mibps", {}));
  EXPECT_EQ(a.metric("meta_seconds", {}), b.metric("meta_seconds", {}));
  EXPECT_THROW(b.metric("md_seconds", {}), util::ContractError);
}

TEST(MetadataCampaign, ResultsAreJobsInvariant) {
  // The PR 1 ordered-commit contract extended to the metadata path: a
  // campaign with the queued model and an mdtest phase is bitwise identical
  // for any worker count.  CI runs this under --gtest_filter as its
  // invariance step.
  harness::CampaignEntry entry;
  entry.config = metadataRun();
  entry.config.fs.meta.queued = true;
  entry.config.fs.meta.mdtCount = 2;
  ior::MdtestOptions md;
  md.filesPerRank = 8;
  entry.config.mdtest = md;
  harness::ProtocolOptions protocol;
  protocol.repetitions = 4;
  harness::ExecutorOptions serial;
  serial.jobs = 1;
  harness::ExecutorOptions parallel;
  parallel.jobs = 8;
  const auto a = harness::executeCampaign({entry}, protocol, 1234, nullptr, serial);
  const auto b = harness::executeCampaign({entry}, protocol, 1234, nullptr, parallel);
  for (const std::string metric :
       {"bandwidth_mibps", "meta_seconds", "md_seconds", "md_total_ops", "md_ops_s",
        "md_create_ops_s", "md_stat_ops_s", "md_unlink_ops_s", "md_mdt_imbalance"}) {
    EXPECT_EQ(a.metric(metric, {}), b.metric(metric, {})) << metric;
  }
}

}  // namespace
}  // namespace beesim
