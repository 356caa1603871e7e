#include "workloads.hpp"

#include <stdexcept>

#include "faults/schedule.hpp"
#include "topology/plafrim.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace campaign_bench {

namespace {

using namespace beesim;
using util::kGiB;

/// One N-1 IOR application on the first `nodes` nodes of a PlaFRIM scenario.
harness::RunConfig iorRun(topo::Scenario scenario, std::size_t nodes, int ppn,
                          unsigned stripeCount, util::Bytes total) {
  harness::RunConfig config;
  config.cluster = topo::makePlafrim(scenario, nodes);
  config.fs.defaultStripe.stripeCount = stripeCount;
  config.job = ior::IorJob::onFirstNodes(nodes, ppn);
  config.ior.blockSize = ior::blockSizeForTotal(total, config.job.ranks());
  return config;
}

harness::CampaignEntry entryOf(harness::RunConfig config, const std::string& factor,
                               const std::string& value) {
  harness::CampaignEntry entry;
  entry.config = std::move(config);
  entry.factors[factor] = value;
  return entry;
}

/// Fig. 8's experiment on Scenario 1: the stripe count cycles 1..8 under
/// BeeGFS' random chooser, so every (min,max) allocation class appears.
Workload allocS1() {
  Workload w;
  for (unsigned count = 1; count <= 8; ++count) {
    auto config = iorRun(topo::Scenario::kEthernet10G, 16, 8, count, 32 * kGiB);
    config.fs.chooser = beegfs::ChooserKind::kRandom;
    w.entries.push_back(entryOf(std::move(config), "count", std::to_string(count)));
  }
  w.protocol.repetitions = 4;
  return w;
}

/// Scenario 2, four tenants sharing targets through the round-robin chooser,
/// each behind its own QoS token bucket with borrowing.
Workload tenantsS2() {
  constexpr std::size_t kApps = 4;
  constexpr std::size_t kNodesPerApp = 8;
  constexpr int kPpn = 8;
  Workload w;
  w.concurrent = true;
  w.base.cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, kApps * kNodesPerApp);
  w.base.fs.defaultStripe.stripeCount = 4;
  w.base.fs.chooser = beegfs::ChooserKind::kRoundRobin;
  w.base.qos.enabled = true;
  w.base.qos.rate = 1800.0;
  w.base.qos.borrow = true;
  for (std::size_t a = 0; a < kApps; ++a) {
    harness::AppSpec app;
    app.job.ppn = kPpn;
    for (std::size_t n = 0; n < kNodesPerApp; ++n) app.job.nodeIds.push_back(a * kNodesPerApp + n);
    app.ior.blockSize = ior::blockSizeForTotal(8 * kGiB, app.job.ranks());
    qos::QosAppSpec reservation;
    reservation.rate = w.base.qos.rate;
    app.qos = reservation;
    w.apps.push_back(std::move(app));
  }
  w.protocol.repetitions = 4;
  return w;
}

/// Scenario 1 under stochastic fail-slow episodes, with the peer-relative
/// health monitor and hedged writes on, in degraded fault mode.
Workload grayS1() {
  Workload w;
  auto config = iorRun(topo::Scenario::kEthernet10G, 8, 8, 8, 6 * kGiB);
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
  w.entries.push_back(entryOf(std::move(config), "faults", "failslow"));
  w.protocol.repetitions = 4;
  return w;
}

/// Scenario 2: a small IOR phase followed by an mdtest create/stat/unlink
/// phase on four hash-sharded queued MDTs.
Workload mdtestS2() {
  Workload w;
  auto config = iorRun(topo::Scenario::kOmniPath100G, 16, 8, 4, 1 * kGiB);
  config.fs.meta.queued = true;
  config.fs.meta.mdtCount = 4;
  config.fs.meta.shard = beegfs::MdShardKind::kHashDir;
  ior::MdtestOptions md;
  md.filesPerRank = 16;
  config.mdtest = md;
  w.entries.push_back(entryOf(std::move(config), "md", "hash4"));
  w.protocol.repetitions = 4;
  return w;
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names{"alloc_s1", "tenants_s2", "gray_s1",
                                              "mdtest_s2"};
  return names;
}

Workload makeWorkload(const std::string& name) {
  if (name == "alloc_s1") return allocS1();
  if (name == "tenants_s2") return tenantsS2();
  if (name == "gray_s1") return grayS1();
  if (name == "mdtest_s2") return mdtestS2();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::uint64_t batchSeed(std::uint64_t seed, std::size_t batch) {
  // splitmix64 over (seed, batch): distinct, well-mixed campaign seeds.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + (batch + 1) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<PlannedRep> planBatch(const Workload& workload, std::uint64_t campaignSeed) {
  util::Rng rng(campaignSeed);
  const std::size_t configs = workload.concurrent ? 1 : workload.entries.size();
  return harness::buildProtocolPlan(configs, workload.protocol, rng);
}

}  // namespace campaign_bench
