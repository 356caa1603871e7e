#include "beegfs/deployment.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace beesim::beegfs {

namespace {
/// Usable capacity attributed to one PlaFRIM-class OST (131 TB over 8 OSTs).
constexpr util::Bytes kDefaultTargetCapacity = 16 * util::kTiB;
/// Virtual-time window over which one device-noise factor applies.
constexpr util::Seconds kNoiseEpoch = 3.0;
/// Fluid re-solve cadence (refreshes time-dependent capacities: client
/// ramp-up, noise epochs).
constexpr util::Seconds kResolveInterval = 0.25;
/// Client worker threads servicing RPCs per mounted node; they bound a
/// node's outstanding chunk requests, which is why the storage-side queue
/// depth scales with the number of *nodes* rather than processes (Lessons
/// #1/#3).
constexpr int kWorkerThreads = 8;
/// Outstanding requests one process keeps in flight (write-behind).
constexpr int kInflightPerProcess = 8;
/// Throughput penalty when more processes than workers share a node
/// (intra-node contention, Fig. 5b): effective inflight is divided by
/// (1 + penalty * (ppn - workers) / workers) for ppn > workers.  Calibrated
/// to the paper's "slight degradation" at 16 ppn.
constexpr double kOversubscriptionPenalty = 0.08;
/// A node's ramp starts at this fraction of its ceiling (ClientParams::rampTau).
constexpr double kRampInitialFraction = 0.35;
/// Per-job log-normal jitter on the ramp's time constant and starting
/// fraction (connection establishment and slow-start vary run to run); the
/// dominant noise source for small transfers (Fig. 2's left side).
constexpr double kRampJitterSigmaLog = 0.4;
}  // namespace

Deployment::Deployment(sim::FluidSimulator& fluid, topo::ClusterConfig cluster,
                       BeegfsParams params, util::Rng rng, EnvironmentFactors environment)
    : fluid_(fluid),
      cluster_(std::move(cluster)),
      params_(params),
      environment_(environment),
      mgmt_(cluster_, kDefaultTargetCapacity),
      meta_(params_.meta, rng.split()),
      clientRng_(rng.split()) {
  cluster_.validate();
  BEESIM_ASSERT(environment_.network > 0.0, "network environment factor must be > 0");
  BEESIM_ASSERT(environment_.storage > 0.0, "storage environment factor must be > 0");

  fluid_.setResolveInterval(kResolveInterval);

  // -- Backbone switch (optional). --------------------------------------
  if (cluster_.network.backboneBandwidth > 0.0) {
    backbone_ = fluid_.addResource(sim::ResourceSpec{
        .name = cluster_.name + "/backbone",
        .capacity = sim::constantCapacity(cluster_.network.backboneBandwidth *
                                          environment_.network),
    });
  }

  // -- Compute nodes: client stack + NIC. --------------------------------
  nodeStates_.reserve(cluster_.nodes.size());
  for (std::size_t n = 0; n < cluster_.nodes.size(); ++n) {
    NodeState* state = &nodeStates_.emplace_back();
    const auto cap = cluster_.nodes[n].clientThroughputCap;

    clientRes_.push_back(fluid_.addResource(sim::ResourceSpec{
        .name = cluster_.nodes[n].name + "/client",
        .capacity =
            [this, state, cap](const sim::ResourceLoad& load) {
              return cap * clientContentionFactor(state->activeProcesses) *
                     clientRampFactor(*state, load.time);
            },
    }));
    nodeNicRes_.push_back(fluid_.addResource(sim::ResourceSpec{
        .name = cluster_.nodes[n].name + "/nic",
        .capacity = sim::constantCapacity(cluster_.nodes[n].nicBandwidth *
                                          environment_.network),
    }));
  }

  // -- Buddy-mirror groups (registry side). -------------------------------
  if (params_.mirror.enabled) {
    auto pairs = params_.mirror.groups.empty() ? defaultMirrorPairs(cluster_)
                                               : params_.mirror.groups;
    if (pairs.empty()) {
      throw util::ConfigError("storage mirroring needs at least two storage hosts");
    }
    for (const auto& [primary, secondary] : pairs) {
      mgmt_.registerMirrorGroup(primary, secondary);
    }
  }

  // -- Storage hosts: server NIC, OSS service cap, OSTs. ------------------
  targets_.reserve(cluster_.targetCount());
  links_.reserve(cluster_.hosts.size());
  util::Rng deviceRng = rng.split();
  for (const auto& host : cluster_.hosts) {
    // Server links fluctuate per noise epoch (transient congestion); see
    // topo::NetworkCfg::serverLinkNoiseSigmaLog.
    LinkState* link = &links_.emplace_back(LinkState{
        .rate = host.nicBandwidth * environment_.network,
        .noise = storage::EpochNoise(cluster_.network.serverLinkNoiseSigmaLog,
                                     deviceRng.split(), kNoiseEpoch),
    });
    serverNicRes_.push_back(fluid_.addResource(sim::ResourceSpec{
        .name = host.name + "/nic",
        .capacity =
            [link](const sim::ResourceLoad& load) {
              const util::MiBps rate = load.queueDepth > 0.0 ? link->rate : 0.0;
              return rate * link->noise.factorAt(load.time) * link->health;
            },
    }));
    if (host.serviceCap > 0.0) {
      ossRes_.push_back(fluid_.addResource(sim::ResourceSpec{
          .name = host.name + "/oss",
          .capacity = sim::constantCapacity(host.serviceCap * environment_.storage),
      }));
    } else {
      ossRes_.push_back(std::nullopt);
    }
    for (const auto& targetCfg : host.targets) {
      TargetState* target = &targets_.emplace_back(TargetState{
          .device = {storage::HddRaidModel(targetCfg.device),
                     storage::EpochNoise(targetCfg.variability.sigmaLog, deviceRng.split(),
                                         kNoiseEpoch)},
          .storageFactor = environment_.storage,
      });
      ostRes_.push_back(fluid_.addResource(sim::ResourceSpec{
          .name = targetCfg.name,
          .capacity =
              [target](const sim::ResourceLoad& load) {
                return target->device.currentRate(load.queueDepth, load.time) *
                       target->storageFactor * target->health;
              },
      }));
    }
  }

  // -- Metadata targets (queued MDS/MDT model; DESIGN.md §2.10). ----------
  // Gated on the master switch: the default scalar model registers no
  // resources and attaches nothing, so legacy runs stay bitwise identical.
  if (params_.meta.queued) {
    MetaService* meta = &meta_;
    std::vector<sim::ResourceIndex> mdtRes;
    mdtRes.reserve(meta_.mdtCount());
    for (std::size_t k = 0; k < meta_.mdtCount(); ++k) {
      mdtRes.push_back(fluid_.addResource(sim::ResourceSpec{
          .name = cluster_.name + "/mdt" + std::to_string(k),
          .capacity =
              [meta](const sim::ResourceLoad& load) {
                return meta->rampFactor(load.queueDepth) *
                       MetaService::kSaturationMiBps;
              },
      }));
    }
    mdtRes_ = mdtRes;
    meta_.attach(fluid_, std::move(mdtRes));
  }
}

void Deployment::setTargetHealth(std::size_t flatTarget, double factor) {
  BEESIM_ASSERT(flatTarget < targets_.size(), "unknown storage target");
  BEESIM_ASSERT(factor >= 0.0, "target health factor must be >= 0");
  targets_[flatTarget].health = factor;
}

double Deployment::targetHealth(std::size_t flatTarget) const {
  BEESIM_ASSERT(flatTarget < targets_.size(), "unknown storage target");
  return targets_[flatTarget].health;
}

void Deployment::setHostLinkHealth(std::size_t host, double factor) {
  BEESIM_ASSERT(host < links_.size(), "unknown storage host");
  BEESIM_ASSERT(factor >= 0.0, "host link health factor must be >= 0");
  links_[host].health = factor;
}

double Deployment::hostLinkHealth(std::size_t host) const {
  BEESIM_ASSERT(host < links_.size(), "unknown storage host");
  return links_[host].health;
}

double Deployment::clientContentionFactor(int processes) const {
  if (processes <= kWorkerThreads) return 1.0;
  const double excess = static_cast<double>(processes - kWorkerThreads) /
                        static_cast<double>(kWorkerThreads);
  return 1.0 / (1.0 + kOversubscriptionPenalty * excess);
}

double Deployment::clientRampFactor(const NodeState& state, util::Seconds now) const {
  if (state.jobStart < 0.0) return 1.0;
  const util::Seconds tau = params_.client.rampTau;
  if (tau <= 0.0) return 1.0;
  const double dt = std::max(0.0, now - state.jobStart);
  const double r0 = std::clamp(kRampInitialFraction * state.rampR0Factor, 0.05, 0.95);
  return 1.0 - (1.0 - r0) * std::exp(-dt / (tau * state.rampTauFactor));
}

Route Deployment::writePath(std::size_t node, std::size_t flatTarget) const {
  BEESIM_ASSERT(node < cluster_.nodes.size(), "unknown compute node");
  BEESIM_ASSERT(flatTarget < ostRes_.size(), "unknown storage target");
  const auto [host, indexInHost] = cluster_.targetLocation(flatTarget);
  (void)indexInHost;

  Route path;
  path.push(clientRes_[node]);
  path.push(nodeNicRes_[node]);
  if (backbone_) path.push(*backbone_);
  path.push(serverNicRes_[host]);
  if (ossRes_[host]) path.push(*ossRes_[host]);
  path.push(ostRes_[flatTarget]);
  return path;
}

Route Deployment::replicaPath(std::size_t fromTarget, std::size_t toTarget) const {
  BEESIM_ASSERT(fromTarget < ostRes_.size(), "unknown storage target");
  BEESIM_ASSERT(toTarget < ostRes_.size(), "unknown storage target");
  const auto [fromHost, fromIdx] = cluster_.targetLocation(fromTarget);
  const auto [toHost, toIdx] = cluster_.targetLocation(toTarget);
  (void)fromIdx;
  (void)toIdx;
  BEESIM_ASSERT(fromHost != toHost, "replica path within one host");

  Route path;
  if (backbone_) path.push(*backbone_);
  path.push(serverNicRes_[toHost]);
  if (ossRes_[toHost]) path.push(*ossRes_[toHost]);
  path.push(ostRes_[toTarget]);
  return path;
}

void Deployment::setNodeProcesses(std::size_t node, int processes) {
  BEESIM_ASSERT(node < nodeStates_.size(), "unknown compute node");
  BEESIM_ASSERT(processes >= 0, "process count must be >= 0");
  nodeStates_[node].activeProcesses = processes;
}

void Deployment::markNodeJobStart(std::size_t node, util::Seconds at) {
  BEESIM_ASSERT(node < nodeStates_.size(), "unknown compute node");
  auto& state = nodeStates_[node];
  if (state.jobStart < 0.0) {
    // First job on this node: sample its slow-start jitter (both the time
    // constant and the starting fraction vary between connections).
    state.rampTauFactor = clientRng_.logNormalMedian(1.0, kRampJitterSigmaLog);
    state.rampR0Factor = clientRng_.logNormalMedian(1.0, kRampJitterSigmaLog);
  }
  if (state.jobStart < 0.0 || at < state.jobStart) state.jobStart = at;
}

double Deployment::nodeEffectiveInflight(std::size_t node, int ppn) const {
  BEESIM_ASSERT(node < nodeStates_.size(), "unknown compute node");
  BEESIM_ASSERT(ppn >= 1, "ppn must be >= 1");
  const double raw = std::min<double>(static_cast<double>(ppn) * kInflightPerProcess,
                                      static_cast<double>(kWorkerThreads));
  return raw * clientContentionFactor(ppn);
}

sim::ResourceIndex Deployment::clientResource(std::size_t node) const {
  BEESIM_ASSERT(node < clientRes_.size(), "unknown compute node");
  return clientRes_[node];
}

sim::ResourceIndex Deployment::nodeNicResource(std::size_t node) const {
  BEESIM_ASSERT(node < nodeNicRes_.size(), "unknown compute node");
  return nodeNicRes_[node];
}

sim::ResourceIndex Deployment::serverNicResource(std::size_t host) const {
  BEESIM_ASSERT(host < serverNicRes_.size(), "unknown storage host");
  return serverNicRes_[host];
}

std::optional<sim::ResourceIndex> Deployment::ossResource(std::size_t host) const {
  BEESIM_ASSERT(host < ossRes_.size(), "unknown storage host");
  return ossRes_[host];
}

sim::ResourceIndex Deployment::ostResource(std::size_t flatTarget) const {
  BEESIM_ASSERT(flatTarget < ostRes_.size(), "unknown storage target");
  return ostRes_[flatTarget];
}

sim::ResourceIndex Deployment::mdtResource(std::size_t mdt) const {
  BEESIM_ASSERT(mdt < mdtRes_.size(), "unknown MDT (queued metadata model off?)");
  return mdtRes_[mdt];
}

}  // namespace beesim::beegfs
