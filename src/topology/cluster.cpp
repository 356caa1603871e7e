#include "topology/cluster.hpp"

#include <cmath>

#include "util/error.hpp"

namespace beesim::topo {

std::size_t ClusterConfig::targetCount() const {
  std::size_t count = 0;
  for (const auto& host : hosts) count += host.targets.size();
  return count;
}

std::size_t ClusterConfig::flatTargetIndex(std::size_t host, std::size_t target) const {
  BEESIM_ASSERT(host < hosts.size(), "host index out of range");
  BEESIM_ASSERT(target < hosts[host].targets.size(), "target index out of range");
  std::size_t flat = 0;
  for (std::size_t h = 0; h < host; ++h) flat += hosts[h].targets.size();
  return flat + target;
}

std::pair<std::size_t, std::size_t> ClusterConfig::targetLocation(std::size_t flat) const {
  std::size_t remaining = flat;
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    if (remaining < hosts[h].targets.size()) return {h, remaining};
    remaining -= hosts[h].targets.size();
  }
  BEESIM_ASSERT(false, "flat target index out of range");
  return {0, 0};  // unreachable
}

int ClusterConfig::beegfsTargetNum(std::size_t flat) const {
  const auto [host, target] = targetLocation(flat);
  return static_cast<int>((host + 1) * 100 + (target + 1));
}

void ClusterConfig::validate() const {
  if (nodes.empty()) throw util::ConfigError("cluster '" + name + "' has no compute nodes");
  if (hosts.empty()) throw util::ConfigError("cluster '" + name + "' has no storage hosts");
  for (const auto& node : nodes) {
    if (node.nicBandwidth <= 0.0) {
      throw util::ConfigError("node '" + node.name + "' has non-positive NIC bandwidth");
    }
    if (node.clientThroughputCap <= 0.0) {
      throw util::ConfigError("node '" + node.name + "' has non-positive client cap");
    }
  }
  for (const auto& host : hosts) {
    if (host.nicBandwidth <= 0.0) {
      throw util::ConfigError("host '" + host.name + "' has non-positive NIC bandwidth");
    }
    if (host.serviceCap < 0.0) {
      throw util::ConfigError("host '" + host.name + "' has negative service cap");
    }
    if (host.targets.empty()) {
      throw util::ConfigError("host '" + host.name + "' has no storage targets");
    }
    for (const auto& target : host.targets) {
      if (const char* invalid = target.device.invalidReason()) {
        throw util::ConfigError("target '" + target.name + "': " + invalid);
      }
      const double sigma = target.variability.sigmaLog;
      if (!(std::isfinite(sigma) && sigma >= 0.0)) {
        throw util::ConfigError("target '" + target.name +
                                "' has a negative or non-finite variability sigma");
      }
    }
  }
  if (network.backboneBandwidth < 0.0) {
    throw util::ConfigError("cluster '" + name + "' has negative backbone bandwidth");
  }
  const double linkSigma = network.serverLinkNoiseSigmaLog;
  if (!(std::isfinite(linkSigma) && linkSigma >= 0.0)) {
    throw util::ConfigError("cluster '" + name +
                            "' has a negative or non-finite server link noise sigma");
  }
}

ClusterConfig buildUniformCluster(const UniformClusterSpec& spec) {
  if (spec.computeNodes == 0) throw util::ConfigError("uniform cluster needs >= 1 node");
  if (spec.storageHosts == 0) throw util::ConfigError("uniform cluster needs >= 1 host");
  if (spec.targetsPerHost == 0) throw util::ConfigError("uniform cluster needs >= 1 target/host");

  ClusterConfig cfg;
  cfg.name = spec.name;
  cfg.network.name = spec.name + "-switch";
  cfg.nodes.reserve(spec.computeNodes);
  for (std::size_t n = 0; n < spec.computeNodes; ++n) {
    cfg.nodes.push_back(ComputeNodeCfg{
        .name = spec.name + "-node" + std::to_string(n),
        .nicBandwidth = spec.nodeNic,
        .clientThroughputCap = spec.nodeClientCap,
    });
  }
  cfg.hosts.reserve(spec.storageHosts);
  for (std::size_t h = 0; h < spec.storageHosts; ++h) {
    StorageHostCfg host;
    host.name = spec.name + "-oss" + std::to_string(h);
    host.nicBandwidth = spec.serverNic;
    host.serviceCap = spec.serverServiceCap;
    for (std::size_t t = 0; t < spec.targetsPerHost; ++t) {
      host.targets.push_back(TargetCfg{
          .name = host.name + "-ost" + std::to_string(t),
          .device = spec.targetDevice,
          .variability = spec.targetVariability,
      });
    }
    cfg.hosts.push_back(std::move(host));
  }
  cfg.validate();
  return cfg;
}

}  // namespace beesim::topo
