#include "topology/catalyst.hpp"

#include "util/error.hpp"

namespace beesim::topo {

ClusterConfig makeCatalystLike(std::size_t computeNodes, const CatalystCalibration& cal) {
  if (computeNodes == 0) throw util::ConfigError("Catalyst model needs >= 1 compute node");

  UniformClusterSpec spec;
  spec.name = "catalyst-like";
  spec.computeNodes = computeNodes;
  spec.nodeNic = cal.nodeLink;
  spec.nodeClientCap = cal.clientCap;
  spec.storageHosts = cal.storageHosts;
  spec.targetsPerHost = cal.targetsPerHost;
  spec.serverNic = cal.serverLink;
  spec.serverServiceCap = cal.ossServiceCap;
  spec.targetDevice = storage::HddRaidParams{
      .disks = cal.disksPerTarget,
      .parityDisks = cal.parityDisks,
      .perDiskStream = cal.perDiskStream,
      .writeEfficiency = cal.writeEfficiency,
      .cacheFraction = cal.targetCacheFraction,
      .cacheQHalf = cal.targetCacheQHalf,
      .streamQHalf = cal.targetStreamQHalf,
      .streamExponent = cal.targetStreamExponent,
  };
  spec.targetVariability = VariabilitySpec{.sigmaLog = cal.ostSigmaLog};
  return buildUniformCluster(spec);
}

}  // namespace beesim::topo
