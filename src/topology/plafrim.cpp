#include "topology/plafrim.hpp"

#include "util/error.hpp"

namespace beesim::topo {

ClusterConfig makePlafrim(Scenario scenario, std::size_t computeNodes,
                          const PlafrimCalibration& cal) {
  if (computeNodes == 0) throw util::ConfigError("PlaFRIM model needs >= 1 compute node");

  const bool ethernet = scenario == Scenario::kEthernet10G;

  UniformClusterSpec spec;
  spec.name = ethernet ? "plafrim-s1" : "plafrim-s2";
  spec.computeNodes = computeNodes;
  spec.nodeNic = ethernet ? cal.s1NodeLink : cal.s2NodeLink;
  spec.nodeClientCap = ethernet ? cal.s1ClientCap : cal.s2ClientCap;
  spec.storageHosts = kPlafrimStorageHosts;
  spec.targetsPerHost = kPlafrimTargetsPerHost;
  spec.serverNic = ethernet ? cal.s1ServerLink : cal.s2ServerLink;
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

const char* scenarioLabel(Scenario scenario) {
  switch (scenario) {
    case Scenario::kEthernet10G:
      return "scenario 1 (network slower than storage, 10 GbE)";
    case Scenario::kOmniPath100G:
      return "scenario 2 (storage slower than network, Omni-Path)";
  }
  return "unknown scenario";
}

}  // namespace beesim::topo
