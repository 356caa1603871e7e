// Hardware description of a cluster: compute nodes, network, storage hosts
// and their storage targets.
//
// A ClusterConfig is pure data -- it owns no simulator state.  The
// beegfs::Deployment (see beegfs/deployment.hpp) turns one into fluid-model
// resources.  Factories for the paper's systems live in plafrim.hpp
// (Scenario 1 / Scenario 2) and catalyst.hpp (the Chowdhury-et-al.-like
// system used for the baseline reproduction).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "storage/device.hpp"
#include "util/units.hpp"

namespace beesim::topo {

/// Compute node hardware + client-stack ceiling.
struct ComputeNodeCfg {
  std::string name;
  /// Raw NIC capacity, MiB/s.
  util::MiBps nicBandwidth = 1250.0;
  /// Ceiling of the whole client I/O stack on this node (TCP/RDMA stack, PFS
  /// client module), MiB/s.  Measured single-node IOR runs bound this: the
  /// paper sees ~880 MiB/s (Scenario 1) / ~1630 MiB/s (Scenario 2) from one
  /// node regardless of target count.
  util::MiBps clientThroughputCap = 900.0;
};

/// Performance variability of a target's device: a median-1 log-normal
/// factor per noise epoch (storage::EpochNoise).
struct VariabilitySpec {
  /// Standard deviation in log space; 0 = no variability.
  double sigmaLog = 0.0;
};

/// One storage target (OST): a device plus its variability.
struct TargetCfg {
  std::string name;
  storage::HddRaidParams device;
  VariabilitySpec variability;
};

/// One storage host: a machine running an OSS (and possibly an MDS).
struct StorageHostCfg {
  std::string name;
  /// Server NIC capacity (effective, after protocol overhead), MiB/s.
  util::MiBps nicBandwidth = 1163.0;
  /// Aggregate service ceiling of the OSS process / host I/O backplane
  /// (worker pool, PCIe/HBA, kernel), MiB/s.  0 disables the cap.
  util::MiBps serviceCap = 0.0;
  std::vector<TargetCfg> targets;
};

/// Core switch model.  0 = non-blocking (both PlaFRIM switches are).
struct NetworkCfg {
  std::string name;
  util::MiBps backboneBandwidth = 0.0;
  /// Log-normal sigma of the per-epoch throughput fluctuation of the
  /// server links (transient congestion, TCP dynamics).  Short transfers
  /// sample a single epoch and are therefore noisier than long ones -- one
  /// of the reasons the paper needs a "large-enough" data size (Fig. 2).
  double serverLinkNoiseSigmaLog = 0.04;
};

struct ClusterConfig {
  std::string name;
  std::vector<ComputeNodeCfg> nodes;
  std::vector<StorageHostCfg> hosts;
  NetworkCfg network;

  /// Total number of storage targets across hosts.
  std::size_t targetCount() const;

  /// Flat index of host `h`, target `t` (row-major over hosts).
  /// Precondition: indices in range.
  std::size_t flatTargetIndex(std::size_t host, std::size_t target) const;

  /// Inverse of flatTargetIndex.
  std::pair<std::size_t, std::size_t> targetLocation(std::size_t flat) const;

  /// BeeGFS-style target numbering as in the paper: host h, target t ->
  /// (h+1)*100 + (t+1), e.g. 101..104 and 201..204 on PlaFRIM.
  int beegfsTargetNum(std::size_t flat) const;

  /// Validate invariants (non-empty, positive capacities, valid device
  /// curves, non-negative noise sigmas); throws ConfigError with a message
  /// naming the offending entry.
  void validate() const;
};

/// Convenience builder for uniform clusters (tests, custom_cluster example).
struct UniformClusterSpec {
  std::string name = "uniform";
  std::size_t computeNodes = 8;
  util::MiBps nodeNic = 1250.0;
  util::MiBps nodeClientCap = 900.0;
  std::size_t storageHosts = 2;
  std::size_t targetsPerHost = 4;
  util::MiBps serverNic = 1163.0;
  util::MiBps serverServiceCap = 0.0;
  storage::HddRaidParams targetDevice;
  VariabilitySpec targetVariability;
};

ClusterConfig buildUniformCluster(const UniformClusterSpec& spec);

}  // namespace beesim::topo
