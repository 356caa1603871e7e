// Cluster description files: load/save a topo::ClusterConfig as JSON.
//
// Goal (ii) of the paper is a methodology others can apply to *their*
// systems; the loader lets a site describe its cluster once and run every
// bench and the advisor against it (see examples/custom_cluster and the
// beesim CLI).
//
// Schema (all capacities in MiB/s, sizes accept "12", "512KiB" strings):
//
// {
//   "name": "mysite",
//   "network": { "backbone": 0, "serverLinkNoiseSigmaLog": 0.04 },
//   "nodes": { "count": 16, "nic": 11000, "clientCap": 1680 },
//   "hosts": [
//     { "name": "oss0", "nic": 11000, "serviceCap": 4500,
//       "targets": [ { "disks": 12, "parityDisks": 2, "perDiskStream": 200,
//                      "writeEfficiency": 0.93, "cacheFraction": 0.28,
//                      "cacheQHalf": 1, "streamQHalf": 33, "streamExponent": 4,
//                      "variability": { "kind": "lognormal", "sigma": 0.05 } },
//                    ... ] },
//     ...
//   ]
// }
//
// "nodes" may alternatively be a JSON array of per-node objects.  A host's
// "targets" may be given as {"count": N, ...sharedDeviceFields} to avoid
// repeating identical devices.  A target's "variability" kind is "none" or
// "lognormal" (with its log-space "sigma").
#pragma once

#include <filesystem>
#include <string>

#include "topology/cluster.hpp"

namespace beesim::topo {

/// Parse a cluster description document.  Throws util::ConfigError with a
/// descriptive message on schema violations; the result is validate()d.
ClusterConfig clusterFromJson(const std::string& jsonText);

/// Load from a file.  Throws util::IoError / util::ConfigError.
ClusterConfig loadCluster(const std::filesystem::path& path);

/// Serialize a cluster back to (pretty-printed) JSON.  Round-trips through
/// clusterFromJson.
std::string clusterToJson(const ClusterConfig& cluster);

/// Save to a file.
void saveCluster(const ClusterConfig& cluster, const std::filesystem::path& path);

}  // namespace beesim::topo
