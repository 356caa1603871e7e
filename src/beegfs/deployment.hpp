// Deployment: instantiates a BeeGFS system on a cluster inside the fluid
// simulator.
//
// It owns the per-component resources of the flow model:
//
//   client(node) -> node NIC -> [backbone] -> server NIC -> [OSS] -> OST
//
// and the stateful pieces: per-node client state (process count, ramp-up),
// per-target and per-server-link capacity state (curve or rate, epoch noise,
// health), the management registry and the metadata service.  One
// Deployment == one booted file system; experiments build a fresh one per
// repetition (the harness does this) so no state leaks between runs.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "beegfs/meta.hpp"
#include "beegfs/mgmt.hpp"
#include "beegfs/params.hpp"
#include "sim/fluid.hpp"
#include "storage/device.hpp"
#include "topology/cluster.hpp"
#include "util/rng.hpp"

namespace beesim::beegfs {

/// A resource path held inline: client, node NIC, backbone, server NIC, OSS,
/// OST at most.  It converts to the span the fluid's startFlow takes, so a
/// chunk leg starts without a heap path.
class Route {
 public:
  static constexpr std::size_t kMaxHops = 6;

  void push(sim::ResourceIndex hop) { hops_[size_++] = hop; }
  std::size_t size() const { return size_; }
  sim::ResourceIndex operator[](std::size_t i) const { return hops_[i]; }
  operator std::span<const sim::ResourceIndex>() const { return {hops_.data(), size_}; }

 private:
  std::array<sim::ResourceIndex, kMaxHops> hops_{};
  std::size_t size_ = 0;
};

class Deployment {
 public:
  /// Builds all resources in `fluid`.  The ClusterConfig and params are
  /// copied; `rng` seeds the device-noise and metadata streams.
  Deployment(sim::FluidSimulator& fluid, topo::ClusterConfig cluster, BeegfsParams params,
             util::Rng rng, EnvironmentFactors environment = {});

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  const topo::ClusterConfig& cluster() const { return cluster_; }
  const BeegfsParams& params() const { return params_; }
  const EnvironmentFactors& environment() const { return environment_; }
  sim::FluidSimulator& fluid() { return fluid_; }

  ManagementService& mgmt() { return mgmt_; }
  const ManagementService& mgmt() const { return mgmt_; }
  MetaService& meta() { return meta_; }

  /// Resource path a write from `node` to `flatTarget` crosses.
  Route writePath(std::size_t node, std::size_t flatTarget) const;

  /// Resource path of a server-side forward from `fromTarget`'s host to
  /// `toTarget` (mirror replication and background resync).  Server NICs are
  /// full duplex: the transmit direction on the source host does not contend
  /// with the client traffic it receives, so the forward leg only crosses
  /// the backbone and the *receiving* host's NIC/OSS/OST.
  Route replicaPath(std::size_t fromTarget, std::size_t toTarget) const;

  // -- Client-state hooks used by the IOR runner. ------------------------

  /// Declare how many application processes run on `node` (affects the
  /// intra-node contention factor).
  void setNodeProcesses(std::size_t node, int processes);

  /// Record the instant the first I/O of a job starts on `node`; the client
  /// ramp-up curve is anchored there.  Idempotent (keeps the earliest).
  void markNodeJobStart(std::size_t node, util::Seconds at);

  /// Effective outstanding-request budget of one node given `ppn` processes
  /// (worker threads bound it; oversubscription erodes it).  This is the
  /// queue weight budget the IOR runner splits across a rank's flows.
  double nodeEffectiveInflight(std::size_t node, int ppn) const;

  // -- Fault-injection hooks (see src/faults/injector.hpp). ---------------

  /// Multiply a target's device capacity by `factor` (0 = dead OST, 1 =
  /// healthy, fractions = degraded media).  Takes effect at the next
  /// capacity evaluation; callers follow up with fluid().invalidateCapacities()
  /// so in-flight flows re-solve immediately.
  void setTargetHealth(std::size_t flatTarget, double factor);
  double targetHealth(std::size_t flatTarget) const;

  /// Multiply a storage host's NIC capacity by `factor` (0 = crashed OSS,
  /// fractions = degraded link).
  void setHostLinkHealth(std::size_t host, double factor);
  double hostLinkHealth(std::size_t host) const;

  // -- Resource accessors (exposed for tests and diagnostics). -----------
  sim::ResourceIndex clientResource(std::size_t node) const;
  sim::ResourceIndex nodeNicResource(std::size_t node) const;
  sim::ResourceIndex serverNicResource(std::size_t host) const;
  std::optional<sim::ResourceIndex> ossResource(std::size_t host) const;
  sim::ResourceIndex ostResource(std::size_t flatTarget) const;
  std::optional<sim::ResourceIndex> backboneResource() const { return backbone_; }
  /// Metadata targets (non-empty only under the queued MDS/MDT model).
  std::size_t mdtCount() const { return mdtRes_.size(); }
  sim::ResourceIndex mdtResource(std::size_t mdt) const;

 private:
  struct NodeState {
    int activeProcesses = 0;
    util::Seconds jobStart = -1.0;  // < 0: no job started yet
    double rampTauFactor = 1.0;     // per-job slow-start jitter (duration)
    double rampR0Factor = 1.0;      // per-job slow-start jitter (floor)
  };
  /// An OST's capacity: ((curve x noise) x storage factor) x health.
  struct TargetState {
    storage::NoisyDevice device;
    double storageFactor;
    double health = 1.0;  // fault-injection multiplier (1.0 = healthy)
  };
  /// A server link's capacity: (rate x noise) x health, 0 while idle.
  struct LinkState {
    util::MiBps rate;
    storage::EpochNoise noise;
    double health = 1.0;  // fault-injection multiplier (1.0 = healthy)
  };

  double clientContentionFactor(int processes) const;
  double clientRampFactor(const NodeState& state, util::Seconds now) const;

  sim::FluidSimulator& fluid_;
  topo::ClusterConfig cluster_;
  BeegfsParams params_;
  EnvironmentFactors environment_;
  ManagementService mgmt_;
  MetaService meta_;
  util::Rng clientRng_;

  // Capacity callbacks point into these, so each is reserved once in the
  // constructor and never grows past it.
  std::vector<NodeState> nodeStates_;
  std::vector<TargetState> targets_;
  std::vector<LinkState> links_;

  std::vector<sim::ResourceIndex> clientRes_;
  std::vector<sim::ResourceIndex> nodeNicRes_;
  std::vector<sim::ResourceIndex> serverNicRes_;
  std::vector<std::optional<sim::ResourceIndex>> ossRes_;
  std::vector<sim::ResourceIndex> ostRes_;
  std::vector<sim::ResourceIndex> mdtRes_;
  std::optional<sim::ResourceIndex> backbone_;
};

}  // namespace beesim::beegfs
