// Management service (beegfs-mgmtd): the registry every other component
// consults to find targets and services (Section II, Figure 1).
//
// In the simulation the registry is the authoritative mapping between flat
// target indices, their hosts, their BeeGFS-style numeric ids (101..),
// online state and consumed capacity.  Choosers consult it to skip offline
// targets; the filesystem updates per-target usage as files grow, enabling
// capacity-aware experiments and failure injection in tests.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "topology/cluster.hpp"
#include "util/units.hpp"

namespace beesim::beegfs {

/// State of one registered storage target.
struct TargetEntry {
  std::size_t flatIndex = 0;
  std::size_t host = 0;
  std::size_t indexInHost = 0;
  int beegfsNum = 0;      // e.g. 101, 202
  std::string name;
  bool online = true;
  util::Bytes capacity = 0;
  util::Bytes used = 0;
};

/// Gray-failure state of one storage host, driven by the HealthMonitor's
/// suspect -> quarantined -> probation machine (DESIGN.md §2.9).  Registered
/// here -- not inside the monitor -- because other components consult it:
/// the WeightedChooser drains creates away from quarantined hosts via the
/// host weights, and the hedging picker avoids them as hedge destinations.
enum class HostHealth {
  kHealthy,      ///< no evidence of trouble
  kSuspect,      ///< below the peer-relative ratio, patience running
  kQuarantined,  ///< drained: reduced create weight, shunned by hedges
  kProbation,    ///< partially re-admitted, watched for a relapse
};

const char* hostHealthName(HostHealth state);

/// Consistency state of a buddy-mirror group (beegfs-ctl --listmirrorgroups
/// reports the same three states per target).
enum class MirrorState {
  /// Both copies identical; writes are replicated synchronously.
  kGood,
  /// The secondary is stale (it was offline, or a failover just promoted it
  /// from the other role); the delta is tracked in `resyncDebt` and streamed
  /// back by a background resync once both members are online.
  kNeedsResync,
  /// No consistent copy is reachable (primary died while the secondary was
  /// offline or stale).  The group rejoins as needs-resync when a member
  /// returns.
  kBad,
};

const char* mirrorStateName(MirrorState state);

/// One storage buddy-mirror group: a primary/secondary target pair on
/// distinct hosts.  `primary`/`secondary` are flat target indices and swap
/// on failover; `resyncDebt` is the byte delta the secondary is missing.
struct MirrorGroup {
  std::size_t id = 0;
  std::size_t primary = 0;
  std::size_t secondary = 0;
  MirrorState state = MirrorState::kGood;
  util::Bytes resyncDebt = 0;
};

class ManagementService {
 public:
  /// Observer of target online-state flips; fired by setTargetOnline only on
  /// an actual change (the client uses this as the mgmtd switchover signal).
  using TargetStateListener = std::function<void(std::size_t flatIndex, bool online)>;

  /// Registers every target of the cluster.  `targetCapacity` is the usable
  /// capacity attributed to each OST (PlaFRIM: 131 TB / 8).
  ManagementService(const topo::ClusterConfig& cluster, util::Bytes targetCapacity);

  std::size_t targetCount() const { return targets_.size(); }
  const TargetEntry& target(std::size_t flatIndex) const;

  /// All currently-online flat target indices.
  std::vector<std::size_t> onlineTargets() const;

  /// Mark a target offline/online (failure injection).
  void setTargetOnline(std::size_t flatIndex, bool online);

  /// Account `bytes` written to a target.  Throws ConfigError if the target
  /// would exceed its capacity (capacity 0 disables accounting).
  void recordUsage(std::size_t flatIndex, util::Bytes bytes);

  /// Number of storage hosts in the registry.
  std::size_t hostCount() const { return hostTargetCount_.size(); }

  /// Targets per host (registry view).
  std::size_t targetsOnHost(std::size_t host) const;

  // -- Per-host chooser weights (rebalance retarget lever). ----------------

  /// Create-bias weight of one storage host, consulted by WeightedChooser:
  /// new file stripes are distributed across hosts proportionally to these.
  /// All 1.0 by default (uniform = chooser behaves exactly as unwrapped).
  /// Throws ContractError on negative or non-finite weights.
  void setHostWeight(std::size_t host, double weight);
  const std::vector<double>& hostWeights() const { return hostWeights_; }

  /// Back to uniform weights (controller disengaging).
  void resetHostWeights();

  // -- Per-host gray-failure state (HealthMonitor; DESIGN.md §2.9). --------

  /// Health state of one storage host.  All kHealthy by default; only the
  /// HealthMonitor writes these.
  void setHostHealth(std::size_t host, HostHealth state);
  HostHealth hostHealth(std::size_t host) const;

  /// Register a buddy-mirror group.  Throws ConfigError unless both targets
  /// exist, sit on distinct hosts and belong to no other group.  Returns the
  /// group id.
  std::size_t registerMirrorGroup(std::size_t primary, std::size_t secondary);

  std::size_t mirrorGroupCount() const { return groups_.size(); }
  const MirrorGroup& mirrorGroup(std::size_t id) const;

  /// Group containing `flatIndex`, if any (O(1)).
  std::optional<std::size_t> mirrorGroupOf(std::size_t flatIndex) const;

  /// Swap primary and secondary after a primary failure.  The promoted
  /// target must hold a consistent copy: this throws ContractError unless
  /// the group is in state good and the secondary is online.  The group
  /// leaves in state needs-resync (the old primary is stale now).
  void failOverMirrorGroup(std::size_t id);

  /// Bring a bad group back into service with `primary` (which must be
  /// online and a member) as its authoritative side; state becomes
  /// needs-resync with the debt untouched.
  void reviveMirrorGroup(std::size_t id, std::size_t primary);

  void setMirrorState(std::size_t id, MirrorState state);

  /// Grow / settle the byte delta the secondary is missing.
  void addResyncDebt(std::size_t id, util::Bytes bytes);
  void settleResyncDebt(std::size_t id, util::Bytes bytes);

  void addTargetStateListener(TargetStateListener listener);

 private:
  MirrorGroup& mutableGroup(std::size_t id);

  std::vector<TargetEntry> targets_;
  std::vector<std::size_t> hostTargetCount_;
  std::vector<double> hostWeights_;
  std::vector<HostHealth> hostHealth_;
  std::vector<MirrorGroup> groups_;
  /// flat target index -> group id (or npos); sized lazily on registration.
  std::vector<std::size_t> groupOfTarget_;
  std::vector<TargetStateListener> listeners_;
};

/// Default buddy pairing for a cluster: target t of host h pairs with target
/// t of host h+1 (hosts taken two by two), orientation alternating per group
/// so primaries spread evenly across both hosts of a pair.  Empty when fewer
/// than two hosts exist.
std::vector<std::pair<std::size_t, std::size_t>> defaultMirrorPairs(
    const topo::ClusterConfig& cluster);

}  // namespace beesim::beegfs
