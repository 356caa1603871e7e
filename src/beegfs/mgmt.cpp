#include "beegfs/mgmt.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace beesim::beegfs {

namespace {
constexpr std::size_t kNoGroup = std::numeric_limits<std::size_t>::max();
}  // namespace

ManagementService::ManagementService(const topo::ClusterConfig& cluster,
                                     util::Bytes targetCapacity) {
  hostWeights_.assign(cluster.hosts.size(), 1.0);
  hostHealth_.assign(cluster.hosts.size(), HostHealth::kHealthy);
  for (std::size_t h = 0; h < cluster.hosts.size(); ++h) {
    for (std::size_t t = 0; t < cluster.hosts[h].targets.size(); ++t) {
      TargetEntry entry;
      entry.flatIndex = cluster.flatTargetIndex(h, t);
      entry.host = h;
      entry.indexInHost = t;
      entry.beegfsNum = cluster.beegfsTargetNum(entry.flatIndex);
      entry.name = cluster.hosts[h].targets[t].name;
      entry.capacity = targetCapacity;
      targets_.push_back(std::move(entry));
    }
  }
  // flatTargetIndex is row-major over hosts, so entries are already sorted by
  // flat index; assert the invariant the accessors rely on.
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    BEESIM_ASSERT(targets_[i].flatIndex == i, "registry order broken");
  }
}

const TargetEntry& ManagementService::target(std::size_t flatIndex) const {
  BEESIM_ASSERT(flatIndex < targets_.size(), "unknown target");
  return targets_[flatIndex];
}

std::vector<std::size_t> ManagementService::onlineTargets() const {
  std::vector<std::size_t> online;
  for (const auto& t : targets_) {
    if (t.online) online.push_back(t.flatIndex);
  }
  return online;
}

void ManagementService::setTargetOnline(std::size_t flatIndex, bool online) {
  BEESIM_ASSERT(flatIndex < targets_.size(), "unknown target");
  if (targets_[flatIndex].online == online) return;
  targets_[flatIndex].online = online;
  for (const auto& listener : listeners_) listener(flatIndex, online);
}

void ManagementService::recordUsage(std::size_t flatIndex, util::Bytes bytes) {
  BEESIM_ASSERT(flatIndex < targets_.size(), "unknown target");
  auto& entry = targets_[flatIndex];
  if (entry.capacity > 0 && entry.used + bytes > entry.capacity) {
    throw util::ConfigError("target " + entry.name + " is full");
  }
  entry.used += bytes;
}

void ManagementService::setHostWeight(std::size_t host, double weight) {
  BEESIM_ASSERT(host < hostWeights_.size(), "unknown host");
  BEESIM_ASSERT(weight >= 0.0 && weight == weight && weight <= 1e12,
                "host weight must be finite and >= 0");
  hostWeights_[host] = weight;
}

void ManagementService::resetHostWeights() {
  std::fill(hostWeights_.begin(), hostWeights_.end(), 1.0);
}

void ManagementService::setHostHealth(std::size_t host, HostHealth state) {
  BEESIM_ASSERT(host < hostHealth_.size(), "unknown host");
  hostHealth_[host] = state;
}

HostHealth ManagementService::hostHealth(std::size_t host) const {
  BEESIM_ASSERT(host < hostHealth_.size(), "unknown host");
  return hostHealth_[host];
}

std::size_t ManagementService::registerMirrorGroup(std::size_t primary,
                                                   std::size_t secondary) {
  if (primary >= targets_.size() || secondary >= targets_.size()) {
    throw util::ConfigError("mirror group references an unknown target");
  }
  if (targets_[primary].host == targets_[secondary].host) {
    throw util::ConfigError("mirror group members " + targets_[primary].name +
                            " and " + targets_[secondary].name +
                            " sit on the same host");
  }
  if (groupOfTarget_.empty()) groupOfTarget_.assign(targets_.size(), kNoGroup);
  for (const std::size_t member : {primary, secondary}) {
    if (groupOfTarget_[member] != kNoGroup) {
      throw util::ConfigError("target " + targets_[member].name +
                              " already belongs to a mirror group");
    }
  }
  MirrorGroup group;
  group.id = groups_.size();
  group.primary = primary;
  group.secondary = secondary;
  groupOfTarget_[primary] = group.id;
  groupOfTarget_[secondary] = group.id;
  groups_.push_back(group);
  return group.id;
}

const MirrorGroup& ManagementService::mirrorGroup(std::size_t id) const {
  BEESIM_ASSERT(id < groups_.size(), "unknown mirror group");
  return groups_[id];
}

MirrorGroup& ManagementService::mutableGroup(std::size_t id) {
  BEESIM_ASSERT(id < groups_.size(), "unknown mirror group");
  return groups_[id];
}

std::optional<std::size_t> ManagementService::mirrorGroupOf(
    std::size_t flatIndex) const {
  BEESIM_ASSERT(flatIndex < targets_.size(), "unknown target");
  if (flatIndex >= groupOfTarget_.size()) return std::nullopt;
  const std::size_t id = groupOfTarget_[flatIndex];
  if (id == kNoGroup) return std::nullopt;
  return id;
}

void ManagementService::failOverMirrorGroup(std::size_t id) {
  auto& group = mutableGroup(id);
  BEESIM_ASSERT(group.state == MirrorState::kGood,
                "failover would promote a stale or bad secondary");
  BEESIM_ASSERT(targets_[group.secondary].online,
                "failover would promote an offline secondary");
  std::swap(group.primary, group.secondary);
  group.state = MirrorState::kNeedsResync;
}

void ManagementService::reviveMirrorGroup(std::size_t id, std::size_t primary) {
  auto& group = mutableGroup(id);
  BEESIM_ASSERT(group.state == MirrorState::kBad, "group is not bad");
  BEESIM_ASSERT(primary == group.primary || primary == group.secondary,
                "revive target is not a member");
  BEESIM_ASSERT(targets_[primary].online, "revive target is offline");
  if (primary != group.primary) std::swap(group.primary, group.secondary);
  group.state = MirrorState::kNeedsResync;
}

void ManagementService::setMirrorState(std::size_t id, MirrorState state) {
  mutableGroup(id).state = state;
}

void ManagementService::addResyncDebt(std::size_t id, util::Bytes bytes) {
  mutableGroup(id).resyncDebt += bytes;
}

void ManagementService::settleResyncDebt(std::size_t id, util::Bytes bytes) {
  auto& group = mutableGroup(id);
  BEESIM_ASSERT(bytes <= group.resyncDebt, "settling more debt than owed");
  group.resyncDebt -= bytes;
}

void ManagementService::addTargetStateListener(TargetStateListener listener) {
  listeners_.push_back(std::move(listener));
}

std::vector<std::pair<std::size_t, std::size_t>> defaultMirrorPairs(
    const topo::ClusterConfig& cluster) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t h = 0; h + 1 < cluster.hosts.size(); h += 2) {
    const std::size_t count = std::min(cluster.hosts[h].targets.size(),
                                       cluster.hosts[h + 1].targets.size());
    for (std::size_t t = 0; t < count; ++t) {
      const std::size_t a = cluster.flatTargetIndex(h, t);
      const std::size_t b = cluster.flatTargetIndex(h + 1, t);
      // Alternate orientation so each host of the pair is primary for half
      // of its targets (balanced foreground load while healthy).
      if (pairs.size() % 2 == 0) {
        pairs.emplace_back(a, b);
      } else {
        pairs.emplace_back(b, a);
      }
    }
  }
  return pairs;
}

}  // namespace beesim::beegfs
