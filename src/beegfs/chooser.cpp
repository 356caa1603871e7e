#include "beegfs/chooser.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "beegfs/mgmt.hpp"
#include "util/error.hpp"

namespace beesim::beegfs {

namespace {

void checkCount(std::size_t count, const topo::ClusterConfig& cluster,
                const TargetFilter& eligible) {
  BEESIM_ASSERT(count >= 1, "stripe count must be >= 1");
  BEESIM_ASSERT(count <= cluster.targetCount(),
                "stripe count exceeds the number of targets in the deployment");
  if (!eligible) return;
  std::size_t healthy = 0;
  for (std::size_t t = 0; t < cluster.targetCount(); ++t) {
    if (eligible(t)) ++healthy;
  }
  BEESIM_ASSERT(healthy >= count,
                "stripe count exceeds the number of eligible (online) targets");
}

/// Eligible flat targets of each host, in flat-index order.  With no filter
/// this is exactly [flatTargetIndex(h, 0..n)], so downstream rng draws match
/// the unfiltered implementations bit for bit.
std::vector<std::vector<std::size_t>> eligiblePerHost(
    const topo::ClusterConfig& cluster, const TargetFilter& eligible) {
  std::vector<std::vector<std::size_t>> perHost(cluster.hosts.size());
  for (std::size_t h = 0; h < cluster.hosts.size(); ++h) {
    perHost[h].reserve(cluster.hosts[h].targets.size());
    for (std::size_t t = 0; t < cluster.hosts[h].targets.size(); ++t) {
      const std::size_t flat = cluster.flatTargetIndex(h, t);
      if (!eligible || eligible(flat)) perHost[h].push_back(flat);
    }
  }
  return perHost;
}

}  // namespace

RoundRobinChooser::RoundRobinChooser(std::vector<std::size_t> order, double raceProbability,
                                     ChooserKind kind)
    : order_(std::move(order)), raceProbability_(raceProbability), kind_(kind) {
  BEESIM_ASSERT(!order_.empty(), "round-robin order must not be empty");
  BEESIM_ASSERT(raceProbability_ >= 0.0 && raceProbability_ <= 1.0,
                "race probability must be in [0, 1]");
}

void RoundRobinChooser::randomizePhase(util::Rng& rng, std::size_t stride) {
  BEESIM_ASSERT(stride >= 1, "phase stride must be >= 1");
  const std::size_t phases = (order_.size() + stride - 1) / stride;
  pointer_ = (stride * static_cast<std::size_t>(
                           rng.uniformInt(0, static_cast<std::int64_t>(phases) - 1))) %
             order_.size();
}

std::vector<std::size_t> RoundRobinChooser::choose(std::size_t count,
                                                   const topo::ClusterConfig& cluster,
                                                   util::Rng& rng,
                                                   const TargetFilter& eligible) {
  checkCount(count, cluster, eligible);
  BEESIM_ASSERT(order_.size() == cluster.targetCount(),
                "round-robin order does not match the cluster's target count");
  // Walk the cyclic order from the pointer, skipping ineligible targets (a
  // real mgmtd hands out the next *online* targets).  With every target
  // eligible, walked == count and this is the classic sliding window.
  std::vector<std::size_t> picks;
  picks.reserve(count);
  std::size_t walked = 0;
  while (picks.size() < count) {
    BEESIM_ASSERT(walked < order_.size(), "round-robin walked a full lap short");
    const std::size_t candidate = order_[(pointer_ + walked) % order_.size()];
    ++walked;
    if (!eligible || eligible(candidate)) picks.push_back(candidate);
  }
  // The create race: with probability raceProbability_ the pointer is not
  // advanced, so the next create sees the same window.
  if (!rng.bernoulli(raceProbability_)) {
    pointer_ = (pointer_ + walked) % order_.size();
  }
  return picks;
}

std::vector<std::size_t> RandomChooser::choose(std::size_t count,
                                               const topo::ClusterConfig& cluster,
                                               util::Rng& rng,
                                               const TargetFilter& eligible) {
  checkCount(count, cluster, eligible);
  if (!eligible) return rng.sampleWithoutReplacement(cluster.targetCount(), count);
  std::vector<std::size_t> healthy;
  healthy.reserve(cluster.targetCount());
  for (std::size_t t = 0; t < cluster.targetCount(); ++t) {
    if (eligible(t)) healthy.push_back(t);
  }
  // All healthy: same population size and an identity index map, so the rng
  // stream and the picks match the unfiltered branch exactly.
  auto indices = rng.sampleWithoutReplacement(healthy.size(), count);
  for (auto& i : indices) i = healthy[i];
  return indices;
}

std::vector<std::size_t> BalancedChooser::choose(std::size_t count,
                                                 const topo::ClusterConfig& cluster,
                                                 util::Rng& rng,
                                                 const TargetFilter& eligibleFilter) {
  checkCount(count, cluster, eligibleFilter);
  const std::size_t hosts = cluster.hosts.size();
  const auto hostTargets = eligiblePerHost(cluster, eligibleFilter);

  // Distribute `count` across hosts as evenly as their capacities allow:
  // start with floor(count / hosts) everywhere, then hand out the remainder
  // to randomly-chosen hosts (respecting per-host eligible-target counts).
  std::vector<std::size_t> perHost(hosts, 0);
  std::size_t remaining = count;
  // Repeatedly add one target to every host that still has room, a "level"
  // at a time, so uneven per-host capacities are handled correctly.
  while (remaining > 0) {
    std::vector<std::size_t> eligible;
    for (std::size_t h = 0; h < hosts; ++h) {
      if (perHost[h] < hostTargets[h].size()) eligible.push_back(h);
    }
    BEESIM_ASSERT(!eligible.empty(), "balanced chooser ran out of targets");
    if (remaining >= eligible.size()) {
      for (const auto h : eligible) ++perHost[h];
      remaining -= eligible.size();
    } else {
      // Remainder level: random subset of eligible hosts gets one extra.
      auto lucky = rng.sampleWithoutReplacement(eligible.size(), remaining);
      for (const auto i : lucky) ++perHost[eligible[i]];
      remaining = 0;
    }
  }

  std::vector<std::size_t> picks;
  picks.reserve(count);
  for (std::size_t h = 0; h < hosts; ++h) {
    auto local = rng.sampleWithoutReplacement(hostTargets[h].size(), perHost[h]);
    for (const auto t : local) picks.push_back(hostTargets[h][t]);
  }
  // Shuffle so chunk 0 does not always live on host 0.
  rng.shuffle(picks);
  return picks;
}

WeightedChooser::WeightedChooser(std::unique_ptr<TargetChooser> inner,
                                 const ManagementService& mgmt)
    : inner_(std::move(inner)), mgmt_(mgmt) {
  BEESIM_ASSERT(inner_ != nullptr, "weighted chooser needs an inner chooser");
}

std::vector<std::size_t> WeightedChooser::choose(std::size_t count,
                                                 const topo::ClusterConfig& cluster,
                                                 util::Rng& rng,
                                                 const TargetFilter& eligible) {
  const auto& weights = mgmt_.hostWeights();
  BEESIM_ASSERT(weights.size() == cluster.hosts.size(),
                "mgmtd host weights do not match the cluster");
  // Uniform weights (the default, and the controller's disengaged state):
  // behave exactly like the inner chooser, rng stream included.
  const bool uniform = std::all_of(weights.begin(), weights.end(),
                                   [&](double w) { return w == weights.front(); });
  if (uniform) return inner_->choose(count, cluster, rng, eligible);

  checkCount(count, cluster, eligible);
  const std::size_t hosts = cluster.hosts.size();
  const auto hostTargets = eligiblePerHost(cluster, eligible);

  // Quota per host by largest remainder on the published weights: hosts with
  // no eligible targets contribute weight 0, quotas are capped by per-host
  // capacity, and leftovers go to the largest fractional deficit (ties to
  // the lowest host index).  Deterministic -- no rng until the within-host
  // draws -- so identical metric histories yield identical placements.
  std::vector<double> w(hosts, 0.0);
  double sumW = 0.0;
  for (std::size_t h = 0; h < hosts; ++h) {
    if (!hostTargets[h].empty()) w[h] = weights[h];
    sumW += w[h];
  }
  if (sumW <= 0.0) {
    // Every weighted host is ineligible (or all weights zero): the bias has
    // nothing to say, fall back to the inner policy.
    return inner_->choose(count, cluster, rng, eligible);
  }

  std::vector<double> ideal(hosts, 0.0);
  std::vector<std::size_t> quota(hosts, 0);
  std::size_t assigned = 0;
  for (std::size_t h = 0; h < hosts; ++h) {
    ideal[h] = static_cast<double>(count) * w[h] / sumW;
    quota[h] = std::min(static_cast<std::size_t>(ideal[h]), hostTargets[h].size());
    assigned += quota[h];
  }
  while (assigned < count) {
    std::size_t best = hosts;
    // Start below any real deficit: once a zero-weight host absorbs a spill
    // pick its deficit is a genuine -1, -2, ... and must still win over
    // "no candidate yet".
    double bestDeficit = -std::numeric_limits<double>::infinity();
    for (std::size_t h = 0; h < hosts; ++h) {
      if (quota[h] >= hostTargets[h].size()) continue;
      const double deficit = ideal[h] - static_cast<double>(quota[h]);
      if (deficit > bestDeficit) {
        bestDeficit = deficit;
        best = h;
      }
    }
    BEESIM_ASSERT(best < hosts, "weighted chooser ran out of eligible targets");
    ++quota[best];
    ++assigned;
  }

  std::vector<std::size_t> picks;
  picks.reserve(count);
  for (std::size_t h = 0; h < hosts; ++h) {
    auto local = rng.sampleWithoutReplacement(hostTargets[h].size(), quota[h]);
    for (const auto t : local) picks.push_back(hostTargets[h][t]);
  }
  rng.shuffle(picks);
  return picks;
}

std::vector<std::size_t> plafrimRoundRobinOrder(const topo::ClusterConfig& cluster) {
  // Reconstructed from the paper: count-4 creates always produce the
  // placements (101,201,202,203) or (204,102,103,104).  Both are windows of
  // the cyclic order [101, 201, 202, 203, 204, 102, 103, 104]:
  // first target of host 0, all targets of the remaining hosts, then the
  // remaining targets of host 0.
  BEESIM_ASSERT(!cluster.hosts.empty(), "cluster has no hosts");
  std::vector<std::size_t> order;
  order.reserve(cluster.targetCount());
  order.push_back(cluster.flatTargetIndex(0, 0));
  for (std::size_t h = 1; h < cluster.hosts.size(); ++h) {
    for (std::size_t t = 0; t < cluster.hosts[h].targets.size(); ++t) {
      order.push_back(cluster.flatTargetIndex(h, t));
    }
  }
  for (std::size_t t = 1; t < cluster.hosts[0].targets.size(); ++t) {
    order.push_back(cluster.flatTargetIndex(0, t));
  }
  return order;
}

std::vector<std::size_t> interleavedOrder(const topo::ClusterConfig& cluster) {
  std::vector<std::size_t> order;
  order.reserve(cluster.targetCount());
  std::size_t level = 0;
  bool any = true;
  while (any) {
    any = false;
    for (std::size_t h = 0; h < cluster.hosts.size(); ++h) {
      if (level < cluster.hosts[h].targets.size()) {
        order.push_back(cluster.flatTargetIndex(h, level));
        any = true;
      }
    }
    ++level;
  }
  return order;
}

std::unique_ptr<TargetChooser> makeChooser(const BeegfsParams& params,
                                           const topo::ClusterConfig& cluster) {
  switch (params.chooser) {
    case ChooserKind::kRoundRobin:
      return std::make_unique<RoundRobinChooser>(plafrimRoundRobinOrder(cluster),
                                                 params.rrCreateRaceProbability,
                                                 ChooserKind::kRoundRobin);
    case ChooserKind::kRoundRobinInterleaved:
      return std::make_unique<RoundRobinChooser>(interleavedOrder(cluster),
                                                 params.rrCreateRaceProbability,
                                                 ChooserKind::kRoundRobinInterleaved);
    case ChooserKind::kRandom:
      return std::make_unique<RandomChooser>();
    case ChooserKind::kBalanced:
      return std::make_unique<BalancedChooser>();
  }
  BEESIM_ASSERT(false, "unknown chooser kind");
  return nullptr;  // unreachable
}

}  // namespace beesim::beegfs
