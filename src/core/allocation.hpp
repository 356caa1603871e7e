// OST allocation analysis -- the paper's central abstraction (Section IV-C).
//
// An allocation describes how a file's stripe targets are distributed over
// the storage hosts.  For PlaFRIM's two servers the paper writes it as
// (min, max), e.g. a four-target file with one target on one server and
// three on the other is "(1,3)" (Fig. 7).  The generalization to H hosts is
// the sorted per-host count vector.
#pragma once

#include <string>
#include <vector>

#include "topology/cluster.hpp"

namespace beesim::core {

class Allocation {
 public:
  /// Classify `targets` (flat indices) on `cluster`.
  Allocation(const std::vector<std::size_t>& targets, const topo::ClusterConfig& cluster);

  /// Construct directly from per-host counts (analytic studies).
  explicit Allocation(std::vector<std::size_t> perHost);

  /// Targets on each host (host order preserved).
  const std::vector<std::size_t>& perHost() const { return perHost_; }

  std::size_t totalTargets() const;

  /// Fewest / most targets on any host.
  std::size_t minPerHost() const;
  std::size_t maxPerHost() const;

  /// The paper's "(min,max)" key for two-host systems; for more hosts the
  /// sorted count tuple, e.g. "(0,2,3)".
  std::string key() const;

  /// min/max ratio in [0,1]; 1 = perfectly balanced, 0 = some host unused
  /// (with >= 2 hosts).  The paper shows Scenario-1 performance increases
  /// with this ratio (Fig. 8).
  double balanceRatio() const;

  /// Largest fraction of the data carried by a single host
  /// (max / total).  Scenario-1 steady-state bandwidth is
  /// linkBandwidth / hotHostFraction (see analytic.hpp).
  double hotHostFraction() const;

  friend bool operator==(const Allocation& a, const Allocation& b) {
    return a.perHost_ == b.perHost_;
  }

 private:
  std::vector<std::size_t> perHost_;
};

}  // namespace beesim::core
