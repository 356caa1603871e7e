#include "core/allocation.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"

namespace beesim::core {

Allocation::Allocation(const std::vector<std::size_t>& targets,
                       const topo::ClusterConfig& cluster) {
  BEESIM_ASSERT(!targets.empty(), "allocation of an empty target set");
  perHost_.assign(cluster.hosts.size(), 0);
  for (const auto flat : targets) {
    const auto [host, indexInHost] = cluster.targetLocation(flat);
    (void)indexInHost;
    ++perHost_[host];
  }
}

Allocation::Allocation(std::vector<std::size_t> perHost) : perHost_(std::move(perHost)) {
  BEESIM_ASSERT(!perHost_.empty(), "allocation needs at least one host");
  BEESIM_ASSERT(totalTargets() > 0, "allocation must use at least one target");
}

std::size_t Allocation::totalTargets() const {
  return std::accumulate(perHost_.begin(), perHost_.end(), std::size_t{0});
}

std::size_t Allocation::minPerHost() const {
  return *std::min_element(perHost_.begin(), perHost_.end());
}

std::size_t Allocation::maxPerHost() const {
  return *std::max_element(perHost_.begin(), perHost_.end());
}

std::string Allocation::key() const {
  auto sorted = perHost_;
  std::sort(sorted.begin(), sorted.end());
  std::string out = "(";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(sorted[i]);
  }
  out += ')';
  return out;
}

double Allocation::balanceRatio() const {
  const auto max = maxPerHost();
  BEESIM_ASSERT(max > 0, "allocation must use at least one target");
  return static_cast<double>(minPerHost()) / static_cast<double>(max);
}

double Allocation::hotHostFraction() const {
  return static_cast<double>(maxPerHost()) / static_cast<double>(totalTargets());
}

}  // namespace beesim::core
