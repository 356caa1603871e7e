#include "sim/maxmin.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace beesim::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Slot f's share of each crossed resource: multiplicity · weight.  k = 1
/// (and an empty multiplicity span) yields the weight itself, bit for bit.
double loadOf(const SolverView& view, std::uint32_t f) {
  return view.multiplicity.empty()
             ? view.weight[f]
             : static_cast<double>(view.multiplicity[f]) * view.weight[f];
}
}  // namespace

void SolverWorkspace::ensureResourceCapacity(std::size_t resourceCount) {
  if (resStamp_.size() >= resourceCount) return;
  resStamp_.resize(resourceCount, 0);
  residual_.resize(resourceCount, 0.0);
  activeWeight_.resize(resourceCount, 0.0);
  activeCount_.resize(resourceCount, 0);
  saturated_.resize(resourceCount, 0);
}

std::size_t SolverWorkspace::solveSubset(const SolverView& view,
                                         std::span<const std::uint32_t> flows,
                                         std::span<double> rates) {
  if (flows.empty()) return 0;
  ensureResourceCapacity(view.capacity.size());
  ++stamp_;

  // Initialize the touched-resource scratch exactly once per resource: the
  // stamp makes the arrays self-clearing, so solve cost scales with the
  // subset, not with the global resource count.
  touchedRes_.clear();
  for (const auto f : flows) {
    BEESIM_ASSERT(view.adjLen[f] > 0, "every flow must cross >= 1 resource");
    BEESIM_ASSERT(view.weight[f] > 0.0, "flow weight must be positive");
    BEESIM_ASSERT(view.multiplicity.empty() || view.multiplicity[f] > 0,
                  "flow multiplicity must be positive");
    const auto* adj = view.adjacency.data() + view.adjOffset[f];
    for (std::uint32_t i = 0; i < view.adjLen[f]; ++i) {
      const auto r = adj[i];
      BEESIM_ASSERT(r < view.capacity.size(), "flow references an unknown resource");
      if (resStamp_[r] != stamp_) {
        resStamp_[r] = stamp_;
        touchedRes_.push_back(r);
        residual_[r] = view.capacity[r];
        activeWeight_[r] = 0.0;
        activeCount_[r] = 0;
        saturated_[r] = 0;
      }
    }
  }

  // activeWeight_[r]: total weight of still-filling flows crossing r.
  // activeCount_[r] tracks the same set exactly; when it reaches zero the
  // weight is reset to exactly 0.0 (repeated subtraction of doubles can
  // leave a ~1e-16 ghost that would stall the filling with delta == 0).
  activeFlows_.clear();
  bool anyCapped = false;
  for (const auto f : flows) {
    const auto* adj = view.adjacency.data() + view.adjOffset[f];
    bool dead = false;
    for (std::uint32_t i = 0; i < view.adjLen[f]; ++i) {
      if (view.capacity[adj[i]] <= 0.0) dead = true;
    }
    rates[f] = 0.0;
    if (dead) continue;  // rate stays 0
    const double load = loadOf(view, f);
    for (std::uint32_t i = 0; i < view.adjLen[f]; ++i) {
      activeWeight_[adj[i]] += load;
      ++activeCount_[adj[i]];
    }
    activeFlows_.push_back(f);
    if (view.rateCap[f] > 0.0) anyCapped = true;
  }

  // Only resources with filling weight enter the scans below: for the rest,
  // delta * 0 never moves the residual, and they can be neither the argmin
  // nor newly saturated.  Keeping touched order keeps every min() and every
  // residual update bit for bit what a scan over all touched resources does.
  activeRes_.clear();
  for (const auto r : touchedRes_) {
    if (activeWeight_[r] > 0.0) activeRes_.push_back(r);
  }

  std::size_t iterations = 0;
  while (!activeFlows_.empty()) {
    ++iterations;

    // The largest uniform *normalized* increment (rate per unit weight)
    // every active flow can absorb.
    double delta = kInf;
    for (const auto r : activeRes_) {
      delta = std::min(delta, residual_[r] / activeWeight_[r]);
    }
    if (anyCapped) {
      for (const auto f : activeFlows_) {
        if (view.rateCap[f] <= 0.0) continue;
        delta = std::min(delta, (view.rateCap[f] - rates[f]) / view.weight[f]);
      }
    }
    BEESIM_ASSERT(delta < kInf, "progressive filling found no bottleneck");
    delta = std::max(delta, 0.0);

    // Apply the increment.
    for (const auto f : activeFlows_) rates[f] += delta * view.weight[f];
    for (const auto r : activeRes_) residual_[r] -= delta * activeWeight_[r];

    // Freeze flows bottlenecked by a saturated resource or by their own cap.
    for (const auto r : activeRes_) {
      if (residual_[r] <= kSaturationEps * std::max(1.0, view.capacity[r])) {
        saturated_[r] = 1;
        residual_[r] = std::max(residual_[r], 0.0);
      }
    }
    std::size_t newlyFrozen = 0;
    std::size_t i = 0;
    while (i < activeFlows_.size()) {
      const auto f = activeFlows_[i];
      const auto* adj = view.adjacency.data() + view.adjOffset[f];
      bool stop = false;
      for (std::uint32_t k = 0; k < view.adjLen[f]; ++k) {
        if (saturated_[adj[k]]) {
          stop = true;
          break;
        }
      }
      if (!stop && view.rateCap[f] > 0.0 &&
          rates[f] >= view.rateCap[f] - kSaturationEps * std::max(1.0, view.rateCap[f])) {
        stop = true;
      }
      if (stop) {
        ++newlyFrozen;
        const double load = loadOf(view, f);
        for (std::uint32_t k = 0; k < view.adjLen[f]; ++k) {
          const auto r = adj[k];
          activeWeight_[r] -= load;
          if (--activeCount_[r] == 0) activeWeight_[r] = 0.0;
        }
        activeFlows_[i] = activeFlows_.back();
        activeFlows_.pop_back();
      } else {
        ++i;
      }
    }
    // Progress guarantee: every iteration freezes at least one flow (delta was
    // chosen as the tightest constraint).
    BEESIM_ASSERT(newlyFrozen > 0, "progressive filling made no progress");
    std::erase_if(activeRes_, [this](std::uint32_t r) { return activeWeight_[r] <= 0.0; });
  }

  return iterations;
}

std::string maxMinViolation(const SolverView& view, std::span<const std::uint32_t> flows,
                            std::span<const double> rates) {
  const auto slack = [](double x) { return kCertificateTol * std::max(1.0, std::abs(x)); };
  const auto slotName = [](std::uint32_t f) { return "slot " + std::to_string(f); };
  // Per resource: the load the rates place on it, and the largest normalized
  // rate among the slots crossing it.
  std::vector<double> used(view.capacity.size(), 0.0);
  std::vector<double> maxNorm(view.capacity.size(), 0.0);
  for (const auto f : flows) {
    const double rate = rates[f];
    if (!(rate >= 0.0) || !std::isfinite(rate)) {
      return slotName(f) + " has rate " + std::to_string(rate);
    }
    if (view.rateCap[f] > 0.0 && rate > view.rateCap[f] + slack(view.rateCap[f])) {
      return slotName(f) + " exceeds its cap (" + std::to_string(rate) + " > " +
             std::to_string(view.rateCap[f]) + ")";
    }
    const double members = view.multiplicity.empty() ? 1.0 : view.multiplicity[f];
    const auto* adj = view.adjacency.data() + view.adjOffset[f];
    for (std::uint32_t i = 0; i < view.adjLen[f]; ++i) {
      used[adj[i]] += members * rate;
      maxNorm[adj[i]] = std::max(maxNorm[adj[i]], rate / view.weight[f]);
    }
  }
  for (const auto f : flows) {
    const double cap = view.rateCap[f];
    bool blocked = cap > 0.0 && rates[f] >= cap - slack(cap);
    const double norm = rates[f] / view.weight[f];
    const auto* adj = view.adjacency.data() + view.adjOffset[f];
    for (std::uint32_t i = 0; i < view.adjLen[f]; ++i) {
      const auto r = adj[i];
      const double capacity = view.capacity[r];
      if (used[r] > capacity + slack(capacity)) {
        return "resource " + std::to_string(r) + " is overloaded (" + std::to_string(used[r]) +
               " > " + std::to_string(capacity) + ")";
      }
      blocked = blocked ||
                (used[r] >= capacity - slack(capacity) && maxNorm[r] <= norm + slack(norm));
    }
    if (!blocked) {
      return slotName(f) + " (rate " + std::to_string(rates[f]) +
             ") crosses no saturated resource where it has the largest normalized rate";
    }
  }
  return {};
}

SolverResult solveMaxMin(std::span<const SolverResource> resources,
                         std::span<const SolverFlow> flows) {
  const std::size_t nRes = resources.size();
  const std::size_t nFlows = flows.size();

  SolverResult result;
  result.rates.assign(nFlows, 0.0);
  if (nFlows == 0) return result;

  // Flatten to the CSR view the workspace core consumes.  This legacy entry
  // point allocates per call; hot paths hold a workspace and flat arrays of
  // their own (see FluidSimulator).
  std::vector<double> capacity(nRes);
  for (std::size_t r = 0; r < nRes; ++r) {
    BEESIM_ASSERT(resources[r].capacity >= 0.0, "resource capacity must be >= 0");
    capacity[r] = resources[r].capacity;
  }
  std::vector<std::uint32_t> adjacency;
  std::vector<std::uint32_t> adjOffset(nFlows);
  std::vector<std::uint32_t> adjLen(nFlows);
  std::vector<double> weight(nFlows);
  std::vector<double> rateCap(nFlows);
  std::vector<std::uint32_t> subset(nFlows);
  for (std::size_t f = 0; f < nFlows; ++f) {
    adjOffset[f] = static_cast<std::uint32_t>(adjacency.size());
    adjLen[f] = static_cast<std::uint32_t>(flows[f].resources.size());
    adjacency.insert(adjacency.end(), flows[f].resources.begin(), flows[f].resources.end());
    weight[f] = flows[f].weight;
    rateCap[f] = flows[f].rateCap;
    subset[f] = static_cast<std::uint32_t>(f);
  }

  SolverWorkspace workspace;
  result.iterations = workspace.solveSubset(
      SolverView{capacity, adjacency, adjOffset, adjLen, weight, rateCap}, subset,
      result.rates);
  return result;
}

}  // namespace beesim::sim
