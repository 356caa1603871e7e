#include "sim/maxmin.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace beesim::sim {

namespace {
// Relative tolerance used to decide that a resource is saturated.  Rates are
// MiB/s magnitudes (1e0..1e5), so an absolute epsilon scaled to the capacity
// is robust.
constexpr double kEps = 1e-9;

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
  resDense_.resize(resourceCount, 0);
}

std::size_t SolverWorkspace::solveSubset(const SolverView& view,
                                         std::span<const std::uint32_t> flows,
                                         std::span<double> rates) {
  if (flows.empty()) return 0;
  ensureResourceCapacity(view.capacity.size());
  ++stamp_;

  // Single compaction pass: discover the subset's resources in first-touch
  // order (assigning dense ids) while compacting the flows into dense SoA
  // vectors with locally renumbered adjacency.  A flow's resources are all
  // dense-numbered by the time its own adjacency scan finishes, so one pass
  // suffices; the stamp makes resDense_ self-clearing, so compaction cost
  // scales with the subset, not with the global resource count.  Flows
  // crossing a zero-capacity resource are dead: their rate stays 0 and they
  // contribute no weight (documented degenerate result).
  rCapacity_.clear();
  rResidual_.clear();
  rActiveWeight_.clear();
  rActiveCount_.clear();
  rSaturated_.clear();
  fSlot_.clear();
  fWeight_.clear();
  fLoad_.clear();
  fActiveW_.clear();
  fCapOrInf_.clear();
  fRate_.clear();
  fAdjOffset_.clear();
  fAdjLen_.clear();
  denseAdj_.clear();
  activeList_.clear();
  std::size_t capActive = 0;  // active flows whose own rate cap can bind
  for (const auto f : flows) {
    BEESIM_ASSERT(view.adjLen[f] > 0, "every flow must cross >= 1 resource");
    BEESIM_ASSERT(view.weight[f] > 0.0, "flow weight must be positive");
    BEESIM_ASSERT(view.multiplicity.empty() || view.multiplicity[f] > 0,
                  "flow multiplicity must be positive");
    const auto j = static_cast<std::uint32_t>(fSlot_.size());
    const auto* adj = view.adjacency.data() + view.adjOffset[f];
    const auto len = view.adjLen[f];
    const double w = view.weight[f];
    const double load = loadOf(view, f);
    fSlot_.push_back(f);
    fWeight_.push_back(w);
    fLoad_.push_back(load);
    fRate_.push_back(0.0);
    fAdjOffset_.push_back(static_cast<std::uint32_t>(denseAdj_.size()));
    fAdjLen_.push_back(len);
    bool dead = false;
    for (std::uint32_t i = 0; i < len; ++i) {
      const auto r = adj[i];
      BEESIM_ASSERT(r < view.capacity.size(), "flow references an unknown resource");
      if (resStamp_[r] != stamp_) {
        resStamp_[r] = stamp_;
        resDense_[r] = static_cast<std::uint32_t>(rCapacity_.size());
        rCapacity_.push_back(view.capacity[r]);
        rResidual_.push_back(view.capacity[r]);
        rActiveWeight_.push_back(0.0);
        rActiveCount_.push_back(0);
        rSaturated_.push_back(0);
      }
      const auto d = resDense_[r];
      denseAdj_.push_back(d);
      if (rCapacity_[d] <= 0.0) dead = true;
    }
    if (dead) {
      fActiveW_.push_back(0.0);
      fCapOrInf_.push_back(kInf);
      continue;
    }
    fActiveW_.push_back(w);
    fCapOrInf_.push_back(view.rateCap[f] > 0.0 ? view.rateCap[f] : kInf);
    if (view.rateCap[f] > 0.0) ++capActive;
    for (std::uint32_t i = 0; i < len; ++i) {
      const auto d = denseAdj_[fAdjOffset_[j] + i];
      rActiveWeight_[d] += load;
      ++rActiveCount_[d];
    }
    activeList_.push_back(j);
  }

  const std::size_t m = rCapacity_.size();
  const std::size_t n = fSlot_.size();
  std::size_t iterations = 0;
  while (!activeList_.empty()) {
    ++iterations;

    // The largest uniform *normalized* increment (rate per unit weight)
    // every active flow can absorb.  The resource scan is branch-free:
    // resources with no active weight yield +inf.  The rate-cap scan runs
    // only while a capped flow is still active (uncapped/frozen flows would
    // contribute +inf through the fCapOrInf sentinel, and min over doubles
    // is order-independent, so skipping them cannot change delta).
    double delta = kInf;
    for (std::size_t i = 0; i < m; ++i) {
      const double w = rActiveWeight_[i];
      const double c = w > 0.0 ? rResidual_[i] / w : kInf;
      if (c < delta) delta = c;
    }
    if (capActive > 0) {
      for (const auto j : activeList_) {
        const double c = (fCapOrInf_[j] - fRate_[j]) / fWeight_[j];
        if (c < delta) delta = c;
      }
    }
    BEESIM_ASSERT(delta < kInf, "progressive filling found no bottleneck");
    delta = std::max(delta, 0.0);

    // Apply the increment (frozen flows add delta * 0.0, exactly a no-op
    // for the finite non-negative rates this solver produces).
    for (std::size_t j = 0; j < n; ++j) fRate_[j] += delta * fActiveW_[j];
    for (std::size_t i = 0; i < m; ++i) rResidual_[i] -= delta * rActiveWeight_[i];

    // Freeze flows bottlenecked by a saturated resource or by their own cap.
    for (std::size_t i = 0; i < m; ++i) {
      if (rActiveWeight_[i] > 0.0 &&
          rResidual_[i] <= kEps * std::max(1.0, rCapacity_[i])) {
        rSaturated_[i] = 1;
        rResidual_[i] = std::max(rResidual_[i], 0.0);
      }
    }
    std::size_t newlyFrozen = 0;
    std::size_t i = 0;
    while (i < activeList_.size()) {
      const auto j = activeList_[i];
      const auto* adj = denseAdj_.data() + fAdjOffset_[j];
      bool stop = false;
      for (std::uint32_t k = 0; k < fAdjLen_[j]; ++k) {
        if (rSaturated_[adj[k]]) {
          stop = true;
          break;
        }
      }
      const double cap = fCapOrInf_[j];
      if (!stop && cap < kInf && fRate_[j] >= cap - kEps * std::max(1.0, cap)) {
        stop = true;
      }
      if (stop) {
        ++newlyFrozen;
        for (std::uint32_t k = 0; k < fAdjLen_[j]; ++k) {
          const auto d = adj[k];
          rActiveWeight_[d] -= fLoad_[j];
          if (--rActiveCount_[d] == 0) rActiveWeight_[d] = 0.0;
        }
        fActiveW_[j] = 0.0;
        if (fCapOrInf_[j] < kInf) --capActive;
        fCapOrInf_[j] = kInf;
        activeList_[i] = activeList_.back();
        activeList_.pop_back();
      } else {
        ++i;
      }
    }
    // Progress guarantee: every iteration freezes at least one flow (delta was
    // chosen as the tightest constraint).
    BEESIM_ASSERT(newlyFrozen > 0, "progressive filling made no progress");
  }

  for (std::size_t j = 0; j < n; ++j) rates[fSlot_[j]] = fRate_[j];
  return iterations;
}

std::size_t SolverWorkspace::solveSubsetReference(const SolverView& view,
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
  }

  std::size_t iterations = 0;
  while (!activeFlows_.empty()) {
    ++iterations;

    // The largest uniform *normalized* increment (rate per unit weight)
    // every active flow can absorb.
    double delta = kInf;
    for (const auto r : touchedRes_) {
      if (activeWeight_[r] <= 0.0) continue;
      delta = std::min(delta, residual_[r] / activeWeight_[r]);
    }
    for (const auto f : activeFlows_) {
      if (view.rateCap[f] <= 0.0) continue;
      delta = std::min(delta, (view.rateCap[f] - rates[f]) / view.weight[f]);
    }
    BEESIM_ASSERT(delta < kInf, "progressive filling found no bottleneck");
    delta = std::max(delta, 0.0);

    // Apply the increment.
    for (const auto f : activeFlows_) rates[f] += delta * view.weight[f];
    for (const auto r : touchedRes_) residual_[r] -= delta * activeWeight_[r];

    // Freeze flows bottlenecked by a saturated resource or by their own cap.
    for (const auto r : touchedRes_) {
      if (activeWeight_[r] > 0.0 &&
          residual_[r] <= kEps * std::max(1.0, view.capacity[r])) {
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
          rates[f] >= view.rateCap[f] - kEps * std::max(1.0, view.rateCap[f])) {
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
  }

  return iterations;
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
  // The reference walk keeps this legacy entry point the independent anchor
  // for the SoA fast path's differential tests.
  result.iterations = workspace.solveSubsetReference(
      SolverView{capacity, adjacency, adjOffset, adjLen, weight, rateCap}, subset,
      result.rates);
  return result;
}

}  // namespace beesim::sim
