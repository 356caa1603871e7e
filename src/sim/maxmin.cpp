#include "sim/maxmin.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/error.hpp"

namespace beesim::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
/// The cap limit of an uncapped class: no rate compares >= a NaN.
constexpr double kUncapped = std::numeric_limits<double>::quiet_NaN();

/// A resource's bit in a path signature: its touch index modulo 64.
constexpr std::uint64_t signatureBit(std::uint32_t touchIndex) {
  return std::uint64_t{1} << (touchIndex & 63);
}

/// Slot f's share of each crossed resource: multiplicity · weight.  k = 1
/// (and an empty multiplicity span) yields the weight itself, bit for bit.
double loadOf(const SolverView& view, std::uint32_t f) {
  return view.multiplicity.empty()
             ? view.weight[f]
             : static_cast<double>(view.multiplicity[f]) * view.weight[f];
}
}  // namespace

void SolverWorkspace::ensureResourceCapacity(std::size_t resourceCount) {
  if (res_.size() >= resourceCount) return;
  res_.resize(resourceCount);
  // A subset touches each resource at most once.
  touchedRes_.reserve(resourceCount);
  activeRes_.resize(resourceCount);
}

std::uint32_t SolverWorkspace::groupOf(double weight) {
  const auto bits = std::bit_cast<std::uint64_t>(weight);
  auto& slot = groupTable_[(bits * 0x9E3779B97F4A7C15ULL) >> (64 - kGroupTableBits)];
  if (slot.stamp != stamp_ || slot.bits != bits) {
    slot = GroupSlot{bits, stamp_, static_cast<std::uint32_t>(groups_.size())};
    groups_.push_back(WeightGroup{weight, 0.0, 0, slot.group});
  }
  return slot.group;
}

std::size_t SolverWorkspace::solveSubset(const SolverView& view,
                                         std::span<const std::uint32_t> flows,
                                         std::span<double> rates) {
  if (flows.empty()) return 0;
  ensureResourceCapacity(view.capacity.size());
  ++stamp_;

  // One set-up pass per class.  The stamp makes the per-resource state
  // self-clearing, so each resource is initialised on first touch and solve
  // cost scales with the subset, not with the global resource count.  A live
  // class loads its resources right away: every resource is initialised
  // before its first add, and the adds run in class order, then path order.
  //
  // activeWeight: total load of the still-filling classes crossing a
  // resource.  activeCount tracks the same set exactly; when it reaches zero
  // the weight is reset to exactly 0.0 (repeated subtraction of doubles can
  // leave a ~1e-16 ghost that would stall the filling with delta == 0).
  touchedRes_.clear();
  active_.clear();
  groups_.clear();
  active_.reserve(flows.size());
  groups_.reserve(flows.size());
  frozen_.reserve(flows.size());
  bool anyCapped = false;
  std::uint64_t lastBits = 0;  // no positive weight has these bits
  std::uint32_t lastGroup = 0;
  for (const auto f : flows) {
    BEESIM_ASSERT(view.adjLen[f] > 0, "every flow must cross >= 1 resource");
    BEESIM_ASSERT(view.weight[f] > 0.0, "flow weight must be positive");
    BEESIM_ASSERT(view.multiplicity.empty() || view.multiplicity[f] > 0,
                  "flow multiplicity must be positive");
    const auto* adj = view.adjacency.data() + view.adjOffset[f];
    const auto len = view.adjLen[f];
    bool dead = false;
    std::uint64_t signature = 0;
    for (std::uint32_t i = 0; i < len; ++i) {
      const auto r = adj[i];
      BEESIM_ASSERT(r < view.capacity.size(), "flow references an unknown resource");
      auto& state = res_[r];
      if (state.stamp != stamp_) {
        state = ResourceState{stamp_,
                              view.capacity[r],
                              0.0,
                              kSaturationEps * std::max(1.0, view.capacity[r]),
                              0,
                              static_cast<std::uint32_t>(touchedRes_.size()),
                              false};
        touchedRes_.push_back(r);
      }
      if (state.residual <= 0.0) dead = true;  // the capacity, until the walk starts
      signature |= signatureBit(state.touchIndex);
    }
    if (dead) {
      rates[f] = 0.0;
      continue;
    }
    const double load = loadOf(view, f);
    for (std::uint32_t i = 0; i < len; ++i) {
      auto& state = res_[adj[i]];
      state.activeWeight += load;
      ++state.activeCount;
    }
    const auto bits = std::bit_cast<std::uint64_t>(view.weight[f]);
    if (bits != lastBits) {
      lastBits = bits;
      lastGroup = groupOf(view.weight[f]);
    }
    ++groups_[lastGroup].active;
    const double cap = view.rateCap[f];
    const bool capped = cap > 0.0;
    anyCapped = anyCapped || capped;
    active_.push_back(ActiveClass{
        signature, capped ? cap - kSaturationEps * std::max(1.0, cap) : kUncapped, f, lastGroup});
  }
  // Every group holds a live class, so all start active.
  activeGroups_.resize(groups_.size());
  std::iota(activeGroups_.begin(), activeGroups_.end(), std::uint32_t{0});

  // Only resources with filling weight enter the scans below: for the rest,
  // delta * 0 never moves the residual, and they can be neither the argmin
  // nor newly saturated.  Keeping touched order keeps every min() and every
  // residual update bit for bit what a scan over all touched resources does.
  // The first delta scan filters touchedRes_ into activeRes_; each later one
  // compacts activeRes_ in place, dropping what the last freeze emptied.
  const bool exactSignatures = touchedRes_.size() <= 64;
  const std::uint32_t* scanFrom = touchedRes_.data();
  std::size_t scanCount = touchedRes_.size();
  std::size_t iterations = 0;
  while (!active_.empty()) {
    ++iterations;

    // The largest uniform *normalized* increment (rate per unit weight)
    // every active class can absorb.
    double delta = kInf;
    std::size_t nActiveRes = 0;
    for (std::size_t i = 0; i < scanCount; ++i) {
      const auto r = scanFrom[i];
      const auto& state = res_[r];
      if (state.activeWeight <= 0.0) continue;
      activeRes_[nActiveRes++] = r;
      delta = std::min(delta, state.residual / state.activeWeight);
    }
    scanFrom = activeRes_.data();
    scanCount = nActiveRes;
    if (anyCapped) {
      for (const auto& c : active_) {
        const double cap = view.rateCap[c.slot];
        if (cap <= 0.0) continue;
        const auto& g = groups_[c.group];
        delta = std::min(delta, (cap - g.rate) / g.weight);
      }
    }
    BEESIM_ASSERT(delta < kInf, "progressive filling found no bottleneck");
    delta = std::max(delta, 0.0);

    // Apply the increment: once per weight group for the rates, then per
    // resource, testing saturation in the same pass and collecting this
    // iteration's saturation signature.
    for (const auto g : activeGroups_) groups_[g].rate += delta * groups_[g].weight;
    std::uint64_t satSignature = 0;
    for (std::size_t i = 0; i < nActiveRes; ++i) {
      const auto r = activeRes_[i];
      auto& state = res_[r];
      state.residual -= delta * state.activeWeight;
      if (state.residual <= state.saturationLimit) {
        state.saturated = true;
        state.residual = std::max(state.residual, 0.0);
        satSignature |= signatureBit(state.touchIndex);
      }
    }

    // Freeze classes bottlenecked by a saturated resource or by their own
    // cap.  A resource saturated in an earlier iteration has no active class
    // left on it, so a class crosses a saturated resource only if its
    // signature meets this iteration's.  With at most 64 touched resources
    // every bit names one resource and the test is exact; beyond that, bits
    // alias and the path scan decides.
    const auto crossesSaturated = [&](const ActiveClass& c) {
      if ((c.signature & satSignature) == 0) return false;
      if (exactSignatures) return true;
      const auto* adj = view.adjacency.data() + view.adjOffset[c.slot];
      return std::any_of(adj, adj + view.adjLen[c.slot],
                         [this](std::uint32_t r) { return res_[r].saturated; });
    };
    frozen_.clear();
    std::size_t i = 0;
    while (i < active_.size()) {
      const auto& c = active_[i];
      auto& g = groups_[c.group];
      if (!crossesSaturated(c) && !(g.rate >= c.capLimit)) {
        ++i;
        continue;
      }
      rates[c.slot] = g.rate;
      if (--g.active == 0) {
        // Swap-remove the emptied group from the per-iteration update.
        const auto last = activeGroups_.back();
        activeGroups_[g.position] = last;
        groups_[last].position = g.position;
        activeGroups_.pop_back();
      }
      frozen_.push_back(c.slot);
      active_[i] = active_.back();
      active_.pop_back();
    }
    // Progress guarantee: every iteration freezes at least one class (delta
    // was chosen as the tightest constraint).
    BEESIM_ASSERT(!frozen_.empty(), "progressive filling made no progress");
    if (active_.empty()) break;

    // Release the frozen classes' loads, in the order they froze: nothing in
    // the freeze loop reads activeWeight, so each resource sees the same
    // subtractions in the same order as if they ran inside it.  After the
    // last iteration nothing reads the weights, so that release is skipped.
    for (const auto f : frozen_) {
      const double load = loadOf(view, f);
      const auto* adj = view.adjacency.data() + view.adjOffset[f];
      for (std::uint32_t k = 0; k < view.adjLen[f]; ++k) {
        const auto r = adj[k];
        auto& state = res_[r];
        state.activeWeight -= load;
        if (--state.activeCount == 0) state.activeWeight = 0.0;
      }
    }
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
