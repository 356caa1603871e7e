// Max-min fair bandwidth sharing (progressive filling).
//
// This is the heart of the flow-level network/storage model.  Given a set of
// resources with capacities (MiB/s) and a set of flows, each crossing a
// subset of the resources and optionally rate-capped, the solver computes the
// unique max-min fair rate vector: rates are raised uniformly until a
// resource (or a flow cap) saturates, the flows bottlenecked there are
// frozen, and filling continues with the rest.
//
// The allocation is *weighted*: each flow's share scales with its weight
// (its outstanding-request intensity).  TCP-like fair sharing on a congested
// Ethernet link is exactly what the paper's Scenario 1 exercises (Fig. 8/9: the hotter of the two server links
// dictates completion time); the same abstraction covers storage-side
// service capacity in Scenario 2.
//
// Two entry points over one progressive-filling walk:
//
//   * SolverWorkspace::solveSubset -- the allocation-free core used by the
//     fluid simulator's incremental resolver.  The caller owns the problem
//     in flat CSR-style arrays (one shared adjacency arena, per-flow
//     offset/length) and asks for the rates of an arbitrary *subset* of
//     flows (one connected component at a time).  All scratch state lives in
//     the workspace and is reused across solves, so a steady-state resolve
//     performs zero heap allocations.
//   * solveMaxMin(resources, flows) -- a self-contained call that flattens a
//     vector-of-structs problem into the CSR view and runs the same walk.
//
// The walk makes one set-up pass per class, then per iteration:
//   1. a delta scan over the resources still carrying filling weight
//      (min of residual / weight, in first-touch order), which also drops
//      the resources the last freeze emptied, then a scan of the caps;
//   2. one rate update per *weight group*, then one pass over the resources
//      that subtracts delta · weight and tests saturation, collecting the
//      iteration's saturation signature;
//   3. a freeze scan over the active classes, which tests a class's path only
//      when its signature meets the saturation signature;
//   4. the frozen classes' loads leave their resources, in freeze order
//      (skipped after the last iteration, when nothing reads them).
// Every floating-point operation that feeds delta, a residual, a resource
// weight or a rate is the one the textbook walk performs, on the same
// operands in the same order; only the bookkeeping around them is shared.
// Two shortcuts make that possible:
//   * every live class fills from the first iteration until it freezes, so
//     its rate is 0 + δ1·w + δ2·w + ... -- the same sum for every class of
//     the same weight bits.  The walk keeps that sum once per weight and
//     copies it into a class's rate when the class freezes;
//   * a path signature ORs bit (touch index mod 64) of each crossed
//     resource.  A resource saturated in an earlier iteration has no active
//     class left on it, so a class can cross a saturated resource only if
//     its signature meets this iteration's.  With at most 64 touched
//     resources the bits are distinct and the test is exact; beyond that,
//     the path scan decides.
//
// maxMinViolation checks a solution without running the walk: feasibility,
// plus the bottleneck characterization of max-min fairness (Bertsekas &
// Gallager) -- every flow below its cap crosses a saturated resource on which
// no flow has a larger normalized rate.  The fluid core's solver check runs
// it on every walk, so a walk bug cannot hide behind a re-run of itself.
//
// Degenerate inputs are well-defined:
//   * a flow crossing a zero-capacity resource receives rate 0 (it never
//     enters the filling and contributes no weight anywhere);
//   * a subset whose flows are all dead this way solves to all-zero rates;
//   * a flow with weight <= 0 or an empty resource list is a contract
//     violation (ContractError) -- weights are queue depths and must be
//     positive for the weighted allocation to be defined.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace beesim::sim {

/// Relative tolerance of the filling walk: a resource is saturated once its
/// residual falls to kSaturationEps · max(1, capacity), and a capped flow is
/// frozen within the same fraction of its cap.  Rates are MiB/s magnitudes
/// (1e0..1e5), so an epsilon scaled to the capacity is robust.  The fluid
/// core's slack certificate (fluid.hpp) sizes its margin from this value.
inline constexpr double kSaturationEps = 1e-9;

/// Solver input: one resource with an effective capacity for this solve.
struct SolverResource {
  util::MiBps capacity = 0.0;
};

/// Solver input: one flow crossing `resources` (indices into the resource
/// array).  `rateCap` bounds the flow's own rate (<= 0 means uncapped).
/// `weight` scales the flow's fair share (weighted max-min): a flow backed
/// by twice the outstanding requests receives twice the rate on a shared
/// bottleneck.  Flows of one application have equal weights, so single-app
/// experiments reduce to the classic unweighted allocation.
struct SolverFlow {
  std::vector<std::uint32_t> resources;
  util::MiBps rateCap = 0.0;
  double weight = 1.0;
};

struct SolverResult {
  /// Max-min fair rate per flow, same order as the input.
  std::vector<util::MiBps> rates;
  /// Number of filling iterations (diagnostics / micro-bench).
  std::size_t iterations = 0;
};

/// CSR-style view of a max-min problem.  The per-flow arrays are indexed by
/// *flow slot*; a slot's crossed resources are
/// `adjacency[adjOffset[f] .. adjOffset[f] + adjLen[f])`.  Slots not named
/// in a solveSubset call are ignored entirely, so callers may keep free
/// (stale) slots in the arrays.
///
/// A slot may stand for a *class* of k identical flows (same resources,
/// weight and cap): `multiplicity[f] = k` makes the slot load each crossed
/// resource with k·weight while its rate -- the rate of every member -- still
/// grows by delta·weight and is bounded by rateCap, exactly as for one flow.
/// The solved rate equals what each member would get in the per-flow
/// problem.  An empty span means k = 1 everywhere.
struct SolverView {
  std::span<const double> capacity;          // per resource
  std::span<const std::uint32_t> adjacency;  // shared resource-index arena
  std::span<const std::uint32_t> adjOffset;  // per flow slot
  std::span<const std::uint32_t> adjLen;     // per flow slot
  std::span<const double> weight;            // per flow slot
  std::span<const double> rateCap;           // per flow slot (<= 0: uncapped)
  std::span<const std::uint32_t> multiplicity = {};  // per flow slot (>= 1), optional
};

/// Reusable scratch state for progressive filling.  One workspace may be
/// used for any number of solves over problems of any size; internal arrays
/// grow monotonically and are reused, so repeated solves of a stable-sized
/// problem allocate nothing.
class SolverWorkspace {
 public:
  /// Computes the weighted max-min rates of `flows` (slot indices into the
  /// view's per-flow arrays), writing `rates[f]` for exactly those slots.
  /// The subset must be self-contained (a union of connected components):
  /// rates are computed as if no other flow existed.  Flows crossing a
  /// zero-capacity resource receive rate 0.  Returns the number of filling
  /// iterations.
  std::size_t solveSubset(const SolverView& view, std::span<const std::uint32_t> flows,
                          std::span<double> rates);

  // Post-walk state of the last solveSubset, valid until the next call.
  // The fluid core reads it to certify that a later capacity change cannot
  // alter the walk (see the slack certificate in fluid.hpp).

  /// Every resource crossed by a flow of the last subset, in first-touch
  /// order.
  std::span<const std::uint32_t> touchedResources() const { return touchedRes_; }
  /// Capacity left on a touched resource when the walk ended (the capacity
  /// itself if no filling flow crossed it; clamped at 0 once saturated).
  double residual(std::uint32_t r) const { return res_[r].residual; }
  /// Whether a touched resource saturated, i.e. froze the flows crossing it.
  bool saturated(std::uint32_t r) const { return res_[r].saturated; }

 private:
  // A still-filling class: the signature of its path (one bit per crossed
  // resource, see solveSubset), the rate at which its cap freezes it (cap -
  // kSaturationEps * max(1, cap); NaN when uncapped), its slot and its
  // weight group.
  struct ActiveClass {
    std::uint64_t signature;
    double capLimit;
    std::uint32_t slot;
    std::uint32_t group;
  };
  // The classes of one weight (bit for bit) share one rate: each has grown
  // by delta * weight in every iteration since the first.
  struct WeightGroup {
    double weight;
    double rate;
    std::uint32_t active;    // classes of the group still filling
    std::uint32_t position;  // index in activeGroups_ while active > 0
  };
  // Direct-mapped cache entry from weight bits to a group, stamped per solve.
  // A collision evicts the older weight, whose next class opens a second
  // group of the same weight: both sums then see the same operations.
  static constexpr int kGroupTableBits = 6;
  struct GroupSlot {
    std::uint64_t bits = 0;
    std::uint64_t stamp = 0;
    std::uint32_t group = 0;
  };

  void ensureResourceCapacity(std::size_t resourceCount);
  std::uint32_t groupOf(double weight);

  // Per-resource scratch, stamped per solve so nothing needs clearing.
  struct ResourceState {
    std::uint64_t stamp = 0;
    double residual = 0.0;
    double activeWeight = 0.0;     // load of the still-filling classes crossing it
    double saturationLimit = 0.0;  // kSaturationEps * max(1, capacity)
    std::uint32_t activeCount = 0;  // the number of those classes
    std::uint32_t touchIndex = 0;   // position in touchedRes_
    bool saturated = false;
  };
  std::vector<ResourceState> res_;
  std::uint64_t stamp_ = 0;

  // Compact per-solve lists (reused capacity).  activeRes_ holds the
  // touched-resource order restricted to resources still carrying filling
  // weight (its live prefix is compacted by every delta scan); frozen_ the
  // slots frozen by the current iteration, in freeze order.
  std::vector<std::uint32_t> touchedRes_;
  std::vector<std::uint32_t> activeRes_;
  std::vector<ActiveClass> active_;
  std::vector<std::uint32_t> frozen_;
  std::vector<WeightGroup> groups_;
  std::vector<std::uint32_t> activeGroups_;  // groups with an active class
  std::array<GroupSlot, std::size_t{1} << kGroupTableBits> groupTable_{};
};

/// Relative tolerance of maxMinViolation: two orders of magnitude above the
/// walk's own saturation threshold, far below any step of the filling.
inline constexpr double kCertificateTol = 1e2 * kSaturationEps;

/// Walk-independent certificate of `rates` over the subset `flows` of `view`
/// (one rate per slot, as solveSubset writes them).  Returns an empty string
/// when the rates are max-min fair to within kCertificateTol, relative:
///   * feasible -- every rate is >= 0 and within its cap, and no resource
///     carries more than its capacity (a slot loads each of its resources
///     with multiplicity · rate);
///   * optimal -- every slot below its cap crosses a saturated resource on
///     which no slot of the subset has a larger rate / weight.
/// Otherwise describes the first violation.  Allocates; meant for checks.
std::string maxMinViolation(const SolverView& view, std::span<const std::uint32_t> flows,
                            std::span<const double> rates);

/// Computes the max-min fair allocation.
///
/// Preconditions: every flow crosses at least one resource; all resource
/// indices are in range; capacities are >= 0; weights are > 0.  Flows
/// through a zero-capacity resource receive rate 0.
SolverResult solveMaxMin(std::span<const SolverResource> resources,
                         std::span<const SolverFlow> flows);

}  // namespace beesim::sim
