// Fluid (flow-level) simulation on top of the discrete-event core.
//
// Model: data transfers are fluid flows crossing a set of resources (links,
// NICs, service processes, devices).  Between events the rate vector is the
// max-min fair allocation (see maxmin.hpp); whenever the flow population or a
// capacity changes, rates are re-solved.  Virtual time then advances directly
// to the next interesting instant (a flow completion or a scheduled capacity
// refresh), so a 100-repetition IOR campaign that takes hours of wall-clock
// on a real cluster simulates in milliseconds.  A flow starts at the
// engine's current time; a later start is an engine event that calls
// startFlow.
//
// Resources may have *load-dependent* capacities: the capacity callback
// receives the number of crossing flows and their aggregate queue weight.
// This is how storage devices expose a concurrency ramp (an HDD RAID array
// needs a deep queue to stream at full speed) and how stochastic variability
// enters (callbacks may sample per-epoch noise keyed on the current time).
//
// Incremental resolution: max-min fair allocation decomposes exactly over the
// connected components of the flow/resource bipartite graph, so the simulator
// tracks components with a union-find over resources and re-solves only the
// *dirty* ones -- those whose flow membership or member capacities changed
// since the last solve.  Two applications pinned to disjoint OSTs therefore
// cost each other nothing per event (O(own component), not O(world)).  All
// bookkeeping lives in flat slot-indexed arrays reused across the run; a
// steady-state resolve performs zero heap allocations.
//
// Slack certificate (always on, exact): after every walk the simulator keeps,
// per resource, the load the walk placed on it (capacity − final residual),
// or +inf when it saturated (was binding).  A capacity change on a resource
// that was not binding, whose new capacity still exceeds that load by more
// than 1e3 · kSaturationEps · max(1, capacity), cannot change the walk: such
// a resource is never the argmin of any filling step and never saturates, so
// every floating-point operation that feeds the increments, the rates and
// the freezes is the one the previous walk performed.  A component dirtied
// only by such changes therefore keeps its class rates without walking --
// progress, solve stamps, completion horizon and the observer report run as
// after a walk -- and its rates are bit-identical to what the walk would
// return.  Structural events (flow start, completion, cancellation, merge,
// capacity hitting or leaving zero) and changes that fail the test set the
// component's needs-walk bit.
//
// Flow classes: flows with the same (path, queueWeight, rateCap) -- the ranks
// of one node writing to the same targets, say -- always receive identical
// max-min rates, so the simulator groups them into classes as they start and
// leave, and the solver fills each class once with its member count as the
// multiplicity.  Progress is per class too: a class counts the MiB it has
// served each member since it was created, and keeps its members in a
// min-heap keyed by target = served-at-join + size.  A member's remaining
// bytes are target - served, so advancing, settling completions, and finding
// the next completion cost O(classes) per component, not O(flows); each
// component keeps an intrusive list of its classes.  Flows finishing at the
// same instant complete in ascending flow id.
//
// Observers see classes: a resolve reports each re-solved class once, as
// (class, member count, rate), and an observer that keeps per-resource
// rates (RateSampler) adds member count x rate along the class path.  Per-flow
// rates are expanded from the class report only when an attached observer
// asks for them (solvedFlows(), at most once per resolve; grouped by class,
// in component solve order).  So that an observer can still read the path of
// a class whose members it has not yet seen leave, a class emptied by
// completions keeps its slot until their drain has reached every observer;
// a cancellation frees its emptied class at once, since observers saw it
// before the flow left.
//
// Setting BEESIM_SOLVER_CHECK=1 (or setSolverCheck(true)) turns on a
// differential mode that re-solves every resolve from scratch over all live
// flows, one solver slot per flow (no classes), and asserts the incremental
// rates match to 1e-9 relative; it also integrates every flow's remaining
// MiB per flow from the rates it checked and asserts the class progress
// agrees to 1e-9 of the flow size.  Every component whose walk the slack
// certificate skipped is re-walked as well, and its class rates must be
// bit-equal to the kept ones.  Every walk's class rates must also pass the
// max-min certificate (maxMinViolation), which does not share the walk's
// code, so a walk bug cannot hide behind the re-solve that re-runs it.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/maxmin.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace beesim::sim {

/// Index of a resource inside a FluidSimulator.
struct ResourceIndex {
  std::uint32_t value = 0;
};

/// Load snapshot passed to capacity callbacks at every solve.
struct ResourceLoad {
  /// Number of unfinished flows crossing the resource.
  std::size_t flowCount = 0;
  /// Sum of the queueWeight of those flows.  Storage models read this as an
  /// effective queue depth (outstanding requests).
  double queueDepth = 0.0;
  /// Current virtual time; lets callbacks resample per-epoch noise.
  SimTime time = 0.0;
};

/// Capacity model of a resource.  Must be pure given (load, its own state);
/// it is invoked exactly once per loaded resource per resolve.
using CapacityFn = std::function<util::MiBps(const ResourceLoad&)>;

/// Convenience: constant capacity.
CapacityFn constantCapacity(util::MiBps capacity);

struct ResourceSpec {
  std::string name;
  CapacityFn capacity;
};

/// Names a flow: `value` is its start sequence (unique per simulator, from
/// 1), which orders simultaneous completions and is what traces print;
/// `slot` is the simulator's flow slot it occupies while live, so resolving
/// an id is one index and one compare.  A slot is reused only after every
/// observer has seen its flow end, and the stale id then reads inactive.
/// Zero-byte flows occupy no slot (kNoSlot); a default FlowId names no flow.
struct FlowId {
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  std::uint64_t value = 0;
  std::uint32_t slot = kNoSlot;
  friend bool operator==(FlowId a, FlowId b) { return a.value == b.value; }
};

/// Statistics delivered to the completion callback.
struct FlowStats {
  FlowId id;
  SimTime startTime = 0.0;
  SimTime endTime = 0.0;
  util::Bytes bytes = 0;

  /// Mean rate over the flow's lifetime (MiB/s).
  util::MiBps meanRate() const {
    return endTime > startTime ? util::bandwidth(bytes, endTime - startTime) : 0.0;
  }
};

/// Completion callback of a flow.  Invoked from inside the event loop.  A
/// callable of at most 16 trivially copyable bytes (a pointer and an index,
/// say) is stored inside the std::function, so starting the flow does not
/// allocate for it.
using FlowCallback = std::function<void(const FlowStats&)>;

struct FlowSpec {
  /// Resources the flow crosses (e.g. client -> node NIC -> server NIC ->
  /// service -> device).  Must be non-empty.
  std::vector<ResourceIndex> path;
  /// Total bytes to transfer.  Zero-byte flows complete immediately.
  util::Bytes bytes = 0;
  /// Contribution to the queueDepth of every crossed resource, and the
  /// flow's weight in the weighted max-min fair sharing (a flow backed by
  /// more outstanding requests both deepens device queues and claims a
  /// proportionally larger share of shared links).
  double queueWeight = 1.0;
  /// Per-flow rate cap in MiB/s (<= 0: uncapped).
  util::MiBps rateCap = 0.0;
  /// Invoked (from inside the event loop) when the flow finishes.
  FlowCallback onComplete;
};

/// One flow class of a re-solve report: its slot in the simulator's class
/// table (FluidSimulator::classPath reads its resources), its member count,
/// and the rate each member receives from now on.
struct SolvedClass {
  std::uint32_t cls = 0;
  std::uint32_t members = 0;
  util::MiBps rate = 0.0;
};

class FluidSimulator;

/// Observer of fluid-simulation events (see sim/trace.hpp for the standard
/// implementation).  All callbacks fire from inside the event loop.  Spans
/// are views valid only for the call.
class FluidObserver {
 public:
  virtual ~FluidObserver() = default;

  /// A flow entered the system (after joining its class, so
  /// FluidSimulator::flowClass names it).
  virtual void onFlowStarted(FlowId id, std::span<const ResourceIndex> path,
                             util::Bytes bytes, SimTime at) = 0;

  /// Rates were re-solved: every member of `classes[i]` now receives
  /// `classes[i].rate`.  Only the classes of re-solved components are
  /// reported (components in solve order, each one's classes in its list
  /// order); other flows keep their previous rate.  `activeFlows` is the
  /// total live-flow count for context.  The default expands the report
  /// into its members (fluid.solvedFlows()) and calls onRatesSolved.
  virtual void onClassesSolved(const FluidSimulator& fluid, SimTime at,
                               std::span<const SolvedClass> classes, std::size_t activeFlows);

  /// The per-flow form of a re-solve report, reached only through the
  /// default onClassesSolved: `rates[i]` belongs to `ids[i]`, members in
  /// class-heap order.  Default no-op.
  virtual void onRatesSolved(SimTime at, std::span<const FlowId> ids,
                             std::span<const util::MiBps> rates, std::size_t activeFlows) {
    (void)at, (void)ids, (void)rates, (void)activeFlows;
  }

  /// A flow finished.
  virtual void onFlowCompleted(const FlowStats& stats) = 0;

  /// A flow was cancelled before finishing (stats.bytes holds the bytes that
  /// were *not* transferred).  Default no-op so existing observers are
  /// unaffected.
  virtual void onFlowCancelled(const FlowStats& stats) { (void)stats; }
};

class FluidSimulator {
 public:
  FluidSimulator();

  FluidSimulator(const FluidSimulator&) = delete;
  FluidSimulator& operator=(const FluidSimulator&) = delete;

  /// The underlying event engine (for timers, staggered app starts and
  /// delayed flow starts).
  Simulator& engine() { return engine_; }
  SimTime now() const { return engine_.now(); }

  /// Register a resource.  All resources must be added before flows start.
  ResourceIndex addResource(ResourceSpec spec);
  std::size_t resourceCount() const { return resources_.size(); }
  const std::string& resourceName(ResourceIndex idx) const;

  /// Start a flow at the current virtual time.  Returns its id.  The span
  /// form is the one implementation: `path` (non-empty) is copied into the
  /// simulator's own arena before the call returns, so a caller may pass a
  /// stack array, and the remaining arguments mean what the FlowSpec fields
  /// of the same names do.  Once the simulator's slots and scratch are warm
  /// it allocates nothing for an inline-sized `onComplete`.  The FlowSpec
  /// form forwards to it.
  FlowId startFlow(std::span<const ResourceIndex> path, util::Bytes bytes,
                   double queueWeight, util::MiBps rateCap, FlowCallback&& onComplete);
  FlowId startFlow(FlowSpec spec) {
    return startFlow(spec.path, spec.bytes, spec.queueWeight, spec.rateCap,
                     std::move(spec.onComplete));
  }

  /// Current max-min rate of an active flow (0 if finished/unknown, and 0
  /// until the flow's class has been re-solved after the flow joined).
  util::MiBps flowRate(FlowId id) const;

  /// Whether a flow is still in the system (started and not yet finished or
  /// cancelled).  Stale ids are safely reported as inactive.
  bool flowActive(FlowId id) const;

  /// The class slot of an active flow (see SolvedClass); kNoClass for an
  /// inactive or zero-byte one.
  static constexpr std::uint32_t kNoClass = 0xffffffffu;
  std::uint32_t flowClass(FlowId id) const {
    const auto slot = liveSlot(id);
    return slot == kNone ? kNoClass : flowClass_[slot];
  }

  /// The resources class `cls` crosses, in path order.  Valid while the
  /// class has members, and for a class that completions emptied until
  /// those completions reached every observer (its slot is not reused
  /// before).
  std::span<const std::uint32_t> classPath(std::uint32_t cls) const {
    return classes_.path(cls);
  }

  /// The re-solve report being dispatched, expanded into its members:
  /// `rates[i]` belongs to `ids[i]`, classes in report order, each class's
  /// members in heap order.  Expanded at most once per resolve, on the
  /// first call; valid only inside onClassesSolved.
  struct SolvedFlows {
    std::span<const FlowId> ids;
    std::span<const util::MiBps> rates;
  };
  SolvedFlows solvedFlows() const;

  /// Cancel an active flow: progress is banked up to now(), the flow leaves
  /// the system and its onComplete callback is dropped (never invoked).
  /// Returns the bytes that had not been transferred yet, or std::nullopt if
  /// the id is unknown or the flow already finished.  The client failure
  /// semantics use this to abort chunks stalled on a failed target.
  std::optional<util::Bytes> cancelFlow(FlowId id);

  /// Number of unfinished flows.
  std::size_t activeFlows() const { return activeCount_; }

  /// Walk epoch: a counter that moves whenever a resolve walks a component,
  /// i.e. rewrites class rates.  Nothing else can change the flowRate() of a
  /// live flow that has been solved: every start, cancel, due completion,
  /// merge and zero-capacity edge forces a walk, and a re-solve the slack
  /// certificate skips keeps every rate bit.  A flow that started since the
  /// last walk reads 0 until the next one; a flow that left reads 0 forever.
  /// So a cache of live, solved flows' rates stamped with this value stays
  /// valid while the value is unchanged, provided the cache itself handles
  /// flows joining and leaving.  Only equality is meaningful.
  std::uint64_t walkEpoch() const { return walkEpoch_; }

  /// Re-solve rates periodically (every `interval` seconds) while flows are
  /// active, so load-dependent/noisy capacities are refreshed even between
  /// completions.  <= 0 disables (default).
  void setResolveInterval(util::Seconds interval) { resolveInterval_ = interval; }

  /// Force capacities to be re-evaluated and rates re-solved at the current
  /// time (e.g. after an external capacity change).  While no flow is live
  /// and no resolve is queued this schedules nothing: the next flow's start
  /// resolve evaluates every loaded capacity anyway.
  void invalidateCapacities();

  /// Inert (asserts ε == 0) for campaign_bench; the next benchmark change removes it.
  void setSolverEpsilon(double epsilon);
  /// Inert (always 0) for campaign_bench; the next benchmark change removes it.
  std::size_t deferredResolves() const { return 0; }

  /// Attach an observer *alongside* any already attached: every event goes
  /// to every observer in attachment order.  Attaching one twice is a no-op.
  /// The caller keeps ownership.
  void addObserver(FluidObserver* observer);

  /// Detach an observer.  No-op when it is not attached -- in particular it
  /// never detaches a *different* observer attached after this one, which is
  /// the contract observer destructors rely on.  Safe from inside a callback:
  /// an observer may detach itself or an earlier one mid-dispatch, and every
  /// later observer still receives the event.
  void removeObserver(FluidObserver* observer);

  /// Enable/disable the differential solver check (also via the
  /// BEESIM_SOLVER_CHECK environment variable): every resolve additionally
  /// re-solves all live flows from scratch, one solver slot per flow, and
  /// asserts the incremental class rates match to 1e-9 relative, that the
  /// class progress matches a per-flow integration of those rates, and that
  /// the incremental load and class accounting agrees with an exact recount.
  /// A component re-solved without a walk (slack certificate) is re-walked
  /// and must keep bit-equal class rates.
  /// Every walk is also checked against the max-min certificate
  /// (maxMinViolation), which does not share the walk's code.
  void setSolverCheck(bool enabled) { solverCheck_ = enabled; }
  /// Whether the differential check is on; layers above the fluid core key
  /// their own invariant checks on it.
  bool solverCheck() const { return solverCheck_; }

  /// Run until all events *and* flows drain.  Throws ContractError if flows
  /// remain but cannot make progress (all rates zero with no future events).
  void run();

  // Diagnostics (micro-benchmark / tests).
  std::size_t resolveCount() const { return resolveCount_; }
  std::size_t solverIterations() const { return solverIterations_; }
  /// Live flow classes (see the header comment); 0 once the system drains.
  std::size_t flowClassCount() const { return classes_.size(); }

  /// Enable wall-clock profiling of resolves.  Off by default so the hot
  /// path never calls the clock; when on, solveSeconds() accumulates the
  /// host wall time spent inside resolveNow().
  void setProfiling(bool enabled) { profiling_ = enabled; }
  double solveSeconds() const { return solveSeconds_; }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// One member of a class's min-heap.  It completes once the class has
  /// served `target` MiB (its served counter at join time plus its size).
  struct Member {
    double target;
    std::uint64_t id;
    std::uint32_t slot;
  };

  /// Flow-class table: open-addressed (path, weight bits, cap bits) -> class
  /// slot map with per-class member counts, progress and member heaps.  Class
  /// slots are recycled through a free list and their path regions and heap
  /// storage reused, so a steady flow population allocates nothing.  The
  /// per-class arrays form the solver view (multiplicity = member count).
  class ClassTable {
   public:
    /// Count one flow into the class of its key, creating the class on first
    /// use (served 0, rate 0, empty heap, unlinked).  Returns the class slot.
    std::uint32_t join(const std::uint32_t* path, std::uint32_t len, double weight,
                       double rateCap);
    /// Count one member out; an emptied class leaves the key map, and its
    /// slot stays taken until release(c).  Returns true when the class
    /// emptied.
    bool leave(std::uint32_t c);
    void release(std::uint32_t c) { freeSlots_.push_back(c); }
    std::size_t size() const { return size_; }
    std::uint32_t members(std::uint32_t c) const { return members_[c]; }
    /// First resource of the class path (locates its component).
    std::uint32_t firstResource(std::uint32_t c) const { return adjacency_[adjOffset_[c]]; }
    std::span<const std::uint32_t> path(std::uint32_t c) const {
      return {adjacency_.data() + adjOffset_[c], adjLen_[c]};
    }
    SolverView view(std::span<const double> capacity) const;
    std::span<double> rates() { return rate_; }
    double rate(std::uint32_t c) const { return rate_[c]; }
    /// MiB delivered to each member since the class was created.
    double& served(std::uint32_t c) { return served_[c]; }
    /// Members ordered by (target, id); heap(c).front() completes first.
    std::vector<Member>& heap(std::uint32_t c) { return heap_[c]; }
    const std::vector<Member>& heap(std::uint32_t c) const { return heap_[c]; }
    /// Flow ids below this had joined when the class was last solved.
    std::uint64_t& solvedBelow(std::uint32_t c) { return solvedBelow_[c]; }
    std::uint64_t solvedBelow(std::uint32_t c) const { return solvedBelow_[c]; }
    /// Intrusive links of the owning component's class list.
    std::uint32_t& next(std::uint32_t c) { return next_[c]; }
    std::uint32_t& prev(std::uint32_t c) { return prev_[c]; }

   private:
    bool matches(std::uint32_t c, std::uint64_t hash, const std::uint32_t* path,
                 std::uint32_t len, double weight, double rateCap) const;
    void place(std::uint32_t c);
    void grow();

    std::vector<std::uint32_t> buckets_;  // class slot, or kNone when empty
    std::size_t size_ = 0;
    // Per class slot (members_ == 0 marks a free slot).
    std::vector<std::uint64_t> hash_;
    std::vector<double> weight_;
    std::vector<double> rateCap_;
    std::vector<std::uint32_t> members_;
    std::vector<std::uint32_t> adjOffset_;
    std::vector<std::uint32_t> adjLen_;
    std::vector<std::uint32_t> adjCap_;
    std::vector<double> rate_;
    std::vector<double> served_;
    std::vector<std::vector<Member>> heap_;
    std::vector<std::uint64_t> solvedBelow_;
    std::vector<std::uint32_t> next_;
    std::vector<std::uint32_t> prev_;
    std::vector<std::uint32_t> adjacency_;
    std::vector<std::uint32_t> freeSlots_;
  };

  struct DrainEntry {
    FlowStats stats;
    FlowCallback onComplete;
  };

  using Seconds = util::Seconds;

  // Union-find over resources (merge-only; reset when the system drains).
  std::uint32_t findRoot(std::uint32_t r) const;
  std::uint32_t unite(std::uint32_t a, std::uint32_t b, SimTime at);
  /// Mark a component for re-solve.  `needsWalk` (membership changes,
  /// zero-capacity edges, capacity changes that fail the slack test) makes
  /// that re-solve walk; without it the slack certificate keeps the rates.
  void markDirty(std::uint32_t root, bool needsWalk = true);
  /// Drop merged-away and emptied components from activeRoots_, calling
  /// fn(root) for every live one, in list order.
  template <typename Fn>
  void forEachActiveRoot(Fn&& fn);
  void listComponent(std::uint32_t root);
  void resetComponents();

  /// Bank progress of one component's classes up to `t` at the current rates.
  void advanceComponent(std::uint32_t root, SimTime t);
  /// Advance to `t` and move finished flows out of the component into
  /// drain_ (bookkeeping updated; callbacks NOT yet run).
  void settleComponent(std::uint32_t root, SimTime t);
  /// Take a flow (already out of its class heap) out of the resource loads,
  /// its class and its component; from here on its id reads inactive.  The
  /// slot stays taken until freeFlowSlot, after the observers saw the end.
  /// Returns true when its class emptied; the caller releases the class
  /// slot once observers have seen every member leave.
  bool retireFlow(std::uint32_t root, std::uint32_t slot);

  // Class member heaps; every move keeps flowHeapPos_ current.
  /// Sift `m` from `pos` (a hole) to its place in `heap`.
  void heapPlace(std::vector<Member>& heap, std::uint32_t pos, Member m);
  void heapErase(std::uint32_t c, std::uint32_t pos);

  /// Call fn(observer) for every attached observer, in attachment order.
  template <typename Fn>
  void notify(Fn&& fn);

  void scheduleResolve();
  void resolveNow();
  void scheduleNextWakeup();
  void runSolverCheck();
  /// Solver-check oracle for a walk of subsetClasses_: the max-min
  /// certificate must accept the class rates it wrote.
  void checkWalk(const SolverView& view, std::uint32_t root);
  /// Solver-check oracle for a component whose walk the slack certificate
  /// skipped: re-walks subsetClasses_ in the check workspace and asserts
  /// every class rate is bit-equal to the kept one.
  void checkSkippedWalk(std::uint32_t root);

  /// The slot of live flow `id`, or kNone.
  std::uint32_t liveSlot(FlowId id) const {
    return id.slot < flowId_.size() && flowId_[id.slot] == id.value && id.value != 0 ? id.slot
                                                                                    : kNone;
  }
  std::uint32_t allocateFlowSlot();
  void freeFlowSlot(std::uint32_t slot);

  Simulator engine_;
  std::vector<ResourceSpec> resources_;

  // --- Per-resource state (indexed by resource) ---
  std::vector<double> resCapacity_;      // last evaluated capacity
  std::vector<std::uint32_t> resFlowCount_;
  std::vector<double> resQueueDepth_;
  std::vector<char> resLoaded_;          // member of loadedRes_
  // Slack certificate, per resource, as of its component's last walk: the
  // load the walk placed on it (capacity − final residual), or +inf when it
  // saturated there (was binding), so that no new capacity clears it.
  std::vector<double> resWalkLoad_;
  mutable std::vector<std::uint32_t> ufParent_;  // path compression in findRoot
  std::vector<std::uint32_t> ufSize_;
  /// Resources with at least one crossing flow (lazily compacted): the
  /// per-resolve capacity evaluation walks this list, so its cost scales
  /// with the *loaded* inventory, not the cluster-wide resource count.
  std::vector<std::uint32_t> loadedRes_;

  // --- Per-component state (indexed by union-find root resource) ---
  std::vector<std::uint32_t> compHead_;  // intrusive class list
  std::vector<std::uint32_t> compTail_;
  std::vector<std::uint32_t> compFlowCount_;
  std::vector<SimTime> compLastProgress_;
  std::vector<SimTime> compNextCompletion_;  // absolute; +inf when unknown
  std::vector<char> compDirty_;
  /// The next re-solve must walk: set by markDirty(root, true); cleared by
  /// a re-solve.
  std::vector<char> compNeedsWalk_;
  std::vector<char> compListed_;
  std::vector<std::uint32_t> activeRoots_;  // lazily filtered
  std::vector<std::uint32_t> dirtyRoots_;

  // --- Per-flow state (slot-indexed; id 0 marks a free or retired slot) ---
  std::vector<std::uint64_t> flowId_;
  std::vector<double> flowWeight_;
  std::vector<double> flowRateCap_;
  std::vector<SimTime> flowStart_;
  std::vector<util::Bytes> flowBytes_;
  std::vector<FlowCallback> flowOnComplete_;
  std::vector<std::uint32_t> flowClass_;
  std::vector<std::uint32_t> flowHeapPos_;  // index in its class heap
  std::vector<std::uint32_t> pathOffset_;
  std::vector<std::uint32_t> pathLen_;
  std::vector<std::uint32_t> pathCap_;
  std::vector<std::uint32_t> adjacencyArena_;
  std::vector<std::uint32_t> freeFlowSlots_;
  ClassTable classes_;

  // --- Resolve scratch (reused; no steady-state allocations) ---
  SolverWorkspace workspace_;
  std::vector<std::uint32_t> subsetClasses_;
  std::vector<SolvedClass> solved_;  // the observer report (with an observer attached)
  // Its per-flow expansion (solvedFlows), filled on demand.
  mutable std::vector<FlowId> solvedIds_;
  mutable std::vector<util::MiBps> solvedRates_;
  mutable bool solvedExpanded_ = false;
  std::vector<DrainEntry> drain_;
  // Classes that settled completions emptied, released after the drain.
  std::vector<std::uint32_t> emptiedClasses_;
  SolverWorkspace checkWorkspace_;
  // Check-workspace rates: per flow slot in runSolverCheck, per class slot
  // in checkSkippedWalk.
  std::vector<double> checkRates_;
  std::vector<std::uint32_t> checkSlots_;
  // Solver-check progress shadow, per flow slot: remaining MiB integrated
  // per flow from the rate the previous check read (checkId_ names the flow
  // the shadow belongs to).
  std::vector<std::uint64_t> checkId_;
  std::vector<double> checkRemaining_;
  std::vector<double> checkRate_;
  SimTime checkTime_ = 0.0;

  std::size_t activeCount_ = 0;
  std::uint64_t nextFlowId_ = 1;
  bool resolvePending_ = false;
  bool pendingAllDirty_ = false;
  bool solverCheck_ = false;
  Seconds resolveInterval_ = 0.0;
  std::optional<EventId> wakeup_;
  std::vector<FluidObserver*> observers_;  // attachment order
  /// Cursor of the dispatch loop in notify(); removeObserver pulls it back
  /// when erasing at or before it.  (Unsigned wrap on removing index 0
  /// mid-dispatch is intended: the loop's ++ brings it back to 0.)
  std::size_t dispatchIndex_ = 0;

  std::uint64_t walkEpoch_ = 0;
  std::size_t resolveCount_ = 0;
  std::size_t solverIterations_ = 0;
  bool profiling_ = false;
  double solveSeconds_ = 0.0;
};

}  // namespace beesim::sim
