#include "sim/fluid.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>

#include "util/error.hpp"

namespace beesim::sim {

namespace {
// A flow is finished when fewer than this many MiB remain; guards against
// floating-point residue after piecewise integration.
constexpr double kRemainderEpsMiB = 1e-9;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Relative margin of the slack certificate: a capacity change on a resource
// that was not binding at its component's last walk skips the next walk when
// the new capacity still exceeds the load the walk placed on it by more than
// kSlackMargin · max(1, capacity).  Three orders of magnitude above the
// walk's own saturation threshold, so rounding in the recorded load can
// never carry the resource into saturation.
constexpr double kSlackMargin = 1e3 * kSaturationEps;

// splitmix64 finalizer: scrambles the flow-class key before masking.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}
}  // namespace

CapacityFn constantCapacity(util::MiBps capacity) {
  BEESIM_ASSERT(capacity >= 0.0, "capacity must be >= 0");
  return [capacity](const ResourceLoad&) { return capacity; };
}

// --- ClassTable --------------------------------------------------------

std::uint32_t FluidSimulator::ClassTable::join(const std::uint32_t* path, std::uint32_t len,
                                               double weight, double rateCap) {
  // The key compares weight and cap bitwise: members must be interchangeable
  // in every floating-point operation of the per-flow solve.
  std::uint64_t hash = mix64(std::bit_cast<std::uint64_t>(weight)) ^
                       std::bit_cast<std::uint64_t>(rateCap);
  for (std::uint32_t i = 0; i < len; ++i) hash = mix64(hash ^ path[i]);
  if (!buckets_.empty()) {
    const std::size_t mask = buckets_.size() - 1;
    for (std::size_t b = hash & mask; buckets_[b] != kNone; b = (b + 1) & mask) {
      const auto c = buckets_[b];
      if (matches(c, hash, path, len, weight, rateCap)) {
        ++members_[c];
        return c;
      }
    }
  }

  // Grow before the new class counts as live: grow() re-places live classes.
  if (buckets_.empty() || (size_ + 1) * 10 > buckets_.size() * 7) grow();
  auto c = static_cast<std::uint32_t>(members_.size());
  if (!freeSlots_.empty()) {
    c = freeSlots_.back();
    freeSlots_.pop_back();
  } else {
    hash_.push_back(0);
    weight_.push_back(0.0);
    rateCap_.push_back(0.0);
    members_.push_back(0);
    adjOffset_.push_back(0);
    adjLen_.push_back(0);
    adjCap_.push_back(0);
    rate_.push_back(0.0);
    served_.push_back(0.0);
    heap_.emplace_back();
    solvedBelow_.push_back(0);
    next_.push_back(kNone);
    prev_.push_back(kNone);
  }
  if (adjCap_[c] < len) {  // same reuse rule as the flow path arena
    adjOffset_[c] = static_cast<std::uint32_t>(adjacency_.size());
    adjCap_[c] = len;
    adjacency_.resize(adjacency_.size() + len);
  }
  std::copy(path, path + len, adjacency_.begin() + adjOffset_[c]);
  adjLen_[c] = len;
  hash_[c] = hash;
  weight_[c] = weight;
  rateCap_[c] = rateCap;
  members_[c] = 1;
  rate_[c] = 0.0;
  served_[c] = 0.0;
  heap_[c].clear();  // keeps its capacity
  solvedBelow_[c] = 0;
  next_[c] = kNone;
  prev_[c] = kNone;
  place(c);
  ++size_;
  return c;
}

bool FluidSimulator::ClassTable::matches(std::uint32_t c, std::uint64_t hash,
                                         const std::uint32_t* path, std::uint32_t len,
                                         double weight, double rateCap) const {
  return hash_[c] == hash && adjLen_[c] == len &&
         std::bit_cast<std::uint64_t>(weight_[c]) == std::bit_cast<std::uint64_t>(weight) &&
         std::bit_cast<std::uint64_t>(rateCap_[c]) == std::bit_cast<std::uint64_t>(rateCap) &&
         std::equal(path, path + len, adjacency_.begin() + adjOffset_[c]);
}

void FluidSimulator::ClassTable::place(std::uint32_t c) {
  const std::size_t mask = buckets_.size() - 1;
  std::size_t b = hash_[c] & mask;
  while (buckets_[b] != kNone) b = (b + 1) & mask;
  buckets_[b] = c;
}

void FluidSimulator::ClassTable::grow() {
  buckets_.assign(buckets_.empty() ? 16 : buckets_.size() * 2, kNone);
  for (std::uint32_t c = 0; c < members_.size(); ++c) {
    if (members_[c] != 0) place(c);
  }
}

bool FluidSimulator::ClassTable::leave(std::uint32_t c) {
  BEESIM_ASSERT(members_[c] > 0, "flow left an empty class");
  if (--members_[c] != 0) return false;
  const std::size_t mask = buckets_.size() - 1;
  std::size_t hole = hash_[c] & mask;
  while (buckets_[hole] != c) hole = (hole + 1) & mask;
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole so lookups never need tombstones.
  for (std::size_t j = (hole + 1) & mask; buckets_[j] != kNone; j = (j + 1) & mask) {
    const std::size_t home = hash_[buckets_[j]] & mask;
    const bool reachable = hole <= j ? (home <= hole || home > j) : (home <= hole && home > j);
    if (reachable) {
      buckets_[hole] = buckets_[j];
      hole = j;
    }
  }
  buckets_[hole] = kNone;
  --size_;
  return true;
}

SolverView FluidSimulator::ClassTable::view(std::span<const double> capacity) const {
  return SolverView{capacity, adjacency_, adjOffset_, adjLen_, weight_, rateCap_, members_};
}

// --- FluidObserver -----------------------------------------------------

void FluidObserver::onClassesSolved(const FluidSimulator& fluid, SimTime at,
                                    std::span<const SolvedClass> /*classes*/,
                                    std::size_t activeFlows) {
  const auto flows = fluid.solvedFlows();
  onRatesSolved(at, flows.ids, flows.rates, activeFlows);
}

// --- FluidSimulator ----------------------------------------------------

FluidSimulator::FluidSimulator() {
  const char* check = std::getenv("BEESIM_SOLVER_CHECK");
  if (check != nullptr && *check != '\0' && std::string_view(check) != "0") {
    solverCheck_ = true;
  }
}

void FluidSimulator::addObserver(FluidObserver* observer) {
  BEESIM_ASSERT(observer != nullptr, "addObserver needs an observer");
  if (std::find(observers_.begin(), observers_.end(), observer) != observers_.end()) return;
  observers_.push_back(observer);
}

void FluidSimulator::removeObserver(FluidObserver* observer) {
  const auto it = std::find(observers_.begin(), observers_.end(), observer);
  if (it == observers_.end()) return;
  // Erasing at or before the cursor of a running dispatch shifts the
  // not-yet-visited observers one slot left; pull the cursor back so none
  // of them is skipped for the current event.
  if (static_cast<std::size_t>(it - observers_.begin()) <= dispatchIndex_) --dispatchIndex_;
  observers_.erase(it);
}

// The loop re-reads size() every step so observers may detach mid-dispatch
// (see removeObserver).  Callbacks never nest -- every dispatch runs from the
// single event loop, and observers defer any reaction through the engine --
// so one cursor suffices.
template <typename Fn>
void FluidSimulator::notify(Fn&& fn) {
  for (dispatchIndex_ = 0; dispatchIndex_ < observers_.size(); ++dispatchIndex_) {
    fn(*observers_[dispatchIndex_]);
  }
}

ResourceIndex FluidSimulator::addResource(ResourceSpec spec) {
  BEESIM_ASSERT(spec.capacity != nullptr, "resource needs a capacity model");
  const auto r = static_cast<std::uint32_t>(resources_.size());
  resources_.push_back(std::move(spec));
  resCapacity_.push_back(0.0);
  resFlowCount_.push_back(0);
  resQueueDepth_.push_back(0.0);
  resLoaded_.push_back(0);
  ufParent_.push_back(r);
  ufSize_.push_back(1);
  compHead_.push_back(kNone);
  compTail_.push_back(kNone);
  compFlowCount_.push_back(0);
  compLastProgress_.push_back(0.0);
  compNextCompletion_.push_back(kInf);
  compDirty_.push_back(0);
  compNeedsWalk_.push_back(0);
  compListed_.push_back(0);
  resWalkLoad_.push_back(0.0);
  return ResourceIndex{r};
}

const std::string& FluidSimulator::resourceName(ResourceIndex idx) const {
  BEESIM_ASSERT(idx.value < resources_.size(), "unknown resource index");
  return resources_[idx.value].name;
}

std::uint32_t FluidSimulator::findRoot(std::uint32_t r) const {
  std::uint32_t root = r;
  while (ufParent_[root] != root) root = ufParent_[root];
  while (ufParent_[r] != root) {  // path compression
    const auto next = ufParent_[r];
    ufParent_[r] = root;
    r = next;
  }
  return root;
}

std::uint32_t FluidSimulator::unite(std::uint32_t a, std::uint32_t b, SimTime at) {
  if (a == b) return a;
  BEESIM_ASSERT(compLastProgress_[a] == at && compLastProgress_[b] == at,
                "components must be advanced to the merge instant");
  if (ufSize_[a] < ufSize_[b]) std::swap(a, b);
  ufParent_[b] = a;
  ufSize_[a] += ufSize_[b];
  if (compHead_[b] != kNone) {
    if (compHead_[a] == kNone) {
      compHead_[a] = compHead_[b];
    } else {
      classes_.next(compTail_[a]) = compHead_[b];
      classes_.prev(compHead_[b]) = compTail_[a];
    }
    compTail_[a] = compTail_[b];
  }
  compFlowCount_[a] += compFlowCount_[b];
  compNextCompletion_[a] = std::min(compNextCompletion_[a], compNextCompletion_[b]);
  if (compNeedsWalk_[b] != 0) compNeedsWalk_[a] = 1;
  if (compDirty_[b] != 0 && compDirty_[a] == 0) markDirty(a, false);
  compHead_[b] = kNone;
  compTail_[b] = kNone;
  compFlowCount_[b] = 0;
  compNextCompletion_[b] = kInf;
  compDirty_[b] = 0;
  compNeedsWalk_[b] = 0;
  listComponent(a);
  return a;
}

void FluidSimulator::markDirty(std::uint32_t root, bool needsWalk) {
  if (needsWalk) compNeedsWalk_[root] = 1;
  if (compDirty_[root] != 0) return;
  compDirty_[root] = 1;
  dirtyRoots_.push_back(root);
}

template <typename Fn>
void FluidSimulator::forEachActiveRoot(Fn&& fn) {
  for (std::size_t i = 0; i < activeRoots_.size();) {
    const auto r = activeRoots_[i];
    if (findRoot(r) != r || compFlowCount_[r] == 0) {
      compListed_[r] = 0;
      activeRoots_[i] = activeRoots_.back();
      activeRoots_.pop_back();
      continue;
    }
    fn(r);
    ++i;
  }
}

void FluidSimulator::listComponent(std::uint32_t root) {
  if (compListed_[root] != 0) return;
  compListed_[root] = 1;
  activeRoots_.push_back(root);
}

void FluidSimulator::resetComponents() {
  const auto n = static_cast<std::uint32_t>(resources_.size());
  const SimTime t = engine_.now();
  for (std::uint32_t r = 0; r < n; ++r) {
    ufParent_[r] = r;
    ufSize_[r] = 1;
    compHead_[r] = kNone;
    compTail_[r] = kNone;
    compFlowCount_[r] = 0;
    compLastProgress_[r] = t;
    compNextCompletion_[r] = kInf;
    compDirty_[r] = 0;
    compNeedsWalk_[r] = 0;
    compListed_[r] = 0;
    resLoaded_[r] = 0;
  }
  activeRoots_.clear();
  dirtyRoots_.clear();
  loadedRes_.clear();
  pendingAllDirty_ = false;
}

std::uint32_t FluidSimulator::allocateFlowSlot() {
  if (!freeFlowSlots_.empty()) {
    const auto slot = freeFlowSlots_.back();
    freeFlowSlots_.pop_back();
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(flowId_.size());
  flowId_.push_back(0);
  flowWeight_.push_back(1.0);
  flowRateCap_.push_back(0.0);
  flowStart_.push_back(0.0);
  flowBytes_.push_back(0);
  flowOnComplete_.emplace_back();
  flowClass_.push_back(kNone);
  flowHeapPos_.push_back(kNone);
  pathOffset_.push_back(0);
  pathLen_.push_back(0);
  pathCap_.push_back(0);
  return slot;
}

void FluidSimulator::freeFlowSlot(std::uint32_t slot) {
  flowOnComplete_[slot] = nullptr;
  freeFlowSlots_.push_back(slot);
}

FlowId FluidSimulator::startFlow(std::span<const ResourceIndex> path, util::Bytes bytes,
                                 double queueWeight, util::MiBps rateCap,
                                 FlowCallback&& onComplete) {
  BEESIM_ASSERT(!path.empty(), "flow path must not be empty");
  for (const auto r : path) {
    BEESIM_ASSERT(r.value < resources_.size(), "flow crosses an unknown resource");
  }
  const SimTime t = engine_.now();

  if (bytes == 0) {
    const FlowId id{nextFlowId_++};
    // Degenerate flow: completes instantly, never enters the solver.  The
    // observer still sees the full start/complete lifecycle so trace-derived
    // flow counts agree with the callers' view.
    notify([&](FluidObserver& o) { o.onFlowStarted(id, path, 0, t); });
    if (!observers_.empty() || onComplete) {
      FlowStats stats{id, t, t, 0};
      engine_.scheduleAfter(0.0, [this, cb = std::move(onComplete), stats] {
        notify([&](FluidObserver& o) { o.onFlowCompleted(stats); });
        if (cb) cb(stats);
      });
    }
    return id;
  }

  const auto slot = allocateFlowSlot();
  const FlowId id{nextFlowId_++, slot};
  flowId_[slot] = id.value;
  flowWeight_[slot] = queueWeight;
  flowRateCap_[slot] = rateCap;
  flowStart_[slot] = t;
  flowBytes_[slot] = bytes;
  flowOnComplete_[slot] = std::move(onComplete);

  const auto len = static_cast<std::uint32_t>(path.size());
  if (pathCap_[slot] < len) {
    // The slot's previous arena region is too small; claim a fresh one at
    // the end.  Slots recycled for same-shaped flows reuse their region, so
    // the arena stops growing once the workload's shapes have been seen.
    pathOffset_[slot] = static_cast<std::uint32_t>(adjacencyArena_.size());
    pathCap_[slot] = len;
    adjacencyArena_.resize(adjacencyArena_.size() + len);
  }
  pathLen_[slot] = len;
  for (std::uint32_t i = 0; i < len; ++i) {
    adjacencyArena_[pathOffset_[slot] + i] = path[i].value;
  }

  // Settle and merge the components the path touches.  Banking each
  // component's progress *before* membership changes keeps the piecewise
  // integration exact: old rates applied up to t, new rates from t on.
  std::uint32_t root = findRoot(path[0].value);
  advanceComponent(root, t);
  for (std::uint32_t i = 1; i < len; ++i) {
    const auto rr = findRoot(path[i].value);
    if (rr == root) continue;
    advanceComponent(rr, t);
    root = unite(root, rr, t);
  }

  // Join the class after the merge: its served counter is current at t, so
  // the target counts only progress from t on.
  const auto c = classes_.join(adjacencyArena_.data() + pathOffset_[slot], len,
                               queueWeight, rateCap);
  if (classes_.members(c) == 1) {  // new class: append to the component list
    classes_.prev(c) = compTail_[root];
    if (compTail_[root] == kNone) {
      compHead_[root] = c;
    } else {
      classes_.next(compTail_[root]) = c;
    }
    compTail_[root] = c;
  }
  flowClass_[slot] = c;
  auto& heap = classes_.heap(c);
  heap.push_back(Member{classes_.served(c) + util::toMiB(bytes), id.value, slot});
  heapPlace(heap, static_cast<std::uint32_t>(heap.size() - 1), heap.back());
  ++compFlowCount_[root];
  for (std::uint32_t i = 0; i < len; ++i) {
    const auto r = path[i].value;
    if (resLoaded_[r] == 0) {
      resLoaded_[r] = 1;
      loadedRes_.push_back(r);
    }
    ++resFlowCount_[r];
    resQueueDepth_[r] += queueWeight;
  }
  markDirty(root);
  listComponent(root);

  notify([&](FluidObserver& o) { o.onFlowStarted(id, path, bytes, t); });
  ++activeCount_;
  scheduleResolve();
  return id;
}

util::MiBps FluidSimulator::flowRate(FlowId id) const {
  const auto slot = liveSlot(id);
  if (slot == kNone) return 0.0;
  // A member that joined after its class's last solve has no rate yet.
  const auto c = flowClass_[slot];
  return id.value < classes_.solvedBelow(c) ? classes_.rate(c) : 0.0;
}

bool FluidSimulator::flowActive(FlowId id) const { return liveSlot(id) != kNone; }

std::optional<util::Bytes> FluidSimulator::cancelFlow(FlowId id) {
  const auto slot = liveSlot(id);
  if (slot == kNone) return std::nullopt;
  const SimTime t = engine_.now();
  const auto root = findRoot(adjacencyArena_[pathOffset_[slot]]);
  advanceComponent(root, t);

  const auto c = flowClass_[slot];
  const auto pos = flowHeapPos_[slot];
  const double remainingMiB =
      std::max(0.0, classes_.heap(c)[pos].target - classes_.served(c));
  const auto remaining = static_cast<util::Bytes>(
      std::min<double>(std::ceil(remainingMiB * static_cast<double>(util::kMiB)),
                       static_cast<double>(flowBytes_[slot])));
  const FlowStats cancelled{id, flowStart_[slot], t, remaining};
  notify([&](FluidObserver& o) { o.onFlowCancelled(cancelled); });

  heapErase(c, pos);
  if (retireFlow(root, slot)) classes_.release(c);  // observers saw the cancel
  freeFlowSlot(slot);
  markDirty(root);
  scheduleResolve();
  return remaining;
}

void FluidSimulator::invalidateCapacities() {
  // Nothing flows and no resolve is queued: that resolve would only reset
  // the already-reset components.  Capacity models are pure in (load, time)
  // and the next flow's resolve evaluates every loaded resource afresh.
  if (activeCount_ == 0 && !resolvePending_) return;
  pendingAllDirty_ = true;
  scheduleResolve();
}

void FluidSimulator::setSolverEpsilon(double epsilon) {
  BEESIM_ASSERT(epsilon == 0.0, "solver epsilon must be 0: every resolve is exact");
}

void FluidSimulator::scheduleResolve() {
  if (resolvePending_) return;
  resolvePending_ = true;
  engine_.scheduleAfter(0.0, [this] {
    resolvePending_ = false;
    resolveNow();
  });
}

void FluidSimulator::advanceComponent(std::uint32_t root, SimTime t) {
  BEESIM_ASSERT(t >= compLastProgress_[root], "component progress moved backwards");
  const double dt = t - compLastProgress_[root];
  if (dt > 0.0) {
    for (auto c = compHead_[root]; c != kNone; c = classes_.next(c)) {
      classes_.served(c) += classes_.rate(c) * dt;
    }
  }
  compLastProgress_[root] = t;
}

void FluidSimulator::heapPlace(std::vector<Member>& heap, std::uint32_t pos, Member m) {
  const auto before = [](const Member& a, const Member& b) {
    return a.target < b.target || (a.target == b.target && a.id < b.id);
  };
  // Sift up, then down; only one of the two moves anything.
  while (pos > 0) {
    const auto parent = (pos - 1) / 2;
    if (!before(m, heap[parent])) break;
    heap[pos] = heap[parent];
    flowHeapPos_[heap[pos].slot] = pos;
    pos = parent;
  }
  const auto n = static_cast<std::uint32_t>(heap.size());
  while (true) {
    auto child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap[child + 1], heap[child])) ++child;
    if (!before(heap[child], m)) break;
    heap[pos] = heap[child];
    flowHeapPos_[heap[pos].slot] = pos;
    pos = child;
  }
  heap[pos] = m;
  flowHeapPos_[m.slot] = pos;
}

void FluidSimulator::heapErase(std::uint32_t c, std::uint32_t pos) {
  auto& heap = classes_.heap(c);
  const Member last = heap.back();
  heap.pop_back();
  if (pos < heap.size()) heapPlace(heap, pos, last);
}

bool FluidSimulator::retireFlow(std::uint32_t root, std::uint32_t slot) {
  const auto* adj = adjacencyArena_.data() + pathOffset_[slot];
  for (std::uint32_t i = 0; i < pathLen_[slot]; ++i) {
    const auto r = adj[i];
    --resFlowCount_[r];
    resQueueDepth_[r] -= flowWeight_[slot];
    // Reset to exactly zero when the resource empties so repeated +/- of
    // doubles cannot leave a residue in the queue-depth accounting.
    if (resFlowCount_[r] == 0) resQueueDepth_[r] = 0.0;
  }
  const auto c = flowClass_[slot];
  const bool emptied = classes_.leave(c);
  if (emptied) {  // unlink from the component list
    const auto prev = classes_.prev(c);
    const auto next = classes_.next(c);
    (prev == kNone ? compHead_[root] : classes_.next(prev)) = next;
    (next == kNone ? compTail_[root] : classes_.prev(next)) = prev;
  }
  --compFlowCount_[root];
  flowId_[slot] = 0;
  --activeCount_;
  return emptied;
}

void FluidSimulator::settleComponent(std::uint32_t root, SimTime t) {
  advanceComponent(root, t);
  for (auto c = compHead_[root]; c != kNone;) {
    const auto next = classes_.next(c);  // c is unlinked if it empties
    auto& heap = classes_.heap(c);
    const double served = classes_.served(c);
    while (!heap.empty() && heap.front().target - served <= kRemainderEpsMiB) {
      const auto slot = heap.front().slot;
      heapErase(c, 0);
      // Callbacks are deferred to the drain list: an onComplete that starts
      // new flows (the IOR segment chain does) must not mutate component
      // lists while this sweep walks them.
      drain_.push_back(DrainEntry{FlowStats{FlowId{flowId_[slot], slot}, flowStart_[slot], t,
                                            flowBytes_[slot]},
                                  std::move(flowOnComplete_[slot])});
      if (retireFlow(root, slot)) emptiedClasses_.push_back(c);
    }
    c = next;
  }
}

void FluidSimulator::resolveNow() {
  // RAII timer so every exit path (including the drained early-return) banks
  // its wall time; the clock is only touched when profiling is on.
  struct ProfileScope {
    bool on;
    double& sink;
    std::chrono::steady_clock::time_point start;
    explicit ProfileScope(bool enabled, double& total)
        : on(enabled), sink(total),
          start(enabled ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{}) {}
    ~ProfileScope() {
      if (on) {
        sink += std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                    .count();
      }
    }
  } profile(profiling_, solveSeconds_);

  const SimTime t = engine_.now();
  ++resolveCount_;

  // 1. Components whose next completion is due: bank progress and move the
  //    finished flows out.  A due component is re-solved regardless, so its
  //    completion horizon is refreshed even when rounding left a sliver.
  forEachActiveRoot([&](std::uint32_t r) {
    if (compNextCompletion_[r] <= t) {
      settleComponent(r, t);
      markDirty(r);
    }
  });

  // 2. Run the deferred completion callbacks, in ascending flow id.  These
  //    may start new flows (which merge/dirty components and queue another
  //    +0 resolve -- that one will find everything clean) or invalidate
  //    capacities.  A flow's slot is freed once every observer has seen it
  //    complete, and a class the settle emptied once the whole drain has,
  //    so an earlier callback's new flow can take neither the slot of a
  //    flow an observer still holds nor the slot (and path) of its class.
  std::sort(drain_.begin(), drain_.end(), [](const DrainEntry& a, const DrainEntry& b) {
    return a.stats.id.value < b.stats.id.value;
  });
  for (auto& entry : drain_) {
    notify([&](FluidObserver& o) { o.onFlowCompleted(entry.stats); });
    freeFlowSlot(entry.stats.id.slot);
    if (entry.onComplete) entry.onComplete(entry.stats);
  }
  drain_.clear();
  for (const auto c : emptiedClasses_) classes_.release(c);
  emptiedClasses_.clear();

  // 3. System drained: reset the merge-only union-find so the next episode
  //    starts from singleton components.
  if (activeCount_ == 0) {
    resetComponents();
    return;
  }

  // 4. Evaluate the capacity of every *loaded* resource (capacity models are
  //    pure given (load, time), so clean components keep mathematically
  //    identical rates) and dirty the component of any resource whose
  //    capacity moved.  The loaded list is compacted lazily so this loop --
  //    the only per-resolve full sweep left -- costs O(resources carrying
  //    flows), not O(cluster inventory).  A transition to or from exactly
  //    zero forces a walk so stall/unstall is always observed, and so does a
  //    change that fails the slack test (the resource was binding at the
  //    last walk, or its new capacity comes within kSlackMargin of the load
  //    the walk placed on it).
  if (pendingAllDirty_) {
    pendingAllDirty_ = false;
    forEachActiveRoot([&](std::uint32_t r) { markDirty(r, false); });
  }
  for (std::size_t i = 0; i < loadedRes_.size();) {
    const auto r = loadedRes_[i];
    if (resFlowCount_[r] == 0) {
      resLoaded_[r] = 0;
      loadedRes_[i] = loadedRes_.back();
      loadedRes_.pop_back();
      continue;
    }
    const ResourceLoad load{resFlowCount_[r], resQueueDepth_[r], t};
    const double cap = resources_[r].capacity(load);
    BEESIM_ASSERT(cap >= 0.0,
                  "capacity model returned a negative rate for " + resources_[r].name);
    if (cap != resCapacity_[r]) {
      const bool zeroEdge = cap == 0.0 || resCapacity_[r] == 0.0;
      const bool slack = cap - resWalkLoad_[r] > kSlackMargin * std::max(1.0, cap);
      resCapacity_[r] = cap;
      markDirty(findRoot(r), zeroEdge || !slack);
    }
    ++i;
  }

  // 5. Re-solve each dirty component in isolation (max-min decomposes
  //    exactly over connected components), one solver slot per flow class:
  //    the component's class list is solved with member counts as
  //    multiplicities, and each class's earliest member (its heap top) gives
  //    the class's completion horizon.  A component re-solved without
  //    needing a walk (only slack capacities moved since its last one) keeps
  //    its class rates: the walk would reproduce them bit for bit (see the
  //    header comment), so everything else -- progress, stamps, horizon,
  //    observer report -- runs as if it had.
  solved_.clear();
  solvedExpanded_ = false;
  const bool record = !observers_.empty();
  const SolverView view = classes_.view(resCapacity_);
  for (std::size_t i = 0; i < dirtyRoots_.size(); ++i) {
    const auto listed = dirtyRoots_[i];
    const auto r = findRoot(listed);
    if (compDirty_[r] == 0) continue;  // merged away or already solved
    compDirty_[r] = 0;
    const bool walk = compNeedsWalk_[r] != 0;
    compNeedsWalk_[r] = 0;
    if (compFlowCount_[r] == 0) {
      compNextCompletion_[r] = kInf;
      continue;
    }
    advanceComponent(r, t);
    subsetClasses_.clear();
    for (auto c = compHead_[r]; c != kNone; c = classes_.next(c)) subsetClasses_.push_back(c);
    if (walk) {
      solverIterations_ += workspace_.solveSubset(view, subsetClasses_, classes_.rates());
      ++walkEpoch_;
      if (solverCheck_) checkWalk(view, r);
      for (const auto res : workspace_.touchedResources()) {
        resWalkLoad_[res] =
            workspace_.saturated(res) ? kInf : resCapacity_[res] - workspace_.residual(res);
      }
    } else if (solverCheck_) {
      checkSkippedWalk(r);
    }
    double horizon = kInf;
    for (const auto c : subsetClasses_) {
      const double rate = classes_.rate(c);
      const auto& heap = classes_.heap(c);
      classes_.solvedBelow(c) = nextFlowId_;
      if (rate > 0.0) {
        horizon = std::min(horizon, std::max(0.0, heap.front().target - classes_.served(c)) / rate);
      }
      if (record) solved_.push_back(SolvedClass{c, classes_.members(c), rate});
    }
    compNextCompletion_[r] = std::isfinite(horizon) ? t + horizon : kInf;
  }
  dirtyRoots_.clear();

  if (solverCheck_) runSolverCheck();

  if (!solved_.empty()) {
    notify([&](FluidObserver& o) { o.onClassesSolved(*this, t, solved_, activeCount_); });
  }
  scheduleNextWakeup();
}

FluidSimulator::SolvedFlows FluidSimulator::solvedFlows() const {
  if (!solvedExpanded_) {
    solvedExpanded_ = true;
    solvedIds_.clear();
    solvedRates_.clear();
    for (const auto& s : solved_) {
      for (const auto& m : classes_.heap(s.cls)) {
        solvedIds_.push_back(FlowId{m.id, m.slot});
        solvedRates_.push_back(s.rate);
      }
    }
  }
  return {solvedIds_, solvedRates_};
}

void FluidSimulator::scheduleNextWakeup() {
  if (wakeup_) {
    engine_.cancel(*wakeup_);
    wakeup_.reset();
  }
  if (activeCount_ == 0) return;

  const SimTime t = engine_.now();
  double horizon = kInf;
  forEachActiveRoot(
      [&](std::uint32_t r) { horizon = std::min(horizon, compNextCompletion_[r] - t); });
  if (resolveInterval_ > 0.0) horizon = std::min(horizon, resolveInterval_);
  if (!std::isfinite(horizon)) {
    // Every active flow is stalled (rate 0).  If no external event will ever
    // change capacities, run() will detect the deadlock.
    return;
  }
  // Clamp the advance to the clock's representable granularity: at a large
  // virtual time T, adding a horizon below ~T*eps would not move the clock
  // at all, and a nearly-finished flow (~1e-12 MiB left) would respin this
  // wakeup at the same instant forever.  The clamp (a few ULPs of T) is far
  // below any physically meaningful interval.
  const double minAdvance =
      std::max(1e-9, t * 4.0 * std::numeric_limits<double>::epsilon());
  horizon = std::max(horizon, minAdvance);
  wakeup_ = engine_.scheduleAfter(horizon, [this] {
    wakeup_.reset();
    resolveNow();
  });
}

void FluidSimulator::checkWalk(const SolverView& view, std::uint32_t root) {
  const auto violation = maxMinViolation(view, subsetClasses_, classes_.rates());
  BEESIM_ASSERT(violation.empty(), "solver check: the walk of the component of " +
                                       resources_[root].name + " is not max-min fair: " +
                                       violation);
}

void FluidSimulator::checkSkippedWalk(std::uint32_t root) {
  // The certificate claims the walk would reproduce the kept rates exactly,
  // so the oracle demands bit equality, not a tolerance.
  checkRates_.resize(classes_.rates().size());
  checkWorkspace_.solveSubset(classes_.view(resCapacity_), subsetClasses_, checkRates_);
  for (const auto c : subsetClasses_) {
    BEESIM_ASSERT(std::bit_cast<std::uint64_t>(checkRates_[c]) ==
                      std::bit_cast<std::uint64_t>(classes_.rate(c)),
                  "solver check: skipped walk of the component of " + resources_[root].name +
                      " would move a class rate (" + std::to_string(classes_.rate(c)) +
                      " kept vs " + std::to_string(checkRates_[c]) + " walked)");
  }
}

void FluidSimulator::runSolverCheck() {
  // Differential mode: recount loads exactly and re-solve *all* live flows
  // as one subset with a scratch workspace, then compare against the
  // incrementally maintained state.  Allocation-freedom is not a goal here;
  // this path only runs when explicitly enabled.
  std::vector<std::uint32_t> countCheck(resources_.size(), 0);
  std::vector<double> depthCheck(resources_.size(), 0.0);
  std::vector<std::uint32_t> classCheck;
  checkSlots_.clear();
  for (std::uint32_t slot = 0; slot < flowId_.size(); ++slot) {
    if (flowId_[slot] == 0) continue;
    checkSlots_.push_back(slot);
    classCheck.push_back(flowClass_[slot]);
    const auto* adj = adjacencyArena_.data() + pathOffset_[slot];
    for (std::uint32_t i = 0; i < pathLen_[slot]; ++i) {
      ++countCheck[adj[i]];
      depthCheck[adj[i]] += flowWeight_[slot];
    }
  }
  BEESIM_ASSERT(checkSlots_.size() == activeCount_,
                "solver check: live-slot count disagrees with activeFlows()");
  // Every class's member count and heap must match the live flows pointing
  // at it, and every class must sit in its own component's class list.
  std::sort(classCheck.begin(), classCheck.end());
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < classCheck.size();) {
    std::size_t j = i;
    while (j < classCheck.size() && classCheck[j] == classCheck[i]) ++j;
    BEESIM_ASSERT(classes_.members(classCheck[i]) == j - i &&
                      classes_.heap(classCheck[i]).size() == j - i,
                  "solver check: stale flow-class member count");
    ++distinct;
    i = j;
  }
  BEESIM_ASSERT(distinct == classes_.size(), "solver check: stale flow-class table");
  std::size_t compTotal = 0;
  std::size_t listedClasses = 0;
  for (const auto r : activeRoots_) {
    if (findRoot(r) != r) continue;
    compTotal += compFlowCount_[r];
    for (auto c = compHead_[r]; c != kNone; c = classes_.next(c)) {
      BEESIM_ASSERT(findRoot(classes_.firstResource(c)) == r,
                    "solver check: flow class listed in a foreign component");
      ++listedClasses;
    }
  }
  BEESIM_ASSERT(compTotal == activeCount_,
                "solver check: component flow counts disagree with activeFlows()");
  BEESIM_ASSERT(listedClasses == classes_.size(),
                "solver check: component class lists disagree with the class table");
  for (std::uint32_t r = 0; r < resources_.size(); ++r) {
    BEESIM_ASSERT(countCheck[r] == resFlowCount_[r],
                  "solver check: stale flow count on " + resources_[r].name);
    BEESIM_ASSERT(std::abs(depthCheck[r] - resQueueDepth_[r]) <=
                      1e-9 * std::max(1.0, std::abs(depthCheck[r])),
                  "solver check: stale queue depth on " + resources_[r].name);
  }

  checkRates_.resize(flowId_.size());
  const SolverView view{resCapacity_, adjacencyArena_, pathOffset_,
                        pathLen_,     flowWeight_,     flowRateCap_};
  // The scratch solve is per flow (no classes, no multiplicities) over every
  // live flow at once, so it is an independent oracle for the class
  // aggregation, the incremental components and per-class progress.
  checkWorkspace_.solveSubset(view, checkSlots_, checkRates_);
  const SimTime t = engine_.now();
  checkId_.resize(flowId_.size(), 0);
  checkRemaining_.resize(flowId_.size(), 0.0);
  checkRate_.resize(flowId_.size(), 0.0);
  for (const auto slot : checkSlots_) {
    const FlowId id{flowId_[slot], slot};
    const double expect = checkRates_[slot];
    const double got = flowRate(id);
    BEESIM_ASSERT(std::abs(got - expect) <= 1e-9 * std::max(1.0, std::abs(expect)),
                  "solver check: incremental rate diverged for flow #" +
                      std::to_string(id.value) + " (" + std::to_string(got) +
                      " vs " + std::to_string(expect) + ")");

    // Progress: the class counters must agree with a per-flow integration of
    // the rates each previous check read.  Every start queues a resolve at
    // its own instant, so a flow this check has not seen started now and has
    // made no progress -- unless the check was off until now, in which case
    // its shadow starts from the maintained value.
    // Components bank progress lazily, so a clean one is extrapolated to now
    // the way its next advance will do it (without mutating it).
    const auto c = flowClass_[slot];
    const double pending =
        classes_.rate(c) * (t - compLastProgress_[findRoot(classes_.firstResource(c))]);
    const double remaining =
        classes_.heap(c)[flowHeapPos_[slot]].target - (classes_.served(c) + pending);
    const double sizeMiB = util::toMiB(flowBytes_[slot]);
    if (checkId_[slot] != id.value) {
      checkId_[slot] = id.value;
      checkRemaining_[slot] = flowStart_[slot] == t ? sizeMiB : remaining;
    } else {
      checkRemaining_[slot] =
          std::max(0.0, checkRemaining_[slot] - checkRate_[slot] * (t - checkTime_));
    }
    checkRate_[slot] = got;
    BEESIM_ASSERT(std::abs(remaining - checkRemaining_[slot]) <= 1e-9 * std::max(1.0, sizeMiB),
                  "solver check: class progress diverged for flow #" +
                      std::to_string(id.value) + " (" + std::to_string(remaining) +
                      " MiB left vs " + std::to_string(checkRemaining_[slot]) + ")");
  }
  checkTime_ = t;
}

void FluidSimulator::run() {
  engine_.run();
  if (activeCount_ == 0) return;
  // Events drained but flows remain: all rates are zero and nothing will
  // change them.  Name the first few stalled flows and their paths -- the
  // resource whose capacity model returned 0 is almost always in there.
  std::string msg = "fluid simulation deadlocked: " + std::to_string(activeCount_) +
                    " flow(s) stalled at zero rate";
  std::size_t listed = 0;
  for (std::uint32_t slot = 0; slot < flowId_.size() && listed < 5; ++slot) {
    if (flowId_[slot] == 0) continue;
    ++listed;
    msg += "\n  flow #" + std::to_string(flowId_[slot]) + " via [";
    for (std::uint32_t i = 0; i < pathLen_[slot]; ++i) {
      if (i > 0) msg += " -> ";
      msg += resources_[adjacencyArena_[pathOffset_[slot] + i]].name;
    }
    msg += "]";
  }
  if (activeCount_ > listed) {
    msg += "\n  ... and " + std::to_string(activeCount_ - listed) + " more";
  }
  BEESIM_ASSERT(false, msg);
}

}  // namespace beesim::sim
