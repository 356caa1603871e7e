#include "beegfs/filesystem.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <type_traits>

#include "beegfs/peer_median.hpp"
#include "qos/manager.hpp"
#include "util/error.hpp"

namespace beesim::beegfs {

namespace {

constexpr util::Seconds kNever = HUGE_VAL;  // the due time of a check that is off
constexpr double kBackoffFactor = 2.0;       // retry wait growth per attempt
/// The round-robin pointer's phase when an application arrives is set by all
/// the creates other users performed before; each mount observes an
/// arbitrary phase that is (mostly) a multiple of the common create
/// granularity.  Stride 2 reproduces the allocation sets the paper observed
/// for every stripe count (count 4 always (1,3), count 2 split between
/// (1,1)/(0,2), count 6 between (3,3)/(2,4), ...).
constexpr std::size_t kRrPointerPhaseStride = 2;
constexpr double kResyncQueueWeight = 0.25;  // resync yields to chunk flows (weight 1.0)

/// Top `picked` up to `count` entries with members of `pool` it lacks, drawn
/// uniformly from `rng` (a flat ascending fill would bias every topped-up
/// stripe toward the low-numbered mirror groups).
void topUpRandomly(std::vector<std::size_t>& picked, const std::vector<std::size_t>& pool,
                   std::size_t count, util::Rng& rng) {
  std::vector<std::size_t> candidates;
  for (const auto x : pool) {
    if (std::find(picked.begin(), picked.end(), x) == picked.end()) candidates.push_back(x);
  }
  while (picked.size() < count && !candidates.empty()) {
    const auto pick = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(candidates.size()) - 1));
    picked.push_back(candidates[pick]);
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));
  }
}

/// Callbacks on the chunk path capture at most 16 trivially copyable bytes,
/// so std::function stores them inline: issuing a chunk allocates nothing.
template <class F>
constexpr bool kFitsInline = sizeof(F) <= 16 && std::is_trivially_copyable_v<F>;

}  // namespace

FileSystem::FileSystem(Deployment& deployment, util::Rng chooserRng)
    : deployment_(deployment),
      rng_(chooserRng),
      chooser_(makeChooser(deployment.params(), deployment.cluster())) {
  // A freshly-mounted client observes the round-robin pointer wherever the
  // production system's create history left it.
  if (auto* rr = dynamic_cast<RoundRobinChooser*>(chooser_.get())) {
    rr->randomizePhase(rng_, kRrPointerPhaseStride);
  }
  if (const std::size_t groups = deployment.mgmt().mirrorGroupCount(); groups > 0) {
    inflightMirror_.resize(groups);
    resync_.assign(groups, sim::FlowId{});
    // Mirror failover is mgmtd-driven: the registry flip *is* the
    // switchover signal, so mirrored chunks need no client watchdog.
    deployment.mgmt().addTargetStateListener(
        [this](std::size_t target, bool online) { onMirrorTargetState(target, online); });
  }
}

FileHandle FileSystem::create(const std::string& path) {
  BEESIM_ASSERT(!path.empty() && path.front() == '/', "file paths must be absolute");
  const auto& settings = deployment_.params().defaultStripe;
  const auto& cluster = deployment_.cluster();

  if (settings.mirror) {
    const auto& mgmt = deployment_.mgmt();
    if (mgmt.mirrorGroupCount() == 0) {
      throw util::ConfigError("mirrored striping requires registered mirror groups");
    }
    // Stripe over buddy-mirror groups: map the chooser's picks onto distinct
    // usable groups (consistent copy reachable), then anchor each stripe
    // slot at the group's *current* primary.
    const auto usable = [&](std::size_t gid) {
      const auto& group = mgmt.mirrorGroup(gid);
      return group.state != MirrorState::kBad && mgmt.target(group.primary).online;
    };
    std::vector<std::size_t> usableGroups;
    for (std::size_t gid = 0; gid < mgmt.mirrorGroupCount(); ++gid) {
      if (usable(gid)) usableGroups.push_back(gid);
    }
    if (usableGroups.empty()) throw util::ConfigError("no usable mirror groups");
    const std::size_t count =
        std::min<std::size_t>(settings.stripeCount, usableGroups.size());
    // Each usable group's primary is online, so the online filter leaves at
    // least `count` eligible targets for the chooser.
    const auto picks = chooser_->choose(
        std::min<std::size_t>(count, cluster.targetCount()), cluster, rng_,
        [&](std::size_t t) { return mgmt.target(t).online; });
    std::vector<std::size_t> groups;
    for (const auto t : picks) {
      const auto gid = mgmt.mirrorGroupOf(t);
      if (gid && usable(*gid) &&
          std::find(groups.begin(), groups.end(), *gid) == groups.end()) {
        groups.push_back(*gid);
      }
    }
    // Fill up with random usable groups the picks did not cover.
    topUpRandomly(groups, usableGroups, count, rng_);
    std::vector<std::size_t> targets;
    targets.reserve(groups.size());
    for (const auto gid : groups) targets.push_back(mgmt.mirrorGroup(gid).primary);
    files_.push_back(FileInfo{path, StripePattern(std::move(targets), settings.chunkSize),
                              0, /*mirrored=*/true});
    return FileHandle{files_.size() - 1};
  }

  const auto online = deployment_.mgmt().onlineTargets();
  if (online.empty()) throw util::ConfigError("no online storage targets");
  const std::size_t count =
      std::min<std::size_t>(settings.stripeCount, online.size());

  // The registry state is pushed into the chooser: a real mgmtd only hands
  // out online targets, so the heuristics themselves skip dead ones (the
  // count is already clamped to the online population above).
  const auto isOnline = [&](std::size_t t) { return deployment_.mgmt().target(t).online; };
  std::vector<std::size_t> targets = chooser_->choose(
      std::min<std::size_t>(count, cluster.targetCount()), cluster, rng_, isOnline);

  BEESIM_ASSERT(std::all_of(targets.begin(), targets.end(), isOnline),
                "the target chooser picked an offline target");

  files_.push_back(FileInfo{path, StripePattern(std::move(targets), settings.chunkSize), 0});
  return FileHandle{files_.size() - 1};
}

FileHandle FileSystem::createPinned(const std::string& path, std::vector<std::size_t> targets,
                                    util::Bytes chunkSize) {
  BEESIM_ASSERT(!path.empty() && path.front() == '/', "file paths must be absolute");
  for (const auto t : targets) {
    BEESIM_ASSERT(t < deployment_.cluster().targetCount(), "pinned target out of range");
  }
  const bool mirrored =
      deployment_.params().defaultStripe.mirror && deployment_.mgmt().mirrorGroupCount() > 0;
  files_.push_back(
      FileInfo{path, StripePattern(std::move(targets), chunkSize), 0, mirrored});
  return FileHandle{files_.size() - 1};
}

const FileInfo& FileSystem::info(FileHandle handle) const {
  BEESIM_ASSERT(handle.value < files_.size(), "unknown file handle");
  return files_[handle.value];
}

void FileSystem::enableWeightedChooser() {
  if (dynamic_cast<WeightedChooser*>(chooser_.get()) != nullptr) return;
  chooser_ = std::make_unique<WeightedChooser>(std::move(chooser_), deployment_.mgmt());
}

std::size_t FileSystem::effectiveTarget(FileHandle handle, std::size_t slot) const {
  BEESIM_ASSERT(handle.value < files_.size(), "unknown file handle");
  const auto& file = files_[handle.value];
  BEESIM_ASSERT(slot < file.pattern.targets().size(), "stripe slot out of range");
  if (const auto sub = substitutes_.find({handle.value, slot}); sub != substitutes_.end()) {
    return sub->second;
  }
  return file.pattern.targets()[slot];
}

util::Bytes FileSystem::slotBytes(FileHandle handle, std::size_t slot) const {
  BEESIM_ASSERT(handle.value < files_.size(), "unknown file handle");
  const auto& file = files_[handle.value];
  BEESIM_ASSERT(slot < file.pattern.targets().size(), "stripe slot out of range");
  return file.pattern.bytesOnSlot(0, file.size, slot);
}

sim::FlowId FileSystem::migrateSlot(FileHandle handle, std::size_t slot,
                                    std::size_t newTarget, double queueWeight,
                                    double rateCap,
                                    std::function<void(const sim::FlowStats&)> done) {
  BEESIM_ASSERT(handle.value < files_.size(), "unknown file handle");
  const auto& file = files_[handle.value];
  BEESIM_ASSERT(slot < file.pattern.targets().size(), "stripe slot out of range");
  BEESIM_ASSERT(newTarget < deployment_.cluster().targetCount(),
                "migration target out of range");
  BEESIM_ASSERT(!file.mirrored, "mirrored slots move via their buddy groups");
  const std::size_t oldTarget = effectiveTarget(handle, slot);
  BEESIM_ASSERT(oldTarget != newTarget, "migration to the slot's current target");
  const util::Bytes bytes = slotBytes(handle, slot);
  BEESIM_ASSERT(bytes > 0, "an empty slot needs no migration");
  // The slot is re-homed immediately -- new chunks and re-issues address the
  // destination -- while the resident bytes stream over in the background.
  // Bytes on the old target leak until an offline cleanup, like rewrites.
  substitutes_[{handle.value, slot}] = newTarget;
  deployment_.mgmt().recordUsage(newTarget, bytes);
  return deployment_.fluid().startFlow(deployment_.replicaPath(oldTarget, newTarget), bytes,
                                       queueWeight, rateCap, std::move(done));
}

void FileSystem::transferAsync(std::size_t node, FileHandle handle, util::Bytes offset,
                               util::Bytes length, double queueWeight, bool isWrite,
                               std::function<void(util::Seconds)> done) {
  BEESIM_ASSERT(handle.value < files_.size(), "unknown file handle");
  BEESIM_ASSERT(queueWeight > 0.0, "queue weight must be positive");
  auto& file = files_[handle.value];

  if (length == 0) {
    if (done) {
      auto& fluid = deployment_.fluid();
      fluid.engine().scheduleAfter(0.0, [done, &fluid] { done(fluid.now()); });
    }
    return;
  }

  if (isWrite) {
    file.size = std::max(file.size, offset + length);
  }

  // One chunk (fluid flow) per touched target; the operation completes when
  // every chunk resolved (possibly after retries/failovers).  A range of n
  // chunks touches min(n, stripe count) slots.
  const StripePattern& pattern = file.pattern;
  const std::uint64_t chunks =
      (offset + length - 1) / pattern.chunkSize() - offset / pattern.chunkSize() + 1;
  const std::size_t flowsToStart =
      static_cast<std::size_t>(std::min<std::uint64_t>(chunks, pattern.stripeCount()));

  const auto transferRef = transfers_.acquire();
  auto& transfer = transfers_[transferRef.index];  // every field is set here
  transfer.node = node;
  transfer.handleValue = handle.value;
  transfer.isWrite = isWrite;
  transfer.queueWeight = queueWeight;
  transfer.pendingChunks = flowsToStart;
  transfer.done = std::move(done);
  // The last issue may resolve the transfer synchronously (an aborted job)
  // and its `done` may start the next transfer, so nothing of `file` or
  // `transfer` is read after it.
  std::size_t issued = 0;
  for (std::size_t slot = 0; issued < flowsToStart; ++slot) {
    const util::Bytes bytes = pattern.bytesOnSlot(offset, length, slot);
    if (bytes == 0) continue;
    const OpRef ref = ops_.acquire();
    ChunkOp& op = ops_[ref.index];
    op.self = ref;
    op.transfer = transferRef.index;
    op.slot = slot;
    op.bytes = bytes;
    // A reused entry keeps its last op's fields: reset those a new op reads
    // before the issue path writes them.  The rest (group, debt, tried, the
    // check times, ...) are written by the path that reads them.
    op.rule = Completion::kOne;
    op.failedAt = -1.0;
    op.legs[0] = op.legs[1] = Leg{};
    op.hedgeSlot = kUntracked;
    ++liveOps_;
    ++issued;
    issue(op);
  }
}

// -- The chunk lifecycle (DESIGN.md §2.3). -----------------------------------

void FileSystem::issue(ChunkOp& op) {
  // QoS admission gates the write path only, and only first issues: a
  // re-issue after a timeout/failover carries bytes whose tokens were spent
  // at the original admission, so the retry ladder can never double-spend.
  const auto& transfer = transfers_[op.transfer];
  if (qos_ != nullptr && transfer.isWrite && op.failedAt < 0.0) {
    // A deferred op stays unresolved until the manager resumes it.
    const auto resume = [this, ref = op.self] { issueAdmitted(ops_.live(ref)); };
    static_assert(kFitsInline<decltype(resume)>);
    if (!qos_->admitChunk(transfer.node, op.bytes, resume)) return;
  }
  issueAdmitted(op);
}

void FileSystem::issueAdmitted(ChunkOp& op) {
  const auto& policy = deployment_.params().faults;
  const auto& transfer = transfers_[op.transfer];

  if (faultStats_.aborted) {
    // The job already gave up; resolve the chunk without doing I/O.
    finishOp(op);
    return;
  }

  const std::size_t target = effectiveTarget(FileHandle{transfer.handleValue}, op.slot);
  if (files_[transfer.handleValue].mirrored) {
    if (const auto gid = deployment_.mgmt().mirrorGroupOf(target)) {
      issueMirrored(op, *gid);
      return;
    }
    // A substitute outside any group (odd host counts): plain chunk below.
  }

  if (policy.mode != ClientFaultPolicy::Mode::kNone &&
      !deployment_.mgmt().target(target).online) {
    // The registry already reports the target dead: don't wait for a
    // timeout.  Strict mode aborts; degraded mode reroutes immediately.
    failOver(op, /*rewrite=*/false);
    return;
  }

  // Rewrites charge usage again: the blocks written before the failure are
  // not reclaimed by the model (they leak until an offline cleanup).
  if (transfer.isWrite) deployment_.mgmt().recordUsage(target, op.bytes);

  // Hedged writes race the original leg against later hedge legs (first
  // wins); everything else needs its one leg.
  const bool hedged = deployment_.params().hedge.enabled && transfer.isWrite;
  op.rule = hedged ? Completion::kFirst : Completion::kOne;
  startLeg(op, 0, target, deployment_.writePath(transfer.node, target), op.bytes);
  const util::Seconds now = deployment_.fluid().now();
  op.watchdogAt = policy.mode != ClientFaultPolicy::Mode::kNone ? now + policy.ioTimeout : kNever;
  op.hedgeAt = hedged ? now + deployment_.params().hedge.deadline : kNever;
  if (hedged) {
    op.tried[0] = static_cast<std::uint32_t>(target);
    op.triedCount = 1;
    BEESIM_ASSERT(op.hedgeSlot == kUntracked, "hedged op tracked twice");
    op.hedgeSlot = hedged_.size();
    hedged_.push_back(op.self);
    addPeerRate(op);
  }
  armChecks(op, op.legs[0].flow);
}

void FileSystem::startLeg(ChunkOp& op, std::size_t leg, std::size_t target, const Route& path,
                          util::Bytes bytes) {
  BEESIM_ASSERT(op.self.index < (std::uint32_t{1} << 31), "chunk op index overflow");
  const auto onLanded = [this, ref = LegRef{op.self.index << 1 | static_cast<std::uint32_t>(leg),
                                            op.self.generation}](const sim::FlowStats& s) {
    legDone(ref, s);
  };
  static_assert(kFitsInline<decltype(onLanded)>);
  op.legs[leg] = Leg{deployment_.fluid().startFlow(path, bytes,
                                                   transfers_[op.transfer].queueWeight,
                                                   /*rateCap=*/0.0, onLanded),
                     target};
}

void FileSystem::legDone(LegRef ref, const sim::FlowStats& stats) {
  // Both legs of a kFirst op may land in the same resolve; the first
  // resolves and frees the op, so the second finds it stale.
  ChunkOp* const found = ops_.find(OpRef{ref.indexLeg >> 1, ref.generation});
  if (found == nullptr) return;
  ChunkOp& op = *found;
  const std::size_t leg = ref.indexLeg & 1;
  if (op.rule == Completion::kAll) {
    op.legs[leg].flow = sim::FlowId{};
    // The other copy is still landing.
    if (op.legs[0].flow.value != 0 || op.legs[1].flow.value != 0) return;
  } else if (op.rule == Completion::kFirst) {
    // Winning legs feed the lag reference (same alpha as the HealthMonitor's
    // EWMA).  Cancelled legs never complete, so a stalled primary cannot
    // drag the reference down.
    if (const double rate = stats.meanRate(); rate > 0.0) {
      hedgeRefRate_ = hedgeRefRate_ > 0.0 ? 0.3 * rate + 0.7 * hedgeRefRate_ : rate;
    }
    if (leg == 1) {
      ++hedgeStats_.hedgeWins;
      // Re-home the slot: later segments address the winner directly
      // instead of re-fighting the gray target chunk by chunk.
      substitutes_[{transfers_[op.transfer].handleValue, op.slot}] = op.legs[1].target;
    } else if (op.triedCount > 1) {
      ++hedgeStats_.primaryWins;
    }
    cancelLeg(op.legs[1 - leg]);
  }
  finishOp(op);
}

std::optional<util::Bytes> FileSystem::cancelLeg(Leg& leg) {
  const auto rest = deployment_.fluid().cancelFlow(leg.flow);
  if (rest) leg.flow = sim::FlowId{};
  return rest;
}

void FileSystem::cancelLegs(ChunkOp& op) {
  for (auto& leg : op.legs) cancelLeg(leg);
}

void FileSystem::untrack(ChunkOp& op) {
  if (op.rule == Completion::kAll) {
    // Ordered: switchover re-sends walk the group's ops in issue order.
    auto& index = inflightMirror_[op.group];
    const auto it = std::find(index.begin(), index.end(), op.self);
    if (it != index.end()) index.erase(it);
    return;
  }
  if (op.hedgeSlot == kUntracked) return;
  dropPeerRate(op);
  // Swap-remove: peerBest_ keeps the order, hedged_ needs none.
  ops_.live(hedged_.back()).hedgeSlot = op.hedgeSlot;
  std::swap(hedged_[op.hedgeSlot], hedged_.back());
  hedged_.pop_back();
  op.hedgeSlot = kUntracked;
}

void FileSystem::markFailed(ChunkOp& op) {
  if (op.failedAt < 0.0) op.failedAt = deployment_.fluid().now();
}

void FileSystem::finishOp(ChunkOp& op) {
  const util::Seconds now = deployment_.fluid().now();
  if (op.failedAt >= 0.0) faultStats_.degradedTime += now - op.failedAt;
  untrack(op);
  --liveOps_;
  const std::uint32_t transferIndex = op.transfer;
  ops_.release(op.self.index);
  auto& transfer = transfers_[transferIndex];
  BEESIM_ASSERT(transfer.pendingChunks > 0, "transfer completion underflow");
  if (--transfer.pendingChunks != 0) return;
  // `done` may start the next transfer in this slot: take it out first.
  const auto done = std::move(transfer.done);
  transfers_.release(transferIndex);
  if (done) done(now);
}

void FileSystem::abortOp(ChunkOp& op) {
  faultStats_.aborted = true;
  finishOp(op);
}

void FileSystem::armChecks(const ChunkOp& op, sim::FlowId flow) {
  const util::Seconds at = std::min(op.watchdogAt, op.hedgeAt);
  if (at == kNever) return;
  auto& engine = deployment_.fluid().engine();
  if (openCheckBatch_ == kNoBatch || checkBatches_[openCheckBatch_].at != at ||
      engine.nextSequence() != openCheckSequence_) {
    if (freeCheckBatches_.empty()) {
      openCheckBatch_ = checkBatches_.size();
      checkBatches_.emplace_back();
    } else {
      openCheckBatch_ = freeCheckBatches_.back();
      freeCheckBatches_.pop_back();
    }
    checkBatches_[openCheckBatch_].at = at;
    const auto fire = [this, batch = openCheckBatch_] { runChecks(batch); };
    static_assert(kFitsInline<decltype(fire)>);
    engine.schedule(at, fire);
  }
  checkBatches_[openCheckBatch_].entries.push_back(CheckEntry{op.self, flow});
  openCheckSequence_ = engine.nextSequence();
}

void FileSystem::runChecks(std::size_t batch) {
  if (openCheckBatch_ == batch) openCheckBatch_ = kNoBatch;
  const util::Seconds at = checkBatches_[batch].at;
  // Index the pool on every pass: re-arms may grow it.
  for (std::size_t i = 0; i < checkBatches_[batch].entries.size(); ++i) {
    const CheckEntry entry = checkBatches_[batch].entries[i];
    // The op resolved (its reference went stale), or its original leg is no
    // longer the one armed for.
    ChunkOp* const op = ops_.find(entry.op);
    if (op == nullptr || op->legs[0].flow != entry.flow) continue;
    // Each check keeps its own grid of repeated `+ period` times.
    if (op->watchdogAt == at) {
      if (!watchdog(*op)) continue;
      op->watchdogAt += deployment_.params().faults.ioTimeout;
    }
    if (op->hedgeAt == at) {
      op->hedgeAt = hedgeCheck(*op) ? at + deployment_.params().hedge.deadline : kNever;
    }
    armChecks(*op, entry.flow);
  }
  checkBatches_[batch].entries.clear();
  freeCheckBatches_.push_back(batch);
}

bool FileSystem::watchdog(ChunkOp& op) {
  // Still making (possibly slow) progress on a live target.
  if (deployment_.mgmt().target(op.legs[0].target).online) return true;
  // The chunk sat unfinished for a full ioTimeout and its target is
  // registered offline: the client declares it failed.  The retry ladder
  // owns the chunk from here; any hedge leg is torn down.
  cancelLegs(op);
  untrack(op);
  ++faultStats_.timeouts;
  markFailed(op);
  if (deployment_.params().faults.mode == ClientFaultPolicy::Mode::kStrict) abortOp(op);
  else scheduleRetry(op, /*attempt=*/0);
  return false;
}

void FileSystem::scheduleRetry(ChunkOp& op, int attempt) {
  const auto& policy = deployment_.params().faults;
  const util::Seconds wait =
      policy.backoffBase * std::pow(kBackoffFactor, static_cast<double>(attempt));
  op.retryAttempt = attempt;
  // The waiting op is owned by this event alone: its legs are torn down and
  // it is in no in-flight index.
  const auto retry = [this, ref = op.self] {
    ChunkOp& waiting = ops_.live(ref);
    if (faultStats_.aborted) {
      finishOp(waiting);
      return;
    }
    if (deployment_.mgmt().target(waiting.legs[0].target).online) {
      // The target came back: re-send the whole chunk to it (nothing
      // written during the failure window is trusted).
      ++faultStats_.retries;
      faultStats_.bytesRewritten += waiting.bytes;
      issue(waiting);
      return;
    }
    if (waiting.retryAttempt + 1 < deployment_.params().faults.maxRetries) {
      scheduleRetry(waiting, waiting.retryAttempt + 1);
      return;
    }
    failOver(waiting, /*rewrite=*/true);
  };
  static_assert(kFitsInline<decltype(retry)>);
  deployment_.fluid().engine().scheduleAfter(wait, retry);
}

void FileSystem::failOver(ChunkOp& op, bool rewrite) {
  markFailed(op);
  const auto online = deployment_.mgmt().onlineTargets();
  if (deployment_.params().faults.mode == ClientFaultPolicy::Mode::kStrict || online.empty()) {
    // Strict mode, or nowhere left to put the chunk: give up.
    abortOp(op);
    return;
  }
  const auto pick = online[static_cast<std::size_t>(
      rng_.uniformInt(0, static_cast<std::int64_t>(online.size()) - 1))];
  substitutes_[{transfers_[op.transfer].handleValue, op.slot}] = pick;
  ++faultStats_.failovers;
  if (rewrite) faultStats_.bytesRewritten += op.bytes;
  issue(op);
}

// -- Hedged writes. ----------------------------------------------------------

bool FileSystem::hedgeCheck(ChunkOp& op) {
  const auto& policy = deployment_.params().hedge;
  const double best = bestLegRate(op);

  // Peer-relative lag: compare against the median best-leg rate of the
  // other hedged in-flight chunks.  Like the HealthMonitor's score this is
  // relative on purpose -- a cluster-wide slowdown lags nobody.  A chunk
  // moving zero bytes is lagging with or without peers (dead-but-online).
  bool lagging = best <= 0.0;
  if (!lagging) {
    refreshPeerSnapshot();
    if (deployment_.fluid().solverCheck()) checkPeerSnapshot();
    if (const auto median = lowerMedianExcludingSelf(peerBest_, best)) {
      lagging = *median > 0.0 && best < policy.lagRatio * *median;
    }
    // The in-flight peer set can be *uniformly* sick: once the healthy
    // chunks complete, only the ones behind a stuttering link remain and
    // their median cannot expose them.  The EWMA of completed winning legs'
    // rates keeps a memory of what healthy service looked like.
    if (!lagging && hedgeRefRate_ > 0.0) {
      lagging = best < policy.lagRatio * hedgeRefRate_;
    }
  }

  if (lagging && op.triedCount > kMaxHedges) return false;  // budget spent
  // A lagging live hedge leg is replaced like a dead one: it had a full
  // deadline to establish a rate, and `best` already folds it into the lag
  // verdict (a crawling same-host hedge must not pin the chunk to a host
  // whose link degraded after the leg was picked).  With no candidate yet
  // the check just re-arms; a repair may open one.
  std::size_t alt = 0;
  if (lagging && pickHedgeTarget(op, alt)) {
    // A dead previous hedge leg is abandoned before the replacement starts.
    cancelLeg(op.legs[1]);
    op.tried[op.triedCount++] = static_cast<std::uint32_t>(alt);
    ++hedgeStats_.hedgesIssued;
    hedgeStats_.bytesHedged += op.bytes;
    // The duplicate send charges usage like a rewrite (the loser's bytes
    // leak until an offline cleanup); it never passes QoS admission again --
    // the chunk's tokens were spent when it was first admitted.
    deployment_.mgmt().recordUsage(alt, op.bytes);
    startLeg(op, 1, alt, deployment_.writePath(transfers_[op.transfer].node, alt), op.bytes);
    dropPeerRate(op);  // its best leg may have been the one just replaced
    addPeerRate(op);
  }
  return true;
}

util::MiBps FileSystem::bestLegRate(const ChunkOp& op) const {
  const auto& fluid = deployment_.fluid();
  const double primary = fluid.flowRate(op.legs[0].flow);
  return op.legs[1].flow.value != 0 ? std::max(primary, fluid.flowRate(op.legs[1].flow))
                                    : primary;
}

// The snapshot is exact at every check: between walks a tracked op's best-leg
// rate moves only when its own legs change (a new leg reads 0 until the next
// walk, a finished or cancelled one 0 forever), and each such change re-reads
// the op or untracks it.
void FileSystem::addPeerRate(ChunkOp& op) {
  op.peerRate = bestLegRate(op);
  peerBest_.insert(std::upper_bound(peerBest_.begin(), peerBest_.end(), op.peerRate),
                   op.peerRate);
}

void FileSystem::dropPeerRate(const ChunkOp& op) {
  const auto entry = std::lower_bound(peerBest_.begin(), peerBest_.end(), op.peerRate);
  BEESIM_ASSERT(entry != peerBest_.end() && *entry == op.peerRate,
                "peer snapshot lost a tracked op's rate");
  peerBest_.erase(entry);
}

void FileSystem::refreshPeerSnapshot() {
  const auto epoch = deployment_.fluid().walkEpoch();
  if (peerWalkEpoch_ == epoch) return;
  peerWalkEpoch_ = epoch;
  peerBest_.clear();
  for (const auto ref : hedged_) {
    ChunkOp& other = ops_.live(ref);
    other.peerRate = bestLegRate(other);
    peerBest_.push_back(other.peerRate);
  }
  std::sort(peerBest_.begin(), peerBest_.end());
}

void FileSystem::checkPeerSnapshot() const {
  std::vector<util::MiBps> rebuilt;
  for (const auto ref : hedged_) rebuilt.push_back(bestLegRate(ops_.live(ref)));
  std::sort(rebuilt.begin(), rebuilt.end());
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  BEESIM_ASSERT(rebuilt.size() == peerBest_.size() &&
                    std::equal(rebuilt.begin(), rebuilt.end(), peerBest_.begin(),
                               [&](double a, double b) { return bits(a) == bits(b); }),
                "solver check: the hedge peer snapshot (" + std::to_string(peerBest_.size()) +
                    " rates) differs from a sorted rebuild (" + std::to_string(rebuilt.size()) +
                    " rates)");
}

bool FileSystem::pickHedgeTarget(const ChunkOp& op, std::size_t& out) const {
  const auto& mgmt = deployment_.mgmt();
  const std::size_t primaryHost = mgmt.target(op.legs[0].target).host;
  // Class 0: the original target's host (keeps the allocation's per-host
  // balance) unless that host is quarantined; class 1: any other
  // non-quarantined host; class 2: anything online (last resort -- better a
  // shunned target than a stalled job).  Within a class the least-used,
  // lowest-index target wins: deterministic, so campaigns stay
  // jobs-invariant (no rng_ draw on this path).
  int bestClass = 3;
  util::Bytes bestUsed = 0;
  bool found = false;
  for (std::size_t t = 0; t < deployment_.cluster().targetCount(); ++t) {
    const auto& entry = mgmt.target(t);
    if (!entry.online) continue;
    if (std::find(op.tried, op.tried + op.triedCount, t) != op.tried + op.triedCount) continue;
    const bool shunned =
        mgmt.hostHealth(entry.host) == HostHealth::kQuarantined;
    int cls = 2;
    if (!shunned) cls = entry.host == primaryHost ? 0 : 1;
    if (!found || cls < bestClass || (cls == bestClass && entry.used < bestUsed)) {
      found = true;
      bestClass = cls;
      bestUsed = entry.used;
      out = t;
    }
  }
  return found;
}

// -- Buddy mirroring. --------------------------------------------------------

void FileSystem::issueMirrored(ChunkOp& op, std::size_t group) {
  auto& mgmt = deployment_.mgmt();
  const auto& entry = mgmt.mirrorGroup(group);
  const auto& transfer = transfers_[op.transfer];

  if (entry.state == MirrorState::kBad || !mgmt.target(entry.primary).online) {
    // No consistent copy reachable through this group: fall back to the
    // plain degraded-stripe ladder (the substitute may land in another
    // live group, which is fine -- it can't loop back into this one while
    // both members are down).
    failOver(op, /*rewrite=*/true);
    return;
  }

  // New writes replicate whenever the secondary is reachable -- also while
  // the group needs resync: the primary forwards fresh chunks and only the
  // stale delta (the tracked debt) waits for the background stream, so the
  // debt is bounded by what accrued while the secondary was unreachable.
  const bool replicate = transfer.isWrite && mgmt.target(entry.secondary).online;
  op.rule = Completion::kAll;
  op.group = group;
  op.debt = 0;
  if (transfer.isWrite) {
    mgmt.recordUsage(entry.primary, op.bytes);
    // A degraded group keeps accepting writes single-copy; the secondary is
    // owed the chunk on resync.
    if (!replicate) {
      mgmt.addResyncDebt(group, op.bytes);
      op.debt = op.bytes;
    }
  }
  inflightMirror_[group].push_back(op.self);
  startLeg(op, 0, entry.primary, deployment_.writePath(transfer.node, entry.primary),
           op.bytes);
  if (replicate) {
    mgmt.recordUsage(entry.secondary, op.bytes);
    ++mirrorStats_.replicaFlows;
    mirrorStats_.bytesReplicated += op.bytes;
    startLeg(op, 1, entry.secondary, deployment_.replicaPath(entry.primary, entry.secondary),
             op.bytes);
  }
}

void FileSystem::onMirrorTargetState(std::size_t target, bool online) {
  auto& mgmt = deployment_.mgmt();
  const auto gid = mgmt.mirrorGroupOf(target);
  if (!gid) return;
  const auto& entry = mgmt.mirrorGroup(*gid);
  if (online) {
    if (entry.state == MirrorState::kBad) {
      // First member back after a double failure: it becomes the
      // authoritative side and the group re-opens in needs-resync.
      mgmt.reviveMirrorGroup(*gid, target);
    }
    maybeStartResync(*gid);
    return;
  }
  // Any in-progress resync crosses the dead member; its remaining delta
  // stays owed (debt is only settled on completion).
  deployment_.fluid().cancelFlow(resync_[*gid]);
  resync_[*gid] = sim::FlowId{};

  if (target == entry.secondary) {
    // Replica leg gone: writes continue single-copy against the primary.
    // Partial replicas are untrusted, so each cancelled replica flow owes
    // the whole chunk to the resync.
    if (entry.state == MirrorState::kGood) {
      mgmt.setMirrorState(*gid, MirrorState::kNeedsResync);
    }
    const auto ops = inflightMirror_[*gid];  // snapshot: handlers mutate it
    for (const auto ref : ops) {
      ChunkOp& op = ops_.live(ref);
      if (!cancelLeg(op.legs[1])) continue;
      mgmt.addResyncDebt(*gid, op.bytes);
      op.debt += op.bytes;
      if (op.legs[0].flow.value == 0) finishOp(op);  // the primary leg landed
    }
    return;
  }
  if (target != entry.primary) return;

  if (entry.state == MirrorState::kGood && mgmt.target(entry.secondary).online) {
    switchMirrorPrimary(*gid);
    return;
  }

  // Primary died with no consistent secondary (offline or stale): acked
  // bytes whose only up-to-date copy sat on the dead primary are lost.  The
  // debt also holds what in-flight ops owe; they never acked and are
  // rewritten below, so their share is not a loss.
  util::Bytes inflightDebt = 0;
  for (const auto ref : inflightMirror_[*gid]) inflightDebt += ops_.live(ref).debt;
  mirrorStats_.bytesLost += entry.resyncDebt - std::min(entry.resyncDebt, inflightDebt);
  mgmt.settleResyncDebt(*gid, entry.resyncDebt);
  mgmt.setMirrorState(*gid, MirrorState::kBad);
  // A stale-but-online survivor is still the best copy left: promote it so
  // the group keeps serving (needs-resync toward the dead member) instead
  // of leaking chunks to out-of-group substitutes.
  const bool survivorOnline = mgmt.target(entry.secondary).online;
  if (survivorOnline) mgmt.reviveMirrorGroup(*gid, entry.secondary);
  const auto ops = inflightMirror_[*gid];
  for (const auto ref : ops) {
    ChunkOp& op = ops_.live(ref);
    cancelLegs(op);
    untrack(op);
    markFailed(op);
    if (!survivorOnline || deployment_.params().faults.mode == ClientFaultPolicy::Mode::kStrict) {
      failOver(op, /*rewrite=*/true);
      continue;
    }
    // Full rewrite: nothing the dead primary received is trusted.
    if (transfers_[op.transfer].isWrite) faultStats_.bytesRewritten += op.bytes;
    issueMirrored(op, *gid);
  }
}

void FileSystem::switchMirrorPrimary(std::size_t group) {
  auto& mgmt = deployment_.mgmt();
  // mgmtd switchover: the secondary holds every acked byte, so promotion
  // loses nothing and nothing is rewritten.  In-flight chunks keep their
  // replica-leg progress: only the untransferred remainder is re-sent to
  // the new primary.
  mgmt.failOverMirrorGroup(group);
  ++mirrorStats_.failovers;
  const std::size_t newPrimary = mgmt.mirrorGroup(group).primary;
  const auto ops = inflightMirror_[group];  // snapshot: handlers mutate it
  for (const auto ref : ops) {
    ChunkOp& op = ops_.live(ref);
    cancelLeg(op.legs[0]);
    const auto& transfer = transfers_[op.transfer];
    util::Bytes resend = op.bytes;
    if (transfer.isWrite) {
      // The old primary's copy is stale whatever it received; the group
      // owes the whole chunk to it on resync.
      mgmt.addResyncDebt(group, op.bytes);
      op.debt += op.bytes;
      resend = cancelLeg(op.legs[1]).value_or(0);
      if (resend == 0) {
        // The replica already landed in full on the promoted target.
        finishOp(op);
        continue;
      }
      mirrorStats_.bytesResent += resend;
    }
    // Reads simply re-fetch the whole chunk from the surviving copy.
    startLeg(op, 0, newPrimary, deployment_.writePath(transfer.node, newPrimary), resend);
  }
  // When the demoted member is still online (quarantine switchover, not a
  // crash) the owed delta can start streaming right away.
  maybeStartResync(group);
}

void FileSystem::hedgeMirrorGroupsOnHost(std::size_t host) {
  if (!deployment_.params().hedge.enabled) return;
  auto& mgmt = deployment_.mgmt();
  for (std::size_t gid = 0; gid < mgmt.mirrorGroupCount(); ++gid) {
    const auto& group = mgmt.mirrorGroup(gid);
    if (group.state != MirrorState::kGood) continue;
    if (mgmt.target(group.primary).host != host) continue;
    const auto& secondary = mgmt.target(group.secondary);
    if (!secondary.online) continue;
    if (mgmt.hostHealth(secondary.host) == HostHealth::kQuarantined) continue;
    switchMirrorPrimary(gid);
    ++hedgeStats_.mirrorSwitchovers;
  }
}

void FileSystem::maybeStartResync(std::size_t group) {
  auto& mgmt = deployment_.mgmt();
  const auto& entry = mgmt.mirrorGroup(group);
  if (entry.state != MirrorState::kNeedsResync) return;
  if (resync_[group].value != 0) return;  // a resync is already streaming
  if (!mgmt.target(entry.primary).online || !mgmt.target(entry.secondary).online) return;
  if (entry.resyncDebt == 0) {
    mgmt.setMirrorState(group, MirrorState::kGood);
    return;
  }
  const util::Bytes delta = entry.resyncDebt;
  mgmt.recordUsage(entry.secondary, delta);
  resync_[group] = deployment_.fluid().startFlow(
      deployment_.replicaPath(entry.primary, entry.secondary), delta, kResyncQueueWeight,
      deployment_.params().mirror.resyncRate, [this, group, delta](const sim::FlowStats& stats) {
        resync_[group] = sim::FlowId{};
        auto& mgmt = deployment_.mgmt();
        ++mirrorStats_.resyncJobs;
        mirrorStats_.bytesResynced += delta;
        mirrorStats_.resyncSeconds += stats.endTime - stats.startTime;
        mgmt.settleResyncDebt(group, delta);
        // Writes issued during the round re-opened debt: chain another
        // round until the delta drains, then the group is good again.
        maybeStartResync(group);
      });
}

void FileSystem::writeAsync(std::size_t node, FileHandle handle, util::Bytes offset,
                            util::Bytes length, double queueWeight,
                            std::function<void(util::Seconds)> done) {
  transferAsync(node, handle, offset, length, queueWeight, /*isWrite=*/true, std::move(done));
}

void FileSystem::readAsync(std::size_t node, FileHandle handle, util::Bytes offset,
                           util::Bytes length, double queueWeight,
                           std::function<void(util::Seconds)> done) {
  BEESIM_ASSERT(handle.value < files_.size(), "unknown file handle");
  BEESIM_ASSERT(offset + length <= files_[handle.value].size,
                "read beyond the end of the file");
  transferAsync(node, handle, offset, length, queueWeight, /*isWrite=*/false,
                std::move(done));
}

void FileSystem::truncate(FileHandle handle, util::Bytes size) {
  BEESIM_ASSERT(handle.value < files_.size(), "unknown file handle");
  files_[handle.value].size = size;
}

void FileSystem::hold(std::shared_ptr<void> state) { held_.push_back(std::move(state)); }

std::shared_ptr<void> FileSystem::release(const void* state) {
  const auto it = std::find_if(held_.begin(), held_.end(),
                               [state](const auto& held) { return held.get() == state; });
  BEESIM_ASSERT(it != held_.end(), "released state is not held");
  auto owner = std::move(*it);
  held_.erase(it);
  // A run closed with nothing in flight (between a run's phases, or after
  // its last job): give the op slabs' memory back to later allocations.
  if (liveOps_ == 0) {
    ops_.trim();
    transfers_.trim();
  }
  return owner;
}

}  // namespace beesim::beegfs
