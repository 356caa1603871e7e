// FileSystem facade: the client-visible API of the simulated BeeGFS.
//
// Mirrors what an application (or IOR) sees: directories carry striping
// settings (stripe count + chunk size, set per folder by the administrator,
// Section II); creating a file picks its targets with the configured
// heuristic; writes are asynchronous fluid flows.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "beegfs/chooser.hpp"
#include "beegfs/deployment.hpp"
#include "beegfs/stripe.hpp"

namespace beesim::qos {
class QosManager;
}

namespace beesim::beegfs {

struct FileHandle {
  std::size_t value = 0;
  friend bool operator==(FileHandle a, FileHandle b) { return a.value == b.value; }
};

struct FileInfo {
  std::string path;
  StripePattern pattern;
  util::Bytes size = 0;
  /// Mirrored file: every pattern target is a mirror-group anchor and chunks
  /// are routed to the group's *current* primary (so failover redirects new
  /// chunks without touching the pattern).
  bool mirrored = false;
};

class FileSystem {
 public:
  /// `chooserRng` drives the target-choice heuristic.
  FileSystem(Deployment& deployment, util::Rng chooserRng);

  Deployment& deployment() { return deployment_; }

  /// Create/replace a directory with explicit striping settings.  Parent
  /// directories are not required to exist (flat namespace keyed by path).
  void mkdir(const std::string& path, const StripeSettings& settings);

  /// Striping settings a file created under `path` would receive (deepest
  /// matching directory prefix; falls back to the deployment default).
  StripeSettings settingsFor(const std::string& path) const;

  /// Create a file; its targets are chosen by the configured heuristic.
  /// The stripe count is clamped to the number of online targets.
  FileHandle create(const std::string& path);

  /// Create a file with an explicitly pinned target list (used by benches
  /// that need a specific allocation, e.g. Fig. 13's shared-vs-disjoint
  /// comparison) and chunk size.
  FileHandle createPinned(const std::string& path, std::vector<std::size_t> targets,
                          util::Bytes chunkSize);

  const FileInfo& info(FileHandle handle) const;
  std::size_t fileCount() const { return files_.size(); }

  /// Asynchronously write [offset, offset+length) of `handle` from compute
  /// node `node`.  `queueWeight` is the outstanding-request weight this
  /// write contributes to each crossed resource (the IOR runner computes it
  /// from the node's worker budget).  `done` fires (once) with the
  /// completion time after the last byte lands.
  void writeAsync(std::size_t node, FileHandle handle, util::Bytes offset, util::Bytes length,
                  double queueWeight, std::function<void(util::Seconds)> done);

  /// Asynchronously read [offset, offset+length) of `handle` into compute
  /// node `node`.  The range must lie within the file.  Reads cross the same
  /// resources as writes (the paper expects read behaviour to mirror write
  /// behaviour w.r.t. target allocation; Section III-B).
  void readAsync(std::size_t node, FileHandle handle, util::Bytes offset, util::Bytes length,
                 double queueWeight, std::function<void(util::Seconds)> done);

  /// Set a file's logical size without moving data (ftruncate semantics;
  /// lets tests and read benchmarks materialize pre-existing files).
  void truncate(FileHandle handle, util::Bytes size);

  // -- Rebalancing hooks (src/control/; see DESIGN.md §2.6). ---------------

  /// Wrap the configured chooser in a WeightedChooser consulting the mgmtd
  /// per-host weights (the controller's retarget lever).  Idempotent; with
  /// uniform weights the wrapper is behaviourally invisible.
  void enableWeightedChooser();

  /// Target currently serving a stripe slot: the pattern target, or its
  /// substitute after a failover/migration.
  std::size_t effectiveTarget(FileHandle handle, std::size_t slot) const;

  /// Bytes of the file currently resident on a stripe slot.
  util::Bytes slotBytes(FileHandle handle, std::size_t slot) const;

  /// Migrate a stripe slot to `newTarget`: future chunks of the slot address
  /// the new target immediately (substitute entry), while the resident bytes
  /// stream over as a background server-to-server flow with the given queue
  /// weight and rate cap (0 = unlimited), reusing the resync flow model.
  /// `done` fires with the flow stats when the stream lands; cancel via
  /// Deployment::fluid().cancelFlow.  Returns the flow id.
  sim::FlowId migrateSlot(FileHandle handle, std::size_t slot, std::size_t newTarget,
                          double queueWeight, double rateCap,
                          std::function<void(const sim::FlowStats&)> done);

  // -- Mid-run fault semantics (ClientFaultPolicy; see src/faults/). -------

  /// Cumulative client-side failure accounting across all transfers.
  const ClientFaultStats& faultStats() const { return faultStats_; }

  /// True once a chunk failure aborted the job (strict mode, or degraded
  /// mode with no surviving target).  Runners stop issuing new work.
  bool faultsAborted() const { return faultStats_.aborted; }

  // -- Buddy mirroring (MirrorPolicy; see DESIGN.md §2.4). -----------------

  /// Cumulative mirroring/resync accounting across all transfers.
  const MirrorStats& mirrorStats() const { return mirrorStats_; }

  // -- Hedged writes (HedgePolicy; see DESIGN.md §2.9). --------------------

  /// Cumulative hedging accounting across all transfers.
  const HedgeStats& hedgeStats() const { return hedgeStats_; }

  /// Chunks issued and not yet resolved (zero once a run has drained).
  std::size_t inFlightChunks() const { return liveOps_; }

  /// Quarantine mitigation for mirrored files: switch over every good
  /// mirror group whose *current primary* sits on `host` to its replica
  /// (the mirrored equivalent of a hedge; gated on HedgePolicy::enabled).
  /// Called by the HealthMonitor, deferred out of observer dispatch.
  void hedgeMirrorGroupsOnHost(std::size_t host);

  // -- Multi-tenant QoS (qos::QosManager; see DESIGN.md §2.8). -------------

  /// Attach a per-application QoS manager: every first attempt of a write
  /// chunk then asks the manager for admission (token-bucket throttling by
  /// deferred issue; re-issues after a timeout/failover are never charged
  /// again).  Null detaches.  The manager must outlive all transfers.
  void setQosManager(qos::QosManager* qos) { qos_ = qos; }

 private:
  /// Shared bookkeeping of one writeAsync/readAsync call: the operation
  /// completes when every chunk resolved (successfully or by abort).
  struct TransferState {
    std::size_t node = 0;
    std::size_t handleValue = 0;
    bool isWrite = false;
    double queueWeight = 0.0;
    std::size_t pendingChunks = 0;
    std::function<void(util::Seconds)> done;
  };

  /// One flow of a chunk op.  `flow` is cleared when the leg lands or is
  /// cancelled; `target` stays, so the retry ladder can probe the target the
  /// op last addressed.
  struct Leg {
    sim::FlowId flow{};
    std::size_t target = 0;
  };

  /// How an op's legs resolve the chunk; set by the path that issued it.
  enum class Completion {
    kOne,    ///< plain chunk: its one leg
    kAll,    ///< mirrored chunk: primary and (if replicating) replica leg
    kFirst,  ///< hedged chunk: the first of original and hedge leg to land
  };

  static constexpr std::size_t kUntracked = static_cast<std::size_t>(-1);  ///< not in hedged_
  /// One chunk from admission to resolution (DESIGN.md §2.3): survives
  /// timeouts, retries, failovers and switchovers, each of which re-issues
  /// its legs.
  struct ChunkOp {
    std::shared_ptr<TransferState> transfer;
    std::size_t slot = 0;
    util::Bytes bytes = 0;
    /// Virtual time the chunk's first failure was detected (< 0: none yet).
    util::Seconds failedAt = -1.0;
    Completion rule = Completion::kOne;
    /// legs[0]: original (or mirror primary) leg; legs[1]: hedge or replica.
    Leg legs[2];
    std::size_t group = 0;           ///< mirror group (kAll)
    util::Bytes debt = 0;            ///< resync debt it added to `group`
    /// Targets already given a leg (kFirst): the original, then one per
    /// hedge leg issued.
    std::vector<std::size_t> tried;
    std::size_t hedgeSlot = kUntracked;  ///< index in hedged_ while tracked
    util::MiBps peerRate = 0.0;          ///< its entry in peerBest_ while tracked
    util::Seconds watchdogAt = 0.0;      ///< next watchdog check (+inf: off)
    util::Seconds hedgeAt = 0.0;         ///< next lag check (+inf: off)
    bool resolved = false;
  };
  using OpPtr = std::shared_ptr<ChunkOp>;

  void transferAsync(std::size_t node, FileHandle handle, util::Bytes offset,
                     util::Bytes length, double queueWeight, bool isWrite,
                     std::function<void(util::Seconds)> done);

  /// Issue the op's legs.  With a QosManager attached, a write op's first
  /// issue passes token admission and may start later (deferred issue);
  /// re-issues carry bytes already paid for and bypass it.
  void issue(const OpPtr& op);
  /// The post-admission half of issue (also a deferred op's resume target).
  void issueAdmitted(const OpPtr& op);
  void issueMirrored(const OpPtr& op, std::size_t group);
  /// Start leg `leg` of the op toward `target` over `path`.
  void startLeg(const OpPtr& op, std::size_t leg, std::size_t target,
                std::vector<sim::ResourceIndex> path, util::Bytes bytes);
  /// A leg landed: apply the op's completion rule.
  void legDone(const OpPtr& op, std::size_t leg, const sim::FlowStats& stats);
  /// Cancel one leg; the bytes it had not transferred, if it was live.
  std::optional<util::Bytes> cancelLeg(Leg& leg);
  void cancelLegs(ChunkOp& op);
  /// Drop the op from the hedge or mirror in-flight index (idempotent).
  void untrack(const OpPtr& op);
  /// Record the op's first failure detection (now) if it has none yet.
  void markFailed(ChunkOp& op);
  /// Resolve the chunk: degraded-time accounting, untrack, transfer done.
  void finishOp(const OpPtr& op);
  /// Abort the job and resolve the chunk without further I/O.
  void abortOp(const OpPtr& op);

  /// The op's one check timer, bound to its original leg `flow`: until the op
  /// resolves or that leg changes, it runs the due watchdog, then the due lag
  /// check, and re-arms at the earlier next due time.
  void armChecks(const OpPtr& op, sim::FlowId flow);
  /// Client I/O timeout: an op on an offline target is handed to the retry
  /// ladder, or aborted in strict mode (false: the timer must stop).
  bool watchdog(const OpPtr& op);
  /// Exponential-backoff wait number `attempt`; retries the original target
  /// if it recovered, else escalates and finally fails over.
  void scheduleRetry(const OpPtr& op, int attempt);
  /// The op's target failed: stamp the failure and move the op's slot to a
  /// surviving target (sampled from rng_); strict mode aborts instead.
  /// `rewrite` charges the bytes to the rewritten counter.
  void failOver(const OpPtr& op, bool rewrite);

  /// Lag check of a hedged op (HedgePolicy::deadline cadence): a lagging op
  /// gets a hedge leg.  False once its hedge budget is spent.
  bool hedgeCheck(const OpPtr& op);
  /// Current rate of the op's faster leg (0 when both are gone).
  util::MiBps bestLegRate(const ChunkOp& op) const;
  /// Read a tracked op's best-leg rate into its peerRate and peerBest_.
  void addPeerRate(ChunkOp& op);
  /// Erase a tracked op's peerRate from peerBest_.
  void dropPeerRate(const ChunkOp& op);
  /// Re-read every tracked op and re-sort peerBest_ if a walk rewrote rates
  /// since the last refresh.
  void refreshPeerSnapshot();
  /// Solver-check oracle: peerBest_ must equal a sorted rebuild, bit for bit.
  void checkPeerSnapshot() const;
  /// Deterministic alternate-target choice: prefers the original target's
  /// host (unless quarantined), then other non-quarantined hosts, then any
  /// online target; within a class lowest (used, index).  Zero randomness.
  bool pickHedgeTarget(const ChunkOp& op, std::size_t& out) const;
  /// The good-secondary switchover (factored from onMirrorTargetState so
  /// quarantine mitigation can reuse it): promote the secondary, re-send the
  /// untransferred remainder of in-flight chunks, chain a resync if possible.
  void switchMirrorPrimary(std::size_t group);

  /// Registry switchover signal handler (mgmtd target-state listener).
  void onMirrorTargetState(std::size_t target, bool online);
  /// Start a resync round if the group needs one and both members are up.
  void maybeStartResync(std::size_t group);

  Deployment& deployment_;
  util::Rng rng_;
  std::unique_ptr<TargetChooser> chooser_;
  std::map<std::string, StripeSettings> directories_;
  std::vector<FileInfo> files_;
  ClientFaultStats faultStats_;
  /// (file handle, stripe slot) -> substitute target after a failover.
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> substitutes_;
  MirrorStats mirrorStats_;
  HedgeStats hedgeStats_;
  /// Live chunk ops (issued and not yet resolved).
  std::size_t liveOps_ = 0;
  /// Unresolved hedged ops (also the peer set for the lag median), unordered.
  std::vector<OpPtr> hedged_;
  /// Every hedged_ op's peerRate, ascending.  Ops enter and leave it one
  /// sorted insert or erase at a time; a walk re-reads them all.
  std::vector<util::MiBps> peerBest_;
  /// The fluid walk epoch peerBest_ was last re-read at.
  std::uint64_t peerWalkEpoch_ = 0;
  /// EWMA of completed winning legs' mean rates: the lag reference when the
  /// in-flight peer set is itself sick (e.g. only the chunks behind a
  /// stuttering link remain, so their median cannot expose them).
  util::MiBps hedgeRefRate_ = 0.0;
  /// In-flight mirrored ops per group (index == group id).
  std::vector<std::vector<OpPtr>> inflightMirror_;
  /// Active background resync flow per group (id 0 == none).
  std::vector<sim::FlowId> resync_;
  /// Per-application write admission (null = unmanaged; see DESIGN.md §2.8).
  qos::QosManager* qos_ = nullptr;
};

}  // namespace beesim::beegfs
