// Software-side configuration of the simulated BeeGFS deployment.
//
// Hardware lives in topo::ClusterConfig; everything here corresponds to
// things a BeeGFS administrator (or the client mount) controls: striping
// defaults, the target-choice heuristic, client ramp-up, metadata costs.
// Calibration constants no run varies (client worker threads, noise epoch,
// re-solve cadence, round-robin phase stride) sit next to their readers.
// PlaFRIM's production values (stripe count 4, chunk 512 KiB,
// round-robin choice) are the defaults, per Section III-A of the paper.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/units.hpp"

namespace beesim::beegfs {

/// Target-choice heuristics (Section II: "By default, the OSTs used to store
/// each file are randomly chosen.  However, other heuristics can be used.").
enum class ChooserKind {
  /// Deterministic round-robin over the deployment's target order.  On
  /// PlaFRIM the vendor configured this; the empirically-observed order
  /// makes a stripe-count-4 file always land as a (1,3) allocation.
  kRoundRobin,
  /// BeeGFS' default: uniformly random distinct targets.
  kRandom,
  /// Round-robin over a host-interleaved order (ablation: this order would
  /// have made count-4 files balanced (2,2) on PlaFRIM).
  kRoundRobinInterleaved,
  /// Lesson #4's recommendation: pick the same number of targets on every
  /// storage host (random within a host).
  kBalanced,
};

const char* chooserName(ChooserKind kind);

/// Per-directory striping configuration (BeeGFS sets striping per folder).
struct StripeSettings {
  /// Number of targets to stripe across (clamped to the deployment size).
  unsigned stripeCount = 4;
  /// Chunk ("stripe") size.
  util::Bytes chunkSize = 512 * util::kKiB;
  /// Stripe over buddy-mirror groups instead of raw targets (beegfs-ctl
  /// --setpattern --buddymirror).  Requires MirrorPolicy::enabled so groups
  /// exist; each stripe slot then addresses a group's current primary.
  bool mirror = false;
};

/// Storage buddy-mirroring configuration (beegfs-mgmtd side).  Mirror groups
/// pair a primary and a secondary target on distinct hosts; mirrored writes
/// are forwarded primary -> secondary and acked only when both copies landed.
struct MirrorPolicy {
  bool enabled = false;
  /// Explicit (primary, secondary) flat-target pairs.  Empty means the
  /// deployment derives a default pairing across host boundaries
  /// (defaultMirrorPairs in mgmt.hpp).
  std::vector<std::pair<std::size_t, std::size_t>> groups;
  /// Rate cap for background resync flows (<= 0: uncapped).
  util::MiBps resyncRate = 0.0;
};

/// Cumulative mirroring/resync accounting (one FileSystem's view).
struct MirrorStats {
  /// Secondary replica flows issued (one per mirrored write chunk while the
  /// group is consistent).
  std::size_t replicaFlows = 0;
  util::Bytes bytesReplicated = 0;
  /// Primary -> secondary switchovers performed by the registry.
  std::size_t failovers = 0;
  /// Bytes of in-flight chunks re-sent to the new primary after a failover
  /// (only the untransferred remainder of the replica leg; never a rewrite).
  util::Bytes bytesResent = 0;
  /// Acked bytes whose only surviving copy died (group went bad).
  util::Bytes bytesLost = 0;
  /// Completed background resync rounds and the delta they streamed.
  std::size_t resyncJobs = 0;
  util::Bytes bytesResynced = 0;
  util::Seconds resyncSeconds = 0.0;

  bool operator==(const MirrorStats&) const = default;
};

/// Client kernel-module model.  Worker threads, write-behind depth, the
/// oversubscription penalty and the ramp's starting point and jitter are
/// calibrated constants next to their reader (deployment.cpp).
struct ClientParams {
  /// Connection/writeback ramp-up: a node starts at a fraction of its
  /// ceiling and approaches 1 with this time constant (0 = no ramp).  This is
  /// the latency effect that penalizes small total data sizes (Fig. 2).
  util::Seconds rampTau = 0.8;
};

/// How directories map onto metadata targets when several MDTs exist
/// (DESIGN.md §2.10).  BeeGFS shards the namespace per directory; the
/// chooser is pluggable so experiments can compare policies.
enum class MdShardKind {
  /// Hash of the parent directory (BeeGFS-like): files in one directory
  /// share an MDT, distinct directories spread across MDTs.
  kHashDir,
  /// Round-robin over MDTs per operation path (upper bound on spread;
  /// ignores directory affinity).
  kRoundRobin,
};

const char* mdShardName(MdShardKind kind);

/// Metadata service cost model (MDS backed by an SSD MDT).
///
/// Two models share this struct.  The legacy *scalar* model charges a
/// jittered latency per operation (createLatency/openLatency/...).  The
/// *queued* model (DESIGN.md §2.10, off by default) instead runs every
/// operation as a flow through a per-MDT fluid resource with a concurrency
/// ramp, so metadata ops contend observably in virtual time; createRate
/// sets the per-MDT saturation throughputs in ops/s.
struct MetaParams {
  /// File create (rank 0) latency.
  util::Seconds createLatency = 0.004;
  /// Per-rank open latency (paid once per rank before I/O starts; ranks open
  /// concurrently, so the job pays ~one openLatency, with jitter).
  util::Seconds openLatency = 0.0015;
  util::Seconds statLatency = 0.0008;
  /// Unlink latency (mdtest-style cleanup phases).
  util::Seconds unlinkLatency = 0.002;
  /// Log-normal jitter applied to each operation (log-space sigma).
  double jitterSigmaLog = 0.25;

  /// Master switch for the queued MDS/MDT model.  Off keeps runs bitwise
  /// identical to the scalar model (no MDT resources, no extra rng use).
  bool queued = false;
  /// Number of metadata targets the namespace shards across (>= 1).
  unsigned mdtCount = 1;
  /// Default per-MDT saturation throughput per operation kind, in ops/s.  An
  /// SSD MDT needs a deep queue to reach these (see saturationDepth); the
  /// create default keeps the single-op create latency near the scalar
  /// model's createLatency.
  static constexpr double kDefaultCreateRate = 2500.0;
  static constexpr double kDefaultOpenRate = 10000.0;
  static constexpr double kDefaultStatRate = 20000.0;
  static constexpr double kDefaultUnlinkRate = 4000.0;
  /// Per-MDT create throughput (ops/s).  The other kinds keep the default
  /// profile's ratios to it (MetaService::rateFor).
  double createRate = kDefaultCreateRate;
  /// Concurrency ramp: an MDT at queue depth d serves at
  /// d / (d + saturationDepth - 1) of its saturation throughput, so a
  /// single isolated op takes saturationDepth/rate seconds and a deep
  /// queue approaches the full rate.
  double saturationDepth = 16.0;
  /// Directory -> MDT placement policy.
  MdShardKind shard = MdShardKind::kHashDir;
};

/// Client behaviour when a storage target fails while chunks are in flight
/// (mid-run fault injection; see src/faults/).  The client detects a dead
/// target by timeout -- a chunk that has not completed after `ioTimeout`
/// whose target the registry reports offline is considered failed.
struct ClientFaultPolicy {
  enum class Mode {
    /// Legacy behaviour: no watchdogs, no detection.  A chunk stalled on a
    /// failed target stalls forever (the run deadlocks if nothing revives
    /// the target).  This is the default so healthy runs are bit-identical
    /// to pre-fault-model builds.
    kNone,
    /// First failed chunk aborts the whole job: in-flight chunks to dead
    /// targets are cancelled and ranks stop at their next segment boundary.
    kStrict,
    /// Degraded-stripe mode: a failed chunk is retried on its own target
    /// with exponential backoff (the target may come back); after
    /// `maxRetries` unsuccessful waits it fails over to a surviving target
    /// and the chunk is rewritten there in full.
    kDegraded,
  };
  Mode mode = Mode::kNone;
  /// Client I/O timeout: how long a chunk may sit unfinished before the
  /// client checks its target's registry state.
  util::Seconds ioTimeout = 5.0;
  /// First retry backoff; doubles per attempt.
  util::Seconds backoffBase = 1.0;
  /// Same-target retry attempts before failing over.
  int maxRetries = 3;
};

/// Hedged-write mitigation for fail-slow (gray) targets (see DESIGN.md §2.9).
/// Crash faults are caught by the watchdog ladder above; a target serving at
/// 5% of its rate never trips it.  With hedging enabled, every in-flight
/// write chunk is re-checked each `deadline`: a chunk whose best leg moves
/// slower than `lagRatio` x the median of its in-flight peers (or not at
/// all) is *hedged* -- re-issued in full to a deterministic alternate target
/// -- and the first leg to land wins; the loser is cancelled.  The winner
/// re-homes the stripe slot, so later segments go to it directly.  Hedge
/// legs never pass QoS admission again: the chunk's tokens were spent at the
/// original admission (charge-once, exactly like the retry ladder).
struct HedgePolicy {
  bool enabled = false;
  /// Re-check cadence; also the minimum age before a chunk can be hedged.
  util::Seconds deadline = 1.0;
  /// Hedge when the chunk's best leg runs below this fraction of the median
  /// rate of its in-flight peers.  A fully stalled chunk (rate 0) is hedged
  /// regardless, peers or not.
  double lagRatio = 0.25;
};

/// Cumulative hedging accounting (one FileSystem's view).
struct HedgeStats {
  /// Hedge legs issued (duplicate chunk sends).
  std::size_t hedgesIssued = 0;
  /// Chunks resolved by a hedge leg (slot re-homed to the winner).
  std::size_t hedgeWins = 0;
  /// Hedged chunks whose original leg still landed first.
  std::size_t primaryWins = 0;
  /// Buddy-mirror primary switchovers triggered by quarantine (the mirrored
  /// files' equivalent of a hedge: redirect to the healthy replica).
  std::size_t mirrorSwitchovers = 0;
  /// Bytes of duplicate hedge sends (leak on the losing target, like
  /// rewrites, until an offline cleanup).
  util::Bytes bytesHedged = 0;

  bool operator==(const HedgeStats&) const = default;
};

/// Cumulative client-side failure accounting (one FileSystem's view).
struct ClientFaultStats {
  /// Chunk failures detected by watchdog timeout (target offline).
  std::size_t timeouts = 0;
  /// Chunks re-issued to their own target after it came back.
  std::size_t retries = 0;
  /// Chunks moved to a substitute target (degraded stripe).
  std::size_t failovers = 0;
  /// Bytes re-sent because of retries and failovers.
  util::Bytes bytesRewritten = 0;
  /// Summed per-chunk time between failure detection and the chunk's final
  /// resolution (success or abort).
  util::Seconds degradedTime = 0.0;
  /// Strict-mode abort (or degraded mode with no surviving target).
  bool aborted = false;

  bool operator==(const ClientFaultStats&) const = default;
};

struct BeegfsParams {
  StripeSettings defaultStripe;           // PlaFRIM: count 4, 512 KiB
  ChooserKind chooser = ChooserKind::kRoundRobin;
  ClientParams client;
  MetaParams meta;
  /// Probability that a file create does *not* advance the round-robin
  /// pointer before a concurrent create reads it (create race).  Calibrated
  /// to the paper's Fig. 13 observation that two concurrent count-4 creates
  /// shared all four targets in ~1/3 of repetitions.
  double rrCreateRaceProbability = 1.0 / 3.0;
  /// Client failure semantics for mid-run target faults (default: none, the
  /// exact legacy behaviour).
  ClientFaultPolicy faults;
  /// Storage buddy mirroring (default: disabled, no groups registered).
  MirrorPolicy mirror;
  /// Hedged writes against fail-slow targets (default: disabled; healthy
  /// runs stay bit-identical -- no tracks, no timers).
  HedgePolicy hedge;
};

/// Per-run environment state (production-system mood): multiplicative
/// factors applied to network links and storage devices, sampled by the
/// harness per repetition.  Defaults are noise-free.
struct EnvironmentFactors {
  double network = 1.0;
  double storage = 1.0;

  bool operator==(const EnvironmentFactors&) const = default;
};

}  // namespace beesim::beegfs
