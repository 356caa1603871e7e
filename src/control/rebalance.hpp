// Closed-loop rebalancing controller (DESIGN.md §2.6).
//
// The paper's Lesson #4 is that *where* a file's chunks land dominates its
// I/O bandwidth; PR 5 added the observability to watch the per-server rate
// vector in virtual time.  This controller closes the loop: it subscribes to
// the FlowTracer metrics series and, when the live link-imbalance index
// (core::linkImbalance over the server NIC rates -- the same definition the
// tracer, the run table and campaign CSVs report) stays above a threshold
// for `patience` consecutive samples, it acts on two levers:
//
//   * retarget -- publish per-host weights through the management service so
//     the WeightedChooser biases *new* file creates toward under-loaded
//     servers (cheap, only helps workloads that keep creating files);
//   * restripe -- migrate the hottest existing stripe slot to the coldest
//     server as a rate-capped, low-weight background flow over the
//     server-to-server replica path (the resync flow model), re-homing the
//     slot immediately so subsequent writes follow.
//
// Hysteresis (threshold - exitMargin) keeps the controller from flapping on
// the boundary; `disarm()` freezes it when the foreground job completes so
// migration tails cannot re-trigger it against their own traffic.  The
// controller draws no randomness: identical rate histories produce identical
// actions, preserving the harness's jobs-invariance.
#pragma once

#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "beegfs/filesystem.hpp"
#include "sim/trace.hpp"
#include "util/units.hpp"

namespace beesim::control {

/// Tuning knobs of the controller (CLI: --rebalance-*).
struct RebalancePolicy {
  /// Master switch; when false the harness does not even construct the
  /// controller, so untouched runs stay bitwise-identical.
  bool enabled = false;
  /// Engage when link imbalance (max/mean over server NIC rates, >= 1 when
  /// traffic flows) reaches this value...
  double threshold = 1.25;
  /// ...and disengage only below threshold - exitMargin (hysteresis band).
  double exitMargin = 0.1;
  /// Consecutive over-threshold samples required to engage.
  int patience = 3;
  /// Virtual-time metrics sampling interval (seconds).
  util::Seconds sampleInterval = 0.1;
  /// Per-migration-flow rate cap in MiB/s (0 = unlimited).
  util::MiBps migrationRate = 0.0;
  /// Outstanding-request weight of a migration flow; matches the resync
  /// model's default so background streams yield to foreground I/O.
  double migrationQueueWeight = 0.25;
  /// Concurrent background migrations allowed.
  int maxConcurrentMigrations = 2;
  /// Enable the create-bias lever (WeightedChooser + mgmtd host weights).
  bool retarget = true;
  /// Enable the chunk-migration lever.
  bool restripe = true;
};

/// What the controller did during a run (exported as rebal_* columns).
struct RebalanceStats {
  std::size_t samples = 0;          ///< metrics samples observed
  std::size_t triggers = 0;         ///< distinct engagements
  std::size_t retargets = 0;        ///< host-weight updates published
  std::size_t migrations = 0;       ///< background migrations completed
  util::Bytes bytesMigrated = 0;    ///< bytes carried by completed migrations
  util::Seconds migrationSeconds = 0.0;  ///< summed migration flow durations
  double peakImbalance = 0.0;       ///< max link imbalance ever sampled

  bool operator==(const RebalanceStats&) const = default;
};

class RebalanceController {
 public:
  /// Attaches a private FlowTracer to the filesystem's fluid simulator (via
  /// addObserver -- composes with run-level observability) tracking
  /// every server NIC.  When `policy.retarget` is set, wraps the
  /// filesystem's chooser in a WeightedChooser (invisible until weights
  /// skew).  `policy.enabled` must be true.
  RebalanceController(beegfs::FileSystem& fs, const RebalancePolicy& policy);

  /// Cancels outstanding migrations and detaches the tracer.
  ~RebalanceController();

  RebalanceController(const RebalanceController&) = delete;
  RebalanceController& operator=(const RebalanceController&) = delete;

  const RebalancePolicy& policy() const { return policy_; }
  const RebalanceStats& stats() const { return stats_; }

  /// Currently inside an engagement (imbalance above the hysteresis band)?
  bool engaged() const { return engaged_; }

  /// Stop reacting to samples and reset the host weights to uniform.  Called
  /// when the foreground job completes: in-flight migrations finish (their
  /// completions still count), but no new action is taken, so migration
  /// traffic cannot re-trigger the controller after the job ends.
  void disarm();

  /// Cancel all in-flight migration flows (end-of-run cleanup; cancelled
  /// migrations do not count as completed).
  void cancel();

 private:
  using SlotKey = std::pair<std::size_t, std::size_t>;  // (file, slot)

  struct Migration {
    sim::FlowId flow{};
    util::Bytes bytes = 0;
  };

  void onSample(const sim::MetricsSample& sample);
  /// Defer `act` through the engine: the sample listener fires inside
  /// observer dispatch, where starting/cancelling flows is not allowed.
  void scheduleAct(const sim::MetricsSample& sample);
  void act(const std::vector<util::MiBps>& rates);
  void updateWeights(const std::vector<util::MiBps>& rates,
                     const std::vector<bool>& hostUsable);
  void maybeMigrate(const std::vector<util::MiBps>& rates,
                    const std::vector<bool>& hostUsable);

  beegfs::FileSystem& fs_;
  RebalancePolicy policy_;
  sim::FlowTracer tracer_;
  RebalanceStats stats_;
  bool engaged_ = false;
  bool disarmed_ = false;
  int strikes_ = 0;
  std::map<SlotKey, Migration> migrations_;
};

}  // namespace beesim::control
