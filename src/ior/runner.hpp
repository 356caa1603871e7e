// IOR execution engine over the simulated file system.
//
// An IorJob places MPI-style ranks on compute nodes (block distribution, as
// mpirun does by default); the runner performs the benchmark phases --
// create, parallel open, per-rank segment writes -- as virtual-time events
// and reports the same aggregate the real IOR prints: moved bytes divided by
// the wall time from job start to the last rank's completion.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "beegfs/filesystem.hpp"
#include "ior/options.hpp"

namespace beesim::ior {

/// Placement of an IOR run on the cluster.
struct IorJob {
  /// Cluster node indices this job may use (distinct).
  std::vector<std::size_t> nodeIds;
  /// Processes per node; ranks() = nodeIds.size() * ppn.
  int ppn = 8;

  int ranks() const { return static_cast<int>(nodeIds.size()) * ppn; }

  /// Node hosting `rank` (block distribution: ranks 0..ppn-1 on the first
  /// node, etc.).
  std::size_t nodeOfRank(int rank) const;

  /// Convenience: the first `nodes` cluster nodes.
  static IorJob onFirstNodes(std::size_t nodes, int ppn);

  void validate(std::size_t clusterNodes) const;
};

/// Per-resource utilization of one run, measured by a FlowTracer attached
/// for the run's lifetime (harness::ObservabilityOptions::utilization).
/// Server order follows the deployment's server hosts.
struct RunUtilization {
  /// MiB carried by each server's NIC link.
  std::vector<double> serverMiB;
  /// Fraction of the run's wall time each server link had traffic.
  std::vector<double> serverBusyFrac;
  /// max/mean over serverMiB: 1 = balanced, H = all through one of H links.
  double linkImbalance = 0.0;
  /// False when utilization measurement was off (the vectors are empty).
  bool active = false;

  bool operator==(const RunUtilization&) const = default;
};

struct IorResult {
  /// Job start (virtual time when the run was launched).
  util::Seconds start = 0.0;
  /// Last rank completion.
  util::Seconds end = 0.0;
  util::Bytes totalBytes = 0;
  /// Aggregate bandwidth = totalBytes / (end - start), as IOR reports.
  util::MiBps bandwidth = 0.0;
  /// Time spent before the first byte (create + open metadata phase).
  util::Seconds metaTime = 0.0;
  /// Flat target indices of the (first) file's stripe pattern.  For N-N this
  /// is the union over all per-rank files.
  std::vector<std::size_t> targetsUsed;
  /// Per-rank completion times (size == ranks).
  std::vector<util::Seconds> rankEnd;
  /// Client failure accounting attributable to this run (delta of the file
  /// system's counters between launch and completion).  All-zero for healthy
  /// runs or when no fault policy is armed.
  beegfs::ClientFaultStats faults;
  /// Mirroring/resync accounting attributable to this run (delta between
  /// launch and completion).  Background resync that outlives the job keeps
  /// counting in the file system's totals; the harness re-snapshots after
  /// the simulation drains (see harness::runConcurrent).
  beegfs::MirrorStats mirror;
  /// Hedged-write accounting attributable to this run (delta between launch
  /// and completion; all-zero unless HedgePolicy::enabled).
  beegfs::HedgeStats hedge;
  /// True when the run was aborted by the fault policy (strict mode, or
  /// degraded mode with no surviving target).  `bandwidth` is reported as 0
  /// for failed runs -- the planned bytes never fully landed.
  bool failed = false;
  /// Measured per-server traffic split (filled by the harness when
  /// utilization observability is enabled; inactive otherwise).
  RunUtilization util;

  bool operator==(const IorResult&) const = default;
};

/// Launch an IOR run at virtual time `startAt`; `done` fires when the last
/// rank finishes.  `pinnedTargets`, when set, bypasses the chooser (N-1
/// only).  Multiple launches may coexist in one simulation (concurrent
/// applications, Section IV-D).
void launchIor(beegfs::FileSystem& fs, const IorJob& job, const IorOptions& options,
               util::Seconds startAt, std::function<void(const IorResult&)> done,
               std::optional<std::vector<std::size_t>> pinnedTargets = std::nullopt);

/// Convenience for single-application experiments: launch at t=now, run the
/// fluid simulation to completion, return the result.
IorResult runIor(beegfs::FileSystem& fs, const IorJob& job, const IorOptions& options,
                 std::optional<std::vector<std::size_t>> pinnedTargets = std::nullopt);

}  // namespace beesim::ior
