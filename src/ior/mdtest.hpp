// mdtest-style metadata benchmark over the simulated file system.
//
// mdtest is the IO500's metadata workhorse: every rank works on its own set
// of files (N-N), and the benchmark runs phased create -> stat -> unlink
// sweeps with barriers between phases, reporting each phase's throughput in
// ops/s.  This driver reproduces that shape on the queued MDS/MDT model
// (DESIGN.md §2.10): each rank keeps a bounded number of metadata ops in
// flight, ops contend on the sharded MDTs as fluid flows, and the result
// carries per-phase and per-MDT accounting.  Pure metadata: no data bytes
// move and the placement chooser is never consulted, so an mdtest phase
// appended to an IOR run leaves the data-path rng streams untouched.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "beegfs/filesystem.hpp"
#include "ior/runner.hpp"

namespace beesim::ior {

struct MdtestOptions {
  /// Files each rank creates/stats/unlinks (mdtest -n).
  std::size_t filesPerRank = 64;
  /// Outstanding metadata ops a rank pipelines (client-side write-behind for
  /// metadata; mirrors the client write-behind depth in deployment.cpp).
  int inflightPerRank = 8;
  /// Phase switches (mdtest -C/-T/-r).  Stat and unlink run over the files
  /// the create phase made, in the same order.
  bool createPhase = true;
  bool statPhase = true;
  bool unlinkPhase = true;
  /// Every rank works in its own subdirectory (mdtest -u).  With hash
  /// sharding this spreads ranks across MDTs; without it all ops pile onto
  /// the single MDT owning the shared directory.
  bool uniqueDirPerRank = true;
  /// Working directory of the run.
  std::string dir = "/beegfs/mdtest";

  /// Total ops per enabled phase = ranks * filesPerRank.
  std::uint64_t phaseOps(int ranks) const;

  void validate() const;
};

/// One phase's timing window and throughput.
struct MdtestPhase {
  util::Seconds start = 0.0;
  util::Seconds end = 0.0;
  std::uint64_t ops = 0;
  /// ops / (end - start); 0 for disabled phases.
  double opsPerSec = 0.0;

  bool operator==(const MdtestPhase&) const = default;
};

struct MdtestResult {
  util::Seconds start = 0.0;
  util::Seconds end = 0.0;
  MdtestPhase create;
  MdtestPhase stat;
  MdtestPhase unlink;
  std::uint64_t totalOps = 0;
  /// totalOps / (end - start).
  double opsPerSec = 0.0;
  /// Metadata ops this run put on each MDT (delta of the service counters).
  std::vector<std::uint64_t> mdtOps;
  /// max/mean over mdtOps: 1 = perfectly sharded, mdtCount = one hot MDT.
  double mdtImbalance = 1.0;

  bool operator==(const MdtestResult&) const = default;
};

/// Launch an mdtest run at virtual time `startAt`; `done` fires when the
/// last enabled phase drains.  Requires the queued metadata model
/// (MetaParams::queued) -- the scalar model has no contention to measure.
void launchMdtest(beegfs::FileSystem& fs, const IorJob& job, const MdtestOptions& options,
                  util::Seconds startAt, std::function<void(const MdtestResult&)> done);

/// Convenience: launch at t=now, run the simulation to completion.
MdtestResult runMdtest(beegfs::FileSystem& fs, const IorJob& job,
                       const MdtestOptions& options);

/// Fold per-application results into one experiment-wide view (concurrent
/// harness): summed ops, union time windows, elementwise mdtOps, recomputed
/// throughputs and imbalance.
MdtestResult aggregateMdtest(const std::vector<MdtestResult>& apps);

}  // namespace beesim::ior
