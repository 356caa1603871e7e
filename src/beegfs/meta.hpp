// Metadata service (MDS + MDT) cost model.
//
// The paper deliberately minimizes metadata influence (N-1 shared file,
// Section III-B), but metadata latency is exactly what penalizes small data
// sizes (Fig. 2's left side) together with client ramp-up, and at high file
// counts the metadata path dominates end-to-end performance outright (the
// IO500's md phases).  Two models live here:
//
//   * The legacy *scalar* model: IOR's create and open each cost a jittered
//     latency (createCost/openAllCost).  This is the default and keeps
//     historical runs bitwise identical.
//
//   * The *queued* model (MetaParams::queued, DESIGN.md §2.10): every MDT
//     is a fluid resource with a concurrency ramp, and each operation is a
//     flow sized so the MDT saturates at the configured ops/s.  Metadata
//     ops then contend observably in virtual time, multiple MDTs shard the
//     namespace per directory (MdShardChooser), and per-MDT op counters
//     expose the shard balance.  mdtest's create/stat/unlink phases run
//     only on this model.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "beegfs/mdshard.hpp"
#include "beegfs/params.hpp"
#include "sim/fluid.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace beesim::beegfs {

/// Metadata operation kinds served by the queued model.
enum class MetaOpKind { kCreate, kOpen, kStat, kUnlink };

class MetaService {
 public:
  /// Capacity of a saturated MDT in the fluid model's MiB/s unit.  One
  /// operation of kind k is a flow of kSaturationMiBps/rate_k MiB, so the
  /// unit cancels: a saturated MDT completes rate_k ops/s regardless.
  static constexpr double kSaturationMiBps = 1024.0;
  /// Queue depth of the concurrency ramp: an MDT at depth d serves at
  /// d / (d + kSaturationDepth - 1) of its saturation throughput, so a lone
  /// op takes kSaturationDepth/rate seconds and a deep queue approaches the
  /// full rate.
  static constexpr double kSaturationDepth = 16.0;

  MetaService(const MetaParams& params, util::Rng rng);

  // -- Scalar model (legacy; used when !queuedModel()). -------------------

  /// Latency of creating a file entry (rank 0 performs it).
  util::Seconds createCost();

  /// Latency experienced by `concurrentRanks` ranks opening the same file at
  /// once.  Opens are served concurrently by the MDS but contend on the MDT;
  /// the returned value is the time until the *last* open finishes (a mild
  /// logarithmic pile-up, SSD MDTs handle deep queues well).  Counts one
  /// served operation per rank.
  util::Seconds openAllCost(std::size_t concurrentRanks);

  // -- Queued model (MetaParams::queued). ---------------------------------

  bool queuedModel() const { return params_.queued; }
  std::size_t mdtCount() const { return static_cast<std::size_t>(params_.mdtCount); }

  /// Wire the service to its per-MDT fluid resources.  Called once by the
  /// Deployment constructor when the queued model is on; `mdtRes` must hold
  /// mdtCount() resources.
  void attach(sim::FluidSimulator& fluid, std::vector<sim::ResourceIndex> mdtRes);

  /// MDT owning `path` (hash of the parent directory, or round-robin; see
  /// MdShardKind).  Only the parent directory is read, so a directory
  /// prefix ending in '/' ("/beegfs/d/") shards like any entry of it.
  std::size_t shardOf(std::string_view path);

  /// Serve one operation against the MDT owning `path` (consulting the
  /// chooser once); `done` fires from inside the event loop when the
  /// operation's flow completes, with its FlowStats (endTime is the
  /// completion time).  Returns the shard the op landed on (callers account
  /// per-MDT work without a second chooser consultation).  Requires the
  /// queued model to be attached.  Allocates nothing once the fluid's flow
  /// slots are warm, provided `done` fits std::function's inline buffer.
  std::size_t opAsync(MetaOpKind kind, std::string_view path, sim::FlowCallback done);

  /// Per-MDT saturation throughput of `kind` in ops/s: MetaParams::createRate
  /// for creates, the default profile scaled by createRate for the others.
  double rateFor(MetaOpKind kind) const { return rates_[static_cast<std::size_t>(kind)]; }

  /// Concurrency ramp of one MDT: fraction of the saturation throughput
  /// reached at `queueDepth` outstanding operations (Hill-type curve; a
  /// single op runs at 1/kSaturationDepth of the rate).
  double rampFactor(double queueDepth) const;

  /// The fluid resource of MDT `shard` (attached queued model only).
  sim::ResourceIndex mdtResource(std::size_t shard) const;

  // -- Diagnostics. --------------------------------------------------------

  /// Total metadata operations served (both models).
  std::uint64_t opsServed() const { return ops_; }

  /// Operations served per MDT (all zero under the scalar model).
  const std::vector<std::uint64_t>& mdtOps() const { return mdtOps_; }

 private:
  util::Seconds jittered(util::Seconds base);

  MetaParams params_;
  std::array<double, 4> rates_;  ///< rateFor, indexed by MetaOpKind
  util::Rng rng_;
  MdShardChooser shards_;
  /// Per-MDT jitter substreams.  Derived order-independently from the
  /// service's own stream (splitNamed), so the queued model consumes
  /// nothing from rng_ -- enabling it leaves the scalar stream, and every
  /// other deployment stream, byte-identical.
  std::vector<util::Rng> mdtRng_;
  sim::FluidSimulator* fluid_ = nullptr;
  std::vector<sim::ResourceIndex> mdtRes_;
  std::vector<std::uint64_t> mdtOps_;
  std::uint64_t ops_ = 0;
};

}  // namespace beesim::beegfs
