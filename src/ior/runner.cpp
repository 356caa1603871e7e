#include "ior/runner.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <type_traits>

#include "util/error.hpp"

namespace beesim::ior {

std::size_t IorJob::nodeOfRank(int rank) const {
  BEESIM_ASSERT(rank >= 0 && rank < ranks(), "rank out of range");
  return nodeIds[static_cast<std::size_t>(rank) / static_cast<std::size_t>(ppn)];
}

IorJob IorJob::onFirstNodes(std::size_t nodes, int ppn) {
  IorJob job;
  job.nodeIds.resize(nodes);
  for (std::size_t n = 0; n < nodes; ++n) job.nodeIds[n] = n;
  job.ppn = ppn;
  return job;
}

void IorJob::validate(std::size_t clusterNodes) const {
  if (nodeIds.empty()) throw util::ConfigError("IOR job needs at least one node");
  if (ppn < 1) throw util::ConfigError("IOR job needs ppn >= 1");
  std::set<std::size_t> distinct(nodeIds.begin(), nodeIds.end());
  if (distinct.size() != nodeIds.size()) {
    throw util::ConfigError("IOR job node list contains duplicates");
  }
  for (const auto n : nodeIds) {
    if (n >= clusterNodes) throw util::ConfigError("IOR job references an unknown node");
  }
}

namespace {

/// Shared mutable state of one in-flight IOR run.  The file system holds its
/// owner (FileSystem::hold) from the first segment until the run closes, so
/// each segment's continuation captures just {state pointer, rank, segment}
/// and fits inside its std::function.
struct RunState {
  IorResult result;
  int ranksRemaining = 0;
  std::function<void(const IorResult&)> done;
  beegfs::FileSystem* fs = nullptr;
  IorJob job;
  IorOptions options;
  /// File handle per rank (same handle for all ranks in N-1).
  std::vector<beegfs::FileHandle> rankFile;
  /// Queue weight per flow, per rank.
  std::vector<double> rankQueueWeight;
  /// Fault-counter snapshot at launch; the result reports the delta.
  beegfs::ClientFaultStats faultBaseline;
};

/// Counter delta `now` - `base` (aborted is the file system's current state:
/// an abort anywhere kills every job sharing the mount).
beegfs::ClientFaultStats faultDelta(const beegfs::ClientFaultStats& now,
                                    const beegfs::ClientFaultStats& base) {
  beegfs::ClientFaultStats d;
  d.timeouts = now.timeouts - base.timeouts;
  d.retries = now.retries - base.retries;
  d.failovers = now.failovers - base.failovers;
  d.bytesRewritten = now.bytesRewritten - base.bytesRewritten;
  d.degradedTime = now.degradedTime - base.degradedTime;
  d.aborted = now.aborted;
  return d;
}

/// Issue segment `segment` of `rank`, chaining to the next segment on
/// completion (IOR writes a rank's segments sequentially).
void issueSegment(RunState* state, int rank, int segment) {
  const auto& options = state->options;
  // A fault-policy abort stops ranks at their next segment boundary.
  if (segment >= options.segments || state->fs->faultsAborted()) {
    // Rank done.
    state->result.rankEnd[rank] = state->fs->deployment().fluid().now();
    if (--state->ranksRemaining == 0) {
      // The owner taken back keeps the state alive through `done`.
      const auto owner = state->fs->release(state);
      auto& result = state->result;
      result.end = state->fs->deployment().fluid().now();
      result.faults = faultDelta(state->fs->faultStats(), state->faultBaseline);
      result.failed = result.faults.aborted;
      result.bandwidth =
          result.failed ? 0.0
                        : util::bandwidth(result.totalBytes, result.end - result.start);
      if (state->done) state->done(result);
    }
    return;
  }
  const std::size_t node = state->job.nodeOfRank(rank);
  const auto offset = options.rankSegmentOffset(rank, state->job.ranks(), segment);
  const auto continuation = [state, rank, segment](util::Seconds) {
    issueSegment(state, rank, segment + 1);
  };
  static_assert(sizeof(continuation) <= 16 && std::is_trivially_copyable_v<decltype(continuation)>,
                "a segment continuation must fit std::function's inline buffer");
  if (options.operation == Operation::kWrite) {
    state->fs->writeAsync(node, state->rankFile[rank], offset, options.blockSize,
                          state->rankQueueWeight[rank], continuation);
  } else {
    state->fs->readAsync(node, state->rankFile[rank], offset, options.blockSize,
                         state->rankQueueWeight[rank], continuation);
  }
}

}  // namespace

void launchIor(beegfs::FileSystem& fs, const IorJob& job, const IorOptions& options,
               util::Seconds startAt, std::function<void(const IorResult&)> done,
               std::optional<std::vector<std::size_t>> pinnedTargets) {
  options.validate();
  auto& deployment = fs.deployment();
  job.validate(deployment.cluster().nodes.size());
  if (pinnedTargets && options.pattern == AccessPattern::kFilePerProcess) {
    throw util::ConfigError("pinned targets are only supported for the shared-file mode");
  }

  auto state = std::make_shared<RunState>();
  state->fs = &fs;
  state->job = job;
  state->options = options;
  state->done = std::move(done);
  state->ranksRemaining = job.ranks();
  state->result.totalBytes = options.totalBytes(job.ranks());
  state->result.rankEnd.assign(static_cast<std::size_t>(job.ranks()), 0.0);

  deployment.fluid().engine().schedule(startAt, [state, pinnedTargets = std::move(
                                                            pinnedTargets)]() mutable {
    auto& fs = *state->fs;
    auto& deployment = fs.deployment();
    auto& meta = deployment.meta();
    const auto& job = state->job;
    const auto& options = state->options;

    state->result.start = deployment.fluid().now();
    state->faultBaseline = fs.faultStats();

    // Metadata phase: rank 0 creates the file(s); then every rank opens.
    // Placement happens identically under both metadata models (the chooser
    // stream sees the same create order), so enabling the queued model
    // leaves allocations byte-identical; only the *timing* of the phase
    // differs (scalar latency lookup vs. contended MDT flows).
    const bool queued = meta.queuedModel();
    const auto chunk = fs.deployment().params().defaultStripe.chunkSize;
    std::set<std::size_t> usedTargets;
    util::Seconds scalarMetaCost = 0.0;
    std::vector<std::string> paths;
    state->rankFile.resize(static_cast<std::size_t>(job.ranks()));
    if (options.pattern == AccessPattern::kSharedFile) {
      if (!queued) scalarMetaCost += meta.createCost();
      const auto handle = pinnedTargets
                              ? fs.createPinned(options.testFile, *pinnedTargets, chunk)
                              : fs.create(options.testFile);
      std::fill(state->rankFile.begin(), state->rankFile.end(), handle);
      const auto& targets = fs.info(handle).pattern.targets();
      usedTargets.insert(targets.begin(), targets.end());
      paths.push_back(options.testFile);
    } else {
      // N-N: every rank creates its own file (creates contend on the MDS --
      // serialized cost scaled logarithmically inside openAllCost's model;
      // here we charge one create per rank, concurrently, as a max).
      util::Seconds worstCreate = 0.0;
      for (int r = 0; r < job.ranks(); ++r) {
        if (!queued) worstCreate = std::max(worstCreate, meta.createCost());
        auto path = options.testFile + "." + std::to_string(r);
        const auto handle = fs.create(path);
        state->rankFile[static_cast<std::size_t>(r)] = handle;
        const auto& targets = fs.info(handle).pattern.targets();
        usedTargets.insert(targets.begin(), targets.end());
        paths.push_back(std::move(path));
      }
      scalarMetaCost += worstCreate;
    }
    if (!queued) {
      scalarMetaCost += meta.openAllCost(static_cast<std::size_t>(job.ranks()));
    }
    state->result.targetsUsed.assign(usedTargets.begin(), usedTargets.end());

    // Read phase: the file must pre-exist with its full extent (IOR reads
    // after a prior write; we materialize the layout without charging I/O).
    if (options.operation == Operation::kRead) {
      if (options.pattern == AccessPattern::kSharedFile) {
        fs.truncate(state->rankFile[0], options.totalBytes(job.ranks()));
      } else {
        for (int r = 0; r < job.ranks(); ++r) {
          fs.truncate(state->rankFile[static_cast<std::size_t>(r)],
                      options.blockSize * static_cast<util::Bytes>(options.segments));
        }
      }
    }

    // I/O begins at absolute time `ioStart` (start + the metadata phase).
    const auto beginIo = [state](util::Seconds ioStart) {
      auto& fs = *state->fs;
      auto& deployment = fs.deployment();
      const auto& job = state->job;
      state->result.metaTime = ioStart - state->result.start;

      // Declare client-side load so contention and ramp-up apply.
      for (const auto node : job.nodeIds) {
        deployment.setNodeProcesses(node, job.ppn);
        deployment.markNodeJobStart(node, ioStart);
      }

      // Per-rank queue weight: the node's worker budget, split over its ppn
      // ranks and each rank's per-write flow count (one flow per stripe
      // target).
      state->rankQueueWeight.resize(static_cast<std::size_t>(job.ranks()));
      for (int r = 0; r < job.ranks(); ++r) {
        const auto node = job.nodeOfRank(r);
        const auto stripeCount =
            fs.info(state->rankFile[static_cast<std::size_t>(r)]).pattern.stripeCount();
        const double inflight = deployment.nodeEffectiveInflight(node, job.ppn);
        state->rankQueueWeight[static_cast<std::size_t>(r)] =
            inflight / (static_cast<double>(job.ppn) * static_cast<double>(stripeCount));
      }

      fs.hold(state);
      deployment.fluid().engine().schedule(ioStart, [st = state.get()] {
        for (int r = 0; r < st->job.ranks(); ++r) issueSegment(st, r, 0);
      });
    };

    if (!queued) {
      beginIo(deployment.fluid().now() + scalarMetaCost);
      return;
    }

    // Queued model: the create(s) run as contended MDT flows, then every
    // rank's open does; I/O starts when the last open lands.
    const auto sharedPaths = std::make_shared<std::vector<std::string>>(std::move(paths));
    const auto pendingCreates = std::make_shared<std::size_t>(sharedPaths->size());
    const bool sharedFile = options.pattern == AccessPattern::kSharedFile;
    for (const auto& path : *sharedPaths) {
      meta.opAsync(
          beegfs::MetaOpKind::kCreate, path,
          [state, sharedPaths, pendingCreates, sharedFile, beginIo](const sim::FlowStats&) {
            if (--*pendingCreates != 0) return;
            auto& meta = state->fs->deployment().meta();
            const auto pendingOpens =
                std::make_shared<std::size_t>(static_cast<std::size_t>(state->job.ranks()));
            for (int r = 0; r < state->job.ranks(); ++r) {
              const auto& path =
                  sharedFile ? sharedPaths->front()
                             : (*sharedPaths)[static_cast<std::size_t>(r)];
              meta.opAsync(beegfs::MetaOpKind::kOpen, path,
                           [state, sharedPaths, pendingOpens,
                            beginIo](const sim::FlowStats& stats) {
                             if (--*pendingOpens == 0) beginIo(stats.endTime);
                           });
            }
          });
    }
  });
}

IorResult runIor(beegfs::FileSystem& fs, const IorJob& job, const IorOptions& options,
                 std::optional<std::vector<std::size_t>> pinnedTargets) {
  IorResult result;
  bool finished = false;
  launchIor(
      fs, job, options, fs.deployment().fluid().now(),
      [&](const IorResult& r) {
        result = r;
        finished = true;
      },
      std::move(pinnedTargets));
  fs.deployment().fluid().run();
  BEESIM_ASSERT(finished, "IOR run did not complete");
  return result;
}

}  // namespace beesim::ior
