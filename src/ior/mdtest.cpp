#include "ior/mdtest.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <string>

#include "beegfs/deployment.hpp"
#include "beegfs/meta.hpp"
#include "util/error.hpp"

namespace beesim::ior {

std::uint64_t MdtestOptions::phaseOps(int ranks) const {
  return static_cast<std::uint64_t>(ranks) * static_cast<std::uint64_t>(filesPerRank);
}

void MdtestOptions::validate() const {
  if (filesPerRank < 1) throw util::ConfigError("mdtest needs files-per-rank >= 1");
  if (inflightPerRank < 1) throw util::ConfigError("mdtest needs inflight-per-rank >= 1");
  if (dir.empty()) throw util::ConfigError("mdtest needs a working directory");
}

namespace {

/// mdtest's phase order, each phase behind a barrier.
constexpr std::array<beegfs::MetaOpKind, 3> kPhases{
    beegfs::MetaOpKind::kCreate, beegfs::MetaOpKind::kStat, beegfs::MetaOpKind::kUnlink};

/// max/mean over per-MDT op counts (1 = perfectly sharded).
double mdtImbalanceOf(const std::vector<std::uint64_t>& ops) {
  if (ops.empty()) return 1.0;
  std::uint64_t total = 0;
  std::uint64_t peak = 0;
  for (const auto n : ops) {
    total += n;
    peak = std::max(peak, n);
  }
  if (total == 0) return 1.0;
  const double mean = static_cast<double>(total) / static_cast<double>(ops.size());
  return static_cast<double>(peak) / mean;
}

/// Mutable state of one in-flight mdtest run.  The file system holds its
/// owner (FileSystem::hold) from launch until the run closes, so
/// every op callback captures just {state pointer, rank} and fits inside its
/// std::function: a steady-state op allocates nothing.
struct MdState {
  beegfs::FileSystem* fs = nullptr;
  IorJob job;
  MdtestOptions options;
  MdtestResult result;
  std::function<void(const MdtestResult&)> done;

  /// Each rank's directory as a shard key: "<dir>/rank<r>/" with unique
  /// directories (mdtest -u), "<dir>/" when they share one.  Built once at
  /// launch; MetaService::shardOf reads only the parent directory, which is
  /// the one every file "<key>f..." of the rank has.
  std::vector<std::string> rankDir;
  /// Index into kPhases of the phase in flight.
  std::size_t phaseIndex = 0;
  /// Per-rank cursors of the current phase.
  std::vector<std::size_t> nextFile;
  std::vector<std::size_t> completedFiles;
  int ranksRemaining = 0;
};

MdtestPhase& phaseSlot(MdState& state, beegfs::MetaOpKind kind) {
  switch (kind) {
    case beegfs::MetaOpKind::kCreate:
      return state.result.create;
    case beegfs::MetaOpKind::kStat:
      return state.result.stat;
    case beegfs::MetaOpKind::kUnlink:
      return state.result.unlink;
    case beegfs::MetaOpKind::kOpen:
      break;
  }
  BEESIM_ASSERT(false, "mdtest has no open phase");
  return state.result.create;  // unreachable
}

void startPhase(MdState* st);

void issueOp(MdState* st, int rank) {
  auto& meta = st->fs->deployment().meta();
  const auto r = static_cast<std::size_t>(rank);
  ++st->nextFile[r];
  const auto shard = meta.opAsync(kPhases[st->phaseIndex], st->rankDir[r],
                                  [st, rank](const sim::FlowStats& stats) {
    const auto r = static_cast<std::size_t>(rank);
    ++st->completedFiles[r];
    if (st->nextFile[r] < st->options.filesPerRank) {
      issueOp(st, rank);
      return;
    }
    if (st->completedFiles[r] < st->options.filesPerRank) return;
    // Rank finished the phase; the phase barrier falls with the last rank.
    if (--st->ranksRemaining > 0) return;
    auto& phase = phaseSlot(*st, kPhases[st->phaseIndex]);
    phase.end = stats.endTime;
    phase.opsPerSec = phase.end > phase.start
                          ? static_cast<double>(phase.ops) / (phase.end - phase.start)
                          : 0.0;
    ++st->phaseIndex;
    startPhase(st);
  });
  ++st->result.mdtOps[shard];
}

void startPhase(MdState* st) {
  auto& fluid = st->fs->deployment().fluid();
  if (st->phaseIndex >= kPhases.size()) {
    // All phases drained: close the run.  The owner taken back from the
    // file system keeps the state alive through `done` and frees it after.
    const auto owner = st->fs->release(st);
    auto& result = st->result;
    result.end = fluid.now();
    result.totalOps = result.create.ops + result.stat.ops + result.unlink.ops;
    result.opsPerSec = result.end > result.start
                           ? static_cast<double>(result.totalOps) / (result.end - result.start)
                           : 0.0;
    result.mdtImbalance = mdtImbalanceOf(result.mdtOps);
    if (st->done) st->done(result);
    return;
  }
  const auto kind = kPhases[st->phaseIndex];
  auto& phase = phaseSlot(*st, kind);
  phase.start = fluid.now();
  phase.ops = st->options.phaseOps(st->job.ranks());
  const auto ranks = static_cast<std::size_t>(st->job.ranks());
  st->nextFile.assign(ranks, 0);
  st->completedFiles.assign(ranks, 0);
  st->ranksRemaining = st->job.ranks();
  const auto pipeline = std::min<std::size_t>(
      static_cast<std::size_t>(st->options.inflightPerRank), st->options.filesPerRank);
  for (int r = 0; r < st->job.ranks(); ++r) {
    for (std::size_t k = 0; k < pipeline; ++k) issueOp(st, r);
  }
}

}  // namespace

void launchMdtest(beegfs::FileSystem& fs, const IorJob& job, const MdtestOptions& options,
                  util::Seconds startAt, std::function<void(const MdtestResult&)> done) {
  options.validate();
  auto& deployment = fs.deployment();
  job.validate(deployment.cluster().nodes.size());
  if (!deployment.meta().queuedModel()) {
    throw util::ConfigError(
        "mdtest requires the queued metadata model (MetaParams::queued; "
        "--mdts/--meta-rate on the CLI)");
  }

  auto state = std::make_shared<MdState>();
  MdState* const st = state.get();
  st->fs = &fs;
  st->job = job;
  st->options = options;
  st->done = std::move(done);
  st->result.mdtOps.assign(deployment.meta().mdtCount(), 0);
  // Unique per-rank directories (mdtest -u) give hash sharding something to
  // spread; a shared directory funnels every op onto one MDT.
  for (int r = 0; r < job.ranks(); ++r) {
    st->rankDir.push_back(options.uniqueDirPerRank
                              ? options.dir + "/rank" + std::to_string(r) + "/"
                              : options.dir + "/");
  }
  fs.hold(std::move(state));

  deployment.fluid().engine().schedule(startAt, [st] {
    st->result.start = st->fs->deployment().fluid().now();
    startPhase(st);
  });
}

MdtestResult runMdtest(beegfs::FileSystem& fs, const IorJob& job,
                       const MdtestOptions& options) {
  MdtestResult result;
  bool finished = false;
  launchMdtest(fs, job, options, fs.deployment().fluid().now(),
               [&](const MdtestResult& r) {
                 result = r;
                 finished = true;
               });
  fs.deployment().fluid().run();
  BEESIM_ASSERT(finished, "mdtest run did not complete");
  return result;
}

MdtestResult aggregateMdtest(const std::vector<MdtestResult>& apps) {
  BEESIM_ASSERT(!apps.empty(), "aggregate mdtest of zero applications");
  MdtestResult agg;
  agg.start = apps.front().start;
  agg.end = apps.front().end;
  const auto fold = [](MdtestPhase& into, const MdtestPhase& from) {
    if (from.ops == 0) return;
    if (into.ops == 0) {
      into.start = from.start;
      into.end = from.end;
    } else {
      into.start = std::min(into.start, from.start);
      into.end = std::max(into.end, from.end);
    }
    into.ops += from.ops;
  };
  for (const auto& app : apps) {
    agg.start = std::min(agg.start, app.start);
    agg.end = std::max(agg.end, app.end);
    fold(agg.create, app.create);
    fold(agg.stat, app.stat);
    fold(agg.unlink, app.unlink);
    agg.totalOps += app.totalOps;
    if (app.mdtOps.size() > agg.mdtOps.size()) agg.mdtOps.resize(app.mdtOps.size(), 0);
    for (std::size_t k = 0; k < app.mdtOps.size(); ++k) agg.mdtOps[k] += app.mdtOps[k];
  }
  const auto rate = [](const MdtestPhase& p) {
    return p.end > p.start ? static_cast<double>(p.ops) / (p.end - p.start) : 0.0;
  };
  agg.create.opsPerSec = rate(agg.create);
  agg.stat.opsPerSec = rate(agg.stat);
  agg.unlink.opsPerSec = rate(agg.unlink);
  agg.opsPerSec =
      agg.end > agg.start ? static_cast<double>(agg.totalOps) / (agg.end - agg.start) : 0.0;
  agg.mdtImbalance = mdtImbalanceOf(agg.mdtOps);
  return agg;
}

}  // namespace beesim::ior
