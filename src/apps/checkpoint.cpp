#include "apps/checkpoint.hpp"

#include <memory>

#include "util/error.hpp"

namespace beesim::apps {

namespace {

struct AppState {
  beegfs::FileSystem* fs = nullptr;
  CheckpointSpec spec;
  std::function<void(const CheckpointResult&)> done;
  CheckpointResult result;
  util::Seconds appStart = 0.0;
  int iteration = 0;
};

void startIteration(const std::shared_ptr<AppState>& state);

void startCheckpoint(const std::shared_ptr<AppState>& state) {
  auto& fs = *state->fs;
  auto& deployment = fs.deployment();
  const auto& spec = state->spec;
  const auto checkpointStart = deployment.fluid().now();

  // One fresh file per checkpoint, as checkpoint libraries do; each create
  // re-consults the chooser (so targets can differ between iterations).
  const auto name = spec.filePrefix + "." + std::to_string(state->iteration);
  const auto chunk = fs.deployment().params().defaultStripe.chunkSize;
  const auto handle = spec.pinnedTargets.empty()
                          ? fs.create(name)
                          : fs.createPinned(name, spec.pinnedTargets, chunk);

  // All ranks write their slice of the shared checkpoint concurrently.
  const int ranks = spec.job.ranks();
  const util::Bytes perRank = spec.checkpointBytes / static_cast<util::Bytes>(ranks);
  BEESIM_ASSERT(perRank > 0, "checkpoint too small for the rank count");
  const auto stripeCount = fs.info(handle).pattern.stripeCount();

  auto remaining = std::make_shared<int>(ranks);
  for (int r = 0; r < ranks; ++r) {
    const auto node = spec.job.nodeOfRank(r);
    const double queueWeight =
        deployment.nodeEffectiveInflight(node, spec.job.ppn) /
        (static_cast<double>(spec.job.ppn) * static_cast<double>(stripeCount));
    fs.writeAsync(node, handle, static_cast<util::Bytes>(r) * perRank, perRank, queueWeight,
                  [state, checkpointStart, remaining](util::Seconds end) {
                    if (--*remaining > 0) return;
                    // Last rank of this checkpoint.
                    state->result.checkpointDurations.push_back(end - checkpointStart);
                    ++state->iteration;
                    startIteration(state);
                  });
  }
}

void startIteration(const std::shared_ptr<AppState>& state) {
  auto& fluid = state->fs->deployment().fluid();
  if (state->iteration >= state->spec.iterations) {
    auto& result = state->result;
    result.makespan = fluid.now() - state->appStart;
    for (const auto d : result.checkpointDurations) result.totalIoTime += d;
    result.ioFraction = result.makespan > 0.0 ? result.totalIoTime / result.makespan : 0.0;
    double bwSum = 0.0;
    for (const auto d : result.checkpointDurations) {
      bwSum += util::bandwidth(state->spec.checkpointBytes, d);
    }
    result.meanCheckpointBandwidth =
        bwSum / static_cast<double>(result.checkpointDurations.size());
    if (state->done) state->done(result);
    return;
  }
  // Compute phase, then the burst.
  fluid.engine().scheduleAfter(state->spec.computePhase,
                               [state] { startCheckpoint(state); });
}

}  // namespace

void launchCheckpointApp(beegfs::FileSystem& fs, const CheckpointSpec& spec,
                         util::Seconds startAt,
                         std::function<void(const CheckpointResult&)> done) {
  BEESIM_ASSERT(spec.iterations >= 1, "checkpoint app needs >= 1 iteration");
  BEESIM_ASSERT(spec.checkpointBytes > 0, "checkpoint size must be positive");
  BEESIM_ASSERT(spec.computePhase >= 0.0, "compute phase must be >= 0");
  spec.job.validate(fs.deployment().cluster().nodes.size());

  auto state = std::make_shared<AppState>();
  state->fs = &fs;
  state->spec = spec;
  state->done = std::move(done);

  fs.deployment().fluid().engine().schedule(startAt, [state] {
    auto& deployment = state->fs->deployment();
    state->appStart = deployment.fluid().now();
    for (const auto node : state->spec.job.nodeIds) {
      deployment.setNodeProcesses(node, state->spec.job.ppn);
      deployment.markNodeJobStart(node, state->appStart);
    }
    startIteration(state);
  });
}

CheckpointResult runCheckpointApp(beegfs::FileSystem& fs, const CheckpointSpec& spec) {
  CheckpointResult result;
  bool finished = false;
  launchCheckpointApp(fs, spec, fs.deployment().fluid().now(),
                      [&](const CheckpointResult& r) {
                        result = r;
                        finished = true;
                      });
  fs.deployment().fluid().run();
  BEESIM_ASSERT(finished, "checkpoint application did not complete");
  return result;
}

}  // namespace beesim::apps
