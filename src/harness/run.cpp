#include "harness/run.hpp"

#include "harness/concurrent.hpp"

namespace beesim::harness {

ConcurrentResult runSingle(const RunConfig& config, std::uint64_t seed) {
  AppSpec app;
  app.job = config.job;
  app.ior = config.ior;
  app.pinnedTargets = config.pinnedTargets;
  return runConcurrent(config, {app}, seed);
}

RunRecord projectRun(ConcurrentResult&& result) {
  RunRecord record;
  record.ior = std::move(result.apps.front());
  // Mirroring and hedging are accounted experiment-wide (zeroed when off).
  record.ior.mirror = result.mirror;
  record.ior.hedge = result.hedge;
  record.ior.util = std::move(result.util);
  record.environment = result.environment;
  record.seed = result.seed;
  record.injected = result.injected;
  record.rebalance = result.rebalance;
  record.health = result.health;
  record.mdActive = result.mdActive;
  if (record.mdActive) record.md = std::move(result.appMd.front());
  record.qosActive = result.qosActive;
  record.qos = result.qos;
  record.resolves = result.resolves;
  record.solverIterations = result.solverIterations;
  record.wallSeconds = result.wallSeconds;
  record.solveSeconds = result.solveSeconds;
  record.trace = std::move(result.trace);
  return record;
}

RunRecord runOnce(const RunConfig& config, std::uint64_t seed) {
  return projectRun(runSingle(config, seed));
}

}  // namespace beesim::harness
