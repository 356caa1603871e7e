#include "harness/run.hpp"

#include "harness/concurrent.hpp"

namespace beesim::harness {

RunRecord runOnce(const RunConfig& config, std::uint64_t seed) {
  AppSpec app;
  app.job = config.job;
  app.ior = config.ior;
  app.pinnedTargets = config.pinnedTargets;
  auto result = runConcurrent(config, {app}, seed);

  RunRecord record;
  record.ior = std::move(result.apps.front());
  record.environment = result.environment;
  record.seed = seed;
  record.faultsActive = result.faultsActive;
  record.injected = result.injected;
  record.mirrorActive = config.fs.mirror.enabled;
  if (record.mirrorActive) record.ior.mirror = result.mirror;
  record.rebalanceActive = result.rebalanceActive;
  record.rebalance = result.rebalance;
  record.healthActive = result.healthActive;
  record.health = result.health;
  record.hedgeActive = result.hedgeActive;
  if (record.hedgeActive) record.ior.hedge = result.hedge;
  record.mdActive = result.mdActive;
  if (record.mdActive) record.md = result.appMd.front();
  record.qosActive = result.qosActive;
  record.qos = result.qos;
  record.ior.util = std::move(result.util);
  record.resolves = result.resolves;
  record.solverIterations = result.solverIterations;
  record.wallSeconds = result.wallSeconds;
  record.solveSeconds = result.solveSeconds;
  record.trace = std::move(result.trace);
  return record;
}

}  // namespace beesim::harness
