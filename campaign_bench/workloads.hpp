// The benchmark's four named workloads.
//
// Each workload is a campaign: a fixed set of inputs (RunConfig / AppSpec)
// that the benchmark builds here and hands to the simulator's public harness
// entry points.  The seed never enters the inputs themselves; it drives the
// campaign's randomized-block protocol (per-run seeds and virtual start
// times), so the same seed always replays the same repetitions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/concurrent.hpp"
#include "harness/protocol.hpp"

namespace campaign_bench {

struct Workload {
  /// True for the multi-tenant workload, which runs through runConcurrent;
  /// the others run through executeCampaign -> runOnce.
  bool concurrent = false;
  /// Single-application configurations (executeCampaign entries).
  std::vector<beesim::harness::CampaignEntry> entries;
  /// Concurrent workloads: the shared deployment and its applications.
  beesim::harness::RunConfig base;
  std::vector<beesim::harness::AppSpec> apps;
  /// Repetitions per configuration in one campaign batch.
  beesim::harness::ProtocolOptions protocol;
};

/// Names accepted by makeWorkload, in presentation order.
const std::vector<std::string>& workloadNames();

/// Build a workload's inputs.  Throws std::invalid_argument on an unknown
/// name.
Workload makeWorkload(const std::string& name);

/// One planned repetition.  `planned.configIndex` indexes Workload::entries
/// (always 0 for the concurrent workload).
using PlannedRep = beesim::harness::PlannedRun;

/// Campaign seed of batch `batch` of a run seeded with `seed`.
std::uint64_t batchSeed(std::uint64_t seed, std::size_t batch);

/// The repetitions executeCampaign runs for `campaignSeed`, in commit order
/// (the same plan the harness builds internally).
std::vector<PlannedRep> planBatch(const Workload& workload, std::uint64_t campaignSeed);

}  // namespace campaign_bench
