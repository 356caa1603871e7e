#include "control/rebalance.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace beesim::control {

namespace {
constexpr util::Seconds kSampleInterval = 0.1;  // server NIC sampling period
constexpr double kMigrationQueueWeight = 0.25;  // the resync default: yields to foreground I/O
}  // namespace

RebalanceController::RebalanceController(beegfs::FileSystem& fs,
                                         const RebalancePolicy& policy)
    : fs_(fs), policy_(policy), sampler_(fs.deployment().fluid()) {
  BEESIM_ASSERT(policy_.enabled, "constructing a disabled rebalance controller");
  BEESIM_ASSERT(policy_.threshold > 1.0, "rebalance threshold must exceed 1 (balanced)");
  BEESIM_ASSERT(policy_.patience >= 1, "rebalance patience must be >= 1");
  BEESIM_ASSERT(policy_.migrationRate >= 0.0, "migration rate cap must be >= 0");
  BEESIM_ASSERT(policy_.maxConcurrentMigrations >= 0, "migration concurrency must be >= 0");

  auto& deployment = fs_.deployment();
  sampler_.setMetricsInterval(kSampleInterval);
  for (std::size_t h = 0; h < deployment.cluster().hosts.size(); ++h) {
    sampler_.trackLink(deployment.serverNicResource(h));
  }
  fs_.enableWeightedChooser();
  sampler_.setSampleListener([this](const sim::MetricsSample& s) { onSample(s); });
}

RebalanceController::~RebalanceController() {
  for (const auto& [key, flow] : migrations_) fs_.deployment().fluid().cancelFlow(flow);
}

void RebalanceController::disarm() {
  disarmed_ = true;
  engaged_ = false;
  strikes_ = 0;
  fs_.deployment().fluid().removeObserver(&sampler_);
  fs_.deployment().mgmt().resetHostWeights();
}

void RebalanceController::onSample(const sim::MetricsSample& sample) {
  ++stats_.samples;
  stats_.peakImbalance = std::max(stats_.peakImbalance, sample.linkImbalance);
  const double imbalance = sample.linkImbalance;
  if (imbalance <= 0.0) {
    // All tracked links idle: nothing to balance, and nothing to flap over.
    strikes_ = 0;
    return;
  }
  if (!engaged_) {
    if (imbalance >= policy_.threshold) {
      if (++strikes_ >= policy_.patience) {
        engaged_ = true;
        strikes_ = 0;
        ++stats_.triggers;
        scheduleAct(sample);
      }
    } else {
      strikes_ = 0;
    }
    return;
  }
  if (imbalance < policy_.threshold - std::min(0.1, (policy_.threshold - 1.0) / 2.0)) {
    // Below the hysteresis band: stand down and stop biasing creates.
    engaged_ = false;
    strikes_ = 0;
    fs_.deployment().mgmt().resetHostWeights();
    return;
  }
  scheduleAct(sample);
}

void RebalanceController::scheduleAct(const sim::MetricsSample& sample) {
  // The listener runs inside the sampler's observer dispatch; mutating the
  // flow set there would recursively re-solve rates.  Defer to a fresh
  // engine event at the same virtual time, with a copy of the reused rates.
  fs_.deployment().fluid().engine().scheduleAfter(
      0.0, [this, rates = sample.linkRates] {
        if (disarmed_ || !engaged_) return;
        act(rates);
      });
}

void RebalanceController::act(const std::vector<util::MiBps>& rates) {
  const auto& mgmt = fs_.deployment().mgmt();
  // A host is usable as a migration/retarget destination only while it has
  // at least one online target.
  std::vector<bool> hostUsable(rates.size(), false);
  for (std::size_t t = 0; t < mgmt.targetCount(); ++t) {
    const auto& entry = mgmt.target(t);
    if (entry.online && entry.host < hostUsable.size()) hostUsable[entry.host] = true;
  }
  updateWeights(rates, hostUsable);
  maybeMigrate(rates, hostUsable);
}

void RebalanceController::updateWeights(const std::vector<util::MiBps>& rates,
                                        const std::vector<bool>& hostUsable) {
  auto& mgmt = fs_.deployment().mgmt();
  double peak = 0.0;
  for (const double rate : rates) peak = std::max(peak, rate);
  if (peak <= 0.0) return;
  // Linear headroom bias: an idle host gets weight ~1, the hottest host a
  // small positive weight (epsilon keeps it choosable when the stripe is
  // wider than the cold hosts can absorb).
  const double eps = 0.01 * peak;
  for (std::size_t h = 0; h < rates.size(); ++h) {
    const double weight = hostUsable[h] ? (peak + eps - rates[h]) / (peak + eps) : 0.0;
    mgmt.setHostWeight(h, weight);
  }
  ++stats_.retargets;
}

void RebalanceController::maybeMigrate(const std::vector<util::MiBps>& rates,
                                       const std::vector<bool>& hostUsable) {
  if (static_cast<int>(migrations_.size()) >= policy_.maxConcurrentMigrations) return;
  const auto& mgmt = fs_.deployment().mgmt();

  std::size_t hot = rates.size();
  std::size_t cold = rates.size();
  for (std::size_t h = 0; h < rates.size(); ++h) {
    if (hot == rates.size() || rates[h] > rates[hot]) hot = h;
    if (!hostUsable[h]) continue;
    if (cold == rates.size() || rates[h] < rates[cold]) cold = h;
  }
  if (hot >= rates.size() || cold >= rates.size() || hot == cold) return;
  if (rates[hot] <= 0.0) return;

  // Hottest resident slot on the hot host (largest byte footprint wins: it
  // is both the likeliest bottleneck and the best bang per migrated byte).
  beegfs::FileHandle bestFile{};
  std::size_t bestSlot = 0;
  util::Bytes bestBytes = 0;
  for (std::size_t f = 0; f < fs_.fileCount(); ++f) {
    const beegfs::FileHandle handle{f};
    const auto& info = fs_.info(handle);
    if (info.mirrored) continue;  // mirrored slots move via their buddy groups
    for (std::size_t slot = 0; slot < info.pattern.targets().size(); ++slot) {
      if (migrations_.count({f, slot}) > 0) continue;
      const std::size_t target = fs_.effectiveTarget(handle, slot);
      if (mgmt.target(target).host != hot) continue;
      const util::Bytes bytes = fs_.slotBytes(handle, slot);
      if (bytes > bestBytes) {
        bestFile = handle;
        bestSlot = slot;
        bestBytes = bytes;
      }
    }
  }
  if (bestBytes == 0) return;

  // Destination: the least-used online target on the cold host that the
  // file does not already occupy (keeps stripe targets distinct).
  const auto& info = fs_.info(bestFile);
  std::vector<std::size_t> occupied;
  occupied.reserve(info.pattern.targets().size());
  for (std::size_t slot = 0; slot < info.pattern.targets().size(); ++slot) {
    occupied.push_back(fs_.effectiveTarget(bestFile, slot));
  }
  std::size_t dest = mgmt.targetCount();
  util::Bytes destUsed = std::numeric_limits<util::Bytes>::max();
  for (std::size_t t = 0; t < mgmt.targetCount(); ++t) {
    const auto& entry = mgmt.target(t);
    if (entry.host != cold || !entry.online) continue;
    if (std::find(occupied.begin(), occupied.end(), t) != occupied.end()) continue;
    if (entry.used < destUsed) {
      dest = t;
      destUsed = entry.used;
    }
  }
  if (dest >= mgmt.targetCount()) return;

  const SlotKey key{bestFile.value, bestSlot};
  const auto flow = fs_.migrateSlot(
      bestFile, bestSlot, dest, kMigrationQueueWeight, policy_.migrationRate,
      [this, key](const sim::FlowStats& stats) {
        migrations_.erase(key);
        ++stats_.migrations;
        stats_.bytesMigrated += stats.bytes;
        stats_.migrationSeconds += stats.endTime - stats.startTime;
      });
  migrations_.emplace(key, flow);
}

}  // namespace beesim::control
