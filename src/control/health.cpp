#include "control/health.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace beesim::control {

namespace {
constexpr util::Seconds kSampleInterval = 0.25;  // server NIC sampling period
constexpr double kEwmaAlpha = 0.3;               // per-sample EWMA weight (1 = raw)
constexpr double kDrainWeight = 0.05;  // quarantined create weight; > 0 stays choosable
constexpr double kProbeWeight = 0.5;             // create weight during probation
constexpr util::Seconds kRecoverPatience = 1.0;  // clean probation before re-admission
}  // namespace

HealthMonitor::HealthMonitor(beegfs::FileSystem& fs, const HealthPolicy& policy)
    : fs_(fs), policy_(policy), sampler_(fs.deployment().fluid()) {
  BEESIM_ASSERT(policy_.enabled, "constructing a disabled health monitor");
  BEESIM_ASSERT(policy_.suspectRatio > 0.0 && policy_.suspectRatio < 1.0,
                "suspect ratio must lie in (0, 1)");
  BEESIM_ASSERT(policy_.suspectPatience > 0.0, "suspect patience must be > 0");
  BEESIM_ASSERT(policy_.probationDelay >= 0.0, "probation delay must be >= 0");

  auto& deployment = fs_.deployment();
  const auto& cluster = deployment.cluster();
  hosts_.resize(cluster.hosts.size());
  sampler_.setMetricsInterval(kSampleInterval);
  for (std::size_t h = 0; h < cluster.hosts.size(); ++h) {
    sampler_.trackLink(deployment.serverNicResource(h));
  }
  fs_.enableWeightedChooser();
  sampler_.setSampleListener([this](const sim::MetricsSample& s) { onSample(s); });
}

void HealthMonitor::disarm() {
  // Weights return to uniform so tail traffic (resync, migrations) is not
  // steered; the registry keeps the final verdict for post-run inspection.
  disarmed_ = true;
  fs_.deployment().fluid().removeObserver(&sampler_);
  fs_.deployment().mgmt().resetHostWeights();
}

void HealthMonitor::onSample(const sim::MetricsSample& sample) {
  ++stats_.samples;
  const util::Seconds now = sample.time;

  for (std::size_t h = 0; h < hosts_.size(); ++h) {
    // Only busy samples feed the EWMA: an idle NIC says nothing about the
    // host's service rate, and letting zeros decay the average would erase a
    // healthy peer's testimony exactly when a straggler convoys the workload
    // behind itself (the healthy host goes idle *because* the sick one is
    // slow).  An idle host keeps its last-known rate as evidence.
    if (sample.linkFlows[h] == 0) continue;
    const double rate = sample.linkRates[h];
    auto& host = hosts_[h];
    host.ewma = host.ewma < 0.0
                    ? rate
                    : kEwmaAlpha * rate + (1.0 - kEwmaAlpha) * host.ewma;
  }

  std::vector<double> peers;
  peers.reserve(hosts_.size());
  for (std::size_t h = 0; h < hosts_.size(); ++h) {
    auto& host = hosts_[h];
    // Only a server with traffic can testify against itself: an idle NIC is
    // no evidence (the host may legitimately serve no chunk of this job).
    const bool busy = sample.linkFlows[h] > 0;
    peers.clear();
    for (std::size_t p = 0; p < hosts_.size(); ++p) {
      // A peer testifies with its EWMA whether or not it is busy this very
      // sample: the retained last-known rate is exactly the reference needed
      // when the straggler has idled everyone else.
      if (p == h || hosts_[p].ewma < 0.0) continue;
      peers.push_back(hosts_[p].ewma);
    }
    bool below = false;
    if (busy && !peers.empty()) {
      std::sort(peers.begin(), peers.end());
      const double median = peers[(peers.size() - 1) / 2];  // lower median
      below = median > 0.0 && host.ewma < policy_.suspectRatio * median;
    }

    switch (host.health) {
      case beegfs::HostHealth::kHealthy:
        if (below) {
          host.health = beegfs::HostHealth::kSuspect;
          host.belowSince = now;
          ++stats_.suspects;
          fs_.deployment().mgmt().setHostHealth(h, host.health);
        }
        break;
      case beegfs::HostHealth::kSuspect:
        if (!below) {
          host.health = beegfs::HostHealth::kHealthy;
          host.belowSince = -1.0;
          fs_.deployment().mgmt().setHostHealth(h, host.health);
        } else if (now - host.belowSince >= policy_.suspectPatience) {
          quarantine(h, now);
        }
        break;
      case beegfs::HostHealth::kQuarantined:
        // Drained; the probation timer owns the exit.
        break;
      case beegfs::HostHealth::kProbation:
        if (below) {
          ++stats_.relapses;
          quarantine(h, now);
        } else if (now - host.cleanSince >= kRecoverPatience) {
          readmit(h);
        }
        break;
    }
  }
}

void HealthMonitor::quarantine(std::size_t host, util::Seconds /*now*/) {
  auto& state = hosts_[host];
  state.health = beegfs::HostHealth::kQuarantined;
  state.belowSince = -1.0;
  state.cleanSince = -1.0;
  ++stats_.quarantines;
  auto& mgmt = fs_.deployment().mgmt();
  mgmt.setHostHealth(host, state.health);
  // The drain lever: new creates avoid the host through the WeightedChooser;
  // weight updates are pure registry state, so they are safe inside observer
  // dispatch (unlike flow mutations).
  mgmt.setHostWeight(host, kDrainWeight);
  const std::uint64_t epoch = ++state.probationEpoch;
  fs_.deployment().fluid().engine().scheduleAfter(
      policy_.probationDelay, [this, host, epoch] { enterProbation(host, epoch); });
  // Mirrored files escape a gray primary by registry switchover (the
  // mirrored equivalent of a hedge).  Switching moves flows, so it is
  // deferred out of observer dispatch; gated on HedgePolicy::enabled so
  // --suspect-* alone stays a pure create-weight drain.
  fs_.deployment().fluid().engine().scheduleAfter(0.0, [this, host] {
    if (disarmed_) return;
    if (hosts_[host].health != beegfs::HostHealth::kQuarantined) return;
    fs_.hedgeMirrorGroupsOnHost(host);
  });
}

void HealthMonitor::enterProbation(std::size_t host, std::uint64_t epoch) {
  if (disarmed_) return;
  auto& state = hosts_[host];
  // A relapse rearms the timer; only the newest epoch may probe.
  if (epoch != state.probationEpoch) return;
  if (state.health != beegfs::HostHealth::kQuarantined) return;
  state.health = beegfs::HostHealth::kProbation;
  state.cleanSince = fs_.deployment().fluid().now();
  ++stats_.probations;
  auto& mgmt = fs_.deployment().mgmt();
  mgmt.setHostHealth(host, state.health);
  mgmt.setHostWeight(host, kProbeWeight);
}

void HealthMonitor::readmit(std::size_t host) {
  auto& state = hosts_[host];
  state.health = beegfs::HostHealth::kHealthy;
  state.cleanSince = -1.0;
  ++stats_.readmissions;
  auto& mgmt = fs_.deployment().mgmt();
  mgmt.setHostHealth(host, state.health);
  mgmt.setHostWeight(host, 1.0);
}

}  // namespace beesim::control
