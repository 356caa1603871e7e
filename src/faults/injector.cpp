#include "faults/injector.hpp"

#include "util/error.hpp"

namespace beesim::faults {

FaultInjector::FaultInjector(beegfs::Deployment& deployment, FaultSchedule schedule)
    : deployment_(deployment), schedule_(std::move(schedule)) {
  schedule_.normalize(deployment_.cluster().targetCount(),
                      deployment_.cluster().hosts.size());
  targetFailed_.assign(deployment_.cluster().targetCount(), false);
  hostFailed_.assign(deployment_.cluster().hosts.size(), false);
  targetDegrade_.assign(deployment_.cluster().targetCount(), 1.0);
  linkDegrade_.assign(deployment_.cluster().hosts.size(), 1.0);
}

void FaultInjector::arm(util::Seconds origin) {
  auto& engine = deployment_.fluid().engine();
  BEESIM_ASSERT(origin >= engine.now(), "fault schedule origin lies in the past");
  // The event is captured by index, so the callback fits std::function's
  // inline buffer: arming allocates nothing per event.
  for (std::size_t i = 0; i < schedule_.events.size(); ++i) {
    engine.schedule(origin + schedule_.events[i].at, [this, i] { apply(schedule_.events[i]); });
  }
}

void FaultInjector::applyTargetState(std::size_t target) {
  auto& mgmt = deployment_.mgmt();
  const bool down = targetFailed_[target] || hostFailed_[mgmt.target(target).host];
  mgmt.setTargetOnline(target, !down);
  deployment_.setTargetHealth(target, down ? 0.0 : targetDegrade_[target]);
}

void FaultInjector::applyLinkState(std::size_t host) {
  deployment_.setHostLinkHealth(host, hostFailed_[host] ? 0.0 : linkDegrade_[host]);
}

void FaultInjector::apply(const FaultEvent& event) {
  auto& mgmt = deployment_.mgmt();
  const auto forEachTargetOnHost = [&](std::size_t host, auto&& fn) {
    for (std::size_t t = 0; t < mgmt.targetCount(); ++t) {
      if (mgmt.target(t).host == host) fn(t);
    }
  };

  switch (event.kind) {
    case FaultKind::kTargetFail:
      targetFailed_[event.index] = true;
      applyTargetState(event.index);
      ++stats_.targetFailures;
      break;
    case FaultKind::kTargetRecover:
      // Clears only the target-level cause: the target stays down while its
      // host's crash is still outstanding, and comes back at its degrade
      // fraction (not a clean 1.0) if a fail-slow episode is still open.
      targetFailed_[event.index] = false;
      applyTargetState(event.index);
      ++stats_.targetRecoveries;
      break;
    case FaultKind::kHostFail:
      // An OSS crash takes down its link and every OST it serves.
      hostFailed_[event.index] = true;
      applyLinkState(event.index);
      forEachTargetOnHost(event.index, [&](std::size_t t) { applyTargetState(t); });
      ++stats_.hostFailures;
      break;
    case FaultKind::kHostRecover:
      // A reboot revives only what the crash took down: targets with an
      // outstanding kTargetFail stay offline, a link degraded by its own
      // kLinkDegrade comes back at that fraction, fail-slow targets at
      // theirs.
      hostFailed_[event.index] = false;
      applyLinkState(event.index);
      forEachTargetOnHost(event.index, [&](std::size_t t) { applyTargetState(t); });
      ++stats_.hostRecoveries;
      break;
    case FaultKind::kLinkDegrade:
      linkDegrade_[event.index] = event.fraction;
      applyLinkState(event.index);
      ++stats_.linkDegradations;
      break;
    case FaultKind::kTargetDegrade:
      targetDegrade_[event.index] = event.fraction;
      applyTargetState(event.index);
      ++stats_.targetDegradations;
      break;
  }
  // Re-solve in-flight flows against the new capacities at the fault instant.
  deployment_.fluid().invalidateCapacities();
}

}  // namespace beesim::faults
