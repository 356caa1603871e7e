#include "qos/manager.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace beesim::qos {

namespace {

/// Floor for the re-arm delay: a wake that finds its head chunk still short
/// by a sub-slack amount must not busy-loop at the same timestamp.
constexpr util::Seconds kMinWake = 1e-6;

}  // namespace

QosAppSpec makeAppSpec(const QosPolicy& policy) {
  QosAppSpec spec;
  spec.rate = policy.rate;
  spec.burst = policy.burst;
  return spec;
}

util::MiBps sloRate(const QosAppSpec& spec) {
  return spec.sloRate > 0.0 ? spec.sloRate : spec.rate;
}

QosManager::QosManager(sim::FluidSimulator& fluid, const QosPolicy& policy)
    : fluid_(fluid), policy_(policy) {
  BEESIM_ASSERT(policy.enabled, "QosManager constructed with QoS disabled");
}

std::size_t QosManager::registerApp(const QosAppSpec& spec,
                                    const std::vector<std::size_t>& nodes) {
  QosAppSpec resolved = spec;
  if (!(std::isfinite(resolved.rate)) || resolved.rate <= 0.0) {
    throw util::ConfigError("QoS app rate must be finite and > 0 (MiB/s)");
  }
  if (resolved.burst == 0) {
    // One second of the reserved rate: the conventional default depth.
    resolved.burst = static_cast<util::Bytes>(resolved.rate * static_cast<double>(util::kMiB));
  }
  if (resolved.sloRate < 0.0 || !std::isfinite(resolved.sloRate)) {
    throw util::ConfigError("QoS app SLO rate must be finite and >= 0 (0 = reserved rate)");
  }
  const std::size_t id = apps_.size();
  apps_.push_back(App{resolved, TokenBucket(resolved.rate, resolved.burst), {}, false, {}});
  const std::size_t ledgerId = ledger_.addApp();
  BEESIM_ASSERT(ledgerId == id, "ledger/app id mismatch");
  for (const std::size_t node : nodes) {
    if (node >= nodeApp_.size()) nodeApp_.resize(node + 1, kNoApp);
    if (nodeApp_[node] != kNoApp) {
      throw util::ConfigError("QoS: compute node registered to two applications");
    }
    nodeApp_[node] = id;
  }
  return id;
}

void QosManager::collect(util::Seconds now) {
  for (std::size_t id = 0; id < apps_.size(); ++id) {
    auto& app = apps_[id];
    app.bucket.refill(now);
    const double over = app.bucket.takeOverflow();
    if (over > 0.0 && policy_.borrow) {
      // Idle reservations feed the pool instead of evaporating; the lender
      // can take undrawn spares back on demand (reclaim below).
      ledger_.donate(id, over, static_cast<double>(app.bucket.burst()));
    }
  }
}

bool QosManager::tryAdmit(std::size_t id, util::Bytes bytes, util::Seconds now) {
  collect(now);
  auto& app = apps_[id];
  const double need = app.bucket.admissionNeed(bytes);
  if (!app.bucket.admissible(bytes) && policy_.borrow) {
    // Reclaim-on-demand first: our own pooled spares are still ours.
    double deficit = need - app.bucket.tokens();
    const double reclaimed = ledger_.reclaim(id, deficit);
    if (reclaimed > 0.0) {
      app.bucket.credit(reclaimed);
      app.stats.reclaimed += reclaimed;
      totals_.tokensReclaimed += reclaimed;
    }
    deficit = need - app.bucket.tokens();
    if (deficit > TokenBucket::kSlack) {
      const double drawn = ledger_.draw(id, deficit);
      if (drawn > 0.0) {
        app.bucket.credit(drawn);
        app.stats.borrowed += drawn;
        totals_.tokensBorrowed += drawn;
      }
    }
  }
  if (!app.bucket.admissible(bytes)) return false;
  app.bucket.consume(static_cast<double>(bytes));
  app.stats.issued += static_cast<double>(bytes);
  totals_.tokensIssued += static_cast<double>(bytes);
  return true;
}

void QosManager::WaiterQueue::push(Waiter waiter) {
  if (count_ == ring_.size()) {
    // Full: unroll into a ring twice the size, oldest first.
    std::vector<Waiter> grown(std::max<std::size_t>(8, 2 * ring_.size()));
    for (std::size_t i = 0; i < count_; ++i) {
      grown[i] = std::move(ring_[(head_ + i) % ring_.size()]);
    }
    ring_ = std::move(grown);
    head_ = 0;
  }
  ring_[(head_ + count_) % ring_.size()] = std::move(waiter);
  ++count_;
}

QosManager::Waiter QosManager::WaiterQueue::pop() {
  Waiter waiter = std::move(ring_[head_]);
  head_ = (head_ + 1) % ring_.size();
  --count_;
  return waiter;
}

bool QosManager::admitChunk(std::size_t node, util::Bytes bytes,
                            std::function<void()> resume) {
  const std::size_t id = node < nodeApp_.size() ? nodeApp_[node] : kNoApp;
  if (id == kNoApp) return true;  // node not under QoS management
  auto& app = apps_[id];
  const util::Seconds now = fluid_.now();
  // FIFO: while older chunks wait, newcomers queue behind them even if the
  // balance would cover them -- no overtaking, and admission order is a pure
  // function of arrival order.
  if (app.waiters.empty() && tryAdmit(id, bytes, now)) return true;
  ++app.stats.deferrals;
  ++totals_.deferrals;
  app.waiters.push(Waiter{bytes, std::move(resume), now});
  armWake(id);
  return false;
}

void QosManager::armWake(std::size_t id) {
  auto& app = apps_[id];
  if (app.wakeArmed || app.waiters.empty()) return;
  const util::Seconds wait =
      std::max(kMinWake, app.bucket.timeUntilAdmissible(app.waiters.front().bytes));
  app.wakeArmed = true;
  fluid_.engine().scheduleAfter(wait, [this, id] { wake(id); });
}

void QosManager::wake(std::size_t id) {
  auto& app = apps_[id];
  app.wakeArmed = false;
  const util::Seconds now = fluid_.now();
  while (!app.waiters.empty() && tryAdmit(id, app.waiters.front().bytes, now)) {
    Waiter waiter = app.waiters.pop();
    app.stats.throttleSeconds += now - waiter.since;
    totals_.throttleSeconds += now - waiter.since;
    // Issues the deferred chunk's flow; runs inside this engine event like
    // any completion callback (may append more waiters re-entrantly).
    if (waiter.resume) waiter.resume();
  }
  armWake(id);
}

}  // namespace beesim::qos
