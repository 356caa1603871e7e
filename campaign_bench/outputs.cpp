#include "outputs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "util/units.hpp"

namespace campaign_bench {

namespace {

using namespace beesim;

void appendIor(std::vector<double>& out, const ior::IorResult& r) {
  out.insert(out.end(), {r.start, r.end, static_cast<double>(r.totalBytes), r.bandwidth,
                         r.metaTime, r.failed ? 1.0 : 0.0});
  for (const auto t : r.targetsUsed) out.push_back(static_cast<double>(t));
  out.insert(out.end(), r.rankEnd.begin(), r.rankEnd.end());
  out.insert(out.end(), {static_cast<double>(r.faults.timeouts),
                         static_cast<double>(r.faults.retries),
                         static_cast<double>(r.faults.failovers),
                         static_cast<double>(r.faults.bytesRewritten), r.faults.degradedTime});
}

void appendHedge(std::vector<double>& out, const beegfs::HedgeStats& h) {
  out.insert(out.end(), {static_cast<double>(h.hedgesIssued), static_cast<double>(h.hedgeWins),
                         static_cast<double>(h.primaryWins),
                         static_cast<double>(h.mirrorSwitchovers),
                         static_cast<double>(h.bytesHedged)});
}

void appendMd(std::vector<double>& out, const ior::MdtestResult& md) {
  out.insert(out.end(), {md.start, md.end, static_cast<double>(md.totalOps), md.opsPerSec,
                         md.create.opsPerSec, md.stat.opsPerSec, md.unlink.opsPerSec,
                         md.mdtImbalance});
  for (const auto ops : md.mdtOps) out.push_back(static_cast<double>(ops));
}

void appendQos(std::vector<double>& out, const qos::QosStats& q) {
  out.insert(out.end(), {q.tokensIssued, q.tokensBorrowed, q.tokensReclaimed,
                         static_cast<double>(q.deferrals), q.throttleSeconds,
                         static_cast<double>(q.sloViolations)});
}

void appendHealth(std::vector<double>& out, const control::HealthStats& h) {
  out.insert(out.end(), {static_cast<double>(h.samples), static_cast<double>(h.suspects),
                         static_cast<double>(h.quarantines), static_cast<double>(h.probations),
                         static_cast<double>(h.readmissions), static_cast<double>(h.relapses)});
}

bool close(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

/// The checks shared by both run paths, over per-application views.
struct AppView {
  const ior::IorResult* result;
  const ior::IorJob* job;
  const ior::IorOptions* options;
  const qos::QosAppSpec* qos;  // null when unmanaged (single-application runs)
};

void checkApps(const std::vector<AppView>& apps, double aggregate,
               std::vector<std::string>& errors) {
  util::Bytes bytes = 0;
  double first = apps.front().result->start;
  double last = apps.front().result->end;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const auto& r = *apps[a].result;
    const auto tag = "app " + std::to_string(a) + ": ";
    if (r.failed) errors.push_back(tag + "run aborted");
    const auto planned = apps[a].options->totalBytes(apps[a].job->ranks());
    if (r.totalBytes != planned) errors.push_back(tag + "bytes landed != bytes planned");
    if (r.rankEnd.size() != static_cast<std::size_t>(apps[a].job->ranks()) ||
        std::any_of(r.rankEnd.begin(), r.rankEnd.end(), [&](double t) { return t > r.end; })) {
      errors.push_back(tag + "a rank finished after the job end");
    }
    if (!(r.end > r.start) || !close(r.bandwidth, util::bandwidth(r.totalBytes, r.end - r.start))) {
      errors.push_back(tag + "bandwidth != bytes / (end - start)");
    }
    bytes += r.totalBytes;
    first = std::min(first, r.start);
    last = std::max(last, r.end);
  }
  if (!close(aggregate, util::bandwidth(bytes, last - first))) {
    errors.push_back("Equation-1 aggregate disagrees with the per-app results");
  }
}

void checkQos(const std::vector<AppView>& apps, double startAt, const qos::QosStats& stats,
              std::vector<std::string>& errors) {
  double allowance = stats.tokensBorrowed;
  double planned = 0.0;
  for (const auto& app : apps) {
    const double rate = app.qos->rate * static_cast<double>(util::kMiB);
    const double burst = app.qos->burst > 0 ? static_cast<double>(app.qos->burst) : rate;
    allowance += burst + rate * (app.result->end - startAt);
    planned += static_cast<double>(app.options->totalBytes(app.job->ranks()));
  }
  if (stats.tokensIssued > allowance * (1.0 + 1e-9)) {
    errors.push_back("QoS issued more than burst + rate*t + borrowed");
  }
  if (stats.tokensIssued != planned) errors.push_back("QoS did not charge each byte once");
}

void checkMd(const ior::MdtestResult& md, const ior::IorJob& job,
             const ior::MdtestOptions& options, std::vector<std::string>& errors) {
  const auto expected = 3 * static_cast<std::uint64_t>(job.ranks()) * options.filesPerRank;
  std::uint64_t served = 0;
  for (const auto ops : md.mdtOps) served += ops;
  if (md.totalOps != expected || served != expected) {
    errors.push_back("mdtest ops != 3 x ranks x files");
  }
}

}  // namespace

RepOutput outputOf(const harness::RunRecord& record) {
  RepOutput out;
  appendIor(out.results, record.ior);
  appendHedge(out.results, record.ior.hedge);
  out.results.insert(out.results.end(),
                     {record.environment.network, record.environment.storage,
                      static_cast<double>(record.injected.total())});
  appendHealth(out.results, record.health);
  if (record.mdActive) appendMd(out.results, record.md);
  if (record.qosActive) appendQos(out.results, record.qos);
  out.work = {static_cast<double>(record.resolves), static_cast<double>(record.solverIterations),
              static_cast<double>(record.deferredResolves)};
  return out;
}

RepOutput outputOf(const harness::ConcurrentResult& result) {
  RepOutput out;
  for (const auto& app : result.apps) appendIor(out.results, app);
  out.results.insert(out.results.end(),
                     {result.aggregateBandwidth, static_cast<double>(result.sharedTargets),
                      static_cast<double>(result.distinctTargets), result.environment.network,
                      result.environment.storage, static_cast<double>(result.injected.total())});
  appendHedge(out.results, result.hedge);
  appendHealth(out.results, result.health);
  if (result.mdActive) appendMd(out.results, result.md);
  if (result.qosActive) appendQos(out.results, result.qos);
  return out;
}

bool sameBits(const RepOutput& a, const RepOutput& b) {
  const auto same = [](const std::vector<double>& x, const std::vector<double>& y) {
    return x.size() == y.size() &&
           (x.empty() || std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
  };
  return same(a.results, b.results) && same(a.work, b.work);
}

void Digest::add(const RepOutput& output) {
  char text[64];
  for (const double v : output.results) {
    const int n = std::snprintf(text, sizeof text, "%.6f\n", v);
    for (int i = 0; i < n; ++i) {
      state_ ^= static_cast<unsigned char>(text[i]);
      state_ *= 0x100000001b3ULL;
    }
  }
}

std::string Digest::hex() const {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(state_));
  return text;
}

std::vector<std::string> checkRep(const Workload& workload, const PlannedRep& planned,
                                  const harness::RunRecord& record) {
  const auto& config = workload.entries.at(planned.configIndex).config;
  std::vector<std::string> errors;
  const std::vector<AppView> apps{{&record.ior, &config.job, &config.ior, nullptr}};
  checkApps(apps, record.ior.bandwidth, errors);
  if (config.mdtest) {
    if (!record.mdActive) errors.push_back("mdtest phase did not run");
    checkMd(record.md, config.job, *config.mdtest, errors);
  }
  return errors;
}

std::vector<std::string> checkRep(const Workload& workload, const PlannedRep& planned,
                                  const harness::ConcurrentResult& result) {
  std::vector<std::string> errors;
  if (result.apps.size() != workload.apps.size()) {
    errors.push_back("result does not cover every application");
    return errors;
  }
  const auto fallback = qos::makeAppSpec(workload.base.qos);
  std::vector<AppView> apps;
  for (std::size_t a = 0; a < workload.apps.size(); ++a) {
    const auto& spec = workload.apps[a];
    apps.push_back({&result.apps[a], &spec.job, &spec.ior, spec.qos ? &*spec.qos : &fallback});
  }
  checkApps(apps, result.aggregateBandwidth, errors);
  if (workload.base.qos.enabled) {
    if (!result.qosActive) errors.push_back("QoS manager did not run");
    checkQos(apps, planned.systemTime, result.qos, errors);
  }
  return errors;
}

}  // namespace campaign_bench
