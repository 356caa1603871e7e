#include "sim/trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>

#include "core/metrics.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace beesim::sim {

namespace {
// A resource is considered busy above this aggregate rate (MiB/s).  The
// incremental rate bookkeeping adds/subtracts per-flow rates, so exact
// zeros are restored whenever a resource's crossing-flow count hits zero;
// the epsilon only guards stalled-but-populated resources against
// floating-point residue being counted as busy time.
constexpr double kBusyEpsMiBps = 1e-9;

constexpr const char* kChromeHeader =
    "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
    "\"args\":{\"name\":\"beesim\"}}";
constexpr const char* kChromeFooter = "\n]}\n";

/// Chrome-trace timestamps are microseconds of *virtual* time.
std::string chromeTs(SimTime t) { return util::fmt(t * 1e6, 3); }

// Start/complete/cancel lines are rendered the same by FlowTracer and
// RingTraceSink; only their rate events differ.
void appendFlowJsonl(std::string& out, const TraceEvent& event) {
  switch (event.kind) {
    case TraceEvent::Kind::kStart:
      out += "{\"ev\":\"start\",\"t\":" + util::fmt(event.time, 6) +
             ",\"flow\":" + std::to_string(event.flow) +
             ",\"bytes\":" + std::to_string(event.bytes) + "}\n";
      break;
    case TraceEvent::Kind::kComplete:
      out += "{\"ev\":\"complete\",\"t\":" + util::fmt(event.time, 6) +
             ",\"flow\":" + std::to_string(event.flow) +
             ",\"bytes\":" + std::to_string(event.bytes) +
             ",\"mean_mibps\":" + util::fmt(event.meanRate, 3) + "}\n";
      break;
    case TraceEvent::Kind::kCancel:
      out += "{\"ev\":\"cancel\",\"t\":" + util::fmt(event.time, 6) +
             ",\"flow\":" + std::to_string(event.flow) +
             ",\"bytes_left\":" + std::to_string(event.bytes) + "}\n";
      break;
    case TraceEvent::Kind::kRates:
      return;
  }
}

void appendFlowChrome(std::string& out, const TraceEvent& event) {
  std::string args;
  switch (event.kind) {
    case TraceEvent::Kind::kStart:
      args = "\"bytes\":" + std::to_string(event.bytes);
      break;
    case TraceEvent::Kind::kComplete:
      args = "\"mean_mibps\":" + util::fmt(event.meanRate, 3);
      break;
    case TraceEvent::Kind::kCancel:
      args = "\"cancelled\":true,\"bytes_left\":" + std::to_string(event.bytes);
      break;
    case TraceEvent::Kind::kRates:
      return;
  }
  const char* phase = event.kind == TraceEvent::Kind::kStart ? "b" : "e";
  out += ",\n{\"name\":\"flow\",\"cat\":\"flow\",\"ph\":\"" + std::string(phase) +
         "\",\"id\":" + std::to_string(event.flow) + ",\"pid\":1,\"tid\":1,\"ts\":" +
         chromeTs(event.time) + ",\"args\":{" + args + "}}";
}

/// A ring record's start/complete/cancel event in TraceEvent form.
TraceEvent flowEvent(const RingRecord& r) {
  TraceEvent event;
  event.kind = static_cast<TraceEvent::Kind>(r.kind);
  event.time = r.time;
  event.flow = r.flow;
  event.bytes = r.bytes;
  event.meanRate = r.value;
  return event;
}

void writeFile(const std::filesystem::path& path, const std::string& what,
               const std::string& text) {
  std::ofstream out(path);
  if (!out) throw util::IoError("cannot write " + what + " file: " + path.string());
  out << text;
  if (!out) throw util::IoError("failed writing " + what + " file: " + path.string());
}
}  // namespace

// --- RateSampler -------------------------------------------------------

RateSampler::RateSampler(FluidSimulator& fluid, bool buildIdlePrefix)
    : fluid_(fluid), buildIdlePrefix_(buildIdlePrefix), lastEventTime_(fluid.now()) {
  fluid_.addObserver(this);
}

RateSampler::~RateSampler() { fluid_.removeObserver(this); }

void RateSampler::ensureResourceCapacity(std::size_t count) {
  if (count <= resourceRate_.size()) return;
  resourceRate_.resize(count, 0.0);
  resourceFlows_.resize(count, 0);
}

void RateSampler::setMetricsInterval(util::Seconds dt) {
  metricsDt_ = dt;
  if (dt > 0.0) nextSampleTime_ = lastEventTime_ + dt;
}

void RateSampler::trackLink(ResourceIndex link) {
  ensureResourceCapacity(static_cast<std::size_t>(link.value) + 1);
  trackedLinks_.push_back(link);
  sample_.linkRates.push_back(0.0);
  sample_.linkFlows.push_back(0);
}

void RateSampler::emitSample(SimTime at) {
  sample_.time = at;
  sample_.activeFlows = live_.size();
  sample_.aggregateRate = totalRate_;
  for (std::size_t i = 0; i < trackedLinks_.size(); ++i) {
    sample_.linkRates[i] = resourceRate_[trackedLinks_[i].value];
    sample_.linkFlows[i] = resourceFlows_[trackedLinks_[i].value];
  }
  sample_.linkImbalance = core::linkImbalance(sample_.linkRates);
  recordSample(sample_);
  if (sampleListener_) sampleListener_(sample_);
}

void RateSampler::countIdlePrefix(SimTime until) {
  // The count must be that of advance()'s repeated += dt.  Inside one binade
  // [2^e, 2^(e+1)) the doubles are the multiples of ulp = 2^(e-52), so
  // t += dt rounds to t + step, `step` being the multiple of ulp nearest to
  // dt -- the same every time unless dt lies exactly halfway (round-half-even
  // then alternates).  While t + dt stays below 2^(e+1), k additions thus
  // land exactly on t + k * step; four steps of margin absorb the rounding
  // of the bound, and the points near a binade edge take single steps.
  while (nextSampleTime_ <= until) {
    const SimTime t = nextSampleTime_;
    const int e = std::ilogb(t);
    const double ulp = std::ldexp(1.0, e - (std::numeric_limits<double>::digits - 1));
    const double q = metricsDt_ / ulp;  // exact: scaling by a power of two
    const double step = std::round(q) * ulp;
    const double bound = std::min(until, std::ldexp(1.0, e + 1) - metricsDt_);
    const double k = q - std::floor(q) == 0.5 || step <= 0.0
                         ? 0.0
                         : std::floor((bound - t) / step) - 4.0;
    if (k >= 1.0) {
      idleSamples_ += static_cast<std::size_t>(k);
      nextSampleTime_ = t + k * step;
    } else {
      ++idleSamples_;
      nextSampleTime_ += metricsDt_;
    }
  }
}

void RateSampler::advance(SimTime until) {
  // Rates are piecewise-constant: the stored per-resource rates hold over
  // (lastEventTime_, until], so samples due inside the window read them
  // directly before the caller applies the event's changes.
  if (metricsDt_ > 0.0) {
    if (!sawFlow_ && !buildIdlePrefix_) countIdlePrefix(until);
    for (; nextSampleTime_ <= until; nextSampleTime_ += metricsDt_) emitSample(nextSampleTime_);
  }
  bankInterval(lastEventTime_, until);
  lastEventTime_ = until;
}

void RateSampler::onFlowStarted(FlowId id, std::span<const ResourceIndex> path,
                                util::Bytes bytes, SimTime at) {
  advance(at);
  sawFlow_ = true;
  std::uint32_t maxIndex = 0;
  for (const auto r : path) maxIndex = std::max(maxIndex, r.value);
  ensureResourceCapacity(static_cast<std::size_t>(maxIndex) + 1);
  for (const auto r : path) ++resourceFlows_[r.value];
  live_[id.value] = LiveFlow{{path.begin(), path.end()}, 0.0};
  logEvent({.kind = TraceEvent::Kind::kStart, .time = at, .flow = id.value, .bytes = bytes});
}

void RateSampler::onRatesSolved(SimTime at, std::span<const FlowId> ids,
                                std::span<const util::MiBps> rates,
                                std::size_t activeFlows) {
  advance(at);
  // The solver reports only the re-solved components; flows elsewhere keep
  // their previous rate, so the per-resource and total aggregates are
  // maintained by applying each reported flow's rate delta along its path.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto it = live_.find(ids[i].value);
    if (it == live_.end()) continue;
    const double delta = rates[i] - it->second.rate;
    if (delta != 0.0) {
      for (const auto r : it->second.path) resourceRate_[r.value] += delta;
      totalRate_ += delta;
      it->second.rate = rates[i];
    }
  }
  logEvent({.kind = TraceEvent::Kind::kRates, .time = at, .activeFlows = activeFlows,
            .totalRate = totalRate_});
}

void RateSampler::dropFlow(const FlowStats& stats, TraceEvent::Kind kind) {
  advance(stats.endTime);
  if (const auto it = live_.find(stats.id.value); it != live_.end()) {
    for (const auto r : it->second.path) {
      resourceRate_[r.value] -= it->second.rate;
      // Snap to exactly zero when the resource empties so +/- residue cannot
      // accumulate into phantom busy time.
      if (--resourceFlows_[r.value] == 0) resourceRate_[r.value] = 0.0;
    }
    totalRate_ -= it->second.rate;
    live_.erase(it);
    if (live_.empty()) totalRate_ = 0.0;
  }
  // A cancelled flow's bytes are those NOT transferred (see FluidObserver).
  const bool done = kind == TraceEvent::Kind::kComplete;
  logEvent({.kind = kind, .time = stats.endTime, .flow = stats.id.value, .bytes = stats.bytes,
            .meanRate = done ? stats.meanRate() : 0.0});
}

// --- FlowTracer --------------------------------------------------------

void FlowTracer::trackLink(ResourceIndex link, std::string name) {
  RateSampler::trackLink(link);
  linkNames_.push_back(std::move(name));
}

void FlowTracer::bankInterval(SimTime from, SimTime until) {
  if (usage_.size() < resourceRate_.size()) usage_.resize(resourceRate_.size());
  const double dt = until - from;
  if (dt <= 0.0) return;
  for (std::size_t r = 0; r < resourceRate_.size(); ++r) {
    const double rate = resourceRate_[r];
    if (rate > kBusyEpsMiBps) {
      usage_[r].mib += rate * dt;
      usage_[r].busyTime += dt;
      usage_[r].peakRate = std::max(usage_[r].peakRate, rate);
    }
  }
}

std::vector<ResourceUsage> FlowTracer::resourceUsage() const {
  // Cover the simulator's full resource inventory: idle resources emit zero
  // rows, so the report's length always matches resourceCount() and
  // per-server aggregations can index it directly.
  auto usage = usage_;
  usage.resize(std::max(fluid_.resourceCount(), usage.size()));
  for (std::size_t r = 0; r < fluid_.resourceCount(); ++r) {
    usage[r].name = fluid_.resourceName(ResourceIndex{static_cast<std::uint32_t>(r)});
  }
  return usage;
}

double FlowTracer::resourceMiB(ResourceIndex resource) const {
  return resource.value < usage_.size() ? usage_[resource.value].mib : 0.0;
}

util::Seconds FlowTracer::resourceBusyTime(ResourceIndex resource) const {
  return resource.value < usage_.size() ? usage_[resource.value].busyTime : 0.0;
}

std::string FlowTracer::toJsonl() const {
  std::string out;
  for (const auto& event : events_) {
    if (event.kind != TraceEvent::Kind::kRates) {
      appendFlowJsonl(out, event);
      continue;
    }
    out += "{\"ev\":\"rates\",\"t\":" + util::fmt(event.time, 6) +
           ",\"active\":" + std::to_string(event.activeFlows) +
           ",\"total_mibps\":" + util::fmt(event.totalRate, 3) + "}\n";
  }
  return out;
}

void FlowTracer::writeJsonl(const std::filesystem::path& path) const {
  writeFile(path, "trace", toJsonl());
}

std::string FlowTracer::toChromeTrace() const {
  std::string out = kChromeHeader;
  for (const auto& event : events_) {
    if (event.kind != TraceEvent::Kind::kRates) {
      appendFlowChrome(out, event);
      continue;
    }
    out += ",\n{\"name\":\"aggregate_mibps\",\"ph\":\"C\",\"pid\":1,\"ts\":" +
           chromeTs(event.time) + ",\"args\":{\"mibps\":" +
           util::fmt(event.totalRate, 3) + "}}";
    out += ",\n{\"name\":\"active_flows\",\"ph\":\"C\",\"pid\":1,\"ts\":" +
           chromeTs(event.time) + ",\"args\":{\"flows\":" +
           std::to_string(event.activeFlows) + "}}";
  }
  // Tracked-link counter tracks from the metrics series (if sampling).
  for (const auto& sample : samples_) {
    if (!sample.linkRates.empty()) {
      out += ",\n{\"name\":\"link_mibps\",\"ph\":\"C\",\"pid\":1,\"ts\":" +
             chromeTs(sample.time) + ",\"args\":{";
      for (std::size_t i = 0; i < sample.linkRates.size(); ++i) {
        if (i > 0) out += ",";
        out += util::JsonValue(linkNames_[i]).dump() + ":" +
               util::fmt(sample.linkRates[i], 3);
      }
      out += "}}";
      out += ",\n{\"name\":\"link_imbalance\",\"ph\":\"C\",\"pid\":1,\"ts\":" +
             chromeTs(sample.time) + ",\"args\":{\"imbalance\":" +
             util::fmt(sample.linkImbalance, 4) + "}}";
    }
  }
  out += kChromeFooter;
  return out;
}

void FlowTracer::writeChromeTrace(const std::filesystem::path& path) const {
  writeFile(path, "trace", toChromeTrace());
}

std::string FlowTracer::metricsCsv() const {
  std::string out = "t,active_flows,aggregate_mibps,link_imbalance";
  for (const auto& name : linkNames_) {
    out += ',';
    out += name;
  }
  out += '\n';
  for (const auto& sample : samples_) {
    out += util::fmt(sample.time, 6) + "," + std::to_string(sample.activeFlows) + "," +
           util::fmt(sample.aggregateRate, 3) + "," + util::fmt(sample.linkImbalance, 4);
    for (const auto rate : sample.linkRates) {
      out += ',';
      out += util::fmt(rate, 3);
    }
    out += '\n';
  }
  return out;
}

void FlowTracer::writeMetricsCsv(const std::filesystem::path& path) const {
  writeFile(path, "metrics", metricsCsv());
}

// --- RingTraceSink -----------------------------------------------------

RingTraceSink::RingTraceSink(FluidSimulator& fluid, std::size_t capacity)
    : fluid_(fluid) {
  BEESIM_ASSERT(capacity >= 1, "ring trace sink needs capacity >= 1 record");
  records_.resize(capacity);  // the sink's only allocation
  fluid_.addObserver(this);
}

RingTraceSink::~RingTraceSink() { fluid_.removeObserver(this); }

void RingTraceSink::push(const RingRecord& record) {
  records_[static_cast<std::size_t>(written_ % records_.size())] = record;
  ++written_;
}

std::size_t RingTraceSink::size() const {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(written_, records_.size()));
}

std::uint64_t RingTraceSink::dropped() const { return written_ - size(); }

void RingTraceSink::onFlowStarted(FlowId id, std::span<const ResourceIndex> path,
                                  util::Bytes bytes, SimTime at) {
  RingRecord r;
  r.time = at;
  r.flow = id.value;
  r.bytes = bytes;
  r.kind = static_cast<std::uint32_t>(TraceEvent::Kind::kStart);
  r.aux = static_cast<std::uint32_t>(path.size());
  push(r);
}

void RingTraceSink::onRatesSolved(SimTime at, std::span<const FlowId> ids,
                                  std::span<const util::MiBps> rates,
                                  std::size_t activeFlows) {
  (void)ids;
  double solved = 0.0;
  for (const auto rate : rates) solved += rate;
  RingRecord r;
  r.time = at;
  r.bytes = activeFlows;
  r.value = solved;
  r.kind = static_cast<std::uint32_t>(TraceEvent::Kind::kRates);
  r.aux = static_cast<std::uint32_t>(rates.size());
  push(r);
}

void RingTraceSink::onFlowCompleted(const FlowStats& stats) {
  RingRecord r;
  r.time = stats.endTime;
  r.flow = stats.id.value;
  r.bytes = stats.bytes;
  r.value = stats.meanRate();
  r.kind = static_cast<std::uint32_t>(TraceEvent::Kind::kComplete);
  push(r);
}

void RingTraceSink::onFlowCancelled(const FlowStats& stats) {
  RingRecord r;
  r.time = stats.endTime;
  r.flow = stats.id.value;
  r.bytes = stats.bytes;  // bytes NOT transferred (see FluidObserver)
  r.kind = static_cast<std::uint32_t>(TraceEvent::Kind::kCancel);
  push(r);
}

std::vector<RingRecord> RingTraceSink::snapshot() const {
  const std::size_t n = size();
  std::vector<RingRecord> out;
  out.reserve(n);
  // Oldest retained record lives at written_ - n (mod capacity).
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(
        records_[static_cast<std::size_t>((written_ - n + i) % records_.size())]);
  }
  return out;
}

std::string RingTraceSink::toJsonl() const {
  std::string out;
  if (dropped() > 0) {
    out += "{\"ev\":\"drops\",\"count\":" + std::to_string(dropped()) + "}\n";
  }
  for (const auto& r : snapshot()) {
    if (static_cast<TraceEvent::Kind>(r.kind) != TraceEvent::Kind::kRates) {
      appendFlowJsonl(out, flowEvent(r));
      continue;
    }
    out += "{\"ev\":\"rates\",\"t\":" + util::fmt(r.time, 6) +
           ",\"active\":" + std::to_string(r.bytes) +
           ",\"solved\":" + std::to_string(r.aux) +
           ",\"solved_mibps\":" + util::fmt(r.value, 3) + "}\n";
  }
  return out;
}

void RingTraceSink::writeJsonl(const std::filesystem::path& path) const {
  writeFile(path, "trace", toJsonl());
}

std::string RingTraceSink::toChromeTrace() const {
  std::string out = kChromeHeader;
  for (const auto& r : snapshot()) {
    if (static_cast<TraceEvent::Kind>(r.kind) != TraceEvent::Kind::kRates) {
      appendFlowChrome(out, flowEvent(r));
      continue;
    }
    out += ",\n{\"name\":\"solved_mibps\",\"ph\":\"C\",\"pid\":1,\"ts\":" +
           chromeTs(r.time) + ",\"args\":{\"mibps\":" + util::fmt(r.value, 3) + "}}";
    out += ",\n{\"name\":\"active_flows\",\"ph\":\"C\",\"pid\":1,\"ts\":" +
           chromeTs(r.time) + ",\"args\":{\"flows\":" + std::to_string(r.bytes) + "}}";
  }
  out += kChromeFooter;
  return out;
}

void RingTraceSink::writeChromeTrace(const std::filesystem::path& path) const {
  writeFile(path, "trace", toChromeTrace());
}

}  // namespace beesim::sim
