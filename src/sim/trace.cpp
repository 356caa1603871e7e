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
// incremental rate bookkeeping adds/subtracts class rates, so exact zeros
// are restored whenever a resource's crossing-flow count hits zero; the
// epsilon only guards stalled-but-populated resources against
// floating-point residue being counted as busy time or sampled as a rate.
constexpr double kBusyEpsMiBps = 1e-9;

constexpr const char* kChromeHeader =
    "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
    "\"args\":{\"name\":\"beesim\"}}";
constexpr const char* kChromeFooter = "\n]}\n";

/// Chrome-trace timestamps are microseconds of *virtual* time.
std::string chromeTs(SimTime t) { return util::fmt(t * 1e6, 3); }

void appendCounter(std::string& out, const char* name, SimTime t, const std::string& args) {
  out += ",\n{\"name\":\"" + std::string(name) + "\",\"ph\":\"C\",\"pid\":1,\"ts\":" +
         chromeTs(t) + ",\"args\":{" + args + "}}";
}

void appendFlowSpan(std::string& out, const char* phase, const TraceRecord& r,
                    const std::string& args) {
  out += ",\n{\"name\":\"flow\",\"cat\":\"flow\",\"ph\":\"" + std::string(phase) +
         "\",\"id\":" + std::to_string(r.flow) + ",\"pid\":1,\"tid\":1,\"ts\":" +
         chromeTs(r.time) + ",\"args\":{" + args + "}}";
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
  sample_.activeFlows = liveCount_;
  sample_.aggregateRate = totalRate_;
  for (std::size_t i = 0; i < trackedLinks_.size(); ++i) {
    // The +/- sums leave a residue of either sign (~1e-11 MiB/s) on a link
    // whose flows all stalled; a link within the busy threshold reads idle,
    // so no controller acts on the residue.
    const double rate = resourceRate_[trackedLinks_[i].value];
    sample_.linkRates[i] = std::abs(rate) > kBusyEpsMiBps ? rate : 0.0;
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
  if (id.slot == FlowId::kNoSlot) {
    if (instantCount_ == instantFlows_.size()) instantFlows_.emplace_back();
    auto& flow = instantFlows_[instantCount_++];
    if (path.size() > flow.capacity) {
      flow.offset = static_cast<std::uint32_t>(instantPaths_.size());
      flow.capacity = static_cast<std::uint32_t>(path.size());
      instantPaths_.resize(instantPaths_.size() + path.size());
    }
    std::copy(path.begin(), path.end(), instantPaths_.begin() + flow.offset);
    flow.id = id.value;
    flow.length = static_cast<std::uint32_t>(path.size());
  } else {
    if (id.slot >= liveFlows_.size()) liveFlows_.resize(id.slot + std::size_t{1});
    auto& flow = liveFlows_[id.slot];
    BEESIM_ASSERT(flow.id == 0, "a flow took the slot of one the sampler still holds");
    const auto cls = fluid_.flowClass(id);
    if (cls >= classRates_.size()) classRates_.resize(cls + std::size_t{1});
    flow = LiveFlow{id.value, cls};
    ++classRates_[cls].live;
  }
  nextId_ = id.value + 1;
  ++liveCount_;
  logEvent({.time = at, .flow = id.value, .bytes = bytes, .kind = TraceRecord::Kind::kStart,
            .aux = static_cast<std::uint32_t>(path.size())});
}

void RateSampler::onClassesSolved(const FluidSimulator& /*fluid*/, SimTime at,
                                  std::span<const SolvedClass> classes,
                                  std::size_t activeFlows) {
  advance(at);
  // The solver reports only the re-solved components' classes; flows
  // elsewhere keep their previous rate.  Each reported class now gives all
  // its live members the new rate, in place of the old rate of those counted
  // at its last report.
  for (const auto& solved : classes) {
    if (solved.cls >= classRates_.size()) continue;  // no member seen starting
    auto& state = classRates_[solved.cls];
    const double delta = static_cast<double>(state.live) * solved.rate -
                         static_cast<double>(state.counted) * state.rate;
    if (delta != 0.0) {
      for (const auto r : fluid_.classPath(solved.cls)) resourceRate_[r] += delta;
      totalRate_ += delta;
    }
    state.counted = state.live;
    state.countedBelow = nextId_;
    state.rate = solved.rate;
  }
  if (fluid_.solverCheck()) checkRates();
  logEvent({.time = at, .bytes = activeFlows, .value = totalRate_,
            .kind = TraceRecord::Kind::kRates});
}

void RateSampler::checkRates() const {
  std::vector<double> expect(resourceRate_.size(), 0.0);
  double total = 0.0;
  for (std::uint32_t slot = 0; slot < liveFlows_.size(); ++slot) {
    const auto& flow = liveFlows_[slot];
    if (flow.id == 0) continue;
    const double rate = fluid_.flowRate(FlowId{flow.id, slot});
    for (const auto r : fluid_.classPath(flow.cls)) expect[r] += rate;
    total += rate;
  }
  const auto near = [](double got, double want) {
    return std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want));
  };
  for (std::uint32_t r = 0; r < expect.size(); ++r) {
    BEESIM_ASSERT(near(resourceRate_[r], expect[r]),
                  "solver check: sampled rate of " + fluid_.resourceName(ResourceIndex{r}) +
                      " diverged (" + std::to_string(resourceRate_[r]) + " vs a recount of " +
                      std::to_string(expect[r]) + ")");
  }
  BEESIM_ASSERT(near(totalRate_, total), "solver check: sampled total rate diverged (" +
                                             std::to_string(totalRate_) + " vs a recount of " +
                                             std::to_string(total) + ")");
}

void RateSampler::dropFlow(const FlowStats& stats, TraceRecord::Kind kind) {
  advance(stats.endTime);
  const auto leave = [&](std::uint32_t r, double rate) {
    resourceRate_[r] -= rate;
    // Snap to exactly zero when the resource empties so +/- residue cannot
    // accumulate into phantom busy time.
    if (--resourceFlows_[r] == 0) resourceRate_[r] = 0.0;
  };
  bool held = false;
  const auto slot = stats.id.slot;
  if (slot == FlowId::kNoSlot) {
    for (std::size_t i = 0; i < instantCount_ && !held; ++i) {
      auto& flow = instantFlows_[i];
      if (flow.id != stats.id.value) continue;
      for (std::uint32_t k = 0; k < flow.length; ++k) {
        leave(instantPaths_[flow.offset + k].value, 0.0);
      }
      flow.id = 0;
      std::swap(flow, instantFlows_[--instantCount_]);
      held = true;
    }
  } else if (slot < liveFlows_.size() && liveFlows_[slot].id == stats.id.value) {
    auto& flow = liveFlows_[slot];
    auto& state = classRates_[flow.cls];
    const bool counted = stats.id.value < state.countedBelow;
    const double rate = counted ? state.rate : 0.0;
    for (const auto r : fluid_.classPath(flow.cls)) leave(r, rate);
    totalRate_ -= rate;
    if (counted) --state.counted;
    --state.live;
    flow.id = 0;
    held = true;
  }
  if (held && --liveCount_ == 0) totalRate_ = 0.0;
  // A cancelled flow's bytes are those NOT transferred (see FluidObserver).
  const bool done = kind == TraceRecord::Kind::kComplete;
  logEvent({.time = stats.endTime, .flow = stats.id.value, .bytes = stats.bytes,
            .value = done ? stats.meanRate() : 0.0, .kind = kind});
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

std::string FlowTracer::linkCounterTracks() const {
  std::string out;
  for (const auto& sample : samples_) {
    if (sample.linkRates.empty()) continue;
    std::string rates;
    for (std::size_t i = 0; i < sample.linkRates.size(); ++i) {
      if (i > 0) rates += ",";
      rates += util::JsonValue(linkNames_[i]).dump() + ":" + util::fmt(sample.linkRates[i], 3);
    }
    appendCounter(out, "link_mibps", sample.time, rates);
    appendCounter(out, "link_imbalance", sample.time,
                  "\"imbalance\":" + util::fmt(sample.linkImbalance, 4));
  }
  return out;
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

// --- EventLog ----------------------------------------------------------

EventLog::EventLog(std::size_t capacity) : capacity_(capacity) {
  // A ring's only allocation.  Reserved, not resized: a short run never
  // zero-fills (or touches) the unused tail of a large ring.
  records_.reserve(capacity);
}

void EventLog::push(const TraceRecord& record) {
  if (capacity_ == 0 || records_.size() < capacity_) {
    records_.push_back(record);
  } else {
    records_[static_cast<std::size_t>(recorded_ % capacity_)] = record;
  }
  ++recorded_;
}

template <typename Visit>
void EventLog::forEach(Visit&& visit) const {
  // Once a ring has wrapped, its oldest record is the next one overwritten.
  const auto oldest = records_.begin() + static_cast<std::ptrdiff_t>(
                                             dropped() > 0 ? recorded_ % capacity_ : 0);
  std::for_each(oldest, records_.end(), visit);
  std::for_each(records_.begin(), oldest, visit);
}

std::vector<TraceRecord> EventLog::snapshot() const {
  std::vector<TraceRecord> out;
  out.reserve(size());
  forEach([&](const TraceRecord& r) { out.push_back(r); });
  return out;
}

std::string EventLog::toJsonl() const {
  std::string out;
  if (dropped() > 0) {
    out += "{\"ev\":\"drops\",\"count\":" + std::to_string(dropped()) + "}\n";
  }
  forEach([&](const TraceRecord& r) {
    const auto head = "\"t\":" + util::fmt(r.time, 6);
    const auto flow = [&] { return head + ",\"flow\":" + std::to_string(r.flow); };
    const auto bytes = std::to_string(r.bytes);
    switch (r.kind) {
      case TraceRecord::Kind::kStart:
        out += "{\"ev\":\"start\"," + flow() + ",\"bytes\":" + bytes + "}\n";
        break;
      case TraceRecord::Kind::kRates:
        out += "{\"ev\":\"rates\"," + head + ",\"active\":" + bytes +
               ",\"total_mibps\":" + util::fmt(r.value, 3) + "}\n";
        break;
      case TraceRecord::Kind::kSolvedRates:
        out += "{\"ev\":\"rates\"," + head + ",\"active\":" + bytes +
               ",\"solved\":" + std::to_string(r.aux) +
               ",\"solved_mibps\":" + util::fmt(r.value, 3) + "}\n";
        break;
      case TraceRecord::Kind::kComplete:
        out += "{\"ev\":\"complete\"," + flow() + ",\"bytes\":" + bytes +
               ",\"mean_mibps\":" + util::fmt(r.value, 3) + "}\n";
        break;
      case TraceRecord::Kind::kCancel:
        out += "{\"ev\":\"cancel\"," + flow() + ",\"bytes_left\":" + bytes + "}\n";
        break;
    }
  });
  return out;
}

void EventLog::writeJsonl(const std::filesystem::path& path) const {
  writeFile(path, "trace", toJsonl());
}

std::string EventLog::toChromeTrace(std::string_view counterTracks) const {
  std::string out = kChromeHeader;
  forEach([&](const TraceRecord& r) {
    const auto bytes = std::to_string(r.bytes);
    switch (r.kind) {
      case TraceRecord::Kind::kStart:
        appendFlowSpan(out, "b", r, "\"bytes\":" + bytes);
        break;
      case TraceRecord::Kind::kRates:
      case TraceRecord::Kind::kSolvedRates:
        appendCounter(out, r.kind == TraceRecord::Kind::kRates ? "aggregate_mibps" : "solved_mibps",
                      r.time, "\"mibps\":" + util::fmt(r.value, 3));
        appendCounter(out, "active_flows", r.time, "\"flows\":" + bytes);
        break;
      case TraceRecord::Kind::kComplete:
        appendFlowSpan(out, "e", r, "\"mean_mibps\":" + util::fmt(r.value, 3));
        break;
      case TraceRecord::Kind::kCancel:
        appendFlowSpan(out, "e", r, "\"cancelled\":true,\"bytes_left\":" + bytes);
        break;
    }
  });
  out += counterTracks;
  out += kChromeFooter;
  return out;
}

void EventLog::writeChromeTrace(const std::filesystem::path& path,
                                std::string_view counterTracks) const {
  writeFile(path, "trace", toChromeTrace(counterTracks));
}

// --- RingTraceSink -----------------------------------------------------

RingTraceSink::RingTraceSink(FluidSimulator& fluid, std::size_t capacity)
    : fluid_(fluid), log_(capacity) {
  BEESIM_ASSERT(capacity >= 1, "ring trace sink needs capacity >= 1 record");
  fluid_.addObserver(this);
}

RingTraceSink::~RingTraceSink() { fluid_.removeObserver(this); }

void RingTraceSink::onFlowStarted(FlowId id, std::span<const ResourceIndex> path,
                                  util::Bytes bytes, SimTime at) {
  log_.push({.time = at, .flow = id.value, .bytes = bytes, .kind = TraceRecord::Kind::kStart,
             .aux = static_cast<std::uint32_t>(path.size())});
}

void RingTraceSink::onClassesSolved(const FluidSimulator& /*fluid*/, SimTime at,
                                    std::span<const SolvedClass> classes,
                                    std::size_t activeFlows) {
  double solved = 0.0;
  std::uint32_t flows = 0;
  for (const auto& c : classes) {
    solved += static_cast<double>(c.members) * c.rate;
    flows += c.members;
  }
  log_.push({.time = at, .bytes = activeFlows, .value = solved,
             .kind = TraceRecord::Kind::kSolvedRates, .aux = flows});
}

void RingTraceSink::onFlowCompleted(const FlowStats& stats) {
  log_.push({.time = stats.endTime, .flow = stats.id.value, .bytes = stats.bytes,
             .value = stats.meanRate(), .kind = TraceRecord::Kind::kComplete});
}

void RingTraceSink::onFlowCancelled(const FlowStats& stats) {
  // bytes NOT transferred (see FluidObserver)
  log_.push({.time = stats.endTime, .flow = stats.id.value, .bytes = stats.bytes,
             .kind = TraceRecord::Kind::kCancel});
}

}  // namespace beesim::sim
