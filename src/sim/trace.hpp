// Flow tracing, resource utilization accounting and metrics export -- the
// run-level observability layer over the fluid core.
//
// A RateSampler keeps each resource's live rate and crossing-flow count and
// can sample them on a virtual-time grid (setMetricsInterval): at every
// multiple of dt, the aggregate rate, each tracked link's rate and a live
// link-imbalance index -- the time-resolved view of the paper's (min,max)
// balance story.  It keeps no history, so the closed-loop controllers
// (src/control) sense through it.  A FlowTracer is a RateSampler that also
// produces:
//
//   * an event log (flow start / rate change / completion / cancellation);
//   * per-resource utilization: bytes carried and busy time, integrated
//     from the piecewise-constant rate vector.  Because every flow crosses
//     its bottleneck resource, these integrals give exact link/OST/OSS
//     traffic decompositions ("how much of the run went through server 1's
//     link?") that the bandwidth summary alone cannot answer;
//   * the metrics series as CSV, and its tracked links as Chrome-trace
//     counter tracks.
//
// Both are exact, not sampled: the tracer banks rate * dt on every event.
// They attach through FluidSimulator::addObserver, so they compose with any
// other observer: every event reaches all of them in attachment order.
//
// The rates are kept per flow class, as the fluid core reports them: a
// re-solve adds each class's rate change times its member count along the
// class path, so its cost scales with classes, not flows.  For cluster-scale
// runs the FlowTracer's per-resource banking still costs a share of wall
// time; RingTraceSink is the cheap alternative (--trace-format=ring): every
// observer callback appends one record to a bounded log -- no per-flow or
// per-resource state, no allocation, no formatting.
//
// Both sinks keep their events in one EventLog of fixed-width 40-byte
// TraceRecords, unbounded for the FlowTracer and a ring for the sink, and
// render them only on export: as JSONL (one JSON object per line, loadable
// into pandas or jq) and as a Chrome-trace/Perfetto JSON (flows as async
// b/e events plus counter tracks, loadable into chrome://tracing or
// https://ui.perfetto.dev).  When the ring wraps, the oldest records are
// overwritten and counted (dropped()), so memory stays bounded no matter how
// long the run.
#pragma once

#include <filesystem>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/fluid.hpp"

namespace beesim::sim {

/// One fixed-width binary trace record.  Exactly 40 bytes and trivially
/// copyable, so a log of them is a single flat allocation and an append is
/// one struct store.  Field meaning by kind:
///   kStart:       flow = id, bytes = size,   aux = path length
///   kRates:       bytes = active flow count, value = sum of every live
///                 flow's rate (MiB/s; FlowTracer)
///   kSolvedRates: bytes = active flow count, value = sum of the re-solved
///                 flows' rates (MiB/s; RingTraceSink: sum over classes of
///                 members x rate), aux = flows re-solved
///   kComplete:    flow = id, bytes = moved,  value = mean MiB/s
///   kCancel:      flow = id, bytes = bytes left untransferred
struct TraceRecord {
  enum class Kind : std::uint32_t { kStart, kRates, kSolvedRates, kComplete, kCancel };
  double time = 0.0;
  std::uint64_t flow = 0;
  std::uint64_t bytes = 0;
  double value = 0.0;
  Kind kind = Kind::kStart;
  std::uint32_t aux = 0;
};
static_assert(sizeof(TraceRecord) == 40, "trace record layout is part of the format");

/// An append-only log of trace records and its renderers.  Capacity 0 keeps
/// every record; capacity N keeps the newest N in a ring, overwriting the
/// oldest (counted in dropped()).  The ring is reserved up front, so a
/// bounded log never allocates after construction.
class EventLog {
 public:
  explicit EventLog(std::size_t capacity = 0);

  void push(const TraceRecord& record);

  /// 0 when unbounded.
  std::size_t capacity() const { return capacity_; }
  /// Records currently held.
  std::size_t size() const { return records_.size(); }
  /// Total records ever pushed, including overwritten ones.
  std::uint64_t recorded() const { return recorded_; }
  /// Records lost to ring wrap-around (recorded() - size()).
  std::uint64_t dropped() const { return recorded_ - records_.size(); }

  /// The held records, oldest first (the ring's physical order wraps).
  std::vector<TraceRecord> snapshot() const;

  /// One JSON object per line:
  ///   {"ev":"start","t":...,"flow":...,"bytes":...}
  ///   {"ev":"rates","t":...,"active":...,"total_mibps":...}
  ///   {"ev":"rates","t":...,"active":...,"solved":...,"solved_mibps":...}
  ///   {"ev":"complete","t":...,"flow":...,"bytes":...,"mean_mibps":...}
  ///   {"ev":"cancel","t":...,"flow":...,"bytes_left":...}
  /// When records were dropped, the first line is {"ev":"drops","count":N}.
  std::string toJsonl() const;
  void writeJsonl(const std::filesystem::path& path) const;

  /// A Chrome-trace JSON object (chrome://tracing, Perfetto): flows as async
  /// "b"/"e" events (id = flow id), rate records as aggregate_mibps or
  /// solved_mibps plus active_flows counter tracks, then `counterTracks`
  /// (pre-rendered events, each led by ",\n"; see
  /// FlowTracer::linkCounterTracks).  Timestamps are in microseconds of
  /// virtual time.
  std::string toChromeTrace(std::string_view counterTracks = {}) const;
  void writeChromeTrace(const std::filesystem::path& path,
                        std::string_view counterTracks = {}) const;

 private:
  /// Visit the held records oldest first.
  template <typename Visit>
  void forEach(Visit&& visit) const;

  std::size_t capacity_;
  std::vector<TraceRecord> records_;  // a full ring's slot = recorded_ % capacity_
  std::uint64_t recorded_ = 0;
};

/// Aggregated per-resource counters.
struct ResourceUsage {
  std::string name;
  /// Total bytes carried (sum of crossing flows' rate * dt).
  double mib = 0.0;
  /// Virtual time with at least one active flow crossing the resource.
  util::Seconds busyTime = 0.0;
  /// Peak aggregate rate observed.
  util::MiBps peakRate = 0.0;
};

/// One virtual-time sample of the metrics series (see setMetricsInterval).
struct MetricsSample {
  SimTime time = 0.0;
  std::size_t activeFlows = 0;
  /// Sum of all live flows' current rates (MiB/s).
  util::MiBps aggregateRate = 0.0;
  /// Current aggregate rate through each tracked link (trackLink order).
  std::vector<util::MiBps> linkRates;
  /// Active flows currently crossing each tracked link (trackLink order).
  /// Lets peer-relative consumers (the HealthMonitor) distinguish "idle" --
  /// no evidence -- from "has traffic but moves nothing" (dead-but-online).
  std::vector<std::uint32_t> linkFlows;
  /// max/mean over the tracked links' rates: 1 = perfectly balanced,
  /// H = everything through one of H links, 0 = all links idle.
  double linkImbalance = 0.0;
};

/// Live per-resource rates and the virtual-time sample grid over them;
/// grid points are sampled when the next event arrives, from the rates that
/// held before it.
class RateSampler : public FluidObserver {
 public:
  /// Attaches to `fluid` via addObserver (composes with other observers);
  /// detaches itself -- and only itself -- on destruction.
  explicit RateSampler(FluidSimulator& fluid) : RateSampler(fluid, false) {}
  ~RateSampler() override;

  RateSampler(const RateSampler&) = delete;
  RateSampler& operator=(const RateSampler&) = delete;

  // FluidObserver:
  void onFlowStarted(FlowId id, std::span<const ResourceIndex> path, util::Bytes bytes,
                     SimTime at) override;
  void onClassesSolved(const FluidSimulator& fluid, SimTime at,
                       std::span<const SolvedClass> classes, std::size_t activeFlows) override;
  void onFlowCompleted(const FlowStats& stats) override {
    dropFlow(stats, TraceRecord::Kind::kComplete);
  }
  void onFlowCancelled(const FlowStats& stats) override {
    dropFlow(stats, TraceRecord::Kind::kCancel);
  }

  /// Sample every `dt` virtual seconds (first sample at attach time + dt).
  /// <= 0 disables (the default).
  void setMetricsInterval(util::Seconds dt);

  /// Add a link (any resource) to the per-sample rate breakdown and the
  /// imbalance index.
  void trackLink(ResourceIndex link);

  /// Invoked synchronously with each sample (virtual time, inside observer
  /// dispatch); the sample buffer is reused, so it is valid only during the
  /// call.  Consumers that react by mutating the simulation -- e.g. the
  /// rebalance controller starting migration flows -- must defer their
  /// action via the engine (scheduleAfter) instead of calling into
  /// FluidSimulator from the callback.
  void setSampleListener(std::function<void(const MetricsSample&)> listener) {
    sampleListener_ = std::move(listener);
  }

  /// Grid points due before the first flow: all idle, so only counted (a
  /// run starting late in virtual time does not pay for its idle prefix).
  std::size_t idleSamples() const { return idleSamples_; }

 protected:
  /// `buildIdlePrefix`: build the idle-prefix samples too (FlowTracer).
  RateSampler(FluidSimulator& fluid, bool buildIdlePrefix);

  // Hooks for FlowTracer, per event: the interval (from, until] it ends,
  // while resourceRate_ still holds that interval's rates; then the event,
  // once applied.  And every built sample, before the listener sees it.
  virtual void bankInterval(SimTime /*from*/, SimTime /*until*/) {}
  virtual void logEvent(const TraceRecord& /*record*/) {}
  virtual void recordSample(const MetricsSample& /*sample*/) {}

  FluidSimulator& fluid_;
  /// Current aggregate rate per resource, in resource-index order.
  std::vector<util::MiBps> resourceRate_;

 private:
  void ensureResourceCapacity(std::size_t count);
  /// Take the grid points up to `until` from the current rates.
  void advance(SimTime until);
  void countIdlePrefix(SimTime until);
  void emitSample(SimTime at);
  void dropFlow(const FlowStats& stats, TraceRecord::Kind kind);
  /// Solver check: every resource's rate and the total must match a recount
  /// of flowRate over the flows the sampler holds, within 1e-9 relative.
  void checkRates() const;

  const bool buildIdlePrefix_;
  bool sawFlow_ = false;
  util::MiBps totalRate_ = 0.0;
  SimTime lastEventTime_ = 0.0;  ///< attach time before the first event
  /// One past the highest flow id seen starting: every flow seen so far is
  /// below it, every later flow at or above it.
  std::uint64_t nextId_ = 0;

  /// A flow class's share of the rates.  `live` members were seen starting
  /// and not yet leaving; the `counted` of them, those with ids below
  /// `countedBelow`, each add `rate` along the class path (the rest joined
  /// after the class's last report, and the fluid gives them 0 until the
  /// next).  A slot's state is back to zero members by the time the fluid
  /// reuses it for another class.
  struct ClassRate {
    std::uint32_t live = 0;
    std::uint32_t counted = 0;
    std::uint64_t countedBelow = 0;
    util::MiBps rate = 0.0;
  };
  /// By fluid class slot.
  std::vector<ClassRate> classRates_;
  /// A flow the sampler saw start, by fluid slot: the stored id tells the
  /// live flow from an earlier occupant of the slot (the fluid reuses a slot
  /// only after every observer saw its flow end).
  struct LiveFlow {
    std::uint64_t id = 0;  ///< FlowId::value; 0 while the entry is free
    std::uint32_t cls = 0;
  };
  std::vector<LiveFlow> liveFlows_;
  /// Zero-byte flows, which have no fluid slot or class and live for one
  /// instant (rate 0): the first instantCount_ entries, scanned linearly.
  /// Each keeps a path region in instantPaths_, reused by the next zero-byte
  /// flow whose path fits, so a steady flow population allocates nothing.
  struct InstantFlow {
    std::uint64_t id = 0;
    std::uint32_t offset = 0;    ///< path region in instantPaths_
    std::uint32_t length = 0;    ///< the flow's path length
    std::uint32_t capacity = 0;  ///< the region's length
  };
  std::vector<InstantFlow> instantFlows_;
  std::size_t instantCount_ = 0;
  std::vector<ResourceIndex> instantPaths_;
  std::size_t liveCount_ = 0;
  /// Crossing flows per resource; like resourceRate_, maintained per event
  /// and grown to the highest resource a tracked link or flow uses.
  std::vector<std::uint32_t> resourceFlows_;

  util::Seconds metricsDt_ = 0.0;
  SimTime nextSampleTime_ = 0.0;
  std::size_t idleSamples_ = 0;
  std::vector<ResourceIndex> trackedLinks_;
  MetricsSample sample_;
  std::function<void(const MetricsSample&)> sampleListener_;
};

class FlowTracer final : public RateSampler {
 public:
  explicit FlowTracer(FluidSimulator& fluid) : RateSampler(fluid, true) {}

  /// Every flow event since attach (unbounded; kRates carry the total).
  const EventLog& log() const { return log_; }

  // -- Metrics series ----------------------------------------------------

  /// RateSampler::trackLink; `name` labels its CSV column / counter track.
  void trackLink(ResourceIndex link, std::string name);

  /// Every sample since attach, idle prefix included.
  const std::vector<MetricsSample>& samples() const { return samples_; }

  /// Metrics series as CSV: t,active_flows,aggregate_mibps,link_imbalance
  /// plus one column per tracked link.
  std::string metricsCsv() const;
  void writeMetricsCsv(const std::filesystem::path& path) const;

  // -- Utilization -------------------------------------------------------

  /// Per-resource usage, in resource-index order.  Covers *every* resource
  /// of the simulator -- idle ones report zero rows -- so per-server
  /// aggregations can index it by deployment resource.
  std::vector<ResourceUsage> resourceUsage() const;

  /// Total MiB carried by one resource.
  double resourceMiB(ResourceIndex resource) const;

  /// Virtual time during which `resource` had at least one active flow.
  util::Seconds resourceBusyTime(ResourceIndex resource) const;

  /// The tracked links' rates and imbalance index, one counter event each
  /// per metrics sample, for EventLog::toChromeTrace.
  std::string linkCounterTracks() const;

 private:
  /// Bank every resource's rate * (until - from).
  void bankInterval(SimTime from, SimTime until) override;
  void logEvent(const TraceRecord& record) override { log_.push(record); }
  void recordSample(const MetricsSample& sample) override { samples_.push_back(sample); }

  EventLog log_;
  std::vector<MetricsSample> samples_;
  std::vector<std::string> linkNames_;
  /// Per-resource totals (names unset), grown to resourceRate_'s size when
  /// banking.
  std::vector<ResourceUsage> usage_;
};

/// Bounded-memory, allocation-free event sink (--trace-format=ring).
///
/// Attaches through addObserver like FlowTracer and records the same flow
/// lifecycle, but keeps no per-flow or per-resource state: each callback
/// pushes one record into a bounded EventLog.  Rate records therefore carry
/// the *re-solved components'* aggregate rate (kSolvedRates, summed over the
/// reported classes), not the global total (maintaining the global total is
/// exactly the bookkeeping this sink exists to avoid).
class RingTraceSink final : public FluidObserver {
 public:
  /// `capacity` is the ring size in records (40 bytes each, >= 1).
  RingTraceSink(FluidSimulator& fluid, std::size_t capacity);
  ~RingTraceSink() override;

  RingTraceSink(const RingTraceSink&) = delete;
  RingTraceSink& operator=(const RingTraceSink&) = delete;

  // FluidObserver:
  void onFlowStarted(FlowId id, std::span<const ResourceIndex> path, util::Bytes bytes,
                     SimTime at) override;
  void onClassesSolved(const FluidSimulator& fluid, SimTime at,
                       std::span<const SolvedClass> classes, std::size_t activeFlows) override;
  void onFlowCompleted(const FlowStats& stats) override;
  void onFlowCancelled(const FlowStats& stats) override;

  const EventLog& log() const { return log_; }

 private:
  FluidSimulator& fluid_;
  EventLog log_;
};

}  // namespace beesim::sim
