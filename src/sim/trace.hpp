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
//   * an event log (flow start / rate change / completion / cancellation)
//     exportable as JSONL -- one JSON object per line, loadable into pandas
//     or jq for post-mortem timeline analysis of a run;
//   * per-resource utilization: bytes carried and busy time, integrated
//     from the piecewise-constant rate vector.  Because every flow crosses
//     its bottleneck resource, these integrals give exact link/OST/OSS
//     traffic decompositions ("how much of the run went through server 1's
//     link?") that the bandwidth summary alone cannot answer;
//   * the metrics series as CSV, and a Chrome-trace/Perfetto export
//     (toChromeTrace): flows as async b/e events plus counter tracks,
//     loadable into chrome://tracing or https://ui.perfetto.dev.
//
// Both are exact, not sampled: the tracer banks rate * dt on every event.
// They attach through FluidSimulator::addObserver, so they compose with any
// other observer: every event reaches all of them in attachment order.
//
// For cluster-scale runs the FlowTracer's per-event map lookups and O(path)
// delta accounting dominate: tracing can cost tens of percent of wall time.
// RingTraceSink is the cheap alternative (--trace-format=ring): every
// observer callback appends one fixed-width 40-byte binary record to a
// preallocated ring buffer -- no map, no per-resource state, no allocation,
// no formatting -- and the ring is rendered to JSONL / Chrome-trace only on
// flush.  When the ring wraps, the oldest records are overwritten and
// counted (dropped()), so memory stays bounded no matter how long the run.
#pragma once

#include <filesystem>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/fluid.hpp"

namespace beesim::sim {

/// One recorded event (kept binary-compact; rendered to JSON on export).
struct TraceEvent {
  enum class Kind { kStart, kRates, kComplete, kCancel };
  Kind kind = Kind::kStart;
  SimTime time = 0.0;
  std::uint64_t flow = 0;      // kStart/kComplete/kCancel
  util::Bytes bytes = 0;       // kStart: size; kComplete: moved; kCancel: left
  util::MiBps meanRate = 0.0;  // kComplete
  std::size_t activeFlows = 0; // kRates
  util::MiBps totalRate = 0.0; // kRates: sum over flows
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
  void onRatesSolved(SimTime at, std::span<const FlowId> ids,
                     std::span<const util::MiBps> rates, std::size_t activeFlows) override;
  void onFlowCompleted(const FlowStats& stats) override {
    dropFlow(stats, TraceEvent::Kind::kComplete);
  }
  void onFlowCancelled(const FlowStats& stats) override {
    dropFlow(stats, TraceEvent::Kind::kCancel);
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
  virtual void logEvent(const TraceEvent& /*event*/) {}
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
  void dropFlow(const FlowStats& stats, TraceEvent::Kind kind);

  const bool buildIdlePrefix_;
  bool sawFlow_ = false;
  util::MiBps totalRate_ = 0.0;
  SimTime lastEventTime_ = 0.0;  ///< attach time before the first event
  /// Flow -> (path, current rate); alive flows only.  Looked up, inserted,
  /// erased and sized, never iterated, so hash order cannot leak into output.
  struct LiveFlow {
    std::vector<ResourceIndex> path;
    util::MiBps rate = 0.0;
  };
  std::unordered_map<std::uint64_t, LiveFlow> live_;
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

  const std::vector<TraceEvent>& events() const { return events_; }

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

  // -- Exports -----------------------------------------------------------

  /// Export the event log as JSONL.  Each line is one event object:
  ///   {"ev":"start","t":...,"flow":...,"bytes":...}
  ///   {"ev":"rates","t":...,"active":...,"total_mibps":...}
  ///   {"ev":"complete","t":...,"flow":...,"bytes":...,"mean_mibps":...}
  ///   {"ev":"cancel","t":...,"flow":...,"bytes_left":...}
  std::string toJsonl() const;
  void writeJsonl(const std::filesystem::path& path) const;

  /// Export as a Chrome-trace JSON object (chrome://tracing, Perfetto):
  /// flows as async "b"/"e" events (id = flow id), aggregate rate, active
  /// flows and tracked-link rates as counter tracks.  Timestamps are in
  /// microseconds of virtual time.
  std::string toChromeTrace() const;
  void writeChromeTrace(const std::filesystem::path& path) const;

 private:
  /// Bank every resource's rate * (until - from).
  void bankInterval(SimTime from, SimTime until) override;
  void logEvent(const TraceEvent& event) override { events_.push_back(event); }
  void recordSample(const MetricsSample& sample) override { samples_.push_back(sample); }

  std::vector<TraceEvent> events_;
  std::vector<MetricsSample> samples_;
  std::vector<std::string> linkNames_;
  /// Per-resource totals (names unset), grown to resourceRate_'s size when
  /// banking.
  std::vector<ResourceUsage> usage_;
};

/// One fixed-width binary trace record.  Exactly 40 bytes and trivially
/// copyable, so a ring of them is a single flat allocation and an append is
/// one struct store.  Field meaning by kind (TraceEvent::Kind values):
///   kStart:    flow = id, bytes = size,              aux = path length
///   kRates:    flow = 0,  bytes = active flow count, value = sum of the
///              re-solved flows' rates (MiB/s),       aux = flows re-solved
///   kComplete: flow = id, bytes = moved, value = mean MiB/s
///   kCancel:   flow = id, bytes = bytes left untransferred
struct RingRecord {
  double time = 0.0;
  std::uint64_t flow = 0;
  std::uint64_t bytes = 0;
  double value = 0.0;
  std::uint32_t kind = 0;  // static_cast<uint32_t>(TraceEvent::Kind)
  std::uint32_t aux = 0;
};
static_assert(sizeof(RingRecord) == 40, "ring record layout is part of the format");

/// Bounded-memory, allocation-free event sink (--trace-format=ring).
///
/// Attaches through addObserver like FlowTracer and records the same flow
/// lifecycle, but keeps no per-flow or per-resource state: each callback
/// writes one RingRecord into a preallocated ring.  Rate events therefore
/// carry the *re-solved components'* aggregate rate, not the global total
/// (maintaining the global total is exactly the per-flow bookkeeping this
/// sink exists to avoid); the JSONL drain labels it `solved_mibps`.
class RingTraceSink final : public FluidObserver {
 public:
  /// `capacity` is the ring size in records (40 bytes each); once exceeded,
  /// the oldest records are overwritten and counted in dropped().
  RingTraceSink(FluidSimulator& fluid, std::size_t capacity);
  ~RingTraceSink() override;

  RingTraceSink(const RingTraceSink&) = delete;
  RingTraceSink& operator=(const RingTraceSink&) = delete;

  // FluidObserver:
  void onFlowStarted(FlowId id, std::span<const ResourceIndex> path, util::Bytes bytes,
                     SimTime at) override;
  void onRatesSolved(SimTime at, std::span<const FlowId> ids,
                     std::span<const util::MiBps> rates, std::size_t activeFlows) override;
  void onFlowCompleted(const FlowStats& stats) override;
  void onFlowCancelled(const FlowStats& stats) override;

  std::size_t capacity() const { return capacity_; }
  /// Records currently held (<= capacity()).
  std::size_t size() const { return records_.size(); }
  /// Total records ever appended, including overwritten ones.
  std::uint64_t recorded() const { return written_; }
  /// Records lost to ring wrap-around (recorded() - size()).
  std::uint64_t dropped() const;

  /// The retained records, oldest first (copies out of the ring; the live
  /// ring is never exposed because its physical order wraps).
  std::vector<RingRecord> snapshot() const;

  /// Render the retained records as JSONL (same event vocabulary as
  /// FlowTracer::toJsonl; rates lines carry `solved_mibps`).  When records
  /// were dropped, the first line is {"ev":"drops","count":N}.
  std::string toJsonl() const;
  void writeJsonl(const std::filesystem::path& path) const;

  /// Render as Chrome-trace JSON: flows as async b/e events plus
  /// solved_mibps / active_flows counter tracks.
  std::string toChromeTrace() const;
  void writeChromeTrace(const std::filesystem::path& path) const;

 private:
  void push(const RingRecord& record);

  FluidSimulator& fluid_;
  const std::size_t capacity_;
  std::vector<RingRecord> records_;  // grows to capacity_; slot = written_ % capacity_
  std::uint64_t written_ = 0;
};

}  // namespace beesim::sim
