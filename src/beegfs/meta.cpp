#include "beegfs/meta.hpp"

#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace beesim::beegfs {

const char* metaOpName(MetaOpKind kind) {
  switch (kind) {
    case MetaOpKind::kCreate:
      return "create";
    case MetaOpKind::kOpen:
      return "open";
    case MetaOpKind::kStat:
      return "stat";
    case MetaOpKind::kUnlink:
      return "unlink";
  }
  BEESIM_ASSERT(false, "unknown metadata op kind");
  return "?";  // unreachable
}

MetaService::MetaService(const MetaParams& params, util::Rng rng)
    : params_(params),
      rng_(rng),
      shards_(params.shard, params.mdtCount >= 1 ? params.mdtCount : 1),
      mdtOps_(params.mdtCount >= 1 ? params.mdtCount : 1, 0) {
  BEESIM_ASSERT(params.createLatency >= 0.0, "create latency must be >= 0");
  BEESIM_ASSERT(params.openLatency >= 0.0, "open latency must be >= 0");
  BEESIM_ASSERT(params.statLatency >= 0.0, "stat latency must be >= 0");
  BEESIM_ASSERT(params.unlinkLatency >= 0.0, "unlink latency must be >= 0");
  BEESIM_ASSERT(params.jitterSigmaLog >= 0.0, "jitter sigma must be >= 0");
  BEESIM_ASSERT(params.mdtCount >= 1, "need at least one MDT");
  // The create rate is configured; the other kinds keep the default
  // profile's ratios to it.
  const double scale = params.createRate / MetaParams::kDefaultCreateRate;
  rates_ = {params.createRate, MetaParams::kDefaultOpenRate * scale,
            MetaParams::kDefaultStatRate * scale, MetaParams::kDefaultUnlinkRate * scale};
  if (params.queued) {
    BEESIM_ASSERT(params.createRate > 0.0, "create rate must be > 0 ops/s");
    BEESIM_ASSERT(params.saturationDepth >= 1.0, "saturation depth must be >= 1");
    // Per-MDT jitter substreams are derived order-independently from the
    // service's own seed (splitNamed does not draw from the engine), so
    // wiring the queued model leaves the scalar stream untouched.
    mdtRng_.reserve(params.mdtCount);
    for (unsigned k = 0; k < params.mdtCount; ++k) {
      mdtRng_.push_back(rng_.splitNamed(k));
    }
  }
}

util::Seconds MetaService::jittered(util::Seconds base) {
  if (base <= 0.0) return 0.0;
  return base * rng_.logNormalMedian(1.0, params_.jitterSigmaLog);
}

util::Seconds MetaService::createCost() {
  ++ops_;
  return jittered(params_.createLatency);
}

util::Seconds MetaService::openAllCost(std::size_t concurrentRanks) {
  BEESIM_ASSERT(concurrentRanks >= 1, "need at least one rank");
  // The MDS serves one open per rank: diagnostics count all of them, not
  // one per call (the historical under-count).
  ops_ += concurrentRanks;
  // max of n i.i.d. latencies grows ~log(n); model that directly instead of
  // sampling n draws (the constant is folded into openLatency).
  const double pileUp = 1.0 + std::log(static_cast<double>(concurrentRanks));
  return jittered(params_.openLatency) * pileUp;
}

util::Seconds MetaService::statCost() {
  ++ops_;
  return jittered(params_.statLatency);
}

util::Seconds MetaService::unlinkCost() {
  ++ops_;
  return jittered(params_.unlinkLatency);
}

void MetaService::attach(sim::FluidSimulator& fluid,
                         std::vector<sim::ResourceIndex> mdtRes) {
  BEESIM_ASSERT(params_.queued, "attach() requires the queued metadata model");
  BEESIM_ASSERT(fluid_ == nullptr, "metadata service already attached");
  BEESIM_ASSERT(mdtRes.size() == mdtCount(), "one fluid resource per MDT");
  fluid_ = &fluid;
  mdtRes_ = std::move(mdtRes);
}

std::size_t MetaService::shardOf(std::string_view path) {
  return shards_.shardOf(path);
}

double MetaService::rampFactor(double queueDepth) const {
  const double d = std::max(queueDepth, 1.0);
  return d / (d + params_.saturationDepth - 1.0);
}

sim::ResourceIndex MetaService::mdtResource(std::size_t shard) const {
  BEESIM_ASSERT(shard < mdtRes_.size(), "unknown MDT (queued model attached?)");
  return mdtRes_[shard];
}

std::size_t MetaService::opAsync(MetaOpKind kind, std::string_view path,
                                 std::function<void(util::Seconds)> done) {
  BEESIM_ASSERT(fluid_ != nullptr, "queued metadata model not attached");
  const std::size_t shard = shardOf(path);
  ++ops_;
  ++mdtOps_[shard];
  // One op is a flow of kSaturationMiBps/rate MiB: a saturated MDT
  // (rampFactor -> 1, capacity kSaturationMiBps) then completes `rate` ops
  // per second, and a lone op takes saturationDepth/rate seconds.
  const double opMiB =
      kSaturationMiBps / rateFor(kind) *
      mdtRng_[shard].logNormalMedian(1.0, params_.jitterSigmaLog);
  sim::FlowSpec flow;
  flow.path = {mdtRes_[shard]};
  flow.bytes = static_cast<util::Bytes>(std::llround(opMiB * util::kMiB));
  flow.queueWeight = 1.0;
  if (done) {
    flow.onComplete = [done = std::move(done)](const sim::FlowStats& stats) {
      done(stats.endTime);
    };
  }
  fluid_->startFlow(std::move(flow));
  return shard;
}

}  // namespace beesim::beegfs
