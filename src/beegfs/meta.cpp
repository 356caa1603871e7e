#include "beegfs/meta.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace beesim::beegfs {

namespace {
/// Scalar model: file create latency (rank 0 performs it).
constexpr util::Seconds kCreateLatency = 0.004;
/// Scalar model: per-rank open latency (paid once per rank before I/O
/// starts; ranks open concurrently, so the job pays ~one open, with jitter).
constexpr util::Seconds kOpenLatency = 0.0015;
}  // namespace

MetaService::MetaService(const MetaParams& params, util::Rng rng)
    : params_(params),
      rng_(rng),
      shards_(params.shard, params.mdtCount >= 1 ? params.mdtCount : 1),
      mdtOps_(params.mdtCount >= 1 ? params.mdtCount : 1, 0) {
  BEESIM_ASSERT(params.jitterSigmaLog >= 0.0, "jitter sigma must be >= 0");
  BEESIM_ASSERT(params.mdtCount >= 1, "need at least one MDT");
  // The create rate is configured; the other kinds keep the default
  // profile's ratios to it.
  const double scale = params.createRate / MetaParams::kDefaultCreateRate;
  rates_ = {params.createRate, MetaParams::kDefaultOpenRate * scale,
            MetaParams::kDefaultStatRate * scale, MetaParams::kDefaultUnlinkRate * scale};
  if (params.queued) {
    BEESIM_ASSERT(params.createRate > 0.0, "create rate must be > 0 ops/s");
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
  return base * rng_.logNormalMedian(1.0, params_.jitterSigmaLog);
}

util::Seconds MetaService::createCost() {
  ++ops_;
  return jittered(kCreateLatency);
}

util::Seconds MetaService::openAllCost(std::size_t concurrentRanks) {
  BEESIM_ASSERT(concurrentRanks >= 1, "need at least one rank");
  // The MDS serves one open per rank: diagnostics count all of them, not
  // one per call (the historical under-count).
  ops_ += concurrentRanks;
  // max of n i.i.d. latencies grows ~log(n); model that directly instead of
  // sampling n draws (the constant is folded into kOpenLatency).
  const double pileUp = 1.0 + std::log(static_cast<double>(concurrentRanks));
  return jittered(kOpenLatency) * pileUp;
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
  return d / (d + kSaturationDepth - 1.0);
}

sim::ResourceIndex MetaService::mdtResource(std::size_t shard) const {
  BEESIM_ASSERT(shard < mdtRes_.size(), "unknown MDT (queued model attached?)");
  return mdtRes_[shard];
}

std::size_t MetaService::opAsync(MetaOpKind kind, std::string_view path,
                                 sim::FlowCallback done) {
  BEESIM_ASSERT(fluid_ != nullptr, "queued metadata model not attached");
  const std::size_t shard = shardOf(path);
  ++ops_;
  ++mdtOps_[shard];
  // One op is a flow of kSaturationMiBps/rate MiB: a saturated MDT
  // (rampFactor -> 1, capacity kSaturationMiBps) then completes `rate` ops
  // per second, and a lone op takes kSaturationDepth/rate seconds.
  const double opMiB =
      kSaturationMiBps / rateFor(kind) *
      mdtRng_[shard].logNormalMedian(1.0, params_.jitterSigmaLog);
  const sim::ResourceIndex mdt[] = {mdtRes_[shard]};
  fluid_->startFlow(mdt, static_cast<util::Bytes>(std::llround(opMiB * util::kMiB)),
                    /*queueWeight=*/1.0, /*rateCap=*/0.0, std::move(done));
  return shard;
}

}  // namespace beesim::beegfs
