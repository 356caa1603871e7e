#include "speed_probe.hpp"

#include <time.h>

#include <algorithm>
#include <map>
#include <numeric>

namespace campaign_bench {

namespace {

/// Keeps the kernels' results alive past the optimizer.
volatile double gSink = 0.0;

std::uint64_t xorshift(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

/// 10k insertions into a node-based tree, then one in-order walk.
double treeKernel() {
  std::map<std::uint64_t, double> tree;
  std::uint64_t state = 0x2545F4914F6CDD1DULL;
  for (int i = 0; i < 10000; ++i) tree[xorshift(state) >> 20] = static_cast<double>(i);
  double sum = 0.0;
  for (const auto& [key, value] : tree) sum += value;
  return sum;
}

/// Progressive filling: 4000 flows over 128 resources, 4 resources per
/// flow; each round freezes the flows of the tightest resource.
double fillKernel() {
  constexpr int kFlows = 4000;
  constexpr int kResources = 128;
  constexpr int kPerFlow = 4;
  const auto resource = [](int flow, int j) {
    return static_cast<int>((static_cast<unsigned>(flow) * 2654435761u +
                             static_cast<unsigned>(j) * 40503u) % kResources);
  };
  std::vector<double> capacity(kResources);
  for (int r = 0; r < kResources; ++r) capacity[r] = 100.0 + r;
  std::vector<double> rate(kFlows, 0.0);
  std::vector<char> frozen(kFlows, 0);
  std::vector<int> users(kResources);
  for (int left = kFlows; left > 0;) {
    std::fill(users.begin(), users.end(), 0);
    for (int f = 0; f < kFlows; ++f) {
      if (frozen[f]) continue;
      for (int j = 0; j < kPerFlow; ++j) ++users[resource(f, j)];
    }
    double share = 0.0;
    int tightest = -1;
    for (int r = 0; r < kResources; ++r) {
      if (users[r] == 0) continue;
      const double s = capacity[r] / users[r];
      if (tightest < 0 || s < share) {
        share = s;
        tightest = r;
      }
    }
    for (int f = 0; f < kFlows; ++f) {
      if (frozen[f]) continue;
      bool uses = false;
      for (int j = 0; j < kPerFlow; ++j) uses |= resource(f, j) == tightest;
      if (!uses) continue;
      frozen[f] = 1;
      --left;
      rate[f] = share;
      for (int j = 0; j < kPerFlow; ++j) capacity[resource(f, j)] -= share;
    }
  }
  return std::accumulate(rate.begin(), rate.end(), 0.0);
}

}  // namespace

double threadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

SpeedProbe::SpeedProbe() : keys_(1 << 15) {
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  for (auto& key : keys_) key = static_cast<double>(xorshift(state) % 1000000);
  measure();  // warm the allocator and caches
}

double SpeedProbe::measure() {
  const double start = threadCpuSeconds();
  sorted_ = keys_;
  std::sort(sorted_.begin(), sorted_.end());
  gSink = gSink + sorted_[sorted_.size() / 2] + treeKernel() + fillKernel();
  return threadCpuSeconds() - start;
}

}  // namespace campaign_bench
