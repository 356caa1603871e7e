#include "harness/executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/run.hpp"
#include "ior/options.hpp"
#include "topology/plafrim.hpp"
#include "util/units.hpp"

namespace beesim::harness {
namespace {

using namespace beesim::util::literals;

std::vector<CampaignEntry> smallCampaign() {
  std::vector<CampaignEntry> entries;
  for (const unsigned count : {2u, 4u, 8u}) {
    CampaignEntry entry;
    entry.config.cluster = topo::makePlafrim(topo::Scenario::kEthernet10G, 2);
    entry.config.fs.defaultStripe.stripeCount = count;
    entry.config.job = ior::IorJob::onFirstNodes(2, 8);
    entry.config.ior.blockSize = ior::blockSizeForTotal(1_GiB, entry.config.job.ranks());
    entry.factors["count"] = std::to_string(count);
    entries.push_back(std::move(entry));
  }
  return entries;
}

/// Row-for-row store equality: identical order, factors and bitwise metrics.
void expectStoresIdentical(const ResultStore& a, const ResultStore& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& ra = a.rows()[i];
    const auto& rb = b.rows()[i];
    EXPECT_EQ(ra.factors, rb.factors) << "row " << i;
    ASSERT_EQ(ra.metrics.size(), rb.metrics.size()) << "row " << i;
    auto ita = ra.metrics.begin();
    auto itb = rb.metrics.begin();
    for (; ita != ra.metrics.end(); ++ita, ++itb) {
      EXPECT_EQ(ita->first, itb->first) << "row " << i;
      EXPECT_DOUBLE_EQ(ita->second, itb->second)
          << "row " << i << " metric " << ita->first;
    }
  }
}

TEST(Executor, ParallelCampaignMatchesSerialRowForRow) {
  const auto entries = smallCampaign();
  ProtocolOptions options;
  options.repetitions = 6;
  for (const std::uint64_t seed : {7ull, 99ull, 20260805ull}) {
    ExecutorOptions serial;
    serial.jobs = 1;
    const auto reference = executeCampaign(entries, options, seed, nullptr, serial);
    for (const std::size_t jobs : {2u, 8u}) {
      ExecutorOptions exec;
      exec.jobs = jobs;
      const auto store = executeCampaign(entries, options, seed, nullptr, exec);
      SCOPED_TRACE("seed " + std::to_string(seed) + " jobs " + std::to_string(jobs));
      expectStoresIdentical(reference, store);
    }
  }
}

TEST(Executor, AnnotatorRunsInPlanOrderRegardlessOfJobs) {
  const auto entries = smallCampaign();
  ProtocolOptions options;
  options.repetitions = 5;
  // A stateful annotator: records the (count, rep) sequence it observes and
  // stamps a running index into each row.  Both must be jobs-independent.
  const auto annotate = [](std::vector<std::string>& order) {
    return [&order](const RunRecord&, ResultRow& row) {
      row.metrics["commit_index"] = static_cast<double>(order.size());
      order.push_back(row.factors.at("count") + ":" + row.factors.at("rep"));
    };
  };
  std::vector<std::string> serialOrder;
  ExecutorOptions serial;
  serial.jobs = 1;
  const auto reference = executeCampaign(entries, options, 5, annotate(serialOrder), serial);
  std::vector<std::string> parallelOrder;
  ExecutorOptions exec;
  exec.jobs = 8;
  const auto store = executeCampaign(entries, options, 5, annotate(parallelOrder), exec);
  EXPECT_EQ(serialOrder, parallelOrder);
  expectStoresIdentical(reference, store);
}

TEST(Executor, ProgressReachesTotalAndReportsCommitOrder) {
  const auto entries = smallCampaign();
  ProtocolOptions options;
  options.repetitions = 3;
  std::vector<std::size_t> completions;
  ExecutorOptions exec;
  exec.jobs = 4;
  exec.progressIntervalSeconds = 0.0;  // report every commit
  exec.onProgress = [&](const CampaignProgress& p) {
    completions.push_back(p.completed);
    EXPECT_EQ(p.total, 9u);
    EXPECT_GE(p.elapsedSeconds, 0.0);
    EXPECT_GE(p.slowestRunSeconds, 0.0);
  };
  executeCampaign(entries, options, 11, nullptr, exec);
  ASSERT_FALSE(completions.empty());
  EXPECT_EQ(completions.back(), 9u);
  EXPECT_TRUE(std::is_sorted(completions.begin(), completions.end()));
}

TEST(Executor, ThrowingAnnotatorPropagatesAndStopsCommits) {
  const auto entries = smallCampaign();
  ProtocolOptions options;
  options.repetitions = 4;
  for (const std::size_t jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    std::size_t calls = 0;
    ExecutorOptions exec;
    exec.jobs = jobs;
    EXPECT_THROW(executeCampaign(
                     entries, options, 3,
                     [&](const RunRecord&, ResultRow&) {
                       if (++calls == 5) throw std::runtime_error("annotator failed");
                     },
                     exec),
                 std::runtime_error);
    // Rows commit in plan order and nothing commits after the failed one.
    EXPECT_EQ(calls, 5u);
  }
}

TEST(Executor, ThrowingRunPropagatesAtAnyJobs) {
  // The middle entry asks for more nodes than its cluster has, so each of
  // its runs throws inside runOnce; no row of it may ever be committed.
  auto entries = smallCampaign();
  entries[1].config.job = ior::IorJob::onFirstNodes(3, 8);
  ProtocolOptions options;
  options.repetitions = 4;
  for (const std::size_t jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    std::vector<std::string> committed;
    ExecutorOptions exec;
    exec.jobs = jobs;
    EXPECT_ANY_THROW(executeCampaign(
        entries, options, 3,
        [&](const RunRecord&, ResultRow& row) { committed.push_back(row.factors.at("count")); },
        exec));
    EXPECT_LT(committed.size(), 12u);
    EXPECT_EQ(std::count(committed.begin(), committed.end(), "4"), 0);
  }
}

TEST(Executor, ParallelMapFillsEverySlotByIndex) {
  for (const std::size_t jobs : {0u, 1u, 2u, 8u}) {
    const auto out = parallelMap<std::size_t>(
        100, jobs, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(Executor, ParallelForRunsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallelFor(hits.size(), 8, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Executor, ParallelForEmptyAndSingleAreInline) {
  int calls = 0;
  parallelFor(0, 8, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallelFor(1, 8, [&](std::size_t i) { calls += static_cast<int>(i) + 1; });
  EXPECT_EQ(calls, 1);
}

TEST(Executor, ParallelForRethrowsWorkerException) {
  EXPECT_THROW(
      parallelFor(64, 4,
                  [](std::size_t i) {
                    if (i == 13) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

TEST(Executor, ResolveJobsZeroMeansHardwareThreads) {
  EXPECT_GE(resolveJobs(0), 1u);
  EXPECT_EQ(resolveJobs(1), 1u);
  EXPECT_EQ(resolveJobs(5), 5u);
}

}  // namespace
}  // namespace beesim::harness
