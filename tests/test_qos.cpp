// Multi-tenant QoS suite (DESIGN.md §2.8): token bucket, borrow ledger,
// manager admission/deferral, write-path integration, fault interplay,
// token-conservation property, and the --jobs invariance contract.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_probe.hpp"
#include "beegfs/deployment.hpp"
#include "beegfs/filesystem.hpp"
#include "cli/commands.hpp"
#include "faults/injector.hpp"
#include "faults/schedule.hpp"
#include "harness/campaign.hpp"
#include "harness/concurrent.hpp"
#include "harness/executor.hpp"
#include "harness/protocol.hpp"
#include "harness/run.hpp"
#include "ior/options.hpp"
#include "qos/borrow.hpp"
#include "qos/manager.hpp"
#include "qos/token_bucket.hpp"
#include "sim/fluid.hpp"
#include "topology/plafrim.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace beesim {
namespace {

using namespace beesim::util::literals;

constexpr double kMiBd = static_cast<double>(util::kMiB);

// -- TokenBucket -------------------------------------------------------------

TEST(TokenBucket, StartsFullAndAdmitsUpToBurst) {
  qos::TokenBucket bucket(10.0, 4_MiB);
  EXPECT_DOUBLE_EQ(bucket.tokens(), 4.0 * kMiBd);
  EXPECT_TRUE(bucket.admissible(4_MiB));
  bucket.consume(4.0 * kMiBd);
  EXPECT_FALSE(bucket.admissible(1_MiB));
}

TEST(TokenBucket, RefillAccruesAtRateAndOverflowIsExtractable) {
  qos::TokenBucket bucket(10.0, 4_MiB);  // 10 MiB/s
  bucket.consume(4.0 * kMiBd);           // empty
  bucket.refill(0.2);                    // +2 MiB
  EXPECT_NEAR(bucket.tokens(), 2.0 * kMiBd, 1.0);
  EXPECT_DOUBLE_EQ(bucket.takeOverflow(), 0.0);  // below burst: nothing
  bucket.refill(1.0);                            // +8 MiB -> 10 > burst 4
  const double over = bucket.takeOverflow();
  EXPECT_NEAR(over, 6.0 * kMiBd, 1.0);
  EXPECT_DOUBLE_EQ(bucket.tokens(), 4.0 * kMiBd);
}

TEST(TokenBucket, RepeatedRefillAtSameTimeIsNoOp) {
  qos::TokenBucket bucket(10.0, 4_MiB);
  bucket.consume(4.0 * kMiBd);
  bucket.refill(1.0);
  const double once = bucket.tokens();
  bucket.refill(1.0);
  EXPECT_DOUBLE_EQ(bucket.tokens(), once);
}

TEST(TokenBucket, AdmissionNeedIsCappedAtBurst) {
  qos::TokenBucket bucket(10.0, 4_MiB);
  EXPECT_DOUBLE_EQ(bucket.admissionNeed(1_MiB), 1.0 * kMiBd);
  // A jumbo chunk only needs a full bucket (spend-ahead)...
  EXPECT_DOUBLE_EQ(bucket.admissionNeed(64_MiB), 4.0 * kMiBd);
  EXPECT_TRUE(bucket.admissible(64_MiB));
  bucket.consume(64.0 * kMiBd);
  // ...and the resulting debt throttles everything after it.
  EXPECT_LT(bucket.tokens(), 0.0);
  EXPECT_FALSE(bucket.admissible(1_MiB));
}

TEST(TokenBucket, TimeUntilAdmissibleMatchesRate) {
  qos::TokenBucket bucket(10.0, 4_MiB);
  bucket.consume(4.0 * kMiBd);  // empty at t=0
  EXPECT_NEAR(bucket.timeUntilAdmissible(2_MiB), 0.2, 1e-9);
  EXPECT_NEAR(bucket.timeUntilAdmissible(64_MiB), 0.4, 1e-9);  // need = burst
  bucket.refill(0.4);
  EXPECT_DOUBLE_EQ(bucket.timeUntilAdmissible(64_MiB), 0.0);
}

TEST(TokenBucket, InvalidParametersThrow) {
  EXPECT_THROW(qos::TokenBucket(0.0, 1_MiB), util::ContractError);
  EXPECT_THROW(qos::TokenBucket(-1.0, 1_MiB), util::ContractError);
  EXPECT_THROW(qos::TokenBucket(std::numeric_limits<double>::quiet_NaN(), 1_MiB),
               util::ContractError);
  EXPECT_THROW(qos::TokenBucket(10.0, 0), util::ContractError);
}

// -- BorrowLedger ------------------------------------------------------------

TEST(BorrowLedger, DonationIsCappedPerLender) {
  qos::BorrowLedger ledger;
  const auto a = ledger.addApp();
  EXPECT_DOUBLE_EQ(ledger.donate(a, 10.0, 4.0), 4.0);  // cap bites
  EXPECT_DOUBLE_EQ(ledger.donate(a, 10.0, 4.0), 0.0);  // already at cap
  EXPECT_DOUBLE_EQ(ledger.poolBytes(), 4.0);
  EXPECT_DOUBLE_EQ(ledger.contribution(a), 4.0);
}

TEST(BorrowLedger, DrawSkipsSelfAndDepletesLendersInAscendingOrder) {
  qos::BorrowLedger ledger;
  const auto a = ledger.addApp();
  const auto b = ledger.addApp();
  const auto c = ledger.addApp();
  ledger.donate(a, 3.0, 10.0);
  ledger.donate(b, 3.0, 10.0);
  ledger.donate(c, 3.0, 10.0);
  // b draws 4: takes all of a's 3 first, then 1 from c; never its own 3.
  EXPECT_DOUBLE_EQ(ledger.draw(b, 4.0), 4.0);
  EXPECT_DOUBLE_EQ(ledger.contribution(a), 0.0);
  EXPECT_DOUBLE_EQ(ledger.contribution(b), 3.0);
  EXPECT_DOUBLE_EQ(ledger.contribution(c), 2.0);
}

TEST(BorrowLedger, DrawIsBoundedByOthersSpares) {
  qos::BorrowLedger ledger;
  const auto a = ledger.addApp();
  const auto b = ledger.addApp();
  ledger.donate(a, 2.0, 10.0);
  ledger.donate(b, 5.0, 10.0);
  EXPECT_DOUBLE_EQ(ledger.draw(b, 100.0), 2.0);  // only a's spares
  EXPECT_DOUBLE_EQ(ledger.poolBytes(), 5.0);     // b's own still pooled
}

TEST(BorrowLedger, ReclaimReturnsOnlyOwnUndrawnContribution) {
  qos::BorrowLedger ledger;
  const auto a = ledger.addApp();
  const auto b = ledger.addApp();
  ledger.donate(a, 4.0, 10.0);
  ledger.donate(b, 1.0, 10.0);
  EXPECT_DOUBLE_EQ(ledger.reclaim(a, 3.0), 3.0);
  EXPECT_DOUBLE_EQ(ledger.reclaim(a, 3.0), 1.0);  // only 1 left
  EXPECT_DOUBLE_EQ(ledger.reclaim(a, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(ledger.poolBytes(), 1.0);  // b untouched
}

// -- QosManager --------------------------------------------------------------

qos::QosPolicy enabledPolicy(bool borrow = false) {
  qos::QosPolicy policy;
  policy.enabled = true;
  policy.borrow = borrow;
  return policy;
}

TEST(QosManager, RegistrationValidatesSpecsAndNodeOwnership) {
  sim::FluidSimulator fluid;
  qos::QosManager manager(fluid, enabledPolicy());
  qos::QosAppSpec bad;
  bad.rate = 0.0;
  EXPECT_THROW(manager.registerApp(bad, {0}), util::ConfigError);
  bad.rate = std::numeric_limits<double>::infinity();
  EXPECT_THROW(manager.registerApp(bad, {0}), util::ConfigError);
  bad.rate = 10.0;
  bad.sloRate = -1.0;
  EXPECT_THROW(manager.registerApp(bad, {0}), util::ConfigError);

  qos::QosAppSpec good;
  good.rate = 10.0;
  EXPECT_EQ(manager.registerApp(good, {0, 1}), 0u);
  // A node cannot belong to two applications.
  EXPECT_THROW(manager.registerApp(good, {1}), util::ConfigError);
  // burst defaults to one second at the reserved rate.
  EXPECT_EQ(manager.appSpec(0).burst, static_cast<util::Bytes>(10.0 * kMiBd));
}

TEST(QosManager, UnmanagedNodesPassThrough) {
  sim::FluidSimulator fluid;
  qos::QosManager manager(fluid, enabledPolicy());
  qos::QosAppSpec spec;
  spec.rate = 1.0;
  manager.registerApp(spec, {0});
  EXPECT_TRUE(manager.admitChunk(99, 1_GiB, nullptr));
  EXPECT_DOUBLE_EQ(manager.stats().tokensIssued, 0.0);
}

TEST(QosManager, DefersBeyondBurstAndResumesAtTheRefillTime) {
  sim::FluidSimulator fluid;
  qos::QosManager manager(fluid, enabledPolicy());
  qos::QosAppSpec spec;
  spec.rate = 1.0;  // 1 MiB/s
  spec.burst = 4_MiB;
  manager.registerApp(spec, {0});

  EXPECT_TRUE(manager.admitChunk(0, 3_MiB, nullptr));  // 1 MiB left
  int resumed = 0;
  util::Seconds resumedAt = -1.0;
  EXPECT_FALSE(manager.admitChunk(0, 2_MiB, [&] {
    ++resumed;
    resumedAt = fluid.now();
  }));
  EXPECT_EQ(manager.waitingChunks(0), 1u);
  fluid.run();
  EXPECT_EQ(resumed, 1);
  EXPECT_EQ(manager.waitingChunks(0), 0u);
  // Deficit 1 MiB at 1 MiB/s: the wake fires ~1 virtual second later.
  EXPECT_NEAR(resumedAt, 1.0, 0.01);
  EXPECT_NEAR(manager.stats().throttleSeconds, 1.0, 0.01);
  EXPECT_EQ(manager.stats().deferrals, 1u);
  EXPECT_DOUBLE_EQ(manager.stats().tokensIssued, 5.0 * kMiBd);
}

TEST(QosManager, WaitersResumeInFifoOrderWithoutOvertaking) {
  sim::FluidSimulator fluid;
  qos::QosManager manager(fluid, enabledPolicy());
  qos::QosAppSpec spec;
  spec.rate = 10.0;
  spec.burst = 2_MiB;
  manager.registerApp(spec, {0});

  EXPECT_TRUE(manager.admitChunk(0, 2_MiB, nullptr));  // drain the bucket
  std::vector<int> order;
  EXPECT_FALSE(manager.admitChunk(0, 2_MiB, [&] { order.push_back(1); }));
  // The small chunk would fit sooner, but FIFO forbids overtaking.
  EXPECT_FALSE(manager.admitChunk(0, 1_MiB, [&] { order.push_back(2); }));
  fluid.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);

  // FIFO holds across the waiter ring's wrap-around and growth: six
  // waiters, three of them woken, then ten more queued behind the rest.
  order.clear();
  const util::Seconds refilled = fluid.now() + 1.0;
  fluid.engine().schedule(refilled, [&] {
    EXPECT_TRUE(manager.admitChunk(0, 2_MiB, nullptr));  // drain the bucket
    for (int i = 1; i <= 6; ++i) {
      EXPECT_FALSE(manager.admitChunk(0, 1_MiB, [&order, i] { order.push_back(i); }));
    }
  });
  fluid.engine().runUntil(refilled + 0.35);  // one 1 MiB wake every 0.1 s
  ASSERT_EQ(order.size(), 3u);
  for (int i = 7; i <= 16; ++i) {
    EXPECT_FALSE(manager.admitChunk(0, 1_MiB, [&order, i] { order.push_back(i); }));
  }
  EXPECT_EQ(manager.waitingChunks(0), 13u);
  fluid.run();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i + 1);
}

TEST(QosManager, WarmDeferAndWakeCycleAllocatesNothing) {
  // A burst of chunks beyond the bucket queues behind one another and is
  // woken one refill at a time.  Once a burst like it has grown the app's
  // waiter queue (and the engine's event storage), the next one defers and
  // wakes without a heap allocation.
  sim::FluidSimulator fluid;
  qos::QosManager manager(fluid, enabledPolicy());
  qos::QosAppSpec spec;
  spec.rate = 10.0;
  spec.burst = 1_MiB;
  manager.registerApp(spec, {0});
  std::size_t resumed = 0;
  const auto burst = [&] {
    for (int i = 0; i < 24; ++i) {
      if (manager.admitChunk(0, 1_MiB, [&resumed] { ++resumed; })) ++resumed;
    }
    EXPECT_GT(manager.waitingChunks(0), 20u);
    fluid.run();
    EXPECT_EQ(manager.waitingChunks(0), 0u);
  };
  burst();  // warm-up
  std::uint64_t allocations = 0;
  {
    test::AllocProbe probe;
    burst();
    allocations = probe.count();
  }
  EXPECT_EQ(allocations, 0u) << "a warm defer/wake cycle must not allocate";
  EXPECT_EQ(resumed, 48u);
}

TEST(QosManager, BorrowCoversADeficitTheOwnBucketCannot) {
  // Lender app0 (deep idle bucket) + over-subscribed app1.  After a jumbo
  // spend-ahead, app1's next chunk is only admissible synchronously when
  // reclaim + borrow cover the debt.
  for (const bool borrow : {false, true}) {
    sim::FluidSimulator fluid;
    qos::QosManager manager(fluid, enabledPolicy(borrow));
    qos::QosAppSpec lender;
    lender.rate = 10.0;
    lender.burst = 100_MiB;
    qos::QosAppSpec busy;
    busy.rate = 10.0;
    busy.burst = 10_MiB;
    manager.registerApp(lender, {0});
    manager.registerApp(busy, {1});

    bool admitted = false;
    fluid.engine().schedule(1.0, [&] {
      // Jumbo spend-ahead: need = burst (10 MiB), bucket full -> admitted,
      // balance drops to -10 MiB.
      EXPECT_TRUE(manager.admitChunk(1, 20_MiB, nullptr));
      EXPECT_NEAR(manager.tokens(1), -10.0 * kMiBd, 1.0);
      // Deficit 20 MiB: own refill spares (reclaim, 10 MiB donated at t=1)
      // plus the lender's pool (10 MiB accrued over [0,1]) cover it -- but
      // only when borrowing is on.
      admitted = manager.admitChunk(1, 10_MiB, [] {});
    });
    fluid.run();
    EXPECT_EQ(admitted, borrow);
    if (borrow) {
      EXPECT_NEAR(manager.stats().tokensReclaimed, 10.0 * kMiBd, 1.0);
      EXPECT_NEAR(manager.stats().tokensBorrowed, 10.0 * kMiBd, 1.0);
    } else {
      EXPECT_DOUBLE_EQ(manager.stats().tokensBorrowed, 0.0);
      EXPECT_DOUBLE_EQ(manager.stats().tokensReclaimed, 0.0);
    }
  }
}

TEST(QosManager, DeterministicGivenTheSameEventSequence) {
  auto runOnceWith = [](std::uint64_t seed) {
    sim::FluidSimulator fluid;
    qos::QosManager manager(fluid, enabledPolicy(true));
    qos::QosAppSpec spec;
    spec.rate = 5.0;
    spec.burst = 8_MiB;
    manager.registerApp(spec, {0});
    manager.registerApp(spec, {1});
    util::Rng rng(seed);
    for (int i = 0; i < 40; ++i) {
      const auto node = static_cast<std::size_t>(rng.uniformInt(0, 1));
      const auto bytes = static_cast<util::Bytes>(rng.uniformInt(1, 4)) * 1_MiB;
      const double at = 0.1 * static_cast<double>(rng.uniformInt(0, 100));
      fluid.engine().schedule(at, [&manager, node, bytes] {
        manager.admitChunk(node, bytes, [] {});
      });
    }
    fluid.run();
    return manager.stats();
  };
  const auto a = runOnceWith(77);
  const auto b = runOnceWith(77);
  EXPECT_DOUBLE_EQ(a.tokensIssued, b.tokensIssued);
  EXPECT_DOUBLE_EQ(a.tokensBorrowed, b.tokensBorrowed);
  EXPECT_DOUBLE_EQ(a.tokensReclaimed, b.tokensReclaimed);
  EXPECT_EQ(a.deferrals, b.deferrals);
  EXPECT_DOUBLE_EQ(a.throttleSeconds, b.throttleSeconds);
}

// Property: tokens are conserved.  Per app, everything issued fits inside
// the initial burst plus the rate integral plus what was borrowed (reclaims
// return the app's own donations, which the rate integral already covers).
TEST(QosProperty, IssuedBoundedByBurstPlusAccrualPlusBorrowed) {
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    sim::FluidSimulator fluid;
    qos::QosManager manager(fluid, enabledPolicy(true));
    util::Rng rng(seed);
    const std::size_t apps = 3;
    for (std::size_t a = 0; a < apps; ++a) {
      qos::QosAppSpec spec;
      spec.rate = static_cast<double>(rng.uniformInt(2, 20));
      spec.burst = static_cast<util::Bytes>(rng.uniformInt(1, 16)) * 1_MiB;
      manager.registerApp(spec, {a});
    }
    for (int i = 0; i < 120; ++i) {
      const auto node = static_cast<std::size_t>(rng.uniformInt(0, 2));
      const auto bytes = static_cast<util::Bytes>(rng.uniformInt(1, 8)) * 1_MiB;
      const double at = 0.05 * static_cast<double>(rng.uniformInt(0, 400));
      fluid.engine().schedule(at, [&manager, node, bytes] {
        manager.admitChunk(node, bytes, [] {});
      });
    }
    fluid.run();
    const util::Seconds horizon = fluid.now();
    for (std::size_t a = 0; a < apps; ++a) {
      // Every deferred chunk was eventually admitted: no waiter leaks.
      EXPECT_EQ(manager.waitingChunks(a), 0u) << "seed " << seed << " app " << a;
      const auto& spec = manager.appSpec(a);
      const auto& stats = manager.appStats(a);
      // One max-size chunk of spend-ahead debt may be outstanding at the
      // end (a jumbo admission drives the balance negative by at most
      // chunk - burst); everything else is conserved.
      const double bound = static_cast<double>(spec.burst) +
                           spec.rate * kMiBd * horizon + stats.borrowed +
                           8.0 * kMiBd + 1.0;
      EXPECT_LE(stats.issued, bound) << "seed " << seed << " app " << a;
    }
  }
}

// -- Write-path integration (FileSystem + harness) ---------------------------

harness::RunConfig smallRun(util::Bytes total = 512_MiB) {
  harness::RunConfig config;
  config.cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  config.fs.defaultStripe.stripeCount = 4;
  config.job = ior::IorJob::onFirstNodes(4, 8);
  config.ior.blockSize = ior::blockSizeForTotal(total, config.job.ranks());
  return config;
}

TEST(QosFileSystem, ThrottledRunTracksTheReservedRate) {
  // Total is kept large relative to the one-second default burst so the
  // burst's head start cannot dominate the achieved rate.
  auto config = smallRun(2_GiB);
  const auto unmanaged = harness::runOnce(config, 42);
  config.qos.enabled = true;
  config.qos.rate = 200.0;
  const auto managed = harness::runOnce(config, 42);
  ASSERT_TRUE(managed.qosActive);
  EXPECT_FALSE(unmanaged.qosActive);
  // The unmanaged run is far above the reservation; the managed one tracks
  // it (the initial burst lets the achieved rate sit slightly above).
  EXPECT_GT(unmanaged.ior.bandwidth, 2.0 * config.qos.rate);
  EXPECT_LT(managed.ior.bandwidth, 1.35 * config.qos.rate);
  EXPECT_GT(managed.ior.bandwidth, 0.8 * config.qos.rate);
  EXPECT_GT(managed.qos.deferrals, 0u);
  EXPECT_GT(managed.qos.throttleSeconds, 0.0);
  // Exactly every written byte was charged once.
  EXPECT_DOUBLE_EQ(managed.qos.tokensIssued,
                   static_cast<double>(managed.ior.totalBytes));
}

TEST(QosFileSystem, GenerousReservationDoesNotThrottle) {
  auto config = smallRun();
  const auto unmanaged = harness::runOnce(config, 42);
  config.qos.enabled = true;
  config.qos.rate = 50000.0;  // far above what the system can deliver
  const auto managed = harness::runOnce(config, 42);
  // Identical bandwidth: admission always succeeds synchronously, so the
  // flow schedule is untouched.
  EXPECT_DOUBLE_EQ(managed.ior.bandwidth, unmanaged.ior.bandwidth);
  EXPECT_EQ(managed.qos.deferrals, 0u);
  EXPECT_EQ(managed.qos.sloViolations, 1u);  // 50 GB/s SLO is unsatisfiable
}

TEST(QosFileSystem, ReadsAreNotCharged) {
  // The buckets govern write bandwidth only (the paper's contention story is
  // about writes): a read-phase run under QoS spends no tokens and is not
  // throttled.
  auto config = smallRun();
  config.ior.operation = ior::Operation::kRead;
  const auto unmanaged = harness::runOnce(config, 7);
  config.qos.enabled = true;
  config.qos.rate = 50.0;  // would be a brutal throttle if reads were charged
  const auto record = harness::runOnce(config, 7);
  ASSERT_TRUE(record.qosActive);
  EXPECT_DOUBLE_EQ(record.qos.tokensIssued, 0.0);
  EXPECT_EQ(record.qos.deferrals, 0u);
  EXPECT_DOUBLE_EQ(record.ior.bandwidth, unmanaged.ior.bandwidth);
}

TEST(QosFaultInteraction, RetryLadderNeverDoubleSpendsTokens) {
  // The target under slot 0 goes down while its 512 MiB chunk is in flight
  // and recovers before the retry check: the chunk times out, retries, and
  // is rewritten in full.  Tokens must be charged exactly once per logical
  // byte -- the re-issue rides the original admission.
  sim::FluidSimulator fluid;
  const auto cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  beegfs::BeegfsParams params;
  params.faults.mode = beegfs::ClientFaultPolicy::Mode::kDegraded;
  params.faults.ioTimeout = 0.2;
  params.faults.backoffBase = 0.3;  // first retry check lands after recovery
  beegfs::Deployment deployment(fluid, cluster, params, util::Rng(1));
  beegfs::FileSystem fs(deployment, util::Rng(2));

  qos::QosManager manager(fluid, enabledPolicy());
  qos::QosAppSpec spec;
  spec.rate = 200.0;
  spec.burst = 600_MiB;  // slot 0 admits at t=0, slot 1 defers (throttled)
  manager.registerApp(spec, {0});
  fs.setQosManager(&manager);

  faults::FaultInjector injector(deployment, faults::parseSchedule("off:t0@0.05;on:t0@0.4"));
  injector.arm();

  const auto handle = fs.createPinned("/qos-victim", {0, 4}, 512_KiB);
  bool done = false;
  fs.writeAsync(0, handle, 0, 1_GiB, 8.0, [&](util::Seconds) { done = true; });
  fluid.run();

  ASSERT_TRUE(done);
  const auto& stats = fs.faultStats();
  EXPECT_FALSE(stats.aborted);
  // The ladder really ran: timeout -> retry -> full chunk rewrite...
  EXPECT_GE(stats.timeouts, 1u);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_EQ(stats.bytesRewritten, 512_MiB);
  // ...while the app was genuinely throttled (slot 1's chunk waited)...
  EXPECT_GE(manager.stats().deferrals, 1u);
  // ...yet issued tokens cover the logical gigabyte exactly once.
  EXPECT_DOUBLE_EQ(manager.stats().tokensIssued, static_cast<double>(1_GiB));
  EXPECT_EQ(manager.waitingChunks(0), 0u);
}

TEST(QosFaultInteraction, MirroredWritesChargeThePrimaryBytesOnce) {
  auto config = smallRun(256_MiB);
  config.fs.mirror.enabled = true;
  config.fs.defaultStripe.mirror = true;
  config.qos.enabled = true;
  config.qos.rate = 150.0;
  const auto record = harness::runOnce(config, 11);
  ASSERT_TRUE(record.qosActive);
  // Replication doubled the carried bytes, but tokens cover the logical
  // write once (server-side replica flows are not client admissions).
  EXPECT_GT(record.ior.mirror.bytesReplicated, 0u);
  EXPECT_DOUBLE_EQ(record.qos.tokensIssued,
                   static_cast<double>(record.ior.totalBytes));
}

// -- Concurrent harness + campaign plumbing ----------------------------------

std::vector<harness::AppSpec> twoTenants(util::Bytes perApp) {
  std::vector<harness::AppSpec> specs(2);
  specs[0].job = ior::IorJob{{0, 1}, 8};
  specs[1].job = ior::IorJob{{2, 3}, 8};
  for (auto& spec : specs) {
    spec.ior.blockSize = ior::blockSizeForTotal(perApp, spec.job.ranks());
  }
  return specs;
}

TEST(QosConcurrent, PerAppSpecsOverrideThePolicyDefault) {
  harness::RunConfig base;
  base.cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  base.fs.defaultStripe.stripeCount = 4;
  base.qos.enabled = true;
  base.qos.rate = 100.0;
  auto specs = twoTenants(2_GiB);
  qos::QosAppSpec fast;
  fast.rate = 400.0;
  specs[1].qos = fast;
  const auto result = harness::runConcurrent(base, specs, 3);
  ASSERT_TRUE(result.qosActive);
  // The explicitly-provisioned tenant runs ~4x faster.
  EXPECT_GT(result.apps[1].bandwidth, 2.5 * result.apps[0].bandwidth);
  EXPECT_LT(result.apps[0].bandwidth, 1.35 * 100.0);
  EXPECT_LT(result.apps[1].bandwidth, 1.35 * 400.0);
}

TEST(QosConcurrent, PerAppSpecsRequireTheMasterSwitch) {
  harness::RunConfig base;
  base.cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  auto specs = twoTenants(64_MiB);
  specs[0].qos = qos::QosAppSpec{100.0, 0, 0.0};
  EXPECT_THROW(harness::runConcurrent(base, specs, 3), util::ConfigError);
}

TEST(QosConcurrent, SloViolationsCountUnderProvisionedTenants) {
  harness::RunConfig base;
  base.cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  base.fs.defaultStripe.stripeCount = 4;
  base.qos.enabled = true;
  base.qos.rate = 100.0;
  auto specs = twoTenants(1_GiB);
  // App 1 is promised an SLO its own throttle makes unreachable: the bucket
  // caps it near 100 MiB/s while the SLO demands 4000.
  qos::QosAppSpec lied;
  lied.rate = 100.0;
  lied.sloRate = 4000.0;
  specs[1].qos = lied;
  const auto result = harness::runConcurrent(base, specs, 3);
  ASSERT_TRUE(result.qosActive);
  EXPECT_EQ(result.qos.sloViolations, 1u);
}

TEST(QosConcurrent, ResultsAreJobsInvariant) {
  // QoS draws no randomness, so a QoS-enabled concurrent campaign must be
  // bitwise identical for any worker count (the PR 1 ordered-commit
  // contract).  CI runs this under --gtest_filter as its invariance step.
  harness::RunConfig base;
  base.cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  base.fs.defaultStripe.stripeCount = 4;
  base.qos.enabled = true;
  base.qos.rate = 120.0;
  base.qos.borrow = true;
  auto runRep = [&](std::size_t rep) {
    auto specs = twoTenants(128_MiB);
    specs[1].startOffset = 0.5;
    return harness::runConcurrent(base, specs, 4000 + rep);
  };
  const auto serial = harness::parallelMap<harness::ConcurrentResult>(4, 1, runRep);
  const auto parallel = harness::parallelMap<harness::ConcurrentResult>(4, 4, runRep);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t r = 0; r < serial.size(); ++r) {
    EXPECT_EQ(serial[r].aggregateBandwidth, parallel[r].aggregateBandwidth);
    EXPECT_EQ(serial[r].qos.tokensIssued, parallel[r].qos.tokensIssued);
    EXPECT_EQ(serial[r].qos.tokensBorrowed, parallel[r].qos.tokensBorrowed);
    EXPECT_EQ(serial[r].qos.tokensReclaimed, parallel[r].qos.tokensReclaimed);
    EXPECT_EQ(serial[r].qos.deferrals, parallel[r].qos.deferrals);
    EXPECT_EQ(serial[r].qos.throttleSeconds, parallel[r].qos.throttleSeconds);
    for (std::size_t a = 0; a < serial[r].apps.size(); ++a) {
      EXPECT_EQ(serial[r].apps[a].bandwidth, parallel[r].apps[a].bandwidth);
    }
  }
}

TEST(QosCampaign, QosColumnsAreGatedAndJobsInvariant) {
  harness::CampaignEntry entry;
  entry.config = smallRun(128_MiB);
  entry.config.qos.enabled = true;
  entry.config.qos.rate = 200.0;
  harness::ProtocolOptions protocol;
  protocol.repetitions = 3;

  harness::ExecutorOptions serial;
  serial.jobs = 1;
  harness::ExecutorOptions parallel;
  parallel.jobs = 4;
  const auto a = harness::executeCampaign({entry}, protocol, 1234, nullptr, serial);
  const auto b = harness::executeCampaign({entry}, protocol, 1234, nullptr, parallel);
  for (const std::string metric :
       {"bandwidth_mibps", "qos_issued_mib", "qos_borrowed_mib", "qos_reclaimed_mib",
        "qos_deferrals", "qos_throttle_seconds", "qos_slo_violations"}) {
    EXPECT_EQ(a.metric(metric, {}), b.metric(metric, {})) << metric;
  }

  // With QoS off the columns must not exist at all (golden-bytes contract);
  // asking for one is then a contract violation, same as any unknown metric.
  entry.config.qos = qos::QosPolicy{};
  const auto off = harness::executeCampaign({entry}, protocol, 1234, nullptr, serial);
  EXPECT_THROW(off.metric("qos_issued_mib", {}), util::ContractError);
}

// -- CLI flag plumbing -------------------------------------------------------

int runCliCapture(std::vector<std::string> argv, std::string* out = nullptr) {
  std::ostringstream o;
  std::ostringstream e;
  const int code = cli::runCli(argv, o, e);
  if (out) *out = o.str();
  return code;
}

TEST(QosCli, KnobsWithoutMasterSwitchAreRejected) {
  EXPECT_NE(runCliCapture({"run", "--nodes", "2", "--qos-rate", "100"}), 0);
  EXPECT_NE(runCliCapture({"run", "--nodes", "2", "--qos-burst", "64m"}), 0);
  EXPECT_NE(runCliCapture({"run", "--nodes", "2", "--qos-borrow"}), 0);
  EXPECT_NE(runCliCapture({"concurrent", "--apps", "2", "--qos-rate", "100"}), 0);
}

TEST(QosCli, MasterSwitchRequiresARate) {
  EXPECT_NE(runCliCapture({"run", "--nodes", "2", "--qos"}), 0);
  EXPECT_NE(runCliCapture({"run", "--nodes", "2", "--qos", "--qos-rate", "0"}), 0);
  EXPECT_NE(runCliCapture({"run", "--nodes", "2", "--qos", "--qos-rate", "nan"}), 0);
  EXPECT_NE(
      runCliCapture({"run", "--nodes", "2", "--qos", "--qos-rate", "100", "--qos-burst", "0"}),
      0);
}

TEST(QosCli, RunAndConcurrentReportQosTotals) {
  std::string out;
  ASSERT_EQ(runCliCapture({"run", "--nodes", "2", "--reps", "1", "--total", "256m",
                           "--qos", "--qos-rate", "100"},
                          &out),
            0);
  EXPECT_NE(out.find("qos (totals over 1 reps)"), std::string::npos);
  EXPECT_NE(out.find("issued="), std::string::npos);
  ASSERT_EQ(runCliCapture({"concurrent", "--apps", "2", "--nodes-per-app", "2", "--reps",
                           "1", "--total", "256m", "--qos", "--qos-rate", "100",
                           "--qos-borrow"},
                          &out),
            0);
  EXPECT_NE(out.find("qos (totals over 1 reps)"), std::string::npos);
}

}  // namespace
}  // namespace beesim
