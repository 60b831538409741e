// Tests for the overload-safe serving front end. Units for the per-peer
// circuit breakers and the retry budget;
// integration tests for RevereServer admission / shedding / deadline
// handling / breaker wiring; and a concurrent stress test that is the
// TSan workload for the serve path (build with -DREVERE_SANITIZE=thread
// and run serve_test): no lost or double-completed requests, exact
// conservation accounting, monotone counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "src/datagen/topology.h"
#include "src/piazza/breaker.h"
#include "src/piazza/fault.h"
#include "src/piazza/pdms.h"
#include "src/serve/server.h"

namespace revere {
namespace {

using datagen::AllCoursesQuery;
using datagen::BuildUniversityPdms;
using datagen::PdmsGenOptions;
using datagen::PdmsGenReport;
using datagen::Topology;
using piazza::BreakerOptions;
using piazza::BreakerSet;
using piazza::FailurePolicy;
using piazza::FaultInjector;
using piazza::PdmsNetwork;
using piazza::PeerBreaker;
using piazza::RetryBudget;
using piazza::RetryPolicy;
using serve::Lane;
using serve::RevereServer;
using serve::ServeOptions;
using serve::ServeRequest;
using serve::ServeResult;
using serve::ServerStats;

// -------------------------------------------------------- PeerBreaker

BreakerOptions SmallBreaker() {
  BreakerOptions o;
  o.window = 8;
  o.min_samples = 3;
  o.open_failure_ratio = 0.5;
  o.probe_after_skips = 4;
  return o;
}

TEST(PeerBreakerTest, StaysClosedBelowMinSamples) {
  PeerBreaker b(SmallBreaker());
  b.RecordFailure();
  b.RecordFailure();
  EXPECT_EQ(b.state(), PeerBreaker::State::kClosed);  // 2 < min_samples
  EXPECT_TRUE(b.Allow());
}

TEST(PeerBreakerTest, TripsOnFailureRatioThenSkips) {
  PeerBreaker b(SmallBreaker());
  b.RecordSuccess();
  b.RecordFailure();
  b.RecordFailure();  // 2 failures / 3 samples >= 0.5 -> open
  EXPECT_EQ(b.state(), PeerBreaker::State::kOpen);
  EXPECT_EQ(b.opens(), 1u);
  EXPECT_FALSE(b.Allow());
  EXPECT_FALSE(b.Allow());
  EXPECT_EQ(b.skips(), 2u);
}

TEST(PeerBreakerTest, HalfOpenProbeSuccessCloses) {
  PeerBreaker b(SmallBreaker());
  for (int i = 0; i < 3; ++i) b.RecordFailure();
  ASSERT_EQ(b.state(), PeerBreaker::State::kOpen);
  // probe_after_skips = 4: the 4th suppressed contact becomes the probe.
  EXPECT_FALSE(b.Allow());
  EXPECT_FALSE(b.Allow());
  EXPECT_FALSE(b.Allow());
  EXPECT_TRUE(b.Allow());  // admitted as the half-open probe
  EXPECT_EQ(b.state(), PeerBreaker::State::kHalfOpen);
  EXPECT_EQ(b.probes(), 1u);
  // While the probe is in flight, everyone else is still suppressed.
  EXPECT_FALSE(b.Allow());
  b.RecordSuccess();
  EXPECT_EQ(b.state(), PeerBreaker::State::kClosed);
  EXPECT_TRUE(b.Allow());
  // Recovery cleared the window: old failures don't linger.
  b.RecordFailure();
  b.RecordFailure();
  EXPECT_EQ(b.state(), PeerBreaker::State::kClosed);
}

TEST(PeerBreakerTest, HalfOpenProbeFailureReopens) {
  PeerBreaker b(SmallBreaker());
  for (int i = 0; i < 3; ++i) b.RecordFailure();
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(b.Allow());
  EXPECT_TRUE(b.Allow());  // probe
  b.RecordFailure();
  EXPECT_EQ(b.state(), PeerBreaker::State::kOpen);
  // The cadence restarts: another probe_after_skips suppressions before
  // the next probe.
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(b.Allow());
  EXPECT_TRUE(b.Allow());
  EXPECT_EQ(b.probes(), 2u);
}

TEST(PeerBreakerTest, SuccessWhileOpenClosesImmediately) {
  // A contact admitted before the trip can come back successful after
  // the breaker opened; the peer is evidently alive.
  PeerBreaker b(SmallBreaker());
  for (int i = 0; i < 3; ++i) b.RecordFailure();
  ASSERT_EQ(b.state(), PeerBreaker::State::kOpen);
  b.RecordSuccess();
  EXPECT_EQ(b.state(), PeerBreaker::State::kClosed);
}

TEST(BreakerSetTest, PerPeerIsolationAndStableHandles) {
  BreakerSet set(SmallBreaker());
  PeerBreaker* a = set.Get("peer-a");
  PeerBreaker* b = set.Get("peer-b");
  EXPECT_NE(a, b);
  EXPECT_EQ(set.Get("peer-a"), a);  // stable pointer
  for (int i = 0; i < 3; ++i) a->RecordFailure();
  EXPECT_EQ(a->state(), PeerBreaker::State::kOpen);
  EXPECT_EQ(b->state(), PeerBreaker::State::kClosed);
  auto open = set.OpenPeers();
  ASSERT_EQ(open.size(), 1u);
  EXPECT_EQ(open[0], "peer-a");
}

// -------------------------------------------------------- RetryBudget

TEST(RetryBudgetTest, DepletesAndCountsDenials) {
  RetryBudget budget(2.0, 0.5);
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_FALSE(budget.TryAcquire());  // 0 tokens left
  EXPECT_EQ(budget.denied(), 1u);
  budget.RecordSuccess();
  budget.RecordSuccess();  // +1.0 total
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_FALSE(budget.TryAcquire());
  EXPECT_EQ(budget.denied(), 2u);
}

TEST(RetryBudgetTest, RefillIsCappedAtCapacity) {
  RetryBudget budget(1.0, 10.0);
  for (int i = 0; i < 5; ++i) budget.RecordSuccess();
  EXPECT_DOUBLE_EQ(budget.tokens(), 1.0);  // never above capacity
}

// ----------------------------------------------- RetryPolicy::BackoffMs

TEST(RetryPolicyTest, NoJitterIsPureExponential) {
  RetryPolicy policy;  // jitter defaults to 0: bit-identical to seed era
  policy.base_backoff_ms = 4.0;
  EXPECT_DOUBLE_EQ(policy.BackoffMs("p", 1), 4.0);
  EXPECT_DOUBLE_EQ(policy.BackoffMs("p", 2), 8.0);
  EXPECT_DOUBLE_EQ(policy.BackoffMs("p", 3), 16.0);
}

TEST(RetryPolicyTest, JitterIsBoundedDeterministicAndDecorrelated) {
  RetryPolicy policy;
  policy.base_backoff_ms = 10.0;
  policy.jitter = 0.5;
  policy.jitter_seed = 99;
  double a1 = policy.BackoffMs("peer-a", 1);
  // Bounded: shaves off at most `jitter` of the exponential wait.
  EXPECT_GT(a1, 10.0 * 0.5 - 1e-9);
  EXPECT_LE(a1, 10.0);
  // Deterministic: same (seed, peer, attempt) replays identically.
  EXPECT_DOUBLE_EQ(a1, policy.BackoffMs("peer-a", 1));
  // Decorrelated: different peers (and attempts) jitter differently, so
  // synchronized retry waves spread out.
  EXPECT_NE(a1, policy.BackoffMs("peer-b", 1));
  EXPECT_NE(2.0 * a1, policy.BackoffMs("peer-a", 2));
  RetryPolicy reseeded = policy;
  reseeded.jitter_seed = 100;
  EXPECT_NE(a1, reseeded.BackoffMs("peer-a", 1));
}

// -------------------------------------------------------- RevereServer

struct ServeFixture {
  PdmsNetwork net;
  PdmsGenReport report;

  explicit ServeFixture(size_t peers = 4, size_t rows = 6) {
    PdmsGenOptions gen;
    gen.topology = Topology::kChain;
    gen.peers = peers;
    gen.rows_per_peer = rows;
    gen.seed = 17;
    auto built = BuildUniversityPdms(&net, gen);
    EXPECT_TRUE(built.ok());
    report = std::move(built).value();
  }
};

TEST(RevereServerTest, AnswersMatchDirectAnswer) {
  ServeFixture fix;
  ServeOptions opts;
  opts.workers = 2;
  RevereServer server(&fix.net, opts);

  auto query = AllCoursesQuery(fix.report, 0);
  piazza::ExecutionStats direct_stats;
  auto direct = fix.net.Answer(query, {}, &direct_stats);
  ASSERT_TRUE(direct.ok());

  ServeRequest req;
  req.query = query;
  ServeResult result = server.SubmitAndWait(std::move(req));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.rows, direct.value());
  EXPECT_TRUE(result.stats.completeness.complete());
  EXPECT_FALSE(result.shed);
  EXPECT_GE(result.service_us, 0.0);

  ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(server.Slo(Lane::kInteractive).completed, 1u);
}

TEST(RevereServerTest, ShedsWhenDeadlineUnmeetableAtAdmission) {
  ServeFixture fix;
  ServeOptions opts;
  opts.workers = 1;
  RevereServer server(&fix.net, opts);
  // The wait estimator is optimistic until it has seen a request (a
  // pessimistic prior would starve a lane forever), so warm it first.
  for (int i = 0; i < 3; ++i) {
    ServeRequest warm;
    warm.query = AllCoursesQuery(fix.report, 0);
    ASSERT_TRUE(server.SubmitAndWait(std::move(warm)).status.ok());
  }
  // Real answers take microseconds, so a 1 ns budget sits far below the
  // learned estimate: unmeetable at admission, shed in O(1).
  ServeRequest req;
  req.query = AllCoursesQuery(fix.report, 0);
  req.deadline_ms = 1e-6;
  ServeResult result = server.SubmitAndWait(std::move(req));
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(result.shed);
  EXPECT_GT(result.retry_after_ms, 0.0);  // honest back-off hint
  ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.shed_unmeetable, 1u);
  EXPECT_EQ(stats.admitted, 3u);
}

TEST(RevereServerTest, ExpiredDeadlineResolvesWithoutService) {
  ServeFixture fix;
  ServeOptions opts;
  opts.workers = 1;
  RevereServer server(&fix.net, opts);
  ServeRequest req;
  req.query = AllCoursesQuery(fix.report, 0);
  req.deadline_ms = 1e-6;  // 1 ns: expired by the time a worker wakes
  ServeResult result = server.SubmitAndWait(std::move(req));
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(result.rows.empty());
  ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(RevereServerTest, InteractiveLaneIsServedBeforeBatch) {
  // One worker, busy with a long answer, while a batch request and then
  // an interactive one queue behind it. The interactive one must start
  // first: it arrived later yet waits less, by about one service time.
  ServeFixture fix(/*peers=*/8, /*rows=*/400);
  ServeOptions opts;
  opts.workers = 1;
  RevereServer server(&fix.net, opts);
  auto submit = [&](Lane lane) {
    ServeRequest req;
    req.query = AllCoursesQuery(fix.report, 0);
    req.lane = lane;
    return server.Submit(std::move(req));
  };
  bool tested = false;
  for (int round = 0; round < 20 && !tested; ++round) {
    auto start = std::chrono::steady_clock::now();
    std::future<ServeResult> blocker = submit(Lane::kInteractive);
    std::future<ServeResult> batch = submit(Lane::kBatch);
    std::future<ServeResult> interactive = submit(Lane::kInteractive);
    double queued_us = std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    ServeResult b = blocker.get();
    ServeResult rb = batch.get();
    ServeResult ri = interactive.get();
    ASSERT_TRUE(b.status.ok() && rb.status.ok() && ri.status.ok());
    // The blocker ran until at least start + its wait + its service. If
    // that is before both requests were queued, the round tests nothing.
    if (b.queue_wait_us + b.service_us <= queued_us) continue;
    tested = true;
    EXPECT_LT(ri.queue_wait_us, rb.queue_wait_us);
  }
  EXPECT_TRUE(tested) << "the blocker never outlasted two submissions";
}

TEST(RevereServerTest, FloodShedsQueueFullAndConservesEveryRequest) {
  ServeFixture fix;
  ServeOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 2;
  RevereServer server(&fix.net, opts);
  constexpr size_t kFlood = 64;
  std::vector<std::future<ServeResult>> futures;
  futures.reserve(kFlood);
  for (size_t i = 0; i < kFlood; ++i) {
    ServeRequest req;
    req.query = AllCoursesQuery(fix.report, i % 4);
    futures.push_back(server.Submit(std::move(req)));
  }
  size_t ok = 0, shed = 0;
  for (auto& f : futures) {
    ServeResult r = f.get();  // every future resolves: nothing lost
    if (r.status.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(r.status.code(), StatusCode::kUnavailable);
      ASSERT_TRUE(r.shed);
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, kFlood);
  // Submitting 64 answers' worth of work into a 2-deep queue with one
  // worker must shed; and whatever was admitted must complete.
  EXPECT_GT(shed, 0u);
  EXPECT_GT(ok, 0u);
  ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.submitted, kFlood);
  EXPECT_EQ(stats.admitted + stats.shed_queue_full + stats.shed_unmeetable,
            kFlood);
  EXPECT_EQ(stats.completed, ok);
  EXPECT_EQ(stats.shed_queue_full + stats.shed_unmeetable, shed);
}

TEST(RevereServerTest, ShutdownShedsNewAndDrainsQueued) {
  ServeFixture fix;
  ServeOptions opts;
  opts.workers = 2;
  auto server = std::make_unique<RevereServer>(&fix.net, opts);
  std::vector<std::future<ServeResult>> futures;
  for (size_t i = 0; i < 8; ++i) {
    ServeRequest req;
    req.query = AllCoursesQuery(fix.report, i % 4);
    futures.push_back(server->Submit(std::move(req)));
  }
  server->Shutdown();
  for (auto& f : futures) {
    ServeResult r = f.get();
    // Everything accepted before Shutdown resolves with a real outcome.
    EXPECT_TRUE(r.status.ok() || r.shed) << r.status.ToString();
  }
  ServeRequest late;
  late.query = AllCoursesQuery(fix.report, 0);
  ServeResult rejected = server->SubmitAndWait(std::move(late));
  EXPECT_EQ(rejected.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(rejected.shed);
  server->Shutdown();  // idempotent
}

TEST(RevereServerTest, BreakersCutContactsToDeadPeers) {
  // Two identical chains with the tail peer down; count injector
  // contacts to the dead peer with breakers off vs on. The breaker arm
  // must contact it far less (R2's >= 90% criterion, relaxed here to
  // >= 50% so the unit test stays robust at small request counts).
  constexpr size_t kRequests = 30;
  auto run = [&](bool breakers, size_t* dead_contacts) -> size_t {
    ServeFixture fix;
    FaultInjector injector(7);
    std::string dead = fix.report.peer_names.back();
    injector.SetDown(dead);
    ServeOptions opts;
    opts.workers = 1;  // sequential: deterministic contact order
    opts.use_breakers = breakers;
    opts.breaker.window = 8;
    opts.breaker.min_samples = 3;
    opts.breaker.probe_after_skips = 16;
      opts.cost.faults = &injector;
    opts.cost.failure_policy = FailurePolicy::kBestEffort;
    opts.cost.retry.max_attempts = 3;
    RevereServer server(&fix.net, opts);
    size_t degraded = 0;
    for (size_t i = 0; i < kRequests; ++i) {
      ServeRequest req;
      req.query = AllCoursesQuery(fix.report, 0);
      ServeResult r = server.SubmitAndWait(std::move(req));
      EXPECT_TRUE(r.status.ok()) << r.status.ToString();
      if (!r.stats.completeness.complete()) ++degraded;
    }
    *dead_contacts = injector.contacts_to(dead);
    if (breakers) {
      // Per-request completeness accounting sums to the breaker set's
      // own suppression count: no skip goes unreported.
      EXPECT_EQ(server.Snapshot().breaker_skips,
                server.breakers()->total_skips());
      auto open = server.breakers()->OpenPeers();
      EXPECT_EQ(open.size(), 1u);
      EXPECT_EQ(open[0], dead);
      EXPECT_GT(server.Snapshot().breaker_skips, 0u);
    }
    return degraded;
  };
  size_t contacts_off = 0, contacts_on = 0;
  size_t degraded_off = run(false, &contacts_off);
  size_t degraded_on = run(true, &contacts_on);
  EXPECT_GT(contacts_off, 0u);
  EXPECT_LT(contacts_on, contacts_off / 2);
  // Honest degradation in both arms: the dead tail's rows are reported
  // missing every time, breakers or not.
  EXPECT_EQ(degraded_off, kRequests);
  EXPECT_EQ(degraded_on, kRequests);
}

TEST(RevereServerTest, ConcurrentStressConservesAndStaysMonotone) {
  // The TSan workload: concurrent clients on both lanes, a flaky fault
  // plan, breakers and the retry budget on, a queue small enough to
  // shed. Asserts the conservation invariant exactly, monotonicity of
  // every counter while the storm runs, and that every future resolves
  // exactly once.
  ServeFixture fix(/*peers=*/5, /*rows=*/4);
  FaultInjector injector(23);
  injector.SetFlaky(fix.report.peer_names[1], 0.4);
  injector.SetDown(fix.report.peer_names.back());
  ServeOptions opts;
  opts.workers = 3;
  opts.queue_capacity = 4;
  opts.breaker.min_samples = 3;
  opts.cost.faults = &injector;
  opts.cost.failure_policy = FailurePolicy::kBestEffort;
  opts.cost.retry.max_attempts = 2;
  RevereServer server(&fix.net, opts);

  std::atomic<bool> monitoring{true};
  std::thread monitor([&] {
    ServerStats prev;
    while (monitoring.load()) {
      ServerStats now = server.Snapshot();
      EXPECT_GE(now.submitted, prev.submitted);
      EXPECT_GE(now.admitted, prev.admitted);
      EXPECT_GE(now.completed, prev.completed);
      EXPECT_GE(now.shed_queue_full, prev.shed_queue_full);
      EXPECT_GE(now.shed_unmeetable, prev.shed_unmeetable);
      EXPECT_GE(now.deadline_exceeded, prev.deadline_exceeded);
      EXPECT_GE(now.failed, prev.failed);
      EXPECT_GE(now.breaker_skips, prev.breaker_skips);
      prev = now;
      std::this_thread::yield();
    }
  });

  constexpr size_t kClients = 6;
  constexpr size_t kPerClient = 25;
  std::atomic<size_t> resolved{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (size_t i = 0; i < kPerClient; ++i) {
        ServeRequest req;
        req.query = AllCoursesQuery(fix.report, (t + i) % 5);
        req.lane = (t + i) % 3 == 0 ? Lane::kBatch : Lane::kInteractive;
        if (i % 7 == 0) req.deadline_ms = 200.0;
        ServeResult r = server.SubmitAndWait(std::move(req));
        // Every outcome is one of the three honest endings.
        ASSERT_TRUE(r.status.ok() ||
                    r.status.code() == StatusCode::kUnavailable ||
                    r.status.code() == StatusCode::kDeadlineExceeded)
            << r.status.ToString();
        resolved.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  monitoring.store(false);
  monitor.join();

  EXPECT_EQ(resolved.load(), kClients * kPerClient);
  ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.submitted, kClients * kPerClient);
  EXPECT_EQ(stats.submitted,
            stats.admitted + stats.shed_queue_full + stats.shed_unmeetable);
  // Idle now: every admitted request reached exactly one terminal state.
  EXPECT_EQ(stats.admitted,
            stats.completed + stats.deadline_exceeded + stats.failed);
  EXPECT_EQ(stats.queue_depth_interactive, 0u);
  EXPECT_EQ(stats.queue_depth_batch, 0u);
  EXPECT_EQ(server.Slo(Lane::kInteractive).completed +
                server.Slo(Lane::kBatch).completed +
                stats.deadline_exceeded + stats.failed,
            stats.admitted);
}

}  // namespace
}  // namespace revere
