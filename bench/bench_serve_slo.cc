// Experiment R2: SLOs of the overload-safe serving front end (ISSUE 6)
// on the Figure-2 six-university PDMS.
//
// Three questions, per EXPERIMENTS.md:
//
//   1. Load sweep: closed-loop clients (zero think time) against a
//      fixed worker pool — how do interactive p50/p99, throughput, and
//      the shed rate move as offered concurrency crosses saturation?
//      (Acceptance: the server sheds instead of queueing without bound;
//      whatever it admits, it finishes.)
//   2. Graceful degradation: 2x saturating load plus 20% flaky peers
//      and tight interactive deadlines. Interactive p99 must stay
//      bounded and every submitted request must be accounted exactly
//      (admitted + shed == submitted; completed + deadline_exceeded +
//      failed == admitted).
//   3. Breaker contact cut: same overload with dead peers, breakers on
//      vs off. Open breakers must cut contacts to dead peers by >= 90%
//      (computed from the dead_contacts counters of the two rows).
//
// The workload is the plan-cache bench's serving mix, zipfian-skewed: a
// hot set of per-peer lookups (cached plans after first touch) plus
// never-repeated one-off lookups (guaranteed plan-cache misses), drawn
// from a seeded Rng so every run sees the same stream. Clients are
// closed-loop — each thread submits, waits, submits again — so offered
// load is controlled by the client count, and the queue can never grow
// beyond (clients - workers) even before shedding.
//
// Wall-clock latencies here are real (the serving path is measured end
// to end); the fault model's simulated milliseconds still never touch
// wall time.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/datagen/topology.h"
#include "src/piazza/fault.h"
#include "src/piazza/pdms.h"
#include "src/query/cq.h"
#include "src/serve/server.h"

namespace {

using revere::Rng;
using revere::datagen::BuildUniversityPdms;
using revere::datagen::PdmsGenOptions;
using revere::datagen::PdmsGenReport;
using revere::datagen::Topology;
using revere::piazza::FailurePolicy;
using revere::piazza::FaultInjector;
using revere::piazza::PdmsNetwork;
using revere::query::ConjunctiveQuery;
using revere::serve::Lane;
using revere::serve::LaneSlo;
using revere::serve::RevereServer;
using revere::serve::ServeOptions;
using revere::serve::ServeRequest;
using revere::serve::ServeResult;
using revere::serve::ServerStats;

bool SmokeRun() { return std::getenv("REVERE_BENCH_SMOKE") != nullptr; }

constexpr size_t kWorkers = 2;

struct ServeFixture {
  ServeFixture() {
    PdmsGenOptions options;
    options.topology = Topology::kFigure2;
    options.rows_per_peer = SmokeRun() ? 10 : 60;
    options.seed = 2003;
    auto r = BuildUniversityPdms(&net, options);
    if (r.ok()) report = r.value();
    for (size_t p = 0; p < report.peer_names.size(); ++p) {
      hot_set.push_back(LookupQuery(p, "hot" + std::to_string(p)));
    }
  }

  ConjunctiveQuery LookupQuery(size_t peer, const std::string& id) const {
    std::string text = "q(T, P) :- " + report.peer_names[peer] + ":" +
                       report.relation_names[peer] + "(\"" + id + "\", T, P)";
    return ConjunctiveQuery::Parse(text).value();
  }

  /// Zipf-skewed serving mix: mostly hot-set queries (rank drawn with
  /// theta = 0.9), occasionally a fresh one-off that can never hit the
  /// plan cache. `salt` keeps one-off ids globally unique.
  ConjunctiveQuery Draw(Rng* rng, size_t salt) const {
    if (rng->Bernoulli(0.2)) {
      return LookupQuery(salt % report.peer_names.size(),
                         "oneoff" + std::to_string(salt));
    }
    return hot_set[rng->Zipf(hot_set.size(), 0.9)];
  }

  PdmsNetwork net;
  PdmsGenReport report;
  std::vector<ConjunctiveQuery> hot_set;
};

ServeFixture& Fixture() {
  static ServeFixture* fixture = new ServeFixture();
  return *fixture;
}

struct StormResult {
  ServerStats stats;
  LaneSlo interactive;
  LaneSlo batch;
  size_t degraded = 0;  // ok results with an incomplete answer
  double wall_seconds = 0.0;
};

/// Runs `clients` closed-loop threads, each firing `per_client`
/// requests back to back, and snapshots the server afterwards.
StormResult RunStorm(RevereServer* server, const ServeFixture& f,
                     size_t clients, size_t per_client, double deadline_ms,
                     double batch_fraction, uint64_t seed) {
  std::atomic<size_t> degraded{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  auto start = std::chrono::steady_clock::now();
  for (size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(seed + 1000 * t);
      for (size_t i = 0; i < per_client; ++i) {
        ServeRequest req;
        req.query = f.Draw(&rng, t * per_client + i);
        bool batch = rng.UniformDouble() < batch_fraction;
        req.lane = batch ? Lane::kBatch : Lane::kInteractive;
        // Only interactive traffic carries the tight deadline; batch
        // work is deadline-free and rides the low-priority lane.
        if (!batch && deadline_ms > 0.0) req.deadline_ms = deadline_ms;
        ServeResult r = server->SubmitAndWait(std::move(req));
        if (r.status.ok() && !r.stats.completeness.complete()) {
          degraded.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  StormResult out;
  out.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  out.stats = server->Snapshot();
  out.interactive = server->Slo(Lane::kInteractive);
  out.batch = server->Slo(Lane::kBatch);
  out.degraded = degraded.load();
  return out;
}

bool AccountingExact(const ServerStats& s, size_t submitted) {
  return s.submitted == submitted &&
         s.submitted ==
             s.admitted + s.shed_queue_full + s.shed_unmeetable &&
         s.admitted == s.completed + s.deadline_exceeded + s.failed;
}

void ReportStorm(benchmark::State& state, const StormResult& r) {
  const ServerStats& s = r.stats;
  double submitted = static_cast<double>(s.submitted);
  state.counters["qps"] =
      r.wall_seconds > 0.0
          ? static_cast<double>(s.completed) / r.wall_seconds
          : 0.0;
  state.counters["interactive_p50_us"] = r.interactive.p50_us;
  state.counters["interactive_p99_us"] = r.interactive.p99_us;
  state.counters["batch_p99_us"] = r.batch.p99_us;
  state.counters["shed_rate"] =
      submitted > 0.0
          ? static_cast<double>(s.shed_queue_full + s.shed_unmeetable) /
                submitted
          : 0.0;
  state.counters["deadline_rate"] =
      submitted > 0.0 ? static_cast<double>(s.deadline_exceeded) / submitted
                      : 0.0;
  state.counters["degraded"] = static_cast<double>(r.degraded);
  state.counters["breaker_skips"] = static_cast<double>(s.breaker_skips);
}

// ------------------------------------------------------- 1. load sweep

/// arg0: closed-loop client count. kWorkers workers throughout, so the
/// saturation knee sits at arg0 == kWorkers; beyond it the queue and
/// then the shed rate absorb the excess.
void BM_ServeSlo_LoadSweep(benchmark::State& state) {
  ServeFixture& f = Fixture();
  size_t clients = static_cast<size_t>(state.range(0));
  size_t per_client = SmokeRun() ? 4 : 40;
  size_t storms = 0;
  StormResult last;
  for (auto _ : state) {
    ServeOptions opts;
    opts.workers = kWorkers;
    opts.queue_capacity = 8;
    RevereServer server(&f.net, opts);
    last = RunStorm(&server, f, clients, per_client, /*deadline_ms=*/0.0,
                    /*batch_fraction=*/0.25, /*seed=*/7 + storms);
    ++storms;
    benchmark::DoNotOptimize(last.stats.completed);
  }
  ReportStorm(state, last);
  state.counters["accounting_exact"] =
      AccountingExact(last.stats, clients * per_client) ? 1.0 : 0.0;
  state.SetItemsProcessed(
      static_cast<int64_t>(storms * clients * per_client));
}
BENCHMARK(BM_ServeSlo_LoadSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// --------------------------------------- 2. graceful degradation at 2x

/// 2x saturating closed-loop load (4 clients on 2 workers), 20% of
/// peers flaky (40% drop rate), tight interactive deadlines. This is
/// the R2 acceptance row: p99 bounded by the deadline + one service
/// time, exact accounting, honest CompletenessReports.
void BM_ServeSlo_GracefulDegradation(benchmark::State& state) {
  ServeFixture& f = Fixture();
  size_t clients = 2 * kWorkers;
  size_t per_client = SmokeRun() ? 4 : 50;
  size_t storms = 0;
  StormResult last;
  for (auto _ : state) {
    FaultInjector injector(41 + storms);
    // "20% flaky peers": 1-2 of the six universities drop 40% of
    // contacts (seeded, so every run flakes the same peers).
    injector.InjectFraction(f.report.peer_names, 0.2,
                            {revere::piazza::FaultMode::kFlaky, 0.4, 0.0});
    ServeOptions opts;
    opts.workers = kWorkers;
    opts.queue_capacity = 8;
    opts.breaker.min_samples = 4;
    opts.cost.faults = &injector;
    opts.cost.failure_policy = FailurePolicy::kBestEffort;
    opts.cost.retry.max_attempts = 2;
    opts.cost.retry.jitter = 0.5;  // decorrelate the retry waves
    opts.cost.retry.jitter_seed = 17;
    RevereServer server(&f.net, opts);
    // ~10x the typical end-to-end latency: loose enough that most
    // requests make it, tight enough that overload actually trips the
    // unmeetable-shed and deadline-exceeded paths being measured.
    last = RunStorm(&server, f, clients, per_client, /*deadline_ms=*/0.25,
                    /*batch_fraction=*/0.25, /*seed=*/100 + storms);
    ++storms;
    benchmark::DoNotOptimize(last.stats.completed);
  }
  ReportStorm(state, last);
  state.counters["accounting_exact"] =
      AccountingExact(last.stats, clients * per_client) ? 1.0 : 0.0;
  state.SetItemsProcessed(
      static_cast<int64_t>(storms * clients * per_client));
}
BENCHMARK(BM_ServeSlo_GracefulDegradation);

// ------------------------------------------- 3. breaker contact cut

/// arg0: breakers on (1) / off (0). One university is down; every
/// request's reformulation still reaches it. The dead_contacts counter
/// is the R2 numerator: on-row contacts must be <= 10% of the off-row's
/// (>= 90% cut).
void BM_ServeSlo_BreakerContactCut(benchmark::State& state) {
  ServeFixture& f = Fixture();
  bool breakers = state.range(0) == 1;
  size_t clients = 2 * kWorkers;
  size_t per_client = SmokeRun() ? 4 : 50;
  size_t storms = 0;
  size_t dead_contacts = 0, requests = 0;
  StormResult last;
  for (auto _ : state) {
    FaultInjector injector(5);
    const std::string& dead = f.report.peer_names.back();
    injector.SetDown(dead);
    ServeOptions opts;
    opts.workers = kWorkers;
    opts.queue_capacity = 8;
    opts.use_breakers = breakers;
    opts.breaker.min_samples = 4;
    opts.breaker.probe_after_skips = 32;
    opts.cost.faults = &injector;
    opts.cost.failure_policy = FailurePolicy::kBestEffort;
    opts.cost.retry.max_attempts = 3;
    RevereServer server(&f.net, opts);
    last = RunStorm(&server, f, clients, per_client, /*deadline_ms=*/0.0,
                    /*batch_fraction=*/0.0, /*seed=*/55 + storms);
    ++storms;
    dead_contacts += injector.contacts_to(dead);
    requests += clients * per_client;
  }
  ReportStorm(state, last);
  state.counters["dead_contacts"] =
      static_cast<double>(dead_contacts) / static_cast<double>(storms);
  state.counters["dead_contacts_per_req"] =
      requests > 0
          ? static_cast<double>(dead_contacts) / static_cast<double>(requests)
          : 0.0;
  state.SetItemsProcessed(static_cast<int64_t>(requests));
}
BENCHMARK(BM_ServeSlo_BreakerContactCut)->Arg(0)->Arg(1);

}  // namespace
