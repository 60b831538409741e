// Experiment P2: the reformulation plan cache on the Figure-2
// six-university PDMS.
//
// Three questions, per EXPERIMENTS.md:
//
//   1. Warm-vs-cold: how much reformulation latency does a plan-cache
//      hit save? (Acceptance: >=10x at 100% repeat rate.)
//   2. Hit-rate curve: sweeping the fraction of repeated queries in a
//      served stream from 0% to 100%, the measured hit rate must track
//      the repeat rate monotonically and throughput must rise with it.
//   3. Serving path: Answer over a mixed stream, one query at a time,
//      the end-to-end number a deployment would see.
//
// The workload models a portal serving a query stream: a small "hot
// set" of recurring queries mixed with one-off queries that pin a
// never-repeated course id constant. The cache keys plans by the
// query's template, constants lifted to parameters, so a one-off that
// differs from a hot query only in its constant hits the hot query's
// plan. The repeat-rate sweep therefore gives each one-off its own
// query name, which is part of the template, so it misses; the
// constant-only arm keeps the name and measures the template hits.
// Hot and one-off queries share the same single-atom lookup shape —
// identical reformulation and evaluation cost — so the sweep isolates
// exactly what the cache saves; only the repeat rate varies. Streams
// are drawn from a seeded mt19937: every iteration and every run sees
// the same sequence.
//
// All numbers are single-process reformulation/serving costs — the
// network cost model's simulated milliseconds never touch wall time.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "src/datagen/topology.h"
#include "src/piazza/pdms.h"
#include "src/query/cq.h"

namespace {

using revere::datagen::AllCoursesQuery;
using revere::datagen::BuildUniversityPdms;
using revere::datagen::PdmsGenOptions;
using revere::datagen::PdmsGenReport;
using revere::datagen::Topology;
using revere::piazza::ExecutionStats;
using revere::piazza::PdmsNetwork;
using revere::piazza::PlanCache;
using revere::piazza::ReformulationOptions;
using revere::piazza::ReformulationStats;
using revere::query::ConjunctiveQuery;

bool SmokeRun() { return std::getenv("REVERE_BENCH_SMOKE") != nullptr; }

struct PlanCacheFixture {
  PlanCacheFixture() {
    PdmsGenOptions options;
    options.topology = Topology::kFigure2;
    options.rows_per_peer = SmokeRun() ? 20 : 200;
    options.seed = 2003;
    auto r = BuildUniversityPdms(&net, options);
    if (r.ok()) report = r.value();
    // One hot shape per peer: a network-wide lookup for a specific
    // course id. Same shape as the one-offs below, so a stream's cost
    // differs only in how often reformulation is a cache hit.
    for (size_t p = 0; p < report.peer_names.size(); ++p) {
      hot_set.push_back(LookupQuery(p, "hot" + std::to_string(p)));
    }
  }

  /// "Which title/instructor has course id `id`?" in `peer`'s
  /// vocabulary. Reformulation chases the full mapping closure exactly
  /// like the all-courses query (same atom shape); evaluation is an
  /// indexed point lookup.
  ConjunctiveQuery LookupQuery(size_t peer, const std::string& id,
                               const std::string& name = "q") const {
    std::string text = name + "(T, P) :- " + report.peer_names[peer] + ":" +
                       report.relation_names[peer] + "(\"" + id +
                       "\", T, P)";
    return ConjunctiveQuery::Parse(text).value();
  }

  /// A one-off: a never-repeated course id. With `own_name`, the query
  /// is also named after it, so its template — and plan-cache key — is
  /// new: a guaranteed cold reformulation of hot-set difficulty.
  /// Without, it differs from the hot query at its peer only in the
  /// constant, and hits that query's plan once the hot query has run.
  ConjunctiveQuery UniqueQuery(size_t n, bool own_name = true) const {
    std::string id = "oneoff" + std::to_string(n);
    return LookupQuery(n % report.peer_names.size(), id,
                       own_name ? "q" + id : "q");
  }

  PdmsNetwork net;
  PdmsGenReport report;
  std::vector<ConjunctiveQuery> hot_set;
};

PlanCacheFixture& Fixture() {
  static PlanCacheFixture* fixture = new PlanCacheFixture();
  return *fixture;
}

/// A deterministic stream of `length` queries in which each slot is a
/// hot-set query with probability `repeat_pct`/100, else a fresh
/// one-off (named after its id unless `constant_only`). `salt` keeps
/// one-off ids unique across iterations so they never accidentally
/// warm up.
std::vector<ConjunctiveQuery> MakeStream(const PlanCacheFixture& f,
                                         int repeat_pct, size_t length,
                                         size_t salt,
                                         bool constant_only = false) {
  std::mt19937 rng(12345 + static_cast<uint32_t>(repeat_pct));
  std::uniform_int_distribution<int> coin(0, 99);
  std::uniform_int_distribution<size_t> pick(0, f.hot_set.size() - 1);
  std::vector<ConjunctiveQuery> stream;
  stream.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    if (coin(rng) < repeat_pct) {
      stream.push_back(f.hot_set[pick(rng)]);
    } else {
      stream.push_back(f.UniqueQuery(salt * length + i, !constant_only));
    }
  }
  return stream;
}

void ReportReformulation(benchmark::State& state,
                         const ReformulationStats& stats) {
  state.counters["nodes_expanded"] =
      static_cast<double>(stats.nodes_expanded);
  state.counters["rewritings"] = static_cast<double>(stats.rewritings);
}

// ---------------------------------------------------- warm vs. cold

/// The cache-off baseline: every Reformulate pays the full transitive
/// mapping-closure search. This is the denominator of the >=10x
/// acceptance ratio.
void BM_PlanCache_ColdReformulate(benchmark::State& state) {
  PlanCacheFixture& f = Fixture();
  ConjunctiveQuery q = AllCoursesQuery(f.report, 0);
  ReformulationOptions options;
  options.use_plan_cache = false;
  ReformulationStats stats;
  for (auto _ : state) {
    auto rewritings = f.net.Reformulate(q, options, &stats);
    benchmark::DoNotOptimize(rewritings);
  }
  ReportReformulation(state, stats);
}
BENCHMARK(BM_PlanCache_ColdReformulate);

/// The 100%-repeat-rate hit path: canonicalize, fingerprint, one
/// sharded lookup. Warm-up happens outside the timed loop.
void BM_PlanCache_WarmReformulate(benchmark::State& state) {
  PlanCacheFixture& f = Fixture();
  ConjunctiveQuery q = AllCoursesQuery(f.report, 0);
  f.net.ClearPlanCache();
  benchmark::DoNotOptimize(f.net.Reformulate(q));  // warm the entry
  ReformulationStats stats;
  for (auto _ : state) {
    auto rewritings = f.net.Reformulate(q, {}, &stats);
    benchmark::DoNotOptimize(rewritings);
  }
  ReportReformulation(state, stats);
  state.counters["plan_cache_hit"] =
      static_cast<double>(stats.plan_cache_hits);
}
BENCHMARK(BM_PlanCache_WarmReformulate);

// ------------------------------------------------- repeat-rate sweep

/// Serves a fresh stream per iteration end to end (Answer,
/// reformulation + evaluation) against a cache cleared at iteration
/// start, so the measured hit rate is the steady-state value for the
/// repeat rate in arg0 (percentage of stream slots drawn from the hot
/// set, 0..100), not an artifact of accumulation across iterations.
void RunRepeatRateSweep(benchmark::State& state, bool constant_only) {
  PlanCacheFixture& f = Fixture();
  int repeat_pct = static_cast<int>(state.range(0));
  const size_t kStream = SmokeRun() ? 8 : 64;
  size_t salt = 0;
  uint64_t hits = 0, misses = 0;
  size_t served = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<ConjunctiveQuery> stream =
        MakeStream(f, repeat_pct, kStream, salt++, constant_only);
    f.net.ClearPlanCache();
    PlanCache::Stats before = f.net.PlanCacheStats();
    state.ResumeTiming();
    for (const auto& q : stream) {
      auto rows = f.net.Answer(q);
      benchmark::DoNotOptimize(rows);
    }
    state.PauseTiming();
    PlanCache::Stats after = f.net.PlanCacheStats();
    hits += after.hits - before.hits;
    misses += after.misses - before.misses;
    served += stream.size();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(served));
  state.counters["hit_rate"] =
      hits + misses == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(hits + misses);
  state.counters["queries"] = static_cast<double>(served);
}

/// One-offs with their own query name: each is a new template, so the
/// hit rate tracks the repeat rate.
void BM_PlanCache_RepeatRateSweep(benchmark::State& state) {
  RunRepeatRateSweep(state, /*constant_only=*/false);
}
BENCHMARK(BM_PlanCache_RepeatRateSweep)->DenseRange(0, 100, 25);

/// One-offs that differ from the hot queries only in the constant: past
/// each peer's first query, every one is a template hit with its own
/// constant bound into the stored rewritings.
void BM_PlanCache_ConstantOnlySweep(benchmark::State& state) {
  RunRepeatRateSweep(state, /*constant_only=*/true);
}
BENCHMARK(BM_PlanCache_ConstantOnlySweep)->DenseRange(0, 100, 25);

// ------------------------------------------------------ serving path

/// The sustained-throughput path: Answer over a mixed stream at a fixed
/// 75% repeat rate, one query at a time, cache warm across the whole
/// run — the number a long-lived portal process would see.
void BM_PlanCache_Serving(benchmark::State& state) {
  PlanCacheFixture& f = Fixture();
  const size_t kStream = SmokeRun() ? 8 : 32;
  f.net.ClearPlanCache();
  size_t salt = 0;
  size_t served = 0;
  // Steady-state hit rate = the last iteration's hits/(hits+misses).
  // Every iteration's stream draws the same hot/one-off pattern (the
  // rng is seeded per repeat rate, salt only varies the one-off ids),
  // so once warm this is a constant — independent of how many
  // iterations the benchmark runner chooses.
  uint64_t last_hits = 0, last_misses = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<ConjunctiveQuery> stream = MakeStream(f, 75, kStream, salt++);
    PlanCache::Stats before = f.net.PlanCacheStats();
    state.ResumeTiming();
    for (const ConjunctiveQuery& query : stream) {
      auto result = f.net.Answer(query);
      benchmark::DoNotOptimize(result);
    }
    state.PauseTiming();
    PlanCache::Stats after = f.net.PlanCacheStats();
    last_hits = after.hits - before.hits;
    last_misses = after.misses - before.misses;
    served += stream.size();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(served));
  state.counters["hit_rate"] =
      last_hits + last_misses == 0
          ? 0.0
          : static_cast<double>(last_hits) /
                static_cast<double>(last_hits + last_misses);
}
BENCHMARK(BM_PlanCache_Serving);

}  // namespace
