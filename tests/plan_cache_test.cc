// Tests for ISSUE 3: the reformulation plan cache. Covers the PlanCache
// container itself (LRU within capacity, validator staleness), the
// PdmsNetwork integration (hits report the cached run's real stats,
// mapping changes invalidate, answers are byte-identical cache-on vs
// cache-off — with and without faults, for any worker count). The
// concurrent stress tests at the bottom, concurrent Answer calls
// included, are the TSan workload for the sharded shared_mutex design:
// build with -DREVERE_SANITIZE=thread and run plan_cache_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/common/strings.h"
#include "src/common/thread_pool.h"
#include "src/datagen/topology.h"
#include "src/obs/metrics.h"
#include "src/piazza/fault.h"
#include "src/piazza/pdms.h"
#include "src/piazza/plan_cache.h"
#include "src/query/cq.h"
#include "src/query/evaluate.h"
#include "src/query/glav.h"
#include "src/storage/table.h"

namespace revere::piazza {
namespace {

using datagen::AllCoursesQuery;
using datagen::BuildUniversityPdms;
using datagen::PdmsGenOptions;
using datagen::PdmsGenReport;
using datagen::Topology;
using query::ConjunctiveQuery;

// --------------------------------------------------- PlanCache (unit)

std::shared_ptr<const CachedPlan> MakePlan(size_t marker) {
  auto plan = std::make_shared<CachedPlan>();
  plan->stats.rewritings = marker;  // distinguishes plans in asserts
  return plan;
}

void Put(PlanCache* cache, const std::string& key,
         std::shared_ptr<const CachedPlan> plan) {
  cache->Insert(Fnv1a64(key), key, std::move(plan));
}

std::shared_ptr<const CachedPlan> Get(
    PlanCache* cache, const std::string& key,
    const std::function<bool(const CachedPlan&)>& validator = nullptr) {
  return cache->Lookup(Fnv1a64(key), key, validator);
}

TEST(PlanCacheTest, StoresAndReturnsPlans) {
  PlanCache cache(4, 1);
  EXPECT_EQ(cache.capacity(), 4u);
  EXPECT_EQ(cache.shard_count(), 1u);
  EXPECT_EQ(Get(&cache, "a"), nullptr);
  Put(&cache, "a", MakePlan(7));
  auto hit = Get(&cache, "a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->stats.rewritings, 7u);
  PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsedAtCapacity) {
  PlanCache cache(2, 1);  // one shard => exact LRU
  Put(&cache, "a", MakePlan(1));
  Put(&cache, "b", MakePlan(2));
  ASSERT_NE(Get(&cache, "a"), nullptr);  // a is now more recent than b
  Put(&cache, "c", MakePlan(3));         // evicts b
  EXPECT_NE(Get(&cache, "a"), nullptr);
  EXPECT_EQ(Get(&cache, "b"), nullptr);
  EXPECT_NE(Get(&cache, "c"), nullptr);
  PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(PlanCacheTest, ReinsertReplacesWithoutEviction) {
  PlanCache cache(2, 1);
  Put(&cache, "a", MakePlan(1));
  Put(&cache, "a", MakePlan(9));
  auto hit = Get(&cache, "a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->stats.rewritings, 9u);
  EXPECT_EQ(cache.GetStats().evictions, 0u);
  EXPECT_EQ(cache.GetStats().entries, 1u);
}

// The validator is the cache's only freshness check (PdmsNetwork passes
// its per-peer scope check). Here plan 1 plays the scope-stale plan.
TEST(PlanCacheTest, ValidatorRejectionIsAMissAndLruStillEvicts) {
  auto fresh = [](const CachedPlan& p) { return p.stats.rewritings != 1; };

  // A rejected entry counts as a miss and keeps its old recency: it is
  // still the least recently used entry when the shard fills up.
  PlanCache cache(2, 1);  // one shard => exact LRU
  Put(&cache, "a", MakePlan(1));
  Put(&cache, "b", MakePlan(2));
  EXPECT_EQ(Get(&cache, "a", fresh), nullptr);
  PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 2u);  // rejected, not erased
  Put(&cache, "c", MakePlan(3));
  EXPECT_EQ(cache.GetStats().evictions, 1u);
  EXPECT_EQ(Get(&cache, "a"), nullptr);
  EXPECT_NE(Get(&cache, "b", fresh), nullptr);
  EXPECT_NE(Get(&cache, "c", fresh), nullptr);

  // Re-inserting the key replaces the scope-stale plan in place.
  PlanCache replace(2, 1);
  Put(&replace, "a", MakePlan(1));
  ASSERT_EQ(Get(&replace, "a", fresh), nullptr);
  Put(&replace, "a", MakePlan(5));
  auto hit = Get(&replace, "a", fresh);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->stats.rewritings, 5u);
  EXPECT_EQ(replace.GetStats().entries, 1u);
  EXPECT_EQ(replace.GetStats().evictions, 0u);

  // A full shard evicts by recency alone: a recently used scope-stale
  // entry outlives an older fresh one.
  PlanCache lru(2, 1);
  Put(&lru, "b", MakePlan(2));
  Put(&lru, "a", MakePlan(1));
  ASSERT_EQ(Get(&lru, "a", fresh), nullptr);
  Put(&lru, "c", MakePlan(3));  // evicts b
  EXPECT_EQ(Get(&lru, "b"), nullptr);
  EXPECT_NE(Get(&lru, "a"), nullptr);
  EXPECT_NE(Get(&lru, "c"), nullptr);
}

TEST(PlanCacheTest, ZeroCapacityDisables) {
  PlanCache cache(0, 8);
  Put(&cache, "a", MakePlan(1));
  EXPECT_EQ(Get(&cache, "a"), nullptr);
  EXPECT_EQ(cache.GetStats().entries, 0u);
  EXPECT_EQ(cache.GetStats().insertions, 0u);
}

TEST(PlanCacheTest, ClearDropsEntriesKeepsCounters) {
  PlanCache cache(8, 2);
  Put(&cache, "a", MakePlan(1));
  ASSERT_NE(Get(&cache, "a"), nullptr);
  cache.Clear();
  EXPECT_EQ(Get(&cache, "a"), nullptr);
  PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 1u);  // counters survive Clear
}

TEST(PlanCacheTest, EvictedPlanStaysValidForHolders) {
  PlanCache cache(1, 1);
  Put(&cache, "a", MakePlan(42));
  auto held = Get(&cache, "a");
  Put(&cache, "b", MakePlan(1));  // evicts a
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->stats.rewritings, 42u);  // shared_ptr keeps it alive
}

// ------------------------------------------- network integration

PdmsGenReport BuildFig2(PdmsNetwork* net, size_t rows_per_peer = 40) {
  PdmsGenOptions options;
  options.topology = Topology::kFigure2;
  options.rows_per_peer = rows_per_peer;
  options.seed = 2003;
  auto report = BuildUniversityPdms(net, options);
  EXPECT_TRUE(report.ok());
  return report.value();
}

TEST(NetworkPlanCacheTest, RepeatedReformulationHitsTheCache) {
  PdmsNetwork net;
  PdmsGenReport report = BuildFig2(&net, 5);
  ConjunctiveQuery q = AllCoursesQuery(report, 0);

  ReformulationStats cold;
  auto first = net.Reformulate(q, {}, &cold);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cold.plan_cache_hits, 0u);
  EXPECT_EQ(cold.plan_cache_misses, 1u);
  ASSERT_GT(cold.nodes_expanded, 0u);

  ReformulationStats warm;
  auto second = net.Reformulate(q, {}, &warm);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(warm.plan_cache_hits, 1u);
  EXPECT_EQ(warm.plan_cache_misses, 0u);
  // The hit reports the cached run's real search counters, never zeros.
  EXPECT_EQ(warm.nodes_expanded, cold.nodes_expanded);
  EXPECT_EQ(warm.rewritings, cold.rewritings);
  EXPECT_EQ(first.value(), second.value());

  PlanCache::Stats stats = net.PlanCacheStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(NetworkPlanCacheTest, AlphaEquivalentQueriesShareOneEntry) {
  PdmsNetwork net;
  PdmsGenReport report = BuildFig2(&net, 5);
  ConjunctiveQuery q = AllCoursesQuery(report, 0);
  // Same query with fresh variable names: one cache entry, one hit.
  ConjunctiveQuery renamed = q.RenameVars("zz_");
  ASSERT_TRUE(net.Reformulate(q).ok());
  ReformulationStats warm;
  auto rewritings = net.Reformulate(renamed, {}, &warm);
  ASSERT_TRUE(rewritings.ok());
  EXPECT_EQ(warm.plan_cache_hits, 1u);
  EXPECT_EQ(net.PlanCacheStats().entries, 1u);
}

// Route-mode plan keys carry the cost budget exactly: two budgets that
// agree to six decimals must still get separate plans, or a cached
// plan answers for a budget it was not searched under.
TEST(NetworkPlanCacheTest, NearbyCostBudgetsGetSeparatePlans) {
  PdmsNetwork net;
  PdmsGenOptions options;
  options.topology = Topology::kChain;
  options.peers = 6;
  options.rows_per_peer = 2;
  options.seed = 2003;
  auto report = BuildUniversityPdms(&net, options);
  ASSERT_TRUE(report.ok());
  ConjunctiveQuery q = AllCoursesQuery(report.value(), 0);
  auto answer_rows = [&](double budget, bool use_cache) -> size_t {
    ReformulationOptions reform;
    reform.use_route_search = true;
    reform.max_depth = 8;
    reform.max_path_cost = budget;
    reform.use_plan_cache = use_cache;
    auto rows = net.Answer(q, reform);
    EXPECT_TRUE(rows.ok());
    return rows.ok() ? rows.value().size() : 0;
  };
  const size_t wide = answer_rows(2.0, false);
  const size_t narrow = answer_rows(1.9999999, false);
  ASSERT_LT(narrow, wide);  // the two budgets really reach different peers
  EXPECT_EQ(answer_rows(2.0, true), wide);
  EXPECT_EQ(answer_rows(1.9999999, true), narrow);
}

TEST(NetworkPlanCacheTest, DifferentOptionsGetDifferentEntries) {
  PdmsNetwork net;
  PdmsGenReport report = BuildFig2(&net, 5);
  ConjunctiveQuery q = AllCoursesQuery(report, 0);
  ASSERT_TRUE(net.Reformulate(q).ok());
  ReformulationOptions shallow;
  shallow.max_depth = 2;
  ReformulationStats stats;
  ASSERT_TRUE(net.Reformulate(q, shallow, &stats).ok());
  EXPECT_EQ(stats.plan_cache_hits, 0u);  // distinct key: options differ
  EXPECT_EQ(net.PlanCacheStats().entries, 2u);
}

TEST(NetworkPlanCacheTest, MappingChangeInvalidatesCachedPlans) {
  PdmsNetwork net;
  ASSERT_TRUE(net.AddPeer("a").ok());
  ASSERT_TRUE(net.AddPeer("b").ok());
  ASSERT_TRUE(net
                  .AddStoredRelation(
                      "a", storage::TableSchema::AllStrings("r", {"x"}))
                  .ok());
  ASSERT_TRUE(net
                  .AddStoredRelation(
                      "b", storage::TableSchema::AllStrings("s", {"x"}))
                  .ok());
  ASSERT_TRUE(net.mutable_storage()
                  ->GetTable("a:r")
                  .value()
                  ->Insert({storage::Value("from-a")})
                  .ok());
  ASSERT_TRUE(net.mutable_storage()
                  ->GetTable("b:s")
                  .value()
                  ->Insert({storage::Value("from-b")})
                  .ok());

  auto q = ConjunctiveQuery::Parse("q(X) :- b:s(X)");
  ASSERT_TRUE(q.ok());
  uint64_t gen_before = net.plan_generation();
  auto before = net.Answer(q.value());
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().size(), 1u);  // only b's own row
  // Warm: this query's plan is now cached.
  ASSERT_TRUE(net.Answer(q.value()).ok());

  // New mapping makes a's data reachable from b. The cached plan (which
  // predates the mapping) must not be served.
  auto glav = query::GlavMapping::Parse(
      "m(X) :- a:r(X) => m(X) :- b:s(X)", "a2b");
  ASSERT_TRUE(glav.ok());
  ASSERT_TRUE(
      net.AddMapping(PeerMapping{glav.value(), "a", "b", false}).ok());
  EXPECT_GT(net.plan_generation(), gen_before);

  ExecutionStats stats;
  auto after = net.Answer(q.value(), {}, &stats);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(stats.plan_cache_hits, 0u);  // stale entry == miss
  EXPECT_EQ(after.value().size(), 2u);   // now sees a's row too
}

TEST(NetworkPlanCacheTest, SetCapacityAndClearResetEntries) {
  PdmsNetwork net;
  PdmsGenReport report = BuildFig2(&net, 5);
  ConjunctiveQuery q = AllCoursesQuery(report, 0);
  ASSERT_TRUE(net.Reformulate(q).ok());
  EXPECT_EQ(net.PlanCacheStats().entries, 1u);
  net.ClearPlanCache();
  EXPECT_EQ(net.PlanCacheStats().entries, 0u);
  net.SetPlanCacheCapacity(0);
  EXPECT_EQ(net.plan_cache_capacity(), 0u);
  ReformulationStats stats;
  ASSERT_TRUE(net.Reformulate(q, {}, &stats).ok());
  // Disabled cache: neither a hit nor a recorded miss.
  EXPECT_EQ(stats.plan_cache_hits, 0u);
  EXPECT_EQ(stats.plan_cache_misses, 0u);
  EXPECT_EQ(net.PlanCacheStats().entries, 0u);
}

// The hard contract: answers are byte-identical with the cache on or
// off, cold or warm, for any worker count — including under faults.
TEST(NetworkPlanCacheTest, AnswersByteIdenticalCacheOnVsOff) {
  PdmsNetwork net;
  PdmsGenReport report = BuildFig2(&net);

  ReformulationOptions uncached;
  uncached.use_plan_cache = false;

  for (size_t peer : {0u, 2u, 5u}) {
    ConjunctiveQuery q = AllCoursesQuery(report, peer);
    auto reference = net.Answer(q, uncached);
    ASSERT_TRUE(reference.ok());
    for (size_t workers : {1u, 2u, 8u}) {
      ThreadPool pool(workers);
      NetworkCostModel cost;
      cost.eval.pool = &pool;
      auto cold = net.Answer(q, {}, nullptr, cost);  // may insert
      auto warm = net.Answer(q, {}, nullptr, cost);  // must hit
      ASSERT_TRUE(cold.ok());
      ASSERT_TRUE(warm.ok());
      EXPECT_EQ(reference.value(), cold.value()) << workers << " workers";
      EXPECT_EQ(reference.value(), warm.value()) << workers << " workers";
    }
  }
}

TEST(NetworkPlanCacheTest, AnswersByteIdenticalUnderFaults) {
  PdmsNetwork net;
  PdmsGenReport report = BuildFig2(&net);
  ConjunctiveQuery q = AllCoursesQuery(report, 0);

  auto run = [&](bool use_cache, ExecutionStats* stats) {
    FaultInjector faults(77);
    faults.SetDown(report.peer_names[3]);
    faults.SetFlaky(report.peer_names[1], 0.5);
    NetworkCostModel cost;
    cost.faults = &faults;
    cost.failure_policy = FailurePolicy::kBestEffort;
    cost.retry.max_attempts = 3;
    ReformulationOptions options;
    options.use_plan_cache = use_cache;
    return net.Answer(q, options, stats, cost);
  };

  ExecutionStats off_stats;
  auto off = run(false, &off_stats);
  ASSERT_TRUE(off.ok());
  ExecutionStats cold_stats, warm_stats;
  auto cold = run(true, &cold_stats);
  auto warm = run(true, &warm_stats);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm_stats.plan_cache_hits, 1u);
  EXPECT_EQ(off.value(), cold.value());
  EXPECT_EQ(off.value(), warm.value());
  // Fault accounting draws from the injector RNG in rewriting order;
  // serving the plan from cache must not perturb the stream.
  EXPECT_EQ(off_stats.completeness.contacts_failed,
            warm_stats.completeness.contacts_failed);
  EXPECT_EQ(off_stats.completeness.rewritings_skipped,
            warm_stats.completeness.rewritings_skipped);
  EXPECT_DOUBLE_EQ(off_stats.simulated_network_ms,
                   warm_stats.simulated_network_ms);
}

TEST(NetworkPlanCacheTest, ProvenanceIdenticalCacheOnVsOff) {
  PdmsNetwork net;
  PdmsGenReport report = BuildFig2(&net, 10);
  ConjunctiveQuery q = AllCoursesQuery(report, 1);
  ReformulationOptions uncached;
  uncached.use_plan_cache = false;
  auto off = net.AnswerWithProvenance(q, uncached);
  ASSERT_TRUE(off.ok());
  ASSERT_TRUE(net.AnswerWithProvenance(q).ok());  // warm the cache
  ExecutionStats stats;
  auto warm = net.AnswerWithProvenance(q, {}, &stats);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(stats.plan_cache_hits, 1u);
  ASSERT_EQ(off.value().size(), warm.value().size());
  for (size_t i = 0; i < off.value().size(); ++i) {
    EXPECT_EQ(off.value()[i].row, warm.value()[i].row);
    EXPECT_EQ(off.value()[i].peers, warm.value()[i].peers);
  }
}

// ------------------------------------------------ parameterized plans

// "Which title and instructor has course `id`?" in `peer`'s vocabulary.
ConjunctiveQuery PointLookup(const PdmsGenReport& report, size_t peer,
                             const std::string& id) {
  return ConjunctiveQuery::Parse(
             "q(T, P) :- " +
             QualifiedName(report.peer_names[peer],
                           report.relation_names[peer]) +
             "(\"" + id + "\", T, P)")
      .value();
}

// The first `n` course ids stored at `peer`, with their (title,
// instructor) rows.
std::vector<std::pair<std::string, storage::Row>> StoredIds(
    const PdmsNetwork& net, const PdmsGenReport& report, size_t peer,
    size_t n) {
  auto table = net.storage().GetTable(QualifiedName(
      report.peer_names[peer], report.relation_names[peer]));
  EXPECT_TRUE(table.ok());
  auto snap = table.value()->Snapshot();
  std::vector<std::pair<std::string, storage::Row>> ids;
  for (size_t r = 0; r < snap->size() && ids.size() < n; ++r) {
    const storage::Row& row = snap->row(r);
    ids.emplace_back(row[0].as_string(), storage::Row{row[1], row[2]});
  }
  EXPECT_EQ(ids.size(), n);
  return ids;
}

ReformulationOptions Uncached() {
  ReformulationOptions options;
  options.use_plan_cache = false;
  return options;
}

// Point lookups that differ only in the id share one template entry:
// the second is a hit whose rewritings, stats and rows equal the
// cache-off search for its own id.
TEST(ParameterizedPlanTest, PointLookupsWithDifferentIdsShareOneEntry) {
  PdmsNetwork net;
  PdmsGenReport report = BuildFig2(&net, 20);
  auto ids = StoredIds(net, report, 0, 2);
  for (size_t i = 0; i < ids.size(); ++i) {
    ConjunctiveQuery q = PointLookup(report, 0, ids[i].first);
    ExecutionStats stats;
    auto rows = net.Answer(q, {}, &stats);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(stats.plan_cache_hits, i);
    EXPECT_EQ(stats.plan_cache_misses, 1 - i);
    EXPECT_NE(std::find(rows.value().begin(), rows.value().end(),
                        ids[i].second),
              rows.value().end());
    EXPECT_EQ(rows.value(), net.Answer(q, Uncached()).value());

    ReformulationStats warm, cold;
    auto cached = net.Reformulate(q, {}, &warm);
    auto uncached = net.Reformulate(q, Uncached(), &cold);
    ASSERT_TRUE(cached.ok());
    ASSERT_TRUE(uncached.ok());
    EXPECT_EQ(warm.plan_cache_hits, 1u);
    ASSERT_EQ(cached.value().size(), uncached.value().size());
    for (size_t r = 0; r < cached.value().size(); ++r) {
      EXPECT_EQ(cached.value()[r].ToString(), uncached.value()[r].ToString());
    }
    EXPECT_EQ(warm.nodes_expanded, cold.nodes_expanded);
    EXPECT_EQ(warm.pruned_duplicates, cold.pruned_duplicates);
    EXPECT_EQ(warm.pruned_unreachable, cold.pruned_unreachable);
    EXPECT_EQ(warm.rewritings, cold.rewritings);
  }
  EXPECT_EQ(net.PlanCacheStats().entries, 1u);
}

// A mapping that carries a constant makes the rewriting set depend on
// the query's constant: each value keeps its own plan, reached through
// the template entry, so alternating values keep hitting.
TEST(ParameterizedPlanTest, MappingConstantKeysPlansByValue) {
  PdmsNetwork net;
  ASSERT_TRUE(net.AddPeer("a").ok());
  ASSERT_TRUE(net.AddPeer("b").ok());
  auto table =
      net.AddStoredRelation("a", storage::TableSchema::AllStrings("s", {"t"}));
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Insert({storage::Value("t1")}).ok());
  auto glav = query::GlavMapping::Parse(
      "m(T) :- a:s(T) => m(T) :- b:r(\"c1\", T)", "a2b");
  ASSERT_TRUE(glav.ok());
  ASSERT_TRUE(net.AddMapping(PeerMapping{glav.value(), "a", "b", false}).ok());

  // Several constants, so value entries spread over the cache's shards.
  std::vector<ConjunctiveQuery> queries;
  for (const char* c : {"c1", "c2", "c3", "c4", "c5", "c6"}) {
    queries.push_back(
        ConjunctiveQuery::Parse("q(T) :- b:r(\"" + std::string(c) + "\", T)")
            .value());
  }
  std::vector<std::vector<storage::Row>> expected;
  for (const auto& q : queries) {
    expected.push_back(net.Answer(q, Uncached()).value());
  }
  EXPECT_EQ(expected[0], std::vector<storage::Row>{{storage::Value("t1")}});
  for (size_t i = 1; i < expected.size(); ++i) EXPECT_TRUE(expected[i].empty());

  for (size_t round = 0; round < 4; ++round) {
    for (size_t i = 0; i < queries.size(); ++i) {
      ExecutionStats stats;
      auto rows = net.Answer(queries[i], {}, &stats);
      ASSERT_TRUE(rows.ok());
      EXPECT_EQ(rows.value(), expected[i]) << "round " << round;
      EXPECT_EQ(stats.plan_cache_hits, round == 0 ? 0u : 1u)
          << "round " << round << " query " << i;
    }
  }
  // The template entry plus one value entry per constant.
  EXPECT_EQ(net.PlanCacheStats().entries, 1 + queries.size());
}

// A repeated constant repeats its parameter, so the key keeps the
// equality: r("a", "a") and r("a", "b") are different templates, while
// r("b", "b") shares r("a", "a")'s.
TEST(ParameterizedPlanTest, RepeatedConstantsAreDifferentTemplates) {
  PdmsNetwork net;
  ASSERT_TRUE(net.AddPeer("a").ok());
  auto table = net.AddStoredRelation(
      "a", storage::TableSchema::AllStrings("r", {"x", "y", "z"}));
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)
                  ->InsertAll({{storage::Value("a"), storage::Value("a"),
                                storage::Value("z1")},
                               {storage::Value("a"), storage::Value("b"),
                                storage::Value("z2")},
                               {storage::Value("b"), storage::Value("b"),
                                storage::Value("z3")}})
                  .ok());
  const char* texts[] = {"q(Z) :- a:r(\"a\", \"a\", Z)",
                         "q(Z) :- a:r(\"a\", \"b\", Z)",
                         "q(Z) :- a:r(\"b\", \"b\", Z)"};
  const size_t want_hits[] = {0, 0, 1};
  const char* want_rows[] = {"z1", "z2", "z3"};
  for (size_t i = 0; i < 3; ++i) {
    ConjunctiveQuery q = ConjunctiveQuery::Parse(texts[i]).value();
    ExecutionStats stats;
    auto rows = net.Answer(q, {}, &stats);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(stats.plan_cache_hits, want_hits[i]) << texts[i];
    EXPECT_EQ(rows.value(),
              std::vector<storage::Row>{{storage::Value(want_rows[i])}});
    EXPECT_EQ(rows.value(), net.Answer(q, Uncached()).value());
  }
  EXPECT_EQ(net.PlanCacheStats().entries, 2u);
}

// ---------------------------------------------------- prepared plans

// Hits stay prepared: after one warm-up, point lookups with ids no
// earlier query used bind the cached programs into their six
// rewritings and never prepare one.
TEST(PreparedPlanTest, HitsBindWithoutPreparing) {
  PdmsNetwork net;
  PdmsGenReport report = BuildFig2(&net, 200);
  std::vector<std::pair<std::string, storage::Row>> ids;
  for (size_t p = 0; p < report.peer_names.size(); ++p) {
    for (auto& id : StoredIds(net, report, p, 200)) ids.push_back(id);
  }
  ASSERT_GT(ids.size(), 1000u);
  ASSERT_TRUE(net.Answer(PointLookup(report, 0, ids[0].first)).ok());
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
  obs::Counter* prepares = metrics.GetCounter("columnar.prepares");
  obs::Counter* queries = metrics.GetCounter("eval.queries");
  const uint64_t prepares_before = prepares->Value();
  const uint64_t queries_before = queries->Value();
  for (size_t i = 1; i <= 1000; ++i) {
    ExecutionStats stats;
    auto rows = net.Answer(PointLookup(report, 0, ids[i].first), {}, &stats);
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(stats.plan_cache_hits, 1u);
    EXPECT_EQ(rows.value(), std::vector<storage::Row>{ids[i].second});
  }
  EXPECT_EQ(prepares->Value(), prepares_before);
  EXPECT_EQ(queries->Value() - queries_before, 6000u);
}

// Answers `q` through its warm plan and with the cache off under
// `policy`: status code and text, rows and accounting must agree.
void ExpectHitMatchesUncached(const PdmsNetwork& net,
                              const ConjunctiveQuery& q,
                              FailurePolicy policy) {
  NetworkCostModel cost;
  cost.failure_policy = policy;
  ExecutionStats hit, cold;
  auto got = net.Answer(q, {}, &hit, cost);
  auto want = net.Answer(q, Uncached(), &cold, cost);
  const std::string where =
      q.ToString() +
      (policy == FailurePolicy::kFailFast ? " fail-fast" : " best-effort");
  EXPECT_EQ(hit.plan_cache_hits, 1u) << where;
  ASSERT_EQ(got.ok(), want.ok()) << where;
  if (got.ok()) {
    EXPECT_EQ(got.value(), want.value()) << where;
  } else {
    EXPECT_EQ(got.status().code(), want.status().code()) << where;
    EXPECT_EQ(got.status().message(), want.status().message()) << where;
  }
  EXPECT_EQ(hit.rewritings_evaluated, cold.rewritings_evaluated) << where;
  EXPECT_EQ(hit.completeness.rewritings_skipped,
            cold.completeness.rewritings_skipped)
      << where;
  EXPECT_EQ(hit.peers_contacted, cold.peers_contacted) << where;
  EXPECT_EQ(hit.rows_shipped, cold.rows_shipped) << where;
}

// A table dropped or re-created through mutable_storage() moves no
// peer stamp, so the point-lookup plan stays cached: its table handles
// must follow the catalog — never dangle — and a hit must fail, skip or
// read exactly as the cache-off answer does.
TEST(PreparedPlanTest, HitsFollowTablesDroppedAndRecreated) {
  PdmsNetwork net;
  PdmsGenReport report = BuildFig2(&net, 20);
  ASSERT_TRUE(
      net.Answer(PointLookup(report, 0, StoredIds(net, report, 0, 1)[0].first))
          .ok());
  const size_t victim = 2;
  const std::string name = QualifiedName(report.peer_names[victim],
                                         report.relation_names[victim]);
  const auto victim_ids = StoredIds(net, report, victim, 3);
  storage::Catalog* catalog = net.mutable_storage();
  const std::vector<FailurePolicy> policies = {FailurePolicy::kBestEffort,
                                               FailurePolicy::kFailFast};
  auto create = [&](std::vector<std::string> columns,
                    std::vector<storage::Row> rows) {
    auto table =
        catalog->CreateTable(storage::TableSchema::AllStrings(name, columns));
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*table)->InsertAll(rows).ok());
  };

  // Dropped: the plan still names the table, so the rewriting over it
  // fails as its evaluation by name does. Best-effort skips it and
  // returns the cache-off rows (a fresh search no longer emits it);
  // fail-fast returns its NotFound.
  ASSERT_TRUE(catalog->DropTable(name).ok());
  const ConjunctiveQuery dropped = PointLookup(report, 0, victim_ids[0].first);
  Status want = Status::Ok();
  auto rewritings = net.Reformulate(dropped);
  ASSERT_TRUE(rewritings.ok());
  for (const ConjunctiveQuery& rw : rewritings.value()) {
    auto rows = query::EvaluateCQ(net.storage(), rw);
    if (!rows.ok()) want = rows.status();
  }
  EXPECT_EQ(want.code(), StatusCode::kNotFound);
  ExecutionStats stats;
  auto failed = net.Answer(dropped, {}, &stats);
  EXPECT_EQ(stats.plan_cache_hits, 1u);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), want.code());
  EXPECT_EQ(failed.status().message(), want.message());
  NetworkCostModel best_effort;
  best_effort.failure_policy = FailurePolicy::kBestEffort;
  auto partial = net.Answer(dropped, {}, &stats, best_effort);
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial.value(), net.Answer(dropped, Uncached()).value());
  EXPECT_EQ(partial.value(), std::vector<storage::Row>{});
  EXPECT_EQ(stats.plan_cache_hits, 1u);
  EXPECT_EQ(stats.completeness.rewritings_skipped, 1u);

  // Re-created with other rows: the hit reads them.
  create({"id", "title", "instructor"},
         {{storage::Value("new/0"), storage::Value("New Title"),
           storage::Value("Someone")}});
  for (FailurePolicy policy : policies) {
    ExpectHitMatchesUncached(net, PointLookup(report, 0, "new/0"), policy);
  }
  EXPECT_EQ(net.Answer(PointLookup(report, 0, "new/0")).value(),
            (std::vector<storage::Row>{
                {storage::Value("New Title"), storage::Value("Someone")}}));

  // Re-created with another arity: the same InvalidArgument text.
  ASSERT_TRUE(catalog->DropTable(name).ok());
  create({"id", "title"},
         {{storage::Value("new/1"), storage::Value("Two Columns")}});
  for (FailurePolicy policy : policies) {
    ExpectHitMatchesUncached(
        net, PointLookup(report, 0, victim_ids[2].first), policy);
  }
  failed = net.Answer(PointLookup(report, 0, victim_ids[2].first));
  EXPECT_EQ(failed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(failed.status().message().find(victim_ids[2].first),
            std::string::npos);

  // Stale again: four threads answer through the plan at once, racing
  // to refresh its handles.
  ASSERT_TRUE(catalog->DropTable(name).ok());
  create({"id", "title", "instructor"},
         {{storage::Value("new/2"), storage::Value("Again"),
           storage::Value("Someone Else")}});
  std::vector<ConjunctiveQuery> queries = {PointLookup(report, 0, "new/2")};
  for (const auto& [id, row] : StoredIds(net, report, 1, 8)) {
    queries.push_back(PointLookup(report, 0, id));
  }
  std::vector<std::vector<storage::Row>> expected;
  for (const auto& q : queries) {
    expected.push_back(net.Answer(q, Uncached()).value());
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      for (size_t k = 0; k < queries.size(); ++k) {
        size_t i = (k + static_cast<size_t>(w) * 3) % queries.size();
        ExecutionStats stats;
        auto got = net.Answer(queries[i], {}, &stats);
        if (!got.ok() || got.value() != expected[i] ||
            stats.plan_cache_hits != 1) {
          mismatches += 1;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ------------------------------------------------- concurrency (TSan)

TEST(PlanCacheConcurrencyTest, RacingLookupsAndInsertsStayCoherent) {
  PlanCache cache(16, 4);
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 6; ++w) {
    threads.emplace_back([&cache, &wrong, w] {
      for (int i = 0; i < 200; ++i) {
        std::string key = Numbered("k", (w + i) % 24);
        uint64_t fp = Fnv1a64(key);
        auto hit = cache.Lookup(fp, key);
        if (hit == nullptr) {
          auto plan = std::make_shared<CachedPlan>();
          plan->stats.rewritings = (w + i) % 24;
          cache.Insert(fp, key, std::move(plan));
        } else if (hit->stats.rewritings != size_t((w + i) % 24)) {
          wrong += 1;  // a key must only ever map to its own plan
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_LE(cache.GetStats().entries, 16u + 3u);  // per-shard rounding
}

// Threads answer the all-courses query and point lookups for several
// ids at every peer, so hits with other constants race with the miss
// that fills their template entry. Each thread also looks up ids of its
// own that nobody warmed, so concurrent binds of one shared prepared
// plan run under TSan.
TEST(PlanCacheConcurrencyTest, ConcurrentAnswersShareTheCache) {
  PdmsNetwork net;
  PdmsGenReport report = BuildFig2(&net, 10);
  std::vector<ConjunctiveQuery> queries;
  constexpr size_t kIdsPerPeer = 4;
  constexpr int kThreads = 4;
  // own[w]: thread w's own lookups, answered by no other query.
  std::vector<std::vector<ConjunctiveQuery>> own(kThreads);
  for (size_t p = 0; p < report.peer_names.size(); ++p) {
    queries.push_back(AllCoursesQuery(report, p));
    const auto ids = StoredIds(net, report, p, kIdsPerPeer + kThreads);
    for (size_t i = 0; i < ids.size(); ++i) {
      ConjunctiveQuery q = PointLookup(report, p, ids[i].first);
      if (i < kIdsPerPeer) {
        queries.push_back(std::move(q));
      } else {
        own[i - kIdsPerPeer].push_back(std::move(q));
      }
    }
  }
  std::vector<Result<std::vector<storage::Row>>> expected;
  for (const auto& q : queries) expected.push_back(net.Answer(q, Uncached()));
  std::vector<std::vector<std::vector<storage::Row>>> own_expected(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    for (const auto& q : own[w]) {
      own_expected[w].push_back(net.Answer(q, Uncached()).value());
    }
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int round = 0; round < 5; ++round) {
        for (size_t k = 0; k < queries.size(); ++k) {
          // Each thread walks the queries from its own offset.
          size_t i = (k + static_cast<size_t>(w) * 7) % queries.size();
          auto got = net.Answer(queries[i]);
          if (!got.ok() || !expected[i].ok() ||
              got.value() != expected[i].value()) {
            mismatches += 1;
          }
        }
        if (round > 0) continue;  // once each: ids nobody warmed
        for (size_t i = 0; i < own[w].size(); ++i) {
          auto got = net.Answer(own[w][i]);
          if (!got.ok() || got.value() != own_expected[w][i]) mismatches += 1;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  PlanCache::Stats stats = net.PlanCacheStats();
  EXPECT_GT(stats.hits, 0u);
  // One template per peer for each shape.
  EXPECT_EQ(stats.entries, 2 * report.peer_names.size());
}

}  // namespace
}  // namespace revere::piazza
