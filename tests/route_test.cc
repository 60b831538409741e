// Tests for ISSUE 9: scale-aware reformulation routing. Covers the
// RouteTable (EWMA estimates, static overrides, epoch discipline), the
// breaker/histogram seed adapters, the cost-bounded route-mode search
// (unlimited budget == legacy BFS, bounded budget prunes with exact
// accounting), and scoped plan-cache invalidation (plans whose peer
// path misses a mutation survive it; churn only evicts what it must).

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/datagen/topology.h"
#include "src/obs/metrics.h"
#include "src/piazza/breaker.h"
#include "src/piazza/pdms.h"
#include "src/piazza/peer.h"
#include "src/query/cq.h"
#include "src/route/route_table.h"
#include "src/route/seed.h"
#include "src/storage/table.h"

namespace revere::route {
namespace {

using datagen::AllCoursesQuery;
using datagen::BuildUniversityPdms;
using datagen::PdmsGenOptions;
using datagen::PdmsGenReport;
using datagen::Topology;
using piazza::PdmsNetwork;
using piazza::PeerMapping;
using piazza::ReformulationOptions;
using piazza::ReformulationStats;
using query::ConjunctiveQuery;

// --------------------------------------------------- RouteTable (unit)

TEST(RouteTableTest, UnknownPeerCostsOneHop) {
  RouteTable table;
  EXPECT_DOUBLE_EQ(table.CostOf("ghost"), RouteTable::kDefaultCost);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.epoch(), 0u);
}

TEST(RouteTableTest, StaticCostPinsAndBumpsEpoch) {
  RouteTable table;
  table.SetStaticCost("a", 3.5);
  EXPECT_DOUBLE_EQ(table.CostOf("a"), 3.5);
  EXPECT_EQ(table.epoch(), 1u);
  // Static overrides win over any observation.
  table.ObservedContact("a", 1000.0, false);
  EXPECT_DOUBLE_EQ(table.CostOf("a"), 3.5);
  table.Reset();
  EXPECT_DOUBLE_EQ(table.CostOf("a"), RouteTable::kDefaultCost);
  EXPECT_EQ(table.epoch(), 2u);
  EXPECT_EQ(table.size(), 0u);
}

TEST(RouteTableTest, ObservationsMoveCostNotEpoch) {
  RouteTable table;
  // First observation initializes the EWMAs directly: 5ms at the
  // default 5ms-per-unit scale and full reachability is cost 1.0.
  table.ObservedContact("a", 5.0, true);
  EXPECT_DOUBLE_EQ(table.CostOf("a"), 1.0);
  EXPECT_EQ(table.epoch(), 0u);  // per-contact feedback never bumps it
  // A slow peer costs more; an unreachable one more still.
  table.ObservedContact("b", 50.0, true);
  EXPECT_GT(table.CostOf("b"), table.CostOf("a"));
  for (int i = 0; i < 20; ++i) table.ObservedContact("c", 5.0, false);
  EXPECT_GT(table.CostOf("c"), table.CostOf("b"));
  EXPECT_EQ(table.size(), 3u);
  RouteTable::Estimate c = table.GetEstimate("c");
  EXPECT_EQ(c.samples, 20u);
  EXPECT_LT(c.reachability, 0.1);
}

TEST(RouteTableTest, CostsAreClamped) {
  RouteTable table;
  table.ObservedContact("fast", 0.0001, true);
  EXPECT_GE(table.CostOf("fast"), 0.1);
  for (int i = 0; i < 50; ++i) table.ObservedContact("dead", 10000.0, false);
  EXPECT_LE(table.CostOf("dead"), 100.0);
}

TEST(RouteTableTest, SeedEstimateBumpsEpochOncePerCall) {
  RouteTable table;
  table.SeedEstimate("a", 10.0, 0.5);
  EXPECT_EQ(table.epoch(), 1u);
  RouteTable::Estimate e = table.GetEstimate("a");
  EXPECT_DOUBLE_EQ(e.latency_ms, 10.0);
  EXPECT_DOUBLE_EQ(e.reachability, 0.5);
  // 10ms / 5ms-per-unit = 2 units, halved reachability doubles it.
  EXPECT_DOUBLE_EQ(table.CostOf("a"), 4.0);
}

// ------------------------------------------------------ seed adapters

TEST(RouteSeedTest, BreakerStatesMapToReachability) {
  piazza::BreakerOptions opts;
  opts.min_samples = 2;
  opts.window = 4;
  piazza::BreakerSet breakers(opts);
  breakers.Get("healthy")->RecordSuccess();
  piazza::PeerBreaker* broken = breakers.Get("broken");
  for (int i = 0; i < 4; ++i) broken->RecordFailure();
  ASSERT_EQ(broken->state(), piazza::PeerBreaker::State::kOpen);

  RouteTable table;
  EXPECT_EQ(SeedFromBreakers(breakers, &table), 2u);
  EXPECT_DOUBLE_EQ(table.GetEstimate("healthy").reachability, 1.0);
  EXPECT_LT(table.GetEstimate("broken").reachability, 0.1);
  EXPECT_GT(table.CostOf("broken"), table.CostOf("healthy"));
}

TEST(RouteSeedTest, HistogramP50SeedsLatency) {
  obs::Histogram h({1.0, 5.0, 10.0, 50.0});
  for (int i = 0; i < 10; ++i) h.Record(8.0);
  std::map<std::string, obs::Histogram::Snapshot> latency;
  latency["peer0"] = h.GetSnapshot();
  latency["empty"] = obs::Histogram({1.0}).GetSnapshot();

  RouteTable table;
  EXPECT_EQ(SeedFromLatencyHistograms(latency, &table), 1u);  // empty skipped
  RouteTable::Estimate e = table.GetEstimate("peer0");
  EXPECT_GT(e.latency_ms, 5.0);
  EXPECT_LE(e.latency_ms, 10.0);
  EXPECT_EQ(table.GetEstimate("empty").samples, 0u);
}

// ------------------------------------------- route-mode search (pdms)

struct BuiltNet {
  PdmsNetwork net;
  PdmsGenReport report;
};

void BuildChain(BuiltNet* out, size_t peers) {
  PdmsGenOptions opts;
  opts.topology = Topology::kChain;
  opts.peers = peers;
  opts.rows_per_peer = 2;
  auto report = BuildUniversityPdms(&out->net, opts);
  ASSERT_TRUE(report.ok());
  out->report = report.value();
}

TEST(RouteSearchTest, UnlimitedBudgetMatchesLegacyByteForByte) {
  BuiltNet built;
  BuildChain(&built, 5);
  ConjunctiveQuery q = AllCoursesQuery(built.report, 0);

  ReformulationOptions legacy;
  legacy.max_depth = 6;
  ReformulationStats legacy_stats;
  auto legacy_rw = built.net.Reformulate(q, legacy, &legacy_stats);
  ASSERT_TRUE(legacy_rw.ok());

  ReformulationOptions routed = legacy;
  routed.use_route_search = true;  // max_path_cost = 0: unlimited
  ReformulationStats routed_stats;
  auto routed_rw = built.net.Reformulate(q, routed, &routed_stats);
  ASSERT_TRUE(routed_rw.ok());

  // Uniform costs make the best-first queue pop in BFS order: same
  // rewritings (up to variable naming), same counters, zero pruning.
  ASSERT_EQ(routed_rw.value().size(), legacy_rw.value().size());
  for (size_t i = 0; i < routed_rw.value().size(); ++i) {
    EXPECT_TRUE(
        query::AlphaEquivalent(routed_rw.value()[i], legacy_rw.value()[i]))
        << "rewriting " << i;
  }
  EXPECT_EQ(routed_stats.nodes_expanded, legacy_stats.nodes_expanded);
  EXPECT_EQ(routed_stats.rewritings, legacy_stats.rewritings);
  EXPECT_EQ(routed_stats.pruned_cost, 0u);
  EXPECT_EQ(routed_stats.pruned_redundant, 0u);

  // And the answers are byte-identical.
  auto legacy_rows = built.net.Answer(q, legacy);
  auto routed_rows = built.net.Answer(q, routed);
  ASSERT_TRUE(legacy_rows.ok());
  ASSERT_TRUE(routed_rows.ok());
  EXPECT_EQ(routed_rows.value(), legacy_rows.value());
}

TEST(RouteSearchTest, BoundedBudgetPrunesWithExactAccounting) {
  BuiltNet built;
  BuildChain(&built, 6);
  ConjunctiveQuery q = AllCoursesQuery(built.report, 0);

  ReformulationOptions exhaustive;
  exhaustive.max_depth = 8;
  auto full = built.net.Answer(q, exhaustive);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().size(), 12u);  // all six peers' rows

  ReformulationOptions bounded = exhaustive;
  bounded.use_route_search = true;
  bounded.max_path_cost = 2.0;  // two uniform-cost hops down the chain
  ReformulationStats stats;
  auto rewritings = built.net.Reformulate(q, bounded, &stats);
  ASSERT_TRUE(rewritings.ok());
  EXPECT_GT(stats.pruned_cost, 0u);

  auto rows = built.net.Answer(q, bounded);
  ASSERT_TRUE(rows.ok());
  // Three peers within two hops of peer0 on the chain.
  EXPECT_EQ(rows.value().size(), 6u);
  // Pruned answers are a subset of the exhaustive answer.
  for (const auto& row : rows.value()) {
    bool found = false;
    for (const auto& frow : full.value()) found = found || frow == row;
    EXPECT_TRUE(found);
  }
}

TEST(RouteSearchTest, RedundantPathEliminationCountsCycles) {
  BuiltNet built;
  BuildChain(&built, 4);  // bidirectional: every hop can bounce back
  ConjunctiveQuery q = AllCoursesQuery(built.report, 0);

  ReformulationOptions routed;
  routed.max_depth = 6;
  routed.use_route_search = true;
  routed.prune_redundant_paths = true;
  ReformulationStats stats;
  auto rewritings = built.net.Reformulate(q, routed, &stats);
  ASSERT_TRUE(rewritings.ok());
  EXPECT_GT(stats.pruned_redundant, 0u);  // back-edges re-enter peers

  // Cycle elimination must not lose answers on a tree overlay.
  auto rows = built.net.Answer(q, routed);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 8u);
}

TEST(RouteSearchTest, NonUniformCostsSteerThePruning) {
  // star: peer0 is the hub; make one spoke expensive and budget it out.
  PdmsGenOptions opts;
  opts.topology = Topology::kStar;
  opts.peers = 4;
  opts.rows_per_peer = 2;
  PdmsNetwork net;
  auto report = BuildUniversityPdms(&net, opts);
  ASSERT_TRUE(report.ok());
  net.route_table()->SetStaticCost(report.value().peer_names[3], 50.0);

  ConjunctiveQuery q = AllCoursesQuery(report.value(), 0);
  ReformulationOptions routed;
  routed.max_depth = 4;
  routed.use_route_search = true;
  routed.max_path_cost = 5.0;
  auto rows = net.Answer(q, routed);
  ASSERT_TRUE(rows.ok());
  // Hub + two cheap spokes answer; the expensive spoke is priced out.
  EXPECT_EQ(rows.value().size(), 6u);
}

// ------------------------------------------- scoped invalidation (pdms)

Status AddIsolatedPair(PdmsNetwork* net, const std::string& a,
                       const std::string& b) {
  REVERE_RETURN_IF_ERROR(net->AddPeer(a).status());
  REVERE_RETURN_IF_ERROR(net->AddPeer(b).status());
  for (const std::string& p : {a, b}) {
    REVERE_RETURN_IF_ERROR(
        net->AddStoredRelation(
               p, storage::TableSchema::AllStrings("course", {"id", "t"}))
            .status());
  }
  auto source = ConjunctiveQuery::Parse("m(I, T) :- " + a + ":course(I, T)");
  auto target = ConjunctiveQuery::Parse("m(I, T) :- " + b + ":course(I, T)");
  REVERE_RETURN_IF_ERROR(source.status());
  REVERE_RETURN_IF_ERROR(target.status());
  return net->AddMapping(PeerMapping{
      {a + "-" + b, source.value(), target.value()}, a, b, true});
}

ConjunctiveQuery QueryAt(const std::string& peer) {
  auto q =
      ConjunctiveQuery::Parse("q(I, T) :- " + peer + ":course(I, T)");
  return q.ok() ? q.value() : ConjunctiveQuery();
}

// Answers once and reports whether the plan cache hit.
bool WarmHit(PdmsNetwork* net, const ConjunctiveQuery& q) {
  piazza::ExecutionStats stats;
  ReformulationOptions reform;
  reform.use_plan_cache = true;
  auto rows = net->Answer(q, reform, &stats);
  EXPECT_TRUE(rows.ok());
  return stats.plan_cache_hits == 1;
}

TEST(ScopedInvalidationTest, UnrelatedMutationKeepsPlansWarm) {
  PdmsNetwork net;
  ASSERT_TRUE(AddIsolatedPair(&net, "a", "b").ok());
  ASSERT_TRUE(AddIsolatedPair(&net, "x", "y").ok());

  EXPECT_FALSE(WarmHit(&net, QueryAt("a")));  // cold build
  EXPECT_TRUE(WarmHit(&net, QueryAt("a")));   // warm

  // A brand-new isolated peer touches nothing the a-plan depends on.
  ASSERT_TRUE(net.AddPeer("newcomer").ok());
  EXPECT_TRUE(WarmHit(&net, QueryAt("a")));

  // A mapping inside the x/y component invalidates x-plans, not a-plans.
  EXPECT_FALSE(WarmHit(&net, QueryAt("x")));
  EXPECT_TRUE(WarmHit(&net, QueryAt("x")));
  auto src = ConjunctiveQuery::Parse("m(I, T) :- x:course(I, T)");
  auto tgt = ConjunctiveQuery::Parse("m(I, T) :- y:course(I, T)");
  ASSERT_TRUE(src.ok());
  ASSERT_TRUE(tgt.ok());
  ASSERT_TRUE(net.AddMapping(PeerMapping{{"x-y-2", src.value(), tgt.value()},
                                         "x", "y", true})
                  .ok());
  EXPECT_TRUE(WarmHit(&net, QueryAt("a")));   // untouched component
  EXPECT_FALSE(WarmHit(&net, QueryAt("x")));  // rebuilt
}

TEST(ScopedInvalidationTest, PeerGenerationsAdvancePerMutation) {
  PdmsNetwork net;
  ASSERT_TRUE(AddIsolatedPair(&net, "a", "b").ok());
  uint64_t a0 = net.peer_generation("a");
  uint64_t b0 = net.peer_generation("b");
  EXPECT_GT(a0, 0u);
  ASSERT_TRUE(AddIsolatedPair(&net, "x", "y").ok());
  // The x/y mutations never name a or b.
  EXPECT_EQ(net.peer_generation("a"), a0);
  EXPECT_EQ(net.peer_generation("b"), b0);
  EXPECT_GT(net.peer_generation("x"), 0u);
  EXPECT_EQ(net.peer_generation("ghost"), 0u);

  auto src = ConjunctiveQuery::Parse("m(I, T) :- a:course(I, T)");
  auto tgt = ConjunctiveQuery::Parse("m(I, T) :- b:course(I, T)");
  ASSERT_TRUE(src.ok());
  ASSERT_TRUE(tgt.ok());
  ASSERT_TRUE(net.AddMapping(PeerMapping{{"a-b-2", src.value(), tgt.value()},
                                         "a", "b", true})
                  .ok());
  EXPECT_GT(net.peer_generation("a"), a0);
  EXPECT_GT(net.peer_generation("b"), b0);
}

TEST(ScopedInvalidationTest, EveryMutationAdvancesPlanGeneration) {
  // The mutation clock ticks on every structural change, touched peers
  // or not: it is what the validator's O(1) memo compares against.
  PdmsNetwork net;
  ASSERT_TRUE(AddIsolatedPair(&net, "a", "b").ok());
  uint64_t g0 = net.plan_generation();
  ASSERT_TRUE(net.AddPeer("c").ok());
  EXPECT_GT(net.plan_generation(), g0);
}

}  // namespace
}  // namespace revere::route
