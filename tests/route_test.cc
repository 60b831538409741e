// Tests for the reformulation search at scale: the indexed search
// (the default) against the reference scan of every mapping (unlimited
// budget: byte-identical; a bounded hop budget prunes with exact
// accounting whichever candidate source runs), redundant-path
// elimination, and scoped plan-cache invalidation (plans whose peer
// path misses a mutation survive it; churn only evicts what it must).

#include <gtest/gtest.h>

#include <string>

#include "src/datagen/topology.h"
#include "src/piazza/pdms.h"
#include "src/piazza/peer.h"
#include "src/query/cq.h"
#include "src/storage/table.h"

namespace revere::piazza {
namespace {

using datagen::AllCoursesQuery;
using datagen::BuildUniversityPdms;
using datagen::PdmsGenOptions;
using datagen::PdmsGenReport;
using datagen::Topology;
using query::ConjunctiveQuery;

// ------------------------------------------------- search (pdms)

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

TEST(RouteSearchTest, IndexedDefaultMatchesScanByteForByte) {
  BuiltNet built;
  BuildChain(&built, 5);
  ConjunctiveQuery q = AllCoursesQuery(built.report, 0);

  ReformulationOptions indexed;  // the default: the mapping index
  indexed.max_depth = 6;
  ReformulationStats indexed_stats;
  auto indexed_rw = built.net.Reformulate(q, indexed, &indexed_stats);
  ASSERT_TRUE(indexed_rw.ok());

  ReformulationOptions scan = indexed;
  scan.use_route_search = false;  // the reference: every mapping
  ReformulationStats scan_stats;
  auto scan_rw = built.net.Reformulate(q, scan, &scan_stats);
  ASSERT_TRUE(scan_rw.ok());

  // Both sources yield the same candidates in the same order: same
  // rewritings, same counters, zero pruning.
  ASSERT_EQ(indexed_rw.value().size(), scan_rw.value().size());
  for (size_t i = 0; i < indexed_rw.value().size(); ++i) {
    EXPECT_EQ(indexed_rw.value()[i].ToString(),
              scan_rw.value()[i].ToString())
        << "rewriting " << i;
  }
  EXPECT_EQ(indexed_stats.nodes_expanded, scan_stats.nodes_expanded);
  EXPECT_EQ(indexed_stats.pruned_duplicates, scan_stats.pruned_duplicates);
  EXPECT_EQ(indexed_stats.rewritings, scan_stats.rewritings);
  EXPECT_EQ(indexed_stats.pruned_cost, 0u);
  EXPECT_EQ(indexed_stats.pruned_redundant, 0u);

  // And the answers are byte-identical.
  auto indexed_rows = built.net.Answer(q, indexed);
  auto scan_rows = built.net.Answer(q, scan);
  ASSERT_TRUE(indexed_rows.ok());
  ASSERT_TRUE(scan_rows.ok());
  EXPECT_EQ(indexed_rows.value(), scan_rows.value());
}

TEST(RouteSearchTest, BoundedBudgetPrunesWithExactAccounting) {
  BuiltNet built;
  BuildChain(&built, 6);
  ConjunctiveQuery q = AllCoursesQuery(built.report, 0);

  ReformulationOptions exhaustive;
  exhaustive.max_depth = 8;
  exhaustive.use_plan_cache = false;  // every input runs its own search
  auto full = built.net.Answer(q, exhaustive);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().size(), 12u);  // all six peers' rows

  // Two hops down the chain, however the budget is spelled: with the
  // search option named, on default options, as a fractional budget
  // (which prunes like its floor), and over the reference scan.
  ReformulationOptions named = exhaustive;
  named.use_route_search = true;
  named.max_path_cost = 2.0;
  ReformulationOptions by_default = exhaustive;
  by_default.max_path_cost = 2.0;
  ReformulationOptions fractional = exhaustive;
  fractional.max_path_cost = 2.5;
  ReformulationOptions scanned = by_default;
  scanned.use_route_search = false;

  ReformulationStats reference;
  ASSERT_TRUE(built.net.Reformulate(q, named, &reference).ok());
  EXPECT_GT(reference.pruned_cost, 0u);
  for (const ReformulationOptions& bounded :
       {named, by_default, fractional, scanned}) {
    ReformulationStats stats;
    auto rewritings = built.net.Reformulate(q, bounded, &stats);
    ASSERT_TRUE(rewritings.ok());
    EXPECT_EQ(stats.pruned_cost, reference.pruned_cost);
    EXPECT_EQ(stats.nodes_expanded, reference.nodes_expanded);
    EXPECT_EQ(stats.rewritings, reference.rewritings);

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
}

TEST(RouteSearchTest, RedundantPathEliminationCountsCycles) {
  BuiltNet built;
  BuildChain(&built, 4);  // bidirectional: every hop can bounce back
  ConjunctiveQuery q = AllCoursesQuery(built.report, 0);

  ReformulationOptions routed;
  routed.max_depth = 6;
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
  ExecutionStats stats;
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
}  // namespace revere::piazza
