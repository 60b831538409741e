// Tests for the reformulation search at scale: the indexed search
// (the default) against the reference scan of every mapping (unlimited
// budget: byte-identical; a bounded hop budget prunes with exact
// accounting whichever candidate source runs), redundant-path
// elimination, and scoped plan-cache invalidation (plans whose peer
// path misses a mutation survive it; churn only evicts what it must).

#include <gtest/gtest.h>

#include <string>
#include <vector>

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

// Adds an inclusion mapping under which an atom of the qualified
// one-column relation `to` rewrites into one of `from`.
Status AddInclusion(PdmsNetwork* net, const std::string& from,
                    const std::string& to) {
  auto source = ConjunctiveQuery::Parse("m(X) :- " + from + "(X)");
  auto target = ConjunctiveQuery::Parse("m(X) :- " + to + "(X)");
  REVERE_RETURN_IF_ERROR(source.status());
  REVERE_RETURN_IF_ERROR(target.status());
  return net->AddMapping(PeerMapping{{from + "-" + to, source.value(),
                                      target.value()},
                                     SplitQualifiedName(from).first,
                                     SplitQualifiedName(to).first, false});
}

// Storage at the end of a mapping chain makes every relation along it
// productive. A plan whose search pruned one of them as unproductive
// must be rebuilt, though the mutation names neither its peers nor its
// query's relations.
TEST(ScopedInvalidationTest, ProductivityRippleInvalidatesPrunedPlans) {
  PdmsNetwork net;
  for (const char* p : {"a", "b", "c"}) ASSERT_TRUE(net.AddPeer(p).ok());
  auto r = net.AddStoredRelation(
      "a", storage::TableSchema::AllStrings("r", {"x"}));
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE((*r)->Insert({storage::Value("a1")}).ok());
  for (const auto& [peer, relation] :
       {std::pair<const char*, const char*>{"b", "s"}, {"c", "t"}}) {
    auto declared = net.GetPeer(peer);
    ASSERT_TRUE(declared.ok());
    (*declared)->DeclarePeerRelation(relation, 1);  // not stored
  }
  ASSERT_TRUE(AddInclusion(&net, "b:s", "a:r").ok());
  ASSERT_TRUE(AddInclusion(&net, "c:t", "b:s").ok());

  auto q = ConjunctiveQuery::Parse("q(X) :- a:r(X)");
  ASSERT_TRUE(q.ok());
  ReformulationOptions cached;  // the plan cache is on by default
  for (size_t call = 0; call < 2; ++call) {
    ExecutionStats stats;
    auto rows = net.Answer(q.value(), cached, &stats);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows.value().size(), 1u);
    EXPECT_EQ(stats.reformulation.pruned_unreachable, 1u);  // b:s
    EXPECT_EQ(stats.plan_cache_hits, call);
  }

  auto t = net.AddStoredRelation(
      "c", storage::TableSchema::AllStrings("t", {"x"}));
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE((*t)->Insert({storage::Value("c1")}).ok());
  ReformulationOptions uncached;
  uncached.use_plan_cache = false;
  auto want = net.Answer(q.value(), uncached);
  auto got = net.Answer(q.value(), cached);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(want.value().size(), 2u);  // a1, and c1 through b:s
  EXPECT_EQ(got.value(), want.value());
}

// Productivity does not depend on the order of structural changes:
// one chain, built with its mappings before and then after its stored
// relations, one of which is created behind the network's back through
// mutable_storage(), yields the same search.
TEST(ScopedInvalidationTest, ProductivityIgnoresMutationOrder) {
  auto build = [](bool mappings_first, PdmsNetwork* net) {
    for (const char* p : {"p0", "p1", "p2", "p3"}) {
      ASSERT_TRUE(net->AddPeer(p).ok());
    }
    auto add_mappings = [&] {
      // p0:course rewrites into p1:course, p1's into p2's, p2's into
      // p3's: only p3's storage makes the chain productive.
      ASSERT_TRUE(AddInclusion(net, "p1:course", "p0:course").ok());
      ASSERT_TRUE(AddInclusion(net, "p2:course", "p1:course").ok());
      ASSERT_TRUE(AddInclusion(net, "p3:course", "p2:course").ok());
    };
    auto add_storage = [&] {
      // The network sees this table at its next structural change.
      ASSERT_TRUE(net->mutable_storage()
                      ->CreateTable(storage::TableSchema::AllStrings(
                          "p3:course", {"x"}))
                      .ok());
      ASSERT_TRUE(net->AddStoredRelation(
                         "p0", storage::TableSchema::AllStrings(
                                   "extra", {"x"}))
                      .ok());
    };
    if (mappings_first) {
      add_mappings();
      add_storage();
    } else {
      add_storage();
      add_mappings();
    }
  };
  auto counters = [](const ReformulationStats& s) {
    return std::vector<size_t>{
        s.nodes_expanded,   s.pruned_duplicates, s.pruned_unreachable,
        s.pruned_depth,     s.pruned_contained,  s.pruned_cost,
        s.pruned_redundant, s.rewritings,        s.plan_cache_hits,
        s.plan_cache_misses};
  };
  auto q = ConjunctiveQuery::Parse("q(X) :- p0:course(X)");
  ASSERT_TRUE(q.ok());
  ReformulationOptions uncached;
  uncached.use_plan_cache = false;
  std::vector<std::string> rewritings[2];
  ReformulationStats stats[2];
  for (int order = 0; order < 2; ++order) {
    PdmsNetwork net;
    build(order == 0, &net);
    auto rw = net.Reformulate(q.value(), uncached, &stats[order]);
    ASSERT_TRUE(rw.ok());
    for (const auto& cq : rw.value()) {
      rewritings[order].push_back(cq.ToString());
    }
  }
  ASSERT_EQ(rewritings[0].size(), 1u);  // through the whole chain to p3
  EXPECT_EQ(rewritings[0], rewritings[1]);
  EXPECT_EQ(counters(stats[0]), counters(stats[1]));
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
