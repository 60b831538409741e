#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/datagen/topology.h"
#include "src/piazza/fault.h"
#include "src/piazza/network_config.h"
#include "src/piazza/pdms.h"
#include "src/piazza/peer.h"
#include "src/piazza/views.h"
#include "src/piazza/xml_mapping.h"
#include "src/query/cq.h"
#include "src/query/glav.h"
#include "src/xml/parser.h"

namespace revere::piazza {
namespace {

using query::ConjunctiveQuery;
using storage::Row;
using storage::TableSchema;
using storage::Value;

ConjunctiveQuery MustParse(const std::string& text) {
  auto r = ConjunctiveQuery::Parse(text);
  EXPECT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
  return r.value();
}

TEST(PeerTest, QualifiedNames) {
  EXPECT_EQ(QualifiedName("mit", "course"), "mit:course");
  auto [p, r] = SplitQualifiedName("mit:course");
  EXPECT_EQ(p, "mit");
  EXPECT_EQ(r, "course");
  auto [p2, r2] = SplitQualifiedName("course");
  EXPECT_EQ(p2, "");
  EXPECT_EQ(r2, "course");
}

TEST(PeerTest, Declarations) {
  Peer peer("mit");
  peer.DeclarePeerRelation("course", 3);
  EXPECT_TRUE(peer.HasPeerRelation("course"));
  EXPECT_FALSE(peer.HasPeerRelation("dept"));
}

class PdmsTest : public ::testing::Test {
 protected:
  // A three-peer chain: uw -> berkeley -> mit.
  //   mit stores mit:course(id, title).
  //   berkeley:course maps to mit:course (equality of concepts).
  //   uw:course maps to berkeley:course.
  void SetUp() override {
    ASSERT_TRUE(net_.AddPeer("uw").ok());
    ASSERT_TRUE(net_.AddPeer("berkeley").ok());
    ASSERT_TRUE(net_.AddPeer("mit").ok());
    auto table = net_.AddStoredRelation(
        "mit", TableSchema::AllStrings("course", {"id", "title"}));
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*table)
                    ->InsertAll({{Value("6.830"), Value("Databases")},
                                 {Value("6.033"), Value("Systems")}})
                    .ok());
    // berkeley:course(I, T) can be answered by mit:course(I, T).
    ASSERT_TRUE(net_.AddMapping(PeerMapping{
                        {"b2m",
                         MustParse("m(I, T) :- mit:course(I, T)"),
                         MustParse("m(I, T) :- berkeley:course(I, T)")},
                        "mit",
                        "berkeley",
                        false})
                    .ok());
    // uw:course(I, T) can be answered by berkeley:course(I, T).
    ASSERT_TRUE(net_.AddMapping(PeerMapping{
                        {"u2b",
                         MustParse("m(I, T) :- berkeley:course(I, T)"),
                         MustParse("m(I, T) :- uw:course(I, T)")},
                        "berkeley",
                        "uw",
                        false})
                    .ok());
  }

  PdmsNetwork net_;
};

TEST_F(PdmsTest, DuplicatePeerRejected) {
  EXPECT_FALSE(net_.AddPeer("uw").ok());
}

TEST_F(PdmsTest, MappingToUnknownPeerRejected) {
  EXPECT_FALSE(net_.AddMapping(PeerMapping{{"x",
                                            MustParse("m(X) :- a:r(X)"),
                                            MustParse("m(X) :- b:s(X)")},
                                           "nope",
                                           "uw",
                                           false})
                   .ok());
}

TEST_F(PdmsTest, DirectQueryOverStoredRelation) {
  auto rows = net_.Answer(MustParse("q(I, T) :- mit:course(I, T)"));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 2u);
}

TEST_F(PdmsTest, OneHopReformulation) {
  auto rows = net_.Answer(MustParse("q(I, T) :- berkeley:course(I, T)"));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 2u);
}

TEST_F(PdmsTest, TransitiveClosureTwoHops) {
  // Query in UW's schema reaches MIT data through Berkeley (§3: "any
  // peer can access data at any other peer by following schema mapping
  // links").
  ExecutionStats stats;
  auto rows = net_.Answer(MustParse("q(I, T) :- uw:course(I, T)"), {},
                          &stats);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 2u);
  EXPECT_GE(stats.reformulation.nodes_expanded, 2u);
  EXPECT_EQ(stats.rewritings_evaluated, 1u);
}

TEST_F(PdmsTest, SelectionPropagatesThroughMappings) {
  auto rows = net_.Answer(
      MustParse("q(T) :- uw:course(\"6.830\", T)"));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0][0].as_string(), "Databases");
}

TEST_F(PdmsTest, UnmappedRelationYieldsNoAnswers) {
  auto rows = net_.Answer(MustParse("q(X) :- uw:professor(X)"));
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows.value().empty());
}

TEST_F(PdmsTest, UnreachablePruningCounts) {
  ReformulationStats stats;
  ReformulationOptions opts;
  opts.prune_unreachable = true;
  auto r = net_.Reformulate(MustParse("q(X) :- uw:professor(X)"), opts,
                            &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
  EXPECT_EQ(stats.pruned_unreachable, 1u);
}

TEST_F(PdmsTest, EqualityMappingWorksBackward) {
  // Add stored data at UW and an equality mapping; a Berkeley query can
  // then travel *backward* along the uw->berkeley mapping.
  auto table = net_.AddStoredRelation(
      "uw", TableSchema::AllStrings("local_course", {"id", "title"}));
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(
      (*table)->Insert({Value("CSE544"), Value("Principles of DBMS")}).ok());
  ASSERT_TRUE(net_.AddMapping(PeerMapping{
                      {"uw-eq",
                       MustParse("m(I, T) :- uw:local_course(I, T)"),
                       MustParse("m(I, T) :- berkeley:course(I, T)")},
                      "uw",
                      "berkeley",
                      /*bidirectional=*/true})
                  .ok());
  auto rows = net_.Answer(MustParse("q(I, T) :- berkeley:course(I, T)"));
  ASSERT_TRUE(rows.ok());
  // Berkeley sees both MIT's courses and UW's.
  EXPECT_EQ(rows.value().size(), 3u);
}

TEST_F(PdmsTest, GlavJoinMapping) {
  // A genuinely GLAV mapping: target side is a join.
  ASSERT_TRUE(net_.AddPeer("rome").ok());
  auto table = net_.AddStoredRelation(
      "rome", TableSchema::AllStrings("corso", {"id", "dept"}));
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Insert({Value("ST101"), Value("storia")}).ok());
  // rome:corso(I, D) ⊆ uw:course(I, T) ⋈ uw:offered_by(I, D): Rome's
  // tuples witness both a course and its department at UW's vocabulary.
  ASSERT_TRUE(
      net_.AddMapping(PeerMapping{
              {"r2u",
               MustParse("m(I, D) :- rome:corso(I, D)"),
               MustParse("m(I, D) :- uw:course(I, T), uw:offered_by(I, D)")},
              "rome",
              "uw",
              false})
          .ok());
  // Query asking only for departments: covered by the mapping.
  auto rows = net_.Answer(MustParse("q(I, D) :- uw:offered_by(I, D)"));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0][1].as_string(), "storia");
}

TEST_F(PdmsTest, GlavExistentialNotExportedIsSkipped) {
  ASSERT_TRUE(net_.AddPeer("rome").ok());
  auto table = net_.AddStoredRelation(
      "rome", TableSchema::AllStrings("corso", {"id"}));
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Insert({Value("ST101")}).ok());
  // Mapping exports only the seminar id; title T is existential on the
  // target side. (uw:seminar is otherwise unmapped in this fixture.)
  ASSERT_TRUE(net_.AddMapping(
                      PeerMapping{{"r2u",
                                   MustParse("m(I) :- rome:corso(I)"),
                                   MustParse("m(I) :- uw:seminar(I, T)")},
                                  "rome",
                                  "uw",
                                  false})
                  .ok());
  // Asking for titles cannot be answered (T not exported)...
  auto rows = net_.Answer(MustParse("q(I, T) :- uw:seminar(I, T)"));
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows.value().empty());
  // ...but asking for ids alone works.
  auto ids = net_.Answer(MustParse("q(I) :- uw:seminar(I, T)"));
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids.value().size(), 1u);
}

// A two-peer network: `a:s` stores `rows`, and `mapping` (a GLAV text)
// maps it onto peer b's vocabulary. Returns the answer to `query`.
std::vector<Row> AnswerThroughMapping(const std::string& mapping,
                                      std::vector<std::string> columns,
                                      const std::vector<Row>& rows,
                                      const std::string& query) {
  PdmsNetwork net;
  EXPECT_TRUE(net.AddPeer("a").ok());
  EXPECT_TRUE(net.AddPeer("b").ok());
  auto table =
      net.AddStoredRelation("a", TableSchema::AllStrings("s", columns));
  EXPECT_TRUE(table.ok());
  for (const Row& row : rows) EXPECT_TRUE((*table)->Insert(row).ok());
  auto glav = query::GlavMapping::Parse(mapping, "a2b");
  EXPECT_TRUE(glav.ok()) << glav.status().ToString();
  EXPECT_TRUE(net.AddMapping(PeerMapping{glav.value(), "a", "b", false}).ok());
  auto answer = net.Answer(MustParse(query));
  EXPECT_TRUE(answer.ok()) << answer.status().ToString();
  return answer.ok() ? answer.value() : std::vector<Row>{};
}

// The mapping only says that *some* Z fills an existential target
// position. A goal constant there is not implied, so no row is certain.
TEST(ExportCheckTest, GoalConstantOnExistentialPositionIsNotRewritten) {
  const std::string mapping = "m(T) :- a:s(T) => m(T) :- b:r(Z, T)";
  const std::vector<Row> rows = {{Value("t1")}};
  EXPECT_TRUE(AnswerThroughMapping(mapping, {"t"}, rows,
                                   "q(T) :- b:r(\"c\", T)")
                  .empty());
  EXPECT_EQ(AnswerThroughMapping(mapping, {"t"}, rows, "q(T) :- b:r(Z, T)"),
            rows);
}

// Nor is an equality between an existential position and another one.
TEST(ExportCheckTest, RepeatedGoalVariableOnExistentialIsNotRewritten) {
  const std::string mapping =
      "m(A, T) :- a:s(A, T) => m(A, T) :- b:r(A, Z, T)";
  const std::vector<Row> rows = {{Value("x1"), Value("t1")}};
  EXPECT_TRUE(AnswerThroughMapping(mapping, {"a", "t"}, rows,
                                   "q(T) :- b:r(X, X, T)")
                  .empty());
  EXPECT_EQ(AnswerThroughMapping(mapping, {"a", "t"}, rows,
                                 "q(T) :- b:r(X, Y, T)"),
            std::vector<Row>{{Value("t1")}});
}

// An equality the mapping itself states (one existential at both
// positions) is implied, so that rewriting stays.
TEST(ExportCheckTest, RepeatedVariableOnOneTargetVariableStillRewrites) {
  const std::string mapping = "m(T) :- a:s(T) => m(T) :- b:r(Z, Z, T)";
  const std::vector<Row> rows = {{Value("t1")}};
  EXPECT_EQ(AnswerThroughMapping(mapping, {"t"}, rows,
                                 "q(T) :- b:r(X, X, T)"),
            rows);
}

// A two-atom target: the query's join on Z lands on the mapping's one
// existential, so only both atoms together rewrite (x1, y1) is certain.
TEST(CoverTest, TwoAtomTargetRewritesAsOneCover) {
  EXPECT_EQ(AnswerThroughMapping(
                "m(X, Y) :- a:s(X, Y) => m(X, Y) :- b:r(X, Z), b:t(Z, Y)",
                {"x", "y"}, {{Value("x1"), Value("y1")}},
                "q(X, Y) :- b:r(X, Z), b:t(Z, Y)"),
            (std::vector<Row>{{Value("x1"), Value("y1")}}));
}

// `text`'s network answering `query` with the default options.
std::vector<Row> AnswerInConfig(const std::string& text,
                                const std::string& query) {
  PdmsNetwork net;
  Status loaded = LoadNetworkConfig(text, &net);
  EXPECT_TRUE(loaded.ok()) << loaded.ToString();
  auto answer = net.Answer(MustParse(query));
  EXPECT_TRUE(answer.ok()) << answer.status().ToString();
  return answer.ok() ? answer.value() : std::vector<Row>{};
}

// Fuzz case 4258: a self-join through the existential of a one-atom
// mapping. p2's class row reaches p0 backward along m1, and m2 then
// gives p3:corso(c3, N) for some N, so "c3" is certain; each atom alone
// is rightly refused, because V0 is shared.
TEST(CoverTest, SelfJoinThroughOneExistential) {
  const std::string net =
      "peer p0\npeer p2\npeer p3\n"
      "stored p0 course c0 c1\nrow p0 course \"c0\" \"Mechanics\"\n"
      "stored p2 class c0 c1\n"
      "row p2 class \"c3\" \"Introductory Biology\"\n"
      "stored p3 corso c0 c1\nrow p3 corso \"c6\" \"Mechanics\"\n"
      "mapping m1 p0 p2 bidirectional\n"
      "  m(H0, H1) :- p0:course(H0, H1) => m(H0, H1) :- p2:class(H0, H1)\n"
      "mapping m2 p0 p3\n"
      "  m(H0) :- p0:course(H0, S0) => m(H0) :- p3:corso(H0, T0)\n";
  EXPECT_EQ(AnswerInConfig(
                net, "q(V1) :- p3:corso(\"c3\", V0), p3:corso(V1, V0)"),
            std::vector<Row>{{Value("c3")}});
}

// Fuzz case 538: the same shape backward. Every p1:subject id (and,
// through m1, every p2:class id) has a p0:course row with an unknown
// title, which joins with itself: 7 ids, not only p0's stored 5.
TEST(CoverTest, SelfJoinBackwardThroughOneExistential) {
  const std::string net =
      "peer p0\npeer p1\npeer p2\n"
      "stored p0 course c0 c1\n"
      "row p0 course c8 | Mechanics\nrow p0 course c9 | Machine Learning\n"
      "row p0 course c6 | General Chemistry\n"
      "row p0 course c2 | Software Engineering\n"
      "row p0 course c7 | Principles of Database Systems\n"
      "stored p1 subject c0 c1 c2\n"
      "row p1 subject c5 | Calculus I | Hank Levy\n"
      "row p1 subject c6 | Drawing Fundamentals | Steve Gribble\n"
      "row p1 subject c7 | Introductory Biology | Igor Tatarinov\n"
      "stored p2 class c0 c1 c2\n"
      "row p2 class c8 | Principles of Database Systems | AnHai Doan\n"
      "row p2 class c1 | Software Engineering | Jayant Madhavan\n"
      "mapping m0 p0 p1 bidirectional\n"
      "  m(H0) :- p0:course(H0, S0) => m(H0) :- p1:subject(H0, T0, T1)\n"
      "mapping m1 p1 p2 bidirectional\n"
      "  m(H0, H1, H2) :- p1:subject(H0, H1, H2) => "
      "m(H0, H1, H2) :- p2:class(H0, H1, H2)\n";
  std::vector<Row> rows =
      AnswerInConfig(net, "q(V0) :- p0:course(V0, V1), p0:course(V2, V1)");
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, (std::vector<Row>{{Value("c1")},
                                    {Value("c2")},
                                    {Value("c5")},
                                    {Value("c6")},
                                    {Value("c7")},
                                    {Value("c8")},
                                    {Value("c9")}}));
}

TEST_F(PdmsTest, DepthLimitCutsLongChains) {
  ReformulationOptions opts;
  opts.max_depth = 1;  // uw needs 2 hops to reach mit storage
  ReformulationStats stats;
  auto r = net_.Reformulate(MustParse("q(I, T) :- uw:course(I, T)"), opts,
                            &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
  EXPECT_GE(stats.pruned_depth, 1u);
}

TEST_F(PdmsTest, DuplicatePruningCollapsesRedundantPaths) {
  // Two parallel identical mappings create redundant reformulation
  // paths; pruning should collapse them.
  ASSERT_TRUE(net_.AddMapping(PeerMapping{
                      {"b2m-dup",
                       MustParse("m(I, T) :- mit:course(I, T)"),
                       MustParse("m(I, T) :- berkeley:course(I, T)")},
                      "mit",
                      "berkeley",
                      false})
                  .ok());
  ReformulationStats with_stats;
  ReformulationOptions with;
  with.prune_duplicates = true;
  auto r1 = net_.Reformulate(MustParse("q(I, T) :- berkeley:course(I, T)"),
                             with, &with_stats);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1.value().size(), 1u);
  EXPECT_GE(with_stats.pruned_duplicates, 1u);

  ReformulationOptions without;
  without.prune_duplicates = false;
  auto r2 = net_.Reformulate(MustParse("q(I, T) :- berkeley:course(I, T)"),
                             without, nullptr);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().size(), 2u);  // both paths surface
}

TEST_F(PdmsTest, ContainmentPruningDropsSubsumedRewritings) {
  // A second, more specific mapping (only databases courses) creates a
  // rewriting semantically contained in the general one.
  ASSERT_TRUE(
      net_.AddMapping(PeerMapping{
              {"b2m-db",
               MustParse(
                   "m(I, \"Databases\") :- mit:course(I, \"Databases\")"),
               MustParse("m(I, T) :- berkeley:course(I, T)")},
              "mit",
              "berkeley",
              false})
          .ok());
  ReformulationOptions plain;
  auto without = net_.Reformulate(
      MustParse("q(I, T) :- berkeley:course(I, T)"), plain, nullptr);
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(without.value().size(), 2u);  // general + specific

  ReformulationOptions semantic;
  semantic.prune_contained = true;
  ReformulationStats stats;
  auto with = net_.Reformulate(
      MustParse("q(I, T) :- berkeley:course(I, T)"), semantic, &stats);
  ASSERT_TRUE(with.ok());
  EXPECT_EQ(with.value().size(), 1u);
  EXPECT_EQ(stats.pruned_contained, 1u);
  // Same answers either way (the pruned rewriting was redundant).
  auto rows = net_.Answer(MustParse("q(I, T) :- berkeley:course(I, T)"),
                          semantic);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 2u);
}

TEST_F(PdmsTest, NetworkCostCharged) {
  ExecutionStats stats;
  NetworkCostModel cost;
  cost.per_peer_round_trip_ms = 10.0;
  cost.per_row_ms = 1.0;
  auto rows = net_.Answer(MustParse("q(I, T) :- uw:course(I, T)"), {},
                          &stats, cost);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(stats.peers_contacted, 1u);  // mit (remote from uw)
  EXPECT_NEAR(stats.simulated_network_ms, 10.0 + 2.0, 1e-9);
}

TEST_F(PdmsTest, AnswerWithProvenanceNamesContributingPeers) {
  // Add UW-local data + an equality mapping so berkeley's answers come
  // from two different peers.
  auto table = net_.AddStoredRelation(
      "uw", storage::TableSchema::AllStrings("local_course",
                                             {"id", "title"}));
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)
                  ->Insert({storage::Value("CSE544"),
                            storage::Value("Principles of DBMS")})
                  .ok());
  ASSERT_TRUE(net_.AddMapping(PeerMapping{
                      {"uw-eq",
                       MustParse("m(I, T) :- uw:local_course(I, T)"),
                       MustParse("m(I, T) :- berkeley:course(I, T)")},
                      "uw",
                      "berkeley",
                      true})
                  .ok());
  auto rows = net_.AnswerWithProvenance(
      MustParse("q(I, T) :- berkeley:course(I, T)"));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 3u);
  size_t from_mit = 0, from_uw = 0;
  for (const auto& p : rows.value()) {
    EXPECT_EQ(p.peers.size(), 1u);  // each row from exactly one peer here
    if (p.peers.count("mit")) ++from_mit;
    if (p.peers.count("uw")) ++from_uw;
  }
  EXPECT_EQ(from_mit, 2u);
  EXPECT_EQ(from_uw, 1u);
}

TEST_F(PdmsTest, RegisteredViewsMaintainedOnPropagation) {
  // A UW-side view over MIT's stored courses.
  auto idx = net_.RegisterView(
      "uw", MustParse("uw_cache(I, T) :- mit:course(I, T)"));
  ASSERT_TRUE(idx.ok());
  auto view = net_.GetView(idx.value());
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->size(), 2u);

  // MIT publishes a new course; the network applies the updategram and
  // refreshes dependents cost-appropriately.
  Updategram u{"mit:course",
               {{storage::Value("6.824"), storage::Value("Distributed")}},
               {}};
  auto stats = net_.PropagateUpdategram(u);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().views_touched, 1u);
  EXPECT_EQ(stats.value().incremental_refreshes +
                stats.value().full_recomputes,
            1u);
  view = net_.GetView(idx.value());
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->size(), 3u);
  // The base relation saw the row too.
  auto rows = net_.Answer(MustParse("q(I, T) :- mit:course(I, T)"));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 3u);
}

TEST_F(PdmsTest, PropagationSkipsIndependentViews) {
  auto idx = net_.RegisterView(
      "uw", MustParse("v(I) :- mit:course(I, T)"));
  ASSERT_TRUE(idx.ok());
  // An updategram on an unrelated (freshly stored) relation.
  auto table = net_.AddStoredRelation(
      "uw", storage::TableSchema::AllStrings("staff", {"name"}));
  ASSERT_TRUE(table.ok());
  Updategram u{"uw:staff", {{storage::Value("alon")}}, {}};
  auto stats = net_.PropagateUpdategram(u);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().views_touched, 0u);
}

TEST_F(PdmsTest, RegisterViewValidatesPeerAndDefinition) {
  EXPECT_FALSE(
      net_.RegisterView("nope", MustParse("v(X) :- mit:course(X, T)"))
          .ok());
  EXPECT_FALSE(
      net_.RegisterView("uw", MustParse("v(X) :- missing:rel(X)")).ok());
  EXPECT_FALSE(net_.GetView(99).ok());
}

// ---------------------------------------------------------------- views

class ViewsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto r = catalog_.CreateTable(TableSchema::AllStrings("r", {"a", "b"}));
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE((*r)->InsertAll({{Value("1"), Value("x")},
                                 {Value("2"), Value("y")}})
                    .ok());
    auto s = catalog_.CreateTable(TableSchema::AllStrings("s", {"b", "c"}));
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE((*s)->InsertAll({{Value("x"), Value("10")},
                                 {Value("y"), Value("20")}})
                    .ok());
  }
  storage::Catalog catalog_;
};

TEST_F(ViewsTest, RecomputePopulates) {
  MaterializedView view(MustParse("v(A, C) :- r(A, B), s(B, C)"));
  ASSERT_TRUE(view.Recompute(catalog_).ok());
  EXPECT_EQ(view.size(), 2u);
}

TEST_F(ViewsTest, InsertUpdategramAddsRows) {
  MaterializedView view(MustParse("v(A, C) :- r(A, B), s(B, C)"));
  ASSERT_TRUE(view.Recompute(catalog_).ok());
  Updategram u{"r", {{Value("3"), Value("x")}}, {}};
  ASSERT_TRUE(ApplyToBase(&catalog_, u).ok());
  ASSERT_TRUE(view.ApplyUpdategram(catalog_, u).ok());
  EXPECT_EQ(view.size(), 3u);
  // Must equal full recompute.
  MaterializedView fresh(MustParse("v(A, C) :- r(A, B), s(B, C)"));
  ASSERT_TRUE(fresh.Recompute(catalog_).ok());
  EXPECT_EQ(view.Contents(), fresh.Contents());
}

TEST_F(ViewsTest, DeleteUpdategramRemovesRows) {
  MaterializedView view(MustParse("v(A, C) :- r(A, B), s(B, C)"));
  ASSERT_TRUE(view.Recompute(catalog_).ok());
  Updategram u{"r", {}, {{Value("1"), Value("x")}}};
  ASSERT_TRUE(ApplyToBase(&catalog_, u).ok());
  ASSERT_TRUE(view.ApplyUpdategram(catalog_, u).ok());
  EXPECT_EQ(view.size(), 1u);
  MaterializedView fresh(MustParse("v(A, C) :- r(A, B), s(B, C)"));
  ASSERT_TRUE(fresh.Recompute(catalog_).ok());
  EXPECT_EQ(view.Contents(), fresh.Contents());
}

TEST_F(ViewsTest, CountingHandlesMultipleDerivations) {
  // Two r-rows join to the same s-row and project to the same output;
  // deleting one must keep the row.
  auto r = catalog_.GetTable("r");
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE((*r)->Insert({Value("1b"), Value("x")}).ok());
  MaterializedView view(MustParse("v(C) :- r(A, B), s(B, C)"));
  ASSERT_TRUE(view.Recompute(catalog_).ok());
  EXPECT_EQ(view.size(), 2u);  // {10, 20}
  // Delete one of the two derivations of C=10.
  Updategram u{"r", {}, {{Value("1b"), Value("x")}}};
  ASSERT_TRUE(ApplyToBase(&catalog_, u).ok());
  ASSERT_TRUE(view.ApplyUpdategram(catalog_, u).ok());
  EXPECT_EQ(view.size(), 2u);  // C=10 still derivable via r(1, x)
  // Delete the remaining derivation.
  Updategram u2{"r", {}, {{Value("1"), Value("x")}}};
  ASSERT_TRUE(ApplyToBase(&catalog_, u2).ok());
  ASSERT_TRUE(view.ApplyUpdategram(catalog_, u2).ok());
  EXPECT_EQ(view.size(), 1u);  // only C=20 remains
}

TEST_F(ViewsTest, MixedUpdategram) {
  MaterializedView view(MustParse("v(A, C) :- r(A, B), s(B, C)"));
  ASSERT_TRUE(view.Recompute(catalog_).ok());
  Updategram u{"r",
               {{Value("3"), Value("y")}},
               {{Value("2"), Value("y")}}};
  ASSERT_TRUE(ApplyToBase(&catalog_, u).ok());
  ASSERT_TRUE(view.ApplyUpdategram(catalog_, u).ok());
  MaterializedView fresh(MustParse("v(A, C) :- r(A, B), s(B, C)"));
  ASSERT_TRUE(fresh.Recompute(catalog_).ok());
  EXPECT_EQ(view.Contents(), fresh.Contents());
}

TEST_F(ViewsTest, IrrelevantUpdategramIsNoop) {
  MaterializedView view(MustParse("v(A) :- r(A, B)"));
  ASSERT_TRUE(view.Recompute(catalog_).ok());
  Updategram u{"s", {{Value("z"), Value("30")}}, {}};
  ASSERT_TRUE(ApplyToBase(&catalog_, u).ok());
  ASSERT_TRUE(view.ApplyUpdategram(catalog_, u).ok());
  EXPECT_EQ(view.size(), 2u);
  EXPECT_FALSE(view.DependsOn("s"));
}

TEST_F(ViewsTest, DeriveViewDeltaPropagates) {
  // The view-level updategram can be forwarded to downstream peers
  // (§3.1.2: "Updategrams on base data can be combined to create
  // updategrams for views").
  MaterializedView view(MustParse("v(A, C) :- r(A, B), s(B, C)"));
  ASSERT_TRUE(view.Recompute(catalog_).ok());
  Updategram u{"r", {{Value("3"), Value("x")}}, {}};
  ASSERT_TRUE(ApplyToBase(&catalog_, u).ok());
  auto delta = view.DeriveViewDelta(catalog_, u);
  ASSERT_TRUE(delta.ok());
  ASSERT_EQ(delta.value().inserts.size(), 1u);
  EXPECT_EQ(delta.value().inserts[0][0].as_string(), "3");
  EXPECT_TRUE(delta.value().deletes.empty());
}

TEST_F(ViewsTest, SelfJoinDeltaCorrect) {
  // Delta rules must handle two occurrences of the updated relation.
  auto e = catalog_.CreateTable(TableSchema::AllStrings("e", {"x", "y"}));
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE((*e)->InsertAll({{Value("a"), Value("b")},
                               {Value("b"), Value("c")}})
                  .ok());
  MaterializedView paths(MustParse("p(X, Z) :- e(X, Y), e(Y, Z)"));
  ASSERT_TRUE(paths.Recompute(catalog_).ok());
  EXPECT_EQ(paths.size(), 1u);  // a->c
  Updategram u{"e", {{Value("c"), Value("d")}}, {}};
  ASSERT_TRUE(ApplyToBase(&catalog_, u).ok());
  ASSERT_TRUE(paths.ApplyUpdategram(catalog_, u).ok());
  MaterializedView fresh(MustParse("p(X, Z) :- e(X, Y), e(Y, Z)"));
  ASSERT_TRUE(fresh.Recompute(catalog_).ok());
  EXPECT_EQ(paths.Contents(), fresh.Contents());
  EXPECT_EQ(paths.size(), 2u);  // a->c, b->d
}

TEST_F(ViewsTest, CostEstimatePrefersIncrementalForSmallDeltas) {
  auto est_small = EstimateRefreshCost(
      catalog_, MustParse("v(A, C) :- r(A, B), s(B, C)"),
      Updategram{"r", {{Value("3"), Value("x")}}, {}});
  EXPECT_EQ(est_small.choice, RefreshChoice::kIncremental);

  Updategram huge{"r", {}, {}};
  for (int i = 0; i < 100; ++i) {
    huge.inserts.push_back({Value(std::to_string(i)), Value("x")});
  }
  auto est_big = EstimateRefreshCost(
      catalog_, MustParse("v(A, C) :- r(A, B), s(B, C)"), huge);
  EXPECT_EQ(est_big.choice, RefreshChoice::kRecompute);
}

// ---------------------------------------------------- XML mapping (Fig 4)

constexpr char kBerkeleyDoc[] = R"(
<schedule>
  <college>
    <name>Letters and Science</name>
    <dept>
      <name>History</name>
      <course><title>Ancient History</title><size>120</size></course>
      <course><title>Medieval History</title><size>60</size></course>
    </dept>
    <dept>
      <name>Computer Science</name>
      <course><title>Databases</title><size>200</size></course>
    </dept>
  </college>
</schedule>
)";

// The Berkeley-to-MIT mapping, verbatim from the paper's Figure 4
// (modulo whitespace).
constexpr char kFig4Mapping[] = R"(
<catalog>
  <course> {$c = document("Berkeley.xml")/schedule/college/dept}
    <name> $c/name/text() </name>
    <subject> {$s = $c/course}
      <title> $s/title/text() </title>
      <enrollment> $s/size/text() </enrollment>
    </subject>
  </course>
</catalog>
)";

TEST(XmlMappingTest, ParsesFigure4) {
  auto mapping = XmlMapping::Parse(kFig4Mapping);
  ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
  EXPECT_EQ(mapping.value().template_root().tag(), "catalog");
}

TEST(XmlMappingTest, TranslatesBerkeleyToMit) {
  auto mapping = XmlMapping::Parse(kFig4Mapping);
  ASSERT_TRUE(mapping.ok());
  auto doc = xml::ParseXml(kBerkeleyDoc);
  ASSERT_TRUE(doc.ok());
  auto result = mapping.value().Translate({{"Berkeley.xml", doc->get()}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const xml::XmlNode& catalog = *result.value();
  EXPECT_EQ(catalog.tag(), "catalog");
  // One <course> per Berkeley dept.
  auto courses = catalog.ChildElements("course");
  ASSERT_EQ(courses.size(), 2u);
  EXPECT_EQ(courses[0]->FirstChild("name")->InnerText(), "History");
  // History has two subjects; CS one.
  EXPECT_EQ(courses[0]->ChildElements("subject").size(), 2u);
  EXPECT_EQ(courses[1]->ChildElements("subject").size(), 1u);
  // Field renaming: Berkeley size -> MIT enrollment.
  const xml::XmlNode* subject = courses[0]->ChildElements("subject")[0];
  EXPECT_EQ(subject->FirstChild("title")->InnerText(), "Ancient History");
  EXPECT_EQ(subject->FirstChild("enrollment")->InnerText(), "120");
}

TEST(XmlMappingTest, ResultValidatesAgainstMitDtd) {
  auto mapping = XmlMapping::Parse(kFig4Mapping);
  ASSERT_TRUE(mapping.ok());
  auto doc = xml::ParseXml(kBerkeleyDoc);
  ASSERT_TRUE(doc.ok());
  auto result = mapping.value().Translate({{"Berkeley.xml", doc->get()}});
  ASSERT_TRUE(result.ok());
  auto mit_dtd = xml::Dtd::Parse(
      "Element catalog(course*)\n"
      "Element course(name, subject*)\n"
      "Element subject(title, enrollment)\n");
  ASSERT_TRUE(mit_dtd.ok());
  EXPECT_TRUE(mit_dtd.value().Validate(*result.value()).ok());
}

TEST(XmlMappingTest, UnknownDocumentErrors) {
  auto mapping = XmlMapping::Parse(kFig4Mapping);
  ASSERT_TRUE(mapping.ok());
  auto result = mapping.value().Translate({});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(XmlMappingTest, UnboundVariableErrors) {
  auto mapping = XmlMapping::Parse(
      "<out><item> $nope/x/text() </item></out>");
  ASSERT_TRUE(mapping.ok());
  auto result = mapping.value().Translate({});
  EXPECT_FALSE(result.ok());
}

TEST(XmlMappingTest, LiteralTemplatePassesThrough) {
  auto mapping =
      XmlMapping::Parse("<out><greeting>hello</greeting></out>");
  ASSERT_TRUE(mapping.ok());
  auto result = mapping.value().Translate({});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value()->FirstChild("greeting")->InnerText(), "hello");
}

TEST(XmlMappingChainTest, TrentoLeveragesRomeMapping) {
  // Example 3.1's reuse story as XML mappings: Trento maps to Rome's
  // schema; Rome already maps to the shared catalog schema. Composing
  // the two hops carries a Trento document all the way without Trento
  // ever seeing the catalog schema.
  const char* trento_doc =
      "<ateneo><corso><titolo>Storia Antica</titolo>"
      "<posti>80</posti></corso>"
      "<corso><titolo>Diritto Romano</titolo><posti>50</posti></corso>"
      "</ateneo>";
  // Hop 1: Trento's vocabulary -> Rome's.
  auto trento_to_rome = XmlMapping::Parse(
      "<universita><insegnamento> {$c = document(\"Trento.xml\")/ateneo"
      "/corso}\n"
      "<nome> $c/titolo/text() </nome>"
      "<capienza> $c/posti/text() </capienza>"
      "</insegnamento></universita>");
  ASSERT_TRUE(trento_to_rome.ok()) << trento_to_rome.status().ToString();
  // Hop 2: Rome's vocabulary -> the DElearning catalog (pre-existing).
  auto rome_to_catalog = XmlMapping::Parse(
      "<catalog><course> {$i = document(\"Roma.xml\")/universita"
      "/insegnamento}\n"
      "<title> $i/nome/text() </title>"
      "<enrollment> $i/capienza/text() </enrollment>"
      "</course></catalog>");
  ASSERT_TRUE(rome_to_catalog.ok());

  XmlMappingChain chain;
  chain.AddHop(std::move(trento_to_rome).value(), "Trento.xml");
  chain.AddHop(std::move(rome_to_catalog).value(), "Roma.xml");
  EXPECT_EQ(chain.size(), 2u);

  auto doc = xml::ParseXml(trento_doc);
  ASSERT_TRUE(doc.ok());
  auto tops = doc.value()->ChildElements();
  ASSERT_EQ(tops.size(), 1u);
  auto result = chain.Translate(*tops[0]);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value()->tag(), "catalog");
  auto courses = result.value()->ChildElements("course");
  ASSERT_EQ(courses.size(), 2u);
  EXPECT_EQ(courses[0]->FirstChild("title")->InnerText(), "Storia Antica");
  EXPECT_EQ(courses[0]->FirstChild("enrollment")->InnerText(), "80");
}

TEST(PdmsXmlTest, TranslateDocumentFindsShortestPath) {
  PdmsNetwork net;
  ASSERT_TRUE(net.AddPeer("trento").ok());
  ASSERT_TRUE(net.AddPeer("roma").ok());
  ASSERT_TRUE(net.AddPeer("delearning").ok());
  auto t2r = XmlMapping::Parse(
      "<universita><insegnamento> {$c = document(\"T\")/ateneo/corso}\n"
      "<nome> $c/titolo/text() </nome></insegnamento></universita>");
  auto r2d = XmlMapping::Parse(
      "<catalog><course> {$i = document(\"R\")/universita/insegnamento}\n"
      "<title> $i/nome/text() </title></course></catalog>");
  ASSERT_TRUE(t2r.ok());
  ASSERT_TRUE(r2d.ok());
  ASSERT_TRUE(net.AddXmlMapping("trento", "roma",
                                std::move(t2r).value(), "T")
                  .ok());
  ASSERT_TRUE(net.AddXmlMapping("roma", "delearning",
                                std::move(r2d).value(), "R")
                  .ok());
  auto doc = xml::ParseXml(
      "<ateneo><corso><titolo>Storia</titolo></corso></ateneo>");
  ASSERT_TRUE(doc.ok());
  auto out =
      net.TranslateDocument("trento", "delearning", *doc.value());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value()->tag(), "catalog");
  ASSERT_EQ(out.value()->ChildElements("course").size(), 1u);
  EXPECT_EQ(out.value()
                ->ChildElements("course")[0]
                ->FirstChild("title")
                ->InnerText(),
            "Storia");
  // No reverse path registered.
  EXPECT_FALSE(
      net.TranslateDocument("delearning", "trento", *doc.value()).ok());
  // Identity translation.
  auto same = net.TranslateDocument("trento", "trento", *doc.value());
  ASSERT_TRUE(same.ok());
  // Unknown peer rejected at registration time.
  auto m = XmlMapping::Parse("<x> {$a = document(\"D\")/y} </x>");
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(
      net.AddXmlMapping("nope", "roma", std::move(m).value(), "D").ok());
}

TEST(PdmsXmlTest, TranslationValidatedAgainstTargetDtd) {
  PdmsNetwork net;
  ASSERT_TRUE(net.AddPeer("a").ok());
  auto peer_b = net.AddPeer("b");
  ASSERT_TRUE(peer_b.ok());
  // b declares its schema: catalog(course*), course = title leaf.
  auto dtd = xml::Dtd::Parse("Element catalog(course*)\nElement course(title)\n");
  ASSERT_TRUE(dtd.ok());
  (*peer_b)->SetXmlSchema(std::move(dtd).value());
  // A mapping producing a NONCONFORMING document (wrong root).
  auto bad = XmlMapping::Parse(
      "<wrong><item> {$c = document(\"A\")/src/x} </item></wrong>");
  ASSERT_TRUE(bad.ok());
  ASSERT_TRUE(net.AddXmlMapping("a", "b", std::move(bad).value(), "A").ok());
  auto doc = xml::ParseXml("<src><x>1</x></src>");
  ASSERT_TRUE(doc.ok());
  auto out = net.TranslateDocument("a", "b", *doc.value());
  EXPECT_FALSE(out.ok());  // DTD validation rejects the wrong root
}

TEST(XmlMappingChainTest, EmptyChainFails) {
  XmlMappingChain chain;
  auto doc = xml::ParseXml("<x/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(chain.Translate(*doc.value()).ok());
}

TEST_F(PdmsTest, ShipDataVsShipQueryAccounting) {
  // Ship-query: only the 2 result rows cross the wire. Ship-data: MIT's
  // whole course table (2 rows here, but grows with data).
  NetworkCostModel ship_query;
  ship_query.strategy = ExecutionStrategy::kShipQuery;
  ship_query.per_row_ms = 1.0;
  ExecutionStats sq;
  auto rows = net_.Answer(
      MustParse("q(T) :- uw:course(\"6.830\", T)"), {}, &sq, ship_query);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(sq.rows_shipped, 1u);  // just the answer

  NetworkCostModel ship_data;
  ship_data.strategy = ExecutionStrategy::kShipData;
  ship_data.per_row_ms = 1.0;
  ExecutionStats sd;
  rows = net_.Answer(MustParse("q(T) :- uw:course(\"6.830\", T)"), {}, &sd,
                     ship_data);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(sd.rows_shipped, 2u);  // MIT's whole table
  EXPECT_GT(sd.simulated_network_ms, sq.simulated_network_ms);
}

// Ship-data ships each remote table a rewriting reads once: the
// rewriting mit:course(I, T), mit:course(I, T2) of a self-join reads
// MIT's 3-row table twice but ships it once, so the answer ships 3 rows
// for each of its three rewritings that read MIT.
TEST(ShipDataTest, SelfJoinShipsEachRemoteTableOnce) {
  PdmsNetwork net;
  for (const char* peer : {"uw", "mit"}) {
    ASSERT_TRUE(net.AddPeer(peer).ok());
    ASSERT_TRUE(net.AddStoredRelation(
                       peer, TableSchema::AllStrings("course", {"id", "title"}))
                    .ok());
  }
  ASSERT_TRUE(net.mutable_storage()
                  ->GetTable("mit:course")
                  .value()
                  ->InsertAll({{Value("6.830"), Value("Databases")},
                               {Value("6.033"), Value("Systems")},
                               {Value("6.824"), Value("Distributed Systems")}})
                  .ok());
  ASSERT_TRUE(net.mutable_storage()
                  ->GetTable("uw:course")
                  .value()
                  ->Insert({Value("cse444"), Value("Databases")})
                  .ok());
  ASSERT_TRUE(net.AddMapping(PeerMapping{
                      {"u2m", MustParse("m(I, T) :- mit:course(I, T)"),
                       MustParse("m(I, T) :- uw:course(I, T)")},
                      "mit",
                      "uw",
                      true})
                  .ok());
  NetworkCostModel ship_data;
  ship_data.strategy = ExecutionStrategy::kShipData;
  ExecutionStats stats;
  auto rows = net.Answer(MustParse("q(T) :- uw:course(I, T), uw:course(I, T2)"),
                         {}, &stats, ship_data);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 3u);  // each distinct title
  EXPECT_EQ(stats.rewritings_evaluated, 4u);
  EXPECT_EQ(stats.rows_shipped, 9u);
}

// ---- Fault tolerance (peer failure injection, §3.1.2) ----

TEST(FaultInjectorTest, ModesAndRestore) {
  FaultInjector inj(1);
  inj.SetDown("mit");
  inj.SetFlaky("uw", 0.5);
  inj.SetSlow("berkeley", 40.0);
  EXPECT_EQ(inj.GetFault("mit").mode, FaultMode::kDown);
  EXPECT_EQ(inj.GetFault("uw").mode, FaultMode::kFlaky);
  EXPECT_DOUBLE_EQ(inj.GetFault("uw").failure_probability, 0.5);
  EXPECT_EQ(inj.GetFault("berkeley").mode, FaultMode::kSlow);
  EXPECT_EQ(inj.GetFault("stanford").mode, FaultMode::kHealthy);
  EXPECT_EQ(inj.FaultyPeers(),
            (std::vector<std::string>{"berkeley", "mit", "uw"}));
  inj.Restore("mit");
  EXPECT_EQ(inj.GetFault("mit").mode, FaultMode::kHealthy);
  inj.RestoreAll();
  EXPECT_TRUE(inj.FaultyPeers().empty());
}

TEST(FaultInjectorTest, ContactSemantics) {
  FaultInjector inj(1);
  inj.SetDown("dead");
  inj.SetSlow("turtle", 100.0);

  // Healthy contact: one round trip.
  ContactOutcome healthy = inj.Contact("alive", 5.0, 50.0);
  EXPECT_TRUE(healthy.status.ok());
  EXPECT_DOUBLE_EQ(healthy.elapsed_ms, 5.0);

  // Down peer: detected only after the deadline elapses.
  ContactOutcome down = inj.Contact("dead", 5.0, 50.0);
  EXPECT_EQ(down.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(down.status.message().find("dead"), std::string::npos);
  EXPECT_DOUBLE_EQ(down.elapsed_ms, 50.0);

  // Slow peer past the deadline: DeadlineExceeded, deadline consumed.
  ContactOutcome slow = inj.Contact("turtle", 5.0, 50.0);
  EXPECT_EQ(slow.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_DOUBLE_EQ(slow.elapsed_ms, 50.0);

  // Slow peer under a generous deadline: succeeds at full latency.
  ContactOutcome ok_slow = inj.Contact("turtle", 5.0, 200.0);
  EXPECT_TRUE(ok_slow.status.ok());
  EXPECT_DOUBLE_EQ(ok_slow.elapsed_ms, 105.0);

  // No deadline: a down peer costs one wasted round trip.
  ContactOutcome down_fast = inj.Contact("dead", 5.0);
  EXPECT_EQ(down_fast.status.code(), StatusCode::kUnavailable);
  EXPECT_DOUBLE_EQ(down_fast.elapsed_ms, 5.0);
  EXPECT_EQ(inj.contacts_attempted(), 5u);
}

TEST(FaultInjectorTest, InjectFractionIsDeterministicCount) {
  std::vector<std::string> peers{"a", "b", "c", "d", "e"};
  FaultInjector inj(99);
  inj.InjectFraction(peers, 0.4, PeerFault{FaultMode::kDown, 0.0, 0.0});
  EXPECT_EQ(inj.FaultyPeers().size(), 2u);  // round(0.4 * 5)
  // Same seed picks the same victims.
  FaultInjector again(99);
  again.InjectFraction(peers, 0.4, PeerFault{FaultMode::kDown, 0.0, 0.0});
  EXPECT_EQ(again.FaultyPeers(), inj.FaultyPeers());
}

/// Two stored peers feeding one hub vocabulary: the query at `hub`
/// reformulates into one rewriting per stored peer, so killing one peer
/// loses exactly that peer's rows — a controlled partial answer.
class FaultPdmsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* name : {"hub", "left", "right"}) {
      ASSERT_TRUE(net_.AddPeer(name).ok());
    }
    for (const char* name : {"left", "right"}) {
      auto table = net_.AddStoredRelation(
          name, TableSchema::AllStrings("course", {"id", "title"}));
      ASSERT_TRUE(table.ok());
      ASSERT_TRUE((*table)
                      ->InsertAll({{Value(std::string(name) + "1"),
                                    Value("Databases")},
                                   {Value(std::string(name) + "2"),
                                    Value("Systems")}})
                      .ok());
      ASSERT_TRUE(net_.AddMapping(PeerMapping{
                          {std::string(name) + "2hub",
                           MustParse("m(I, T) :- " + std::string(name) +
                                     ":course(I, T)"),
                           MustParse("m(I, T) :- hub:course(I, T)")},
                          name,
                          "hub",
                          false})
                      .ok());
    }
    query_ = MustParse("q(I, T) :- hub:course(I, T)");
  }

  PdmsNetwork net_;
  ConjunctiveQuery query_;
};

TEST_F(FaultPdmsTest, FailFastNamesTheDeadPeer) {
  FaultInjector inj(7);
  inj.SetDown("right");
  NetworkCostModel cost;
  cost.faults = &inj;
  cost.failure_policy = FailurePolicy::kFailFast;
  ExecutionStats stats;
  auto rows = net_.Answer(query_, {}, &stats, cost);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(rows.status().message().find("right"), std::string::npos);
  // Stats survive the failure: the caller can see what was spent.
  EXPECT_EQ(stats.completeness.unreachable_peers,
            (std::set<std::string>{"right"}));
  EXPECT_GE(stats.completeness.contacts_failed, 1u);
}

TEST_F(FaultPdmsTest, BestEffortReturnsPartialAnswer) {
  FaultInjector inj(7);
  inj.SetDown("right");
  NetworkCostModel cost;
  cost.faults = &inj;
  cost.failure_policy = FailurePolicy::kBestEffort;
  ExecutionStats stats;
  auto rows = net_.Answer(query_, {}, &stats, cost);
  ASSERT_TRUE(rows.ok());
  // Exactly left's rows survive — partial, never wrong.
  ASSERT_EQ(rows.value().size(), 2u);
  for (const auto& row : rows.value()) {
    EXPECT_EQ(row[0].as_string().substr(0, 4), "left");
  }
  EXPECT_FALSE(stats.completeness.complete());
  EXPECT_EQ(stats.completeness.rewritings_total, 2u);
  EXPECT_EQ(stats.completeness.rewritings_skipped, 1u);
  EXPECT_EQ(stats.completeness.unreachable_peers,
            (std::set<std::string>{"right"}));
  // The skipped rewriting's peer is not counted as contacted.
  EXPECT_EQ(stats.peers_contacted, 1u);
  EXPECT_EQ(stats.rewritings_evaluated, 1u);
}

TEST_F(FaultPdmsTest, PartialAnswersDeterministicUnderSeed) {
  auto run = [&](uint64_t seed) {
    FaultInjector inj(seed);
    inj.SetFlaky("left", 0.5);
    inj.SetFlaky("right", 0.5);
    NetworkCostModel cost;
    cost.faults = &inj;
    cost.failure_policy = FailurePolicy::kBestEffort;
    ExecutionStats stats;
    auto rows = net_.Answer(query_, {}, &stats, cost);
    EXPECT_TRUE(rows.ok());
    std::vector<std::string> ids;
    for (const auto& row : rows.value()) ids.push_back(row[0].as_string());
    std::sort(ids.begin(), ids.end());
    return std::make_pair(ids, stats.simulated_network_ms);
  };
  // Same seed → byte-identical answers and simulated clock.
  EXPECT_EQ(run(42), run(42));
  EXPECT_EQ(run(1234), run(1234));
}

TEST_F(FaultPdmsTest, RetryRecoversTransientFailure) {
  // Heavily flaky peers (60% per-contact drop) but generous retries:
  // the answer comes back complete, at a visible retry/backoff cost.
  FaultInjector inj(11);
  inj.SetFlaky("left", 0.6);
  inj.SetFlaky("right", 0.6);
  NetworkCostModel cost;
  cost.faults = &inj;
  cost.failure_policy = FailurePolicy::kBestEffort;
  cost.retry.max_attempts = 10;
  cost.retry.base_backoff_ms = 1.0;
  ExecutionStats stats;
  auto rows = net_.Answer(query_, {}, &stats, cost);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 4u);
  EXPECT_TRUE(stats.completeness.complete());
  EXPECT_GE(stats.completeness.retries_attempted, 1u);
  EXPECT_GT(stats.completeness.backoff_ms, 0.0);
  // Backoff waits are charged to the simulated clock.
  EXPECT_GE(stats.simulated_network_ms, stats.completeness.backoff_ms);
}

TEST_F(FaultPdmsTest, DeadlineExceededOnSlowPeer) {
  FaultInjector inj(3);
  inj.SetSlow("left", 100.0);
  NetworkCostModel cost;
  cost.faults = &inj;
  cost.failure_policy = FailurePolicy::kFailFast;
  cost.retry.deadline_ms = 50.0;
  auto rows = net_.Answer(query_, {}, nullptr, cost);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(rows.status().message().find("left"), std::string::npos);

  // A deadline the slow peer fits under: the full answer, with the
  // extra latency on the simulated clock.
  cost.retry.deadline_ms = 200.0;
  ExecutionStats stats;
  rows = net_.Answer(query_, {}, &stats, cost);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 4u);
  EXPECT_GE(stats.simulated_network_ms, 100.0);
}

TEST_F(FaultPdmsTest, BackoffScheduleIsExponentialAndExact) {
  // A permanently down peer under best-effort with 3 attempts and a
  // 50ms deadline: 3 timeouts (150ms) + backoffs 10ms + 20ms, plus one
  // healthy 5ms round trip to `left` — all on the simulated clock.
  FaultInjector inj(5);
  inj.SetDown("right");
  NetworkCostModel cost;
  cost.faults = &inj;
  cost.failure_policy = FailurePolicy::kBestEffort;
  cost.retry.max_attempts = 3;
  cost.retry.base_backoff_ms = 10.0;
  cost.retry.deadline_ms = 50.0;
  cost.per_row_ms = 0.0;
  ExecutionStats stats;
  auto rows = net_.Answer(query_, {}, &stats, cost);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(stats.completeness.retries_attempted, 2u);
  EXPECT_EQ(stats.completeness.contacts_failed, 3u);
  EXPECT_DOUBLE_EQ(stats.completeness.backoff_ms, 30.0);
  EXPECT_DOUBLE_EQ(stats.simulated_network_ms, 150.0 + 30.0 + 5.0);
}

TEST_F(FaultPdmsTest, NoInjectorMeansPerfectNetwork) {
  ExecutionStats stats;
  auto rows = net_.Answer(query_, {}, &stats);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 4u);
  EXPECT_TRUE(stats.completeness.complete());
  EXPECT_TRUE(stats.completeness.unreachable_peers.empty());
  EXPECT_EQ(stats.completeness.rewritings_total, 2u);
  EXPECT_EQ(stats.peers_contacted, 2u);
}

TEST_F(FaultPdmsTest, SharedRowsCarryEveryDerivingPeer) {
  // Both stored peers also hold the same two courses, so each of those
  // rows is derived by both rewritings.
  const std::vector<Row> shared = {{Value("shared1"), Value("Networks")},
                                   {Value("shared2"), Value("Theory")}};
  for (const char* name : {"left", "right"}) {
    auto table =
        net_.mutable_storage()->GetTable(QualifiedName(name, "course"));
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*table)->InsertAll(shared).ok());
  }
  auto rewritings = net_.Reformulate(query_);
  ASSERT_TRUE(rewritings.ok());
  ASSERT_EQ(rewritings.value().size(), 2u);
  const std::string first =
      SplitQualifiedName(rewritings.value()[0].body()[0].relation).first;
  const std::string second = first == "left" ? "right" : "left";
  // Each shared row appears once, where the first rewriting derives it.
  const std::vector<Row> want = {{Value(first + "1"), Value("Databases")},
                                 {Value(first + "2"), Value("Systems")},
                                 shared[0],
                                 shared[1],
                                 {Value(second + "1"), Value("Databases")},
                                 {Value(second + "2"), Value("Systems")}};
  auto peers_of = [](const Row& row) {
    std::string id = row[0].as_string();
    if (id.rfind("shared", 0) == 0) {
      return std::set<std::string>{"left", "right"};
    }
    return std::set<std::string>{id.substr(0, id.size() - 1)};
  };

  auto serial = net_.AnswerWithProvenance(query_);
  ASSERT_TRUE(serial.ok());
  std::vector<Row> rows;
  for (const auto& p : serial.value()) {
    rows.push_back(p.row);
    EXPECT_EQ(p.peers, peers_of(p.row)) << p.row[0].as_string();
  }
  EXPECT_EQ(rows, want);
  auto plain = net_.Answer(query_);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.value(), want);

  ThreadPool pool(2);
  NetworkCostModel pooled;
  pooled.eval.pool = &pool;
  auto parallel = net_.AnswerWithProvenance(query_, {}, nullptr, pooled);
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(parallel.value().size(), serial.value().size());
  for (size_t i = 0; i < serial.value().size(); ++i) {
    EXPECT_EQ(parallel.value()[i].row, serial.value()[i].row);
    EXPECT_EQ(parallel.value()[i].peers, serial.value()[i].peers);
  }

  // With `right` down, the shared rows come from `left` alone.
  FaultInjector inj(7);
  inj.SetDown("right");
  NetworkCostModel degraded;
  degraded.faults = &inj;
  degraded.failure_policy = FailurePolicy::kBestEffort;
  auto partial = net_.AnswerWithProvenance(query_, {}, nullptr, degraded);
  ASSERT_TRUE(partial.ok());
  ASSERT_EQ(partial.value().size(), 4u);
  for (const auto& p : partial.value()) {
    EXPECT_EQ(p.peers, std::set<std::string>{"left"})
        << p.row[0].as_string();
  }
}

TEST(AnswerAccountingTest, FailedRewritingEvaluationIsNotACompleteAnswer) {
  // Figure 2 with 5 courses per peer. A plan cached before one peer's
  // table is dropped (as core::Revere::ExportConceptToPeer does when it
  // replaces an export) still names that table, so one rewriting fails
  // to evaluate; the answer must not claim to be complete.
  PdmsNetwork net;
  datagen::PdmsGenOptions options;
  options.topology = datagen::Topology::kFigure2;
  options.rows_per_peer = 5;
  auto report = datagen::BuildUniversityPdms(&net, options);
  ASSERT_TRUE(report.ok());
  const ConjunctiveQuery query = datagen::AllCoursesQuery(report.value(), 0);
  ExecutionStats stats;
  auto warm = net.Answer(query, {}, &stats);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm.value().size(), 30u);
  ASSERT_EQ(stats.completeness.rewritings_total, 6u);
  ASSERT_TRUE(net.mutable_storage()
                  ->DropTable(QualifiedName(report.value().peer_names[5],
                                            report.value().relation_names[5]))
                  .ok());

  // Fail-fast (the default): the rewriting's error is the answer, and
  // the stats spent so far are still reported.
  stats = ExecutionStats{};
  auto failed = net.Answer(query, {}, &stats);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(stats.plan_cache_hits, 1u);
  EXPECT_EQ(stats.completeness.rewritings_total, 6u);

  // Best-effort: the other five peers' rows, with the loss counted.
  NetworkCostModel cost;
  cost.failure_policy = FailurePolicy::kBestEffort;
  stats = ExecutionStats{};
  auto partial = net.Answer(query, {}, &stats, cost);
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial.value().size(), 25u);
  EXPECT_EQ(stats.plan_cache_hits, 1u);
  EXPECT_EQ(stats.rewritings_evaluated, 5u);
  EXPECT_EQ(stats.completeness.rewritings_skipped, 1u);
  EXPECT_FALSE(stats.completeness.complete());
}

TEST(XmlMappingTest, EmptySelectionYieldsNoElements) {
  auto mapping = XmlMapping::Parse(
      "<out><item> {$x = document(\"d\")/missing} </item></out>");
  ASSERT_TRUE(mapping.ok());
  auto doc = xml::ParseXml("<root/>");
  ASSERT_TRUE(doc.ok());
  auto result = mapping.value().Translate({{"d", doc->get()}});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value()->ChildElements("item").empty());
}

}  // namespace
}  // namespace revere::piazza
