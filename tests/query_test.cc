#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/query/containment.h"
#include "src/query/cq.h"
#include "src/query/evaluate.h"
#include "src/query/glav.h"
#include "src/query/rewrite.h"
#include "src/query/unfold.h"
#include "src/storage/catalog.h"

namespace revere::query {
namespace {

using storage::Catalog;
using storage::Row;
using storage::TableSchema;
using storage::Value;

ConjunctiveQuery MustParse(const std::string& text) {
  auto r = ConjunctiveQuery::Parse(text);
  EXPECT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
  return r.value();
}

TEST(CqParseTest, HeadAndBody) {
  ConjunctiveQuery q =
      MustParse("q(X, Y) :- course(X, T, D), teaches(X, Y)");
  EXPECT_EQ(q.name(), "q");
  EXPECT_EQ(q.head().size(), 2u);
  EXPECT_EQ(q.body().size(), 2u);
  EXPECT_TRUE(q.head()[0].is_var());
  EXPECT_EQ(q.head()[0].var(), "X");
}

TEST(CqParseTest, Constants) {
  ConjunctiveQuery q = MustParse("q(X) :- dept(X, \"CSE\"), size(X, 42)");
  EXPECT_EQ(q.body()[0].args[1].value().as_string(), "CSE");
  EXPECT_EQ(q.body()[1].args[1].value().as_int(), 42);
  // Lower-case bare identifier is a symbolic constant.
  ConjunctiveQuery q2 = MustParse("q(X) :- dept(X, cse)");
  EXPECT_FALSE(q2.body()[0].args[1].is_var());
  EXPECT_EQ(q2.body()[0].args[1].value().as_string(), "cse");
}

TEST(CqParseTest, FactAndErrors) {
  ConjunctiveQuery fact = MustParse("course(\"DB\", 200)");
  EXPECT_TRUE(fact.body().empty());
  EXPECT_FALSE(ConjunctiveQuery::Parse("q(X :- r(X)").ok());
  EXPECT_FALSE(ConjunctiveQuery::Parse("q(X) : r(X)").ok());
  EXPECT_FALSE(ConjunctiveQuery::Parse("q(X) :- r(X) junk(").ok());
}

TEST(CqTest, ToStringRoundTrip) {
  const std::string text = "q(X, \"CSE\") :- course(X, T), size(X, 10)";
  ConjunctiveQuery q = MustParse(text);
  EXPECT_EQ(MustParse(q.ToString()).ToString(), q.ToString());
}

TEST(CqTest, VarsAndSafety) {
  ConjunctiveQuery q = MustParse("q(X) :- r(X, Y), s(Y, Z)");
  EXPECT_EQ(q.HeadVars(), (std::set<std::string>{"X"}));
  EXPECT_EQ(q.ExistentialVars(), (std::set<std::string>{"Y", "Z"}));
  EXPECT_TRUE(q.IsSafe());
  ConjunctiveQuery unsafe = MustParse("q(W) :- r(X, Y)");
  EXPECT_FALSE(unsafe.IsSafe());
}

TEST(CqTest, RenameVarsIsConsistent) {
  ConjunctiveQuery q = MustParse("q(X) :- r(X, Y), s(Y, X)");
  ConjunctiveQuery r = q.RenameVars("p_");
  EXPECT_EQ(r.head()[0].var(), "p_X");
  EXPECT_EQ(r.body()[0].args[0].var(), "p_X");
  EXPECT_EQ(r.body()[1].args[1].var(), "p_X");
}

TEST(MatchAtomTest, BindsAndChecks) {
  Atom a = MustParse("x(X, Y, \"c\")").HeadAtom();
  Atom b = MustParse("x(\"1\", \"2\", \"c\")").HeadAtom();
  Substitution sub;
  EXPECT_TRUE(MatchAtom(a, b, &sub));
  EXPECT_EQ(Apply(sub, a).ToString(), b.ToString());
  // Constant mismatch.
  Atom c = MustParse("x(\"1\", \"2\", \"d\")").HeadAtom();
  Substitution sub2;
  EXPECT_FALSE(MatchAtom(a, c, &sub2));
  // Repeated variable must bind consistently.
  Atom rep = MustParse("x(X, X, \"c\")").HeadAtom();
  Substitution sub3;
  EXPECT_FALSE(MatchAtom(rep, b, &sub3));
}

class EvaluateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto course = catalog_.CreateTable(
        TableSchema::AllStrings("course", {"id", "title", "dept"}));
    ASSERT_TRUE(course.ok());
    ASSERT_TRUE((*course)
                    ->InsertAll({{Value("c1"), Value("DB"), Value("CSE")},
                                 {Value("c2"), Value("OS"), Value("CSE")},
                                 {Value("c3"), Value("Rome"), Value("HIST")}})
                    .ok());
    auto teaches = catalog_.CreateTable(
        TableSchema::AllStrings("teaches", {"course", "prof"}));
    ASSERT_TRUE(teaches.ok());
    ASSERT_TRUE((*teaches)
                    ->InsertAll({{Value("c1"), Value("halevy")},
                                 {Value("c2"), Value("etzioni")},
                                 {Value("c3"), Value("doan")},
                                 {Value("c1"), Value("ives")}})
                    .ok());
  }
  Catalog catalog_;
};

TEST_F(EvaluateTest, SingleAtom) {
  auto rows = EvaluateCQ(catalog_, MustParse("q(X) :- course(X, T, D)"));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 3u);
}

TEST_F(EvaluateTest, ConstantSelection) {
  auto rows = EvaluateCQ(catalog_,
                         MustParse("q(X, T) :- course(X, T, \"CSE\")"));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 2u);
}

TEST_F(EvaluateTest, Join) {
  auto rows = EvaluateCQ(
      catalog_, MustParse("q(T, P) :- course(C, T, D), teaches(C, P)"));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 4u);
}

TEST_F(EvaluateTest, JoinWithSelection) {
  auto rows = EvaluateCQ(catalog_, MustParse(
      "q(P) :- course(C, T, \"CSE\"), teaches(C, P)"));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 3u);  // halevy, etzioni, ives
}

TEST_F(EvaluateTest, SetSemanticsDeduplicates) {
  auto rows = EvaluateCQ(catalog_,
                         MustParse("q(D) :- course(C, T, D)"));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 2u);  // CSE, HIST
}

TEST_F(EvaluateTest, HeadConstant) {
  auto rows = EvaluateCQ(
      catalog_, MustParse("q(X, \"tagged\") :- course(X, T, \"HIST\")"));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0][1].as_string(), "tagged");
}

TEST_F(EvaluateTest, EmptyResult) {
  auto rows = EvaluateCQ(catalog_,
                         MustParse("q(X) :- course(X, T, \"MATH\")"));
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows.value().empty());
}

TEST_F(EvaluateTest, MissingRelationErrors) {
  EXPECT_FALSE(EvaluateCQ(catalog_, MustParse("q(X) :- nope(X)")).ok());
}

TEST_F(EvaluateTest, ArityMismatchErrors) {
  EXPECT_FALSE(EvaluateCQ(catalog_, MustParse("q(X) :- course(X)")).ok());
}

TEST_F(EvaluateTest, ColumnarAndMapEnginesAgree) {
  EvalOptions map_engine;
  map_engine.engine = EvalEngine::kMap;
  EvalOptions columnar;  // the default engine
  const std::vector<std::string> queries = {
      "q(X) :- course(X, T, D)",
      "q(X, T) :- course(X, T, \"CSE\")",
      "q(T, P) :- course(C, T, D), teaches(C, P)",
      "q(P) :- course(C, T, \"CSE\"), teaches(C, P)",
      "q(D) :- course(C, T, D)",
      "q(X, \"tagged\") :- course(X, T, \"HIST\")",
      "q(X) :- course(X, T, \"MATH\")",
      "q(C) :- teaches(C, P), teaches(C, Q), course(C, T, D)",
  };
  for (const auto& text : queries) {
    auto via_map = EvaluateCQ(catalog_, MustParse(text), map_engine);
    auto via_columnar = EvaluateCQ(catalog_, MustParse(text), columnar);
    ASSERT_TRUE(via_map.ok()) << text;
    ASSERT_TRUE(via_columnar.ok()) << text;
    EXPECT_EQ(via_map.value(), via_columnar.value()) << text;
  }
}

// A query with no body yields one head row of its constants, with a
// null for each head variable, on both engines.
TEST_F(EvaluateTest, BodyFreeQueriesEmitOneHeadRow) {
  EvalOptions map_engine;
  map_engine.engine = EvalEngine::kMap;
  EvalOptions columnar;
  columnar.engine = EvalEngine::kColumnar;
  const std::vector<std::pair<std::string, Row>> cases = {
      {"course(\"DB\", 200)", {Value("DB"), Value(int64_t{200})}},
      {"q(X, \"k\")", {Value(), Value("k")}},
  };
  for (const auto& [text, want] : cases) {
    for (const EvalOptions& options : {map_engine, columnar}) {
      auto rows = EvaluateCQ(catalog_, MustParse(text), options);
      ASSERT_TRUE(rows.ok()) << text;
      EXPECT_EQ(rows.value(), std::vector<Row>{want}) << text;
    }
  }
}

// The columnar engine and the map reference must be observationally
// identical — same rows, same order — on randomized tables, not just
// the handpicked fixture.
TEST(EvaluateDifferentialTest, EnginesAgreeOnRandomTables) {
  Rng rng(7);
  const std::vector<std::string> shapes = {
      "q(X, Y) :- r(X, Y)",
      "q(X) :- r(X, X)",
      "q(X, Z) :- r(X, Y), s(Y, Z)",
      "q(X) :- r(X, Y), s(Y, \"v1\")",
      "q(X, Y) :- r(X, A), s(Y, A)",
      "q(A) :- r(X, A), s(A, Y), r(Y, B)",
  };
  for (int round = 0; round < 6; ++round) {
    Catalog catalog;
    for (const char* name : {"r", "s"}) {
      auto table = catalog.CreateTable(
          TableSchema::AllStrings(name, {"a", "b"}));
      ASSERT_TRUE(table.ok());
      size_t n = 10 + rng.Index(40);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(
            (*table)
                ->Insert({Value(Numbered("v", rng.Index(8))),
                          Value(Numbered("v", rng.Index(8)))})
                .ok());
      }
    }
    EvalOptions map_engine;
    map_engine.engine = EvalEngine::kMap;
    EvalOptions columnar;
    columnar.engine = EvalEngine::kColumnar;
    for (const auto& text : shapes) {
      auto reference = EvaluateCQ(catalog, MustParse(text), map_engine);
      ASSERT_TRUE(reference.ok()) << text;
      auto got = EvaluateCQ(catalog, MustParse(text), columnar);
      ASSERT_TRUE(got.ok()) << text;
      EXPECT_EQ(reference.value(), got.value())
          << "round " << round << ": " << text;
    }
  }

  // Three-column tables large enough for every candidate range the
  // columnar engine filters: stage 0 spans several 1,024-row chunks,
  // and join-step probe ranges run from under 16 rows to over 1,024.
  // Value k of a column's domain is drawn with falling probability, so
  // one table holds both large and small groups. `t` stays at 300 rows
  // so the map reference's nested scans stay fast.
  const std::vector<std::string> wide_shapes = {
      // A cross-step check: s's second position must equal r's X.
      "q(X, Y) :- r(X, Y, Z), s(Y, X, W)",
      // Repeated variables: checks within one atom, at stage 0 and at
      // a join step.
      "q(X) :- r(X, X, Z)",
      "q(X, W) :- r(X, Y, Y), s(Y, W, W)",
      // Constants: absent as the probe, as a stage-0 check and as a
      // join-step check; present as a stage-0 check.
      "q(X, Y) :- s(X, Y, \"nope\")",
      "q(Y) :- s(\"v1\", Y, \"nope\")",
      "q(X) :- r(X, Y, \"v1\"), s(Y, Z, \"nope\")",
      "q(Y) :- s(\"v1\", Y, \"v2\")",
      // A probe and a check on the same snapshot and column.
      "q(Y, W) :- t(X, Y, Z), t(X, W, Z)",
      // Three steps, each join step with a cross-step check.
      "q(X, W) :- t(X, Y, Z), t(Y, Z, W), t(W, X, V)",
  };
  struct TableSpec {
    const char* name;
    size_t rows;
    size_t domain;
  };
  const std::vector<std::vector<TableSpec>> wide_rounds = {
      {{"r", 300, 12}, {"s", 3500, 4}, {"t", 300, 12}},
      {{"r", 3500, 4}, {"s", 300, 12}, {"t", 300, 4}},
  };
  for (size_t round = 0; round < wide_rounds.size(); ++round) {
    Catalog catalog;
    for (const TableSpec& spec : wide_rounds[round]) {
      auto table = catalog.CreateTable(
          TableSchema::AllStrings(spec.name, {"a", "b", "c"}));
      ASSERT_TRUE(table.ok());
      auto draw = [&] {
        const size_t k = rng.Index(rng.Index(spec.domain) + 1);
        return Value(Numbered("v", k));
      };
      for (size_t i = 0; i < spec.rows; ++i) {
        ASSERT_TRUE((*table)->Insert({draw(), draw(), draw()}).ok());
      }
    }
    EvalOptions map_engine;
    map_engine.engine = EvalEngine::kMap;
    EvalOptions columnar;
    columnar.engine = EvalEngine::kColumnar;
    for (const auto& text : wide_shapes) {
      auto reference = EvaluateCQ(catalog, MustParse(text), map_engine);
      ASSERT_TRUE(reference.ok()) << text;
      auto got = EvaluateCQ(catalog, MustParse(text), columnar);
      ASSERT_TRUE(got.ok()) << text;
      EXPECT_EQ(reference.value(), got.value())
          << "wide round " << round << ": " << text;
    }
  }
}

TEST_F(EvaluateTest, UnionDeduplicatesAcrossMembers) {
  auto rows = EvaluateUnion(
      catalog_, {MustParse("q(X) :- course(X, T, \"CSE\")"),
                 MustParse("q(X) :- teaches(X, P)")});
  ASSERT_TRUE(rows.ok());
  // c1, c2 from both sides; c3 from teaches.
  EXPECT_EQ(rows.value().size(), 3u);
}

TEST(ContainmentTest, IdenticalQueriesContainEachOther) {
  ConjunctiveQuery q = MustParse("q(X) :- r(X, Y)");
  EXPECT_TRUE(Contains(q, q));
  EXPECT_TRUE(Equivalent(q, q));
}

TEST(ContainmentTest, MoreConstrainedIsContained) {
  ConjunctiveQuery general = MustParse("q(X) :- r(X, Y)");
  ConjunctiveQuery specific = MustParse("q(X) :- r(X, Y), s(Y)");
  EXPECT_TRUE(Contains(general, specific));
  EXPECT_FALSE(Contains(specific, general));
}

TEST(ContainmentTest, ConstantSpecialization) {
  ConjunctiveQuery general = MustParse("q(X) :- r(X, Y)");
  ConjunctiveQuery specific = MustParse("q(X) :- r(X, \"a\")");
  EXPECT_TRUE(Contains(general, specific));
  EXPECT_FALSE(Contains(specific, general));
}

TEST(ContainmentTest, ClassicCycleExample) {
  // Chandra-Merlin folklore: a path of length 2 contains a self-loop
  // pattern query... more precisely q2 with r(X,X) is contained in
  // q1 with r(X,Y),r(Y,X).
  ConjunctiveQuery q1 = MustParse("q(X) :- r(X, Y), r(Y, X)");
  ConjunctiveQuery q2 = MustParse("q(X) :- r(X, X)");
  EXPECT_TRUE(Contains(q1, q2));
  EXPECT_FALSE(Contains(q2, q1));
}

TEST(ContainmentTest, HeadArityMismatch) {
  EXPECT_FALSE(Contains(MustParse("q(X) :- r(X)"),
                        MustParse("q(X, Y) :- r(X), r(Y)")));
}

TEST(ContainmentTest, SharedVariableNamesDoNotConfuse) {
  // Both queries use X/Y; the renaming inside must keep them apart.
  ConjunctiveQuery a = MustParse("q(X) :- r(X, Y)");
  ConjunctiveQuery b = MustParse("q(Y) :- r(Y, X)");
  EXPECT_TRUE(Equivalent(a, b));
}

TEST(MinimizeTest, DropsRedundantAtom) {
  // r(X,Y), r(X,Z) minimizes to r(X,Y).
  ConjunctiveQuery q = MustParse("q(X) :- r(X, Y), r(X, Z)");
  ConjunctiveQuery m = Minimize(q);
  EXPECT_EQ(m.body().size(), 1u);
  EXPECT_TRUE(Equivalent(q, m));
}

TEST(MinimizeTest, KeepsNecessaryAtoms) {
  ConjunctiveQuery q = MustParse("q(X, Z) :- r(X, Y), s(Y, Z)");
  EXPECT_EQ(Minimize(q).body().size(), 2u);
}

TEST(UnfoldTest, SingleLevel) {
  // Mediated relation course_at defined over source relations.
  ViewRegistry views;
  views.Add(MustParse(
      "course_at(C, U) :- offering(C, D), dept_of(D, U)"));
  ConjunctiveQuery q = MustParse("q(C) :- course_at(C, \"MIT\")");
  auto result = UnfoldQueryUnique(q, views);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().body().size(), 2u);
  EXPECT_EQ(result.value().body()[0].relation, "offering");
  // The constant must have propagated.
  EXPECT_EQ(result.value().body()[1].args[1].value().as_string(), "MIT");
}

TEST(UnfoldTest, TransitiveTwoLevels) {
  ViewRegistry views;
  views.Add(MustParse("a(X) :- b(X, Y)"));
  views.Add(MustParse("b(X, Y) :- base(X, Y, Z)"));
  auto result = UnfoldQueryUnique(MustParse("q(X) :- a(X)"), views);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().body().size(), 1u);
  EXPECT_EQ(result.value().body()[0].relation, "base");
}

TEST(UnfoldTest, UnionDefinitionsFanOut) {
  ViewRegistry views;
  views.Add(MustParse("all_courses(C) :- uw_course(C)"));
  views.Add(MustParse("all_courses(C) :- mit_course(C)"));
  auto result = UnfoldQuery(MustParse("q(C) :- all_courses(C)"), views);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 2u);
}

TEST(UnfoldTest, CycleIsCut) {
  ViewRegistry views;
  views.Add(MustParse("a(X) :- a(X)"));
  EXPECT_FALSE(UnfoldQuery(MustParse("q(X) :- a(X)"), views).ok());
}

TEST(UnfoldTest, FreshVariablesDoNotCollide) {
  ViewRegistry views;
  views.Add(MustParse("v(X) :- r(X, Y)"));
  // Two uses of v must get distinct existential Ys.
  auto result =
      UnfoldQueryUnique(MustParse("q(A, B) :- v(A), v(B)"), views);
  ASSERT_TRUE(result.ok());
  const auto& body = result.value().body();
  ASSERT_EQ(body.size(), 2u);
  EXPECT_NE(body[0].args[1].var(), body[1].args[1].var());
}

TEST(RewriteTest, DirectViewMatch) {
  // View stores exactly the query.
  std::vector<ConjunctiveQuery> views = {
      MustParse("v1(X, Y) :- r(X, Y)")};
  auto result = RewriteUsingViews(MustParse("q(X, Y) :- r(X, Y)"), views);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().size(), 1u);
  EXPECT_EQ(result.value()[0].body()[0].relation, "v1");
}

TEST(RewriteTest, JoinOfTwoViews) {
  std::vector<ConjunctiveQuery> views = {
      MustParse("v1(X, Y) :- r(X, Y)"), MustParse("v2(Y, Z) :- s(Y, Z)")};
  auto result = RewriteUsingViews(
      MustParse("q(X, Z) :- r(X, Y), s(Y, Z)"), views);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().size(), 1u);
  EXPECT_EQ(result.value()[0].body().size(), 2u);
}

TEST(RewriteTest, ViewHidingJoinVariableIsRejected) {
  // v projects away Y, so the join on Y cannot be recovered.
  std::vector<ConjunctiveQuery> views = {
      MustParse("v1(X) :- r(X, Y)"), MustParse("v2(Z) :- s(Y, Z)")};
  auto result = RewriteUsingViews(
      MustParse("q(X, Z) :- r(X, Y), s(Y, Z)"), views);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
}

TEST(RewriteTest, ViewCoveringBothSubgoals) {
  std::vector<ConjunctiveQuery> views = {
      MustParse("v(X, Z) :- r(X, Y), s(Y, Z)")};
  auto result = RewriteUsingViews(
      MustParse("q(X, Z) :- r(X, Y), s(Y, Z)"), views);
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result.value().size(), 1u);
  // The rewriting should collapse to a single v atom after dedupe or
  // at least have an expansion equivalent to the query.
  auto exp = ExpandRewriting(result.value()[0], views);
  ASSERT_TRUE(exp.ok());
  EXPECT_TRUE(Contains(MustParse("q(X, Z) :- r(X, Y), s(Y, Z)"),
                       exp.value()));
}

TEST(RewriteTest, MoreSpecificViewGivesContainedRewriting) {
  std::vector<ConjunctiveQuery> views = {
      MustParse("cse_courses(C) :- course(C, \"CSE\")")};
  auto result =
      RewriteUsingViews(MustParse("q(C) :- course(C, D)"), views);
  ASSERT_TRUE(result.ok());
  // The view only returns CSE courses — still a contained rewriting.
  ASSERT_EQ(result.value().size(), 1u);
  EXPECT_EQ(result.value()[0].body()[0].relation, "cse_courses");
}

TEST(RewriteTest, IncompatibleConstantRejected) {
  std::vector<ConjunctiveQuery> views = {
      MustParse("hist_courses(C) :- course(C, \"HIST\")")};
  auto result = RewriteUsingViews(
      MustParse("q(C) :- course(C, \"CSE\")"), views);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
}

TEST(RewriteTest, StatsPopulated) {
  std::vector<ConjunctiveQuery> views = {
      MustParse("v1(X, Y) :- r(X, Y)"), MustParse("v2(X, Y) :- r(X, Y)")};
  RewriteStats stats;
  auto result = RewriteUsingViews(MustParse("q(X, Y) :- r(X, Y)"), views,
                                  RewriteOptions{}, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats.covers, 2u);
  EXPECT_EQ(stats.combinations, 2u);
  EXPECT_EQ(result.value().size(), 2u);
}

TEST(RewriteTest, RewritingActuallyAnswersQuery) {
  // End-to-end: materialize views, evaluate rewriting, compare with
  // evaluating the query on the base data.
  Catalog base;
  auto r = base.CreateTable(TableSchema::AllStrings("r", {"a", "b"}));
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE((*r)->InsertAll({{Value("1"), Value("2")},
                               {Value("2"), Value("3")},
                               {Value("3"), Value("4")}})
                  .ok());
  auto s = base.CreateTable(TableSchema::AllStrings("s", {"a", "b"}));
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(
      (*s)->InsertAll({{Value("2"), Value("9")}, {Value("4"), Value("8")}})
          .ok());

  std::vector<ConjunctiveQuery> views = {
      MustParse("v1(X, Y) :- r(X, Y)"), MustParse("v2(Y, Z) :- s(Y, Z)")};
  ConjunctiveQuery q = MustParse("q(X, Z) :- r(X, Y), s(Y, Z)");

  // Materialize the views into a second catalog.
  Catalog view_db;
  for (const auto& v : views) {
    auto rows = EvaluateCQ(base, v);
    ASSERT_TRUE(rows.ok());
    auto t = view_db.CreateTable(TableSchema::AllStrings(
        v.name(), std::vector<std::string>(v.head().size(), "c")));
    // Column names must be unique per schema for index lookup? Not
    // required by our Table, but give them distinct names anyway.
    ASSERT_TRUE(t.ok());
    for (const auto& row : rows.value()) {
      ASSERT_TRUE((*t)->Insert(row).ok());
    }
  }

  auto rewritings = RewriteUsingViews(q, views);
  ASSERT_TRUE(rewritings.ok());
  auto via_views = EvaluateUnion(view_db, rewritings.value());
  ASSERT_TRUE(via_views.ok());
  auto direct = EvaluateCQ(base, q);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(via_views.value().size(), direct.value().size());
}

// Evaluates every rewriting over materialized view relations.
std::vector<Row> AnswerOverViews(
    const std::vector<ConjunctiveQuery>& rewritings,
    const std::vector<std::pair<std::string, std::vector<Row>>>& extents) {
  Catalog view_db;
  for (const auto& [name, rows] : extents) {
    auto t = view_db.CreateTable(TableSchema::AllStrings(name, {"a", "b"}));
    EXPECT_TRUE(t.ok());
    for (const Row& row : rows) EXPECT_TRUE((*t)->Insert(row).ok());
  }
  auto rows = EvaluateUnion(view_db, rewritings);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  std::vector<Row> out = rows.ok() ? rows.value() : std::vector<Row>{};
  std::sort(out.begin(), out.end());
  return out;
}

// Two views per relation: each pair is its own rewriting, and (3, 6)
// comes only from v4 joined with v5.
TEST(RewriteTest, EveryViewPairIsARewriting) {
  std::vector<ConjunctiveQuery> views = {
      MustParse("v0(X, Y) :- r(X, Y)"), MustParse("v1(Y, Z) :- s(Y, Z)"),
      MustParse("v4(X, Y) :- r(X, Y)"), MustParse("v5(Y, Z) :- s(Y, Z)")};
  auto rewritings =
      RewriteUsingViews(MustParse("q(X, Z) :- r(X, Y), s(Y, Z)"), views);
  ASSERT_TRUE(rewritings.ok());
  EXPECT_EQ(rewritings.value().size(), 4u);
  EXPECT_EQ(AnswerOverViews(rewritings.value(),
                            {{"v0", {{Value("1"), Value("2")}}},
                             {"v4", {{Value("3"), Value("4")}}},
                             {"v1", {{Value("2"), Value("5")}}},
                             {"v5", {{Value("4"), Value("6")}}}}),
            (std::vector<Row>{{Value("1"), Value("5")},
                              {Value("3"), Value("6")}}));
}

// A rewriting whose expansion equals another's is still its own: over
// v = {} and w = 1->2->3->4 only w, w, w answers (1, 4).
TEST(RewriteTest, EquivalentExpansionsAreBothKept) {
  std::vector<ConjunctiveQuery> views = {
      MustParse("v(A, D) :- e(A, B), e(B, C), e(C, D)"),
      MustParse("w(A, B) :- e(A, B)")};
  auto rewritings = RewriteUsingViews(
      MustParse("q(A, D) :- e(A, B), e(B, C), e(C, D)"), views);
  ASSERT_TRUE(rewritings.ok());
  EXPECT_EQ(rewritings.value().size(), 2u);
  EXPECT_EQ(AnswerOverViews(rewritings.value(),
                            {{"v", {}},
                             {"w",
                              {{Value("1"), Value("2")},
                               {Value("2"), Value("3")},
                               {Value("3"), Value("4")}}}}),
            (std::vector<Row>{{Value("1"), Value("4")}}));
}

TEST(GlavTest, ParseTextualForm) {
  auto m = GlavMapping::Parse(
      "m(I, T) :- mit:course(I, T) => m(I, T) :- berkeley:course(I, T)",
      "b2m");
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m.value().name, "b2m");
  EXPECT_EQ(m.value().source.body()[0].relation, "mit:course");
  EXPECT_EQ(m.value().target.body()[0].relation, "berkeley:course");
  // Malformed inputs.
  EXPECT_FALSE(GlavMapping::Parse("no arrow here").ok());
  EXPECT_FALSE(GlavMapping::Parse("m(X) :- a(X) => m(X, Y) :- b(X, Y)")
                   .ok());  // arity mismatch
  EXPECT_FALSE(GlavMapping::Parse("garbage => m(X) :- b(X)").ok());
}

// ------------------------------------------ canonicalization (ISSUE 3)

TEST(CanonicalizeTest, AlphaEquivalentQueriesShareTextAndFingerprint) {
  auto a = MustParse("q(X, Y) :- course(X, Y, Z), taught(Z, X)");
  auto b = MustParse("q(A, B) :- course(A, B, C), taught(C, A)");
  CanonicalizedQuery ca = Canonicalize(a);
  CanonicalizedQuery cb = Canonicalize(b);
  EXPECT_EQ(ca.text, cb.text);
  EXPECT_TRUE(AlphaEquivalent(a, b));
}

TEST(CanonicalizeTest, RenamingIsDeterministicByFirstOccurrence) {
  auto q = MustParse("q(Y) :- r(Y, X), s(X, W)");
  CanonicalizedQuery c = Canonicalize(q);
  // Y is first seen in the head → V0; X first in r's 2nd arg → V1; W → V2.
  EXPECT_EQ(c.text, "q(V0) :- r(V0, V1), s(V1, V2)");
}

TEST(CanonicalizeTest, ClashingOriginalNamesDoNotCapture) {
  // V0 already appears as a *source* variable; the simultaneous
  // substitution {X→V0, V0→V1} must not merge them.
  auto q = MustParse("q(X) :- r(X, V0)");
  CanonicalizedQuery c = Canonicalize(q);
  EXPECT_EQ(c.text, "q(V0) :- r(V0, V1)");
  EXPECT_TRUE(AlphaEquivalent(q, MustParse("q(A) :- r(A, B)")));
}

TEST(CanonicalizeTest, DistinctShapesGetDistinctForms) {
  auto repeated = MustParse("q(X) :- r(X, X)");
  auto distinct = MustParse("q(X) :- r(X, Y)");
  EXPECT_FALSE(AlphaEquivalent(repeated, distinct));
  EXPECT_NE(Canonicalize(repeated).text, Canonicalize(distinct).text);
  // Constants are not renamed.
  auto c1 = MustParse("q(X) :- r(X, \"cse544\")");
  auto c2 = MustParse("q(X) :- r(X, \"cse403\")");
  EXPECT_FALSE(AlphaEquivalent(c1, c2));
  EXPECT_NE(Canonicalize(c1).text, Canonicalize(c2).text);
  // Atom order is significant (order-preserving canonical form).
  auto ab = MustParse("q(X) :- r(X), s(X)");
  auto ba = MustParse("q(X) :- s(X), r(X)");
  EXPECT_FALSE(AlphaEquivalent(ab, ba));
}

TEST(GlavTest, ValidationAndShape) {
  GlavMapping m{"berkeley-to-mit",
                MustParse("m(C, T) :- b_course(C, T, S)"),
                MustParse("m(C, T) :- mit_subject(C, T, E)")};
  EXPECT_TRUE(m.Validate().ok());
  EXPECT_TRUE(m.IsGavLike());
  EXPECT_TRUE(m.IsLavLike());
  GlavMapping bad{"x", MustParse("m(C) :- r(C)"),
                  MustParse("m(C, D) :- s(C, D)")};
  EXPECT_FALSE(bad.Validate().ok());
}

}  // namespace
}  // namespace revere::query
