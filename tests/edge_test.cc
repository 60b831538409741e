// Edge cases and failure injection across modules — the paths a
// production library must survive: empty inputs, malformed text, and
// operations at boundaries.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/common/logging.h"
#include "src/common/status.h"
#include "src/html/parser.h"
#include "src/mangrove/publisher.h"
#include "src/mangrove/schema.h"
#include "src/piazza/views.h"
#include "src/piazza/xml_mapping.h"
#include "src/query/cq.h"
#include "src/query/evaluate.h"
#include "src/rdf/triple_store.h"
#include "src/storage/table.h"
#include "src/xml/dtd.h"
#include "src/xml/parser.h"
#include "src/xml/path.h"

namespace revere {
namespace {

using storage::Row;
using storage::TableSchema;
using storage::Value;

TEST(LoggingTest, LevelGatingAndRestore) {
  LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Below-threshold messages must not be evaluated at all: the stream
  // expression short-circuits, so this side effect must not fire.
  int evaluated = 0;
  auto touch = [&]() {
    ++evaluated;
    return "x";
  };
  REVERE_LOG(kDebug) << touch();
  EXPECT_EQ(evaluated, 0);
  REVERE_LOG(kError) << "edge_test expected error line " << touch();
  EXPECT_EQ(evaluated, 1);
  SetLogLevel(before);
}

TEST(StatusTest, ResultOfMoveOnlyType) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(CqEdgeTest, NullaryRelation) {
  auto q = query::ConjunctiveQuery::Parse("q() :- fact()");
  ASSERT_TRUE(q.ok());
  storage::Catalog catalog;
  auto t = catalog.CreateTable(TableSchema::AllStrings("fact", {}));
  ASSERT_TRUE(t.ok());
  // Empty nullary relation: no answers.
  auto rows = query::EvaluateCQ(catalog, q.value());
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows.value().empty());
  // One (empty) row: exactly one empty answer.
  ASSERT_TRUE((*t)->Insert({}).ok());
  rows = query::EvaluateCQ(catalog, q.value());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 1u);
}

TEST(CqEdgeTest, RepeatedVariableSelfJoin) {
  storage::Catalog catalog;
  auto t = catalog.CreateTable(TableSchema::AllStrings("e", {"a", "b"}));
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE((*t)->InsertAll({{Value("x"), Value("x")},
                               {Value("x"), Value("y")}})
                  .ok());
  auto q = query::ConjunctiveQuery::Parse("q(X) :- e(X, X)");
  ASSERT_TRUE(q.ok());
  auto rows = query::EvaluateCQ(catalog, q.value());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0][0].as_string(), "x");
}

TEST(XmlEdgeTest, DeeplyNestedDocument) {
  std::string doc;
  const int kDepth = 200;
  for (int i = 0; i < kDepth; ++i) doc += "<d>";
  doc += "leaf";
  for (int i = 0; i < kDepth; ++i) doc += "</d>";
  auto parsed = xml::ParseXml(doc);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value()->Descendants("d").size(),
            static_cast<size_t>(kDepth));
}

TEST(XmlEdgeTest, PathOnTextNodeContext) {
  auto doc = xml::ParseXml("<a><b>t</b></a>");
  ASSERT_TRUE(doc.ok());
  auto path = xml::PathExpr::Parse("b/text()");
  ASSERT_TRUE(path.ok());
  auto a = doc.value()->FirstChild("a");
  ASSERT_NE(a, nullptr);
  auto texts = path.value().SelectText(*a);
  ASSERT_EQ(texts.size(), 1u);
  EXPECT_EQ(texts[0], "t");
}

TEST(XmlMappingEdgeTest, MalformedBindings) {
  // Missing '='.
  auto m1 = piazza::XmlMapping::Parse(
      "<o><i> {$c document(\"d\")/x} </i></o>");
  ASSERT_TRUE(m1.ok());  // parse of the template is fine...
  auto doc = xml::ParseXml("<root/>");
  EXPECT_FALSE(m1.value().Translate({{"d", doc->get()}}).ok());  // ...use isn't
  // Binding not starting with $.
  auto m2 =
      piazza::XmlMapping::Parse("<o><i> {c = document(\"d\")} </i></o>");
  ASSERT_TRUE(m2.ok());
  EXPECT_FALSE(m2.value().Translate({{"d", doc->get()}}).ok());
  // Two roots.
  EXPECT_FALSE(piazza::XmlMapping::Parse("<a/><b/>").ok());
}

TEST(TripleStoreEdgeTest, EmptyStoreQueries) {
  rdf::TripleStore store;
  EXPECT_TRUE(store.Match({}).empty());
  EXPECT_EQ(store.RemoveSource("http://nowhere"), 0u);
  EXPECT_FALSE(store.ObjectOf("s", "p").has_value());
}

TEST(PublisherEdgeTest, EmptyAndTextOnlyPages) {
  mangrove::MangroveSchema schema =
      mangrove::MangroveSchema::UniversityDefaults();
  rdf::TripleStore store;
  mangrove::Publisher publisher(&schema, &store);
  auto r1 = publisher.Publish("http://u/empty", "");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1.value().triples_added, 0u);
  auto r2 = publisher.Publish("http://u/text", "just words, no markup");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().triples_added, 0u);
}

TEST(PublisherEdgeTest, AnnotationWithEmptyValue) {
  mangrove::MangroveSchema schema =
      mangrove::MangroveSchema::UniversityDefaults();
  rdf::TripleStore store;
  mangrove::Publisher publisher(&schema, &store);
  auto r = publisher.Publish(
      "http://u/x",
      "<body><span m=\"course\"><span m=\"title\"></span></span></body>");
  ASSERT_TRUE(r.ok());
  // Empty-valued property is still recorded (dirty data is legal).
  EXPECT_EQ(store.ObjectOf("http://u/x#course0", "title").value_or("?"),
            "");
}

TEST(ViewsEdgeTest, ApplyToBaseFailsOnMissingDeleteRow) {
  storage::Catalog catalog;
  auto t = catalog.CreateTable(TableSchema::AllStrings("r", {"a"}));
  ASSERT_TRUE(t.ok());
  piazza::Updategram u{"r", {}, {{Value("missing")}}};
  EXPECT_FALSE(piazza::ApplyToBase(&catalog, u).ok());
}

TEST(ViewsEdgeTest, EmptyUpdategramIsNoop) {
  storage::Catalog catalog;
  auto t = catalog.CreateTable(TableSchema::AllStrings("r", {"a", "b"}));
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE((*t)->Insert({Value("1"), Value("2")}).ok());
  piazza::MaterializedView view(
      query::ConjunctiveQuery::Parse("v(A) :- r(A, B)").value());
  ASSERT_TRUE(view.Recompute(catalog).ok());
  piazza::Updategram u{"r", {}, {}};
  ASSERT_TRUE(piazza::ApplyToBase(&catalog, u).ok());
  ASSERT_TRUE(view.ApplyUpdategram(catalog, u).ok());
  EXPECT_EQ(view.size(), 1u);
}

TEST(DtdEdgeTest, EmptyAndGarbageInputs) {
  EXPECT_FALSE(xml::Dtd::Parse("").ok());
  EXPECT_FALSE(xml::Dtd::Parse("gibberish here\n").ok());
  // Comments and blank lines are fine when a declaration exists.
  auto ok = xml::Dtd::Parse("\n<!-- c -->\nElement a(b)\n\n");
  EXPECT_TRUE(ok.ok());
}

TEST(HtmlEdgeTest, PathologicalInputsParse) {
  for (const char* input :
       {"", "<", ">", "<>", "<<<>>>", "</close-only>", "<a b=c",
        "text < more text", "<p>a<3</p>", "&unterminated",
        "<script>never closed"}) {
    auto doc = html::ParseHtml(input);
    EXPECT_TRUE(doc.ok()) << input;
  }
}

}  // namespace
}  // namespace revere
