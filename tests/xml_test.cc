#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/xml/dtd.h"
#include "src/xml/node.h"
#include "src/xml/parser.h"
#include "src/xml/path.h"

namespace revere::xml {
namespace {

// The Berkeley peer schema exactly as printed in the paper's Figure 3.
constexpr char kBerkeleyDtd[] = R"(
Element schedule(college*)
Element college(name, dept*)
Element dept(name, course*)
Element course(title, size)
)";

// The MIT peer schema from Figure 3.
constexpr char kMitDtd[] = R"(
Element catalog(course*)
Element course(name, subject*)
Element subject(title, enrollment)
)";

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

TEST(XmlNodeTest, BuildTree) {
  auto root = XmlNode::Element("course");
  root->AddElement("title", "Databases");
  root->AddElement("size", "200");
  EXPECT_EQ(root->ChildElements().size(), 2u);
  EXPECT_EQ(root->FirstChild("title")->InnerText(), "Databases");
  EXPECT_EQ(root->FirstChild("nope"), nullptr);
  EXPECT_EQ(root->SubtreeSize(), 5u);
}

TEST(XmlNodeTest, Attributes) {
  auto el = XmlNode::Element("a");
  el->SetAttribute("href", "x");
  el->SetAttribute("href", "y");  // overwrite
  EXPECT_EQ(el->GetAttribute("href").value(), "y");
  EXPECT_FALSE(el->GetAttribute("id").has_value());
  EXPECT_EQ(el->attributes().size(), 1u);
}

TEST(XmlNodeTest, CloneIsDeepAndIndependent) {
  auto root = XmlNode::Element("r");
  root->AddElement("c", "text")->SetAttribute("k", "v");
  auto copy = root->Clone();
  EXPECT_EQ(Serialize(*copy), Serialize(*root));
  copy->AddElement("extra");
  EXPECT_NE(Serialize(*copy), Serialize(*root));
}

TEST(XmlNodeTest, DescendantsAndParent) {
  auto res = ParseXml(kBerkeleyDoc);
  ASSERT_TRUE(res.ok());
  const XmlNode& doc = *res.value();
  auto courses = doc.Descendants("course");
  EXPECT_EQ(courses.size(), 3u);
  EXPECT_EQ(courses[0]->parent()->tag(), "dept");
}

TEST(XmlParserTest, RoundTrip) {
  auto res = ParseXml("<a x=\"1\"><b>hi</b><c/></a>");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(Serialize(*res.value()), "<a x=\"1\"><b>hi</b><c/></a>");
}

TEST(XmlParserTest, EscapesRoundTrip) {
  auto res = ParseXml("<t>a &amp; b &lt; c</t>");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value()->FirstChild("t")->InnerText(), "a & b < c");
  EXPECT_EQ(Serialize(*res.value()), "<t>a &amp; b &lt; c</t>");
}

TEST(XmlParserTest, SkipsDeclarationsCommentsDoctype) {
  auto res = ParseXml(
      "<?xml version=\"1.0\"?><!DOCTYPE x><!-- hi --><x><!-- in --><y/></x>");
  ASSERT_TRUE(res.ok());
  auto tops = res.value()->ChildElements();
  ASSERT_EQ(tops.size(), 1u);
  EXPECT_EQ(tops[0]->tag(), "x");
  EXPECT_EQ(tops[0]->ChildElements().size(), 1u);
}

TEST(XmlParserTest, Cdata) {
  auto res = ParseXml("<t><![CDATA[a <b> & c]]></t>");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value()->FirstChild("t")->InnerText(), "a <b> & c");
}

TEST(XmlParserTest, MismatchedTagFails) {
  EXPECT_FALSE(ParseXml("<a><b></a></b>").ok());
  EXPECT_FALSE(ParseXml("<a>").ok());
}

/// `depth` nested, closed <a> elements.
std::string NestedDocument(size_t depth) {
  std::string doc;
  doc.reserve(depth * 7);
  for (size_t i = 0; i < depth; ++i) doc += "<a>";
  for (size_t i = 0; i < depth; ++i) doc += "</a>";
  return doc;
}

TEST(XmlParserTest, NestingAtTheLimitParses) {
  auto res = ParseXml(NestedDocument(kMaxXmlDepth));
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  size_t depth = 0;
  for (const XmlNode* n = res.value()->FirstChild("a"); n != nullptr;
       n = n->FirstChild("a")) {
    ++depth;
  }
  EXPECT_EQ(depth, kMaxXmlDepth);
}

TEST(XmlParserTest, NestingPastTheLimitIsAParseError) {
  auto res = ParseXml(NestedDocument(kMaxXmlDepth + 1));
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kParseError);
}

TEST(XmlParserTest, MillionLevelDocumentIsAParseErrorNotACrash) {
  auto res = ParseXml(NestedDocument(1000000));
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kParseError);
}

TEST(XmlNodeTest, DeepTreeIsFreedWithoutRecursion) {
  auto root = XmlNode::Element("a");
  XmlNode* leaf = root.get();
  for (int i = 0; i < 300000; ++i) leaf = leaf->AddElement("a");
  root.reset();  // a recursive destructor overflows the stack here
  EXPECT_EQ(root, nullptr);
}

TEST(XmlParserTest, NumericEntity) {
  EXPECT_EQ(UnescapeText("&#65;bc"), "Abc");
  EXPECT_EQ(UnescapeText("&#junk;"), "&#junk;");
}

TEST(DtdTest, ParsesPaperShorthand) {
  auto res = Dtd::Parse(kBerkeleyDtd);
  ASSERT_TRUE(res.ok());
  const Dtd& dtd = res.value();
  EXPECT_EQ(dtd.root(), "schedule");
  ASSERT_NE(dtd.Find("dept"), nullptr);
  EXPECT_EQ(dtd.Find("dept")->children.size(), 2u);
  EXPECT_EQ(dtd.Find("dept")->children[1].occurrence, Occurrence::kStar);
}

TEST(DtdTest, ParsesStandardSyntax) {
  auto res = Dtd::Parse(
      "<!ELEMENT catalog (course*)>\n"
      "<!ELEMENT course (name, subject+)>\n"
      "<!ELEMENT name (#PCDATA)>\n");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().root(), "catalog");
  EXPECT_TRUE(res.value().Find("name")->is_pcdata);
  EXPECT_EQ(res.value().Find("course")->children[1].occurrence,
            Occurrence::kPlus);
}

TEST(DtdTest, AllElementNamesIncludesReferenced) {
  auto res = Dtd::Parse(kMitDtd);
  ASSERT_TRUE(res.ok());
  auto names = res.value().AllElementNames();
  // catalog, course, name, subject, title, enrollment
  EXPECT_EQ(names.size(), 6u);
}

TEST(DtdTest, ValidatesConformingDocument) {
  auto dtd = Dtd::Parse(kBerkeleyDtd);
  ASSERT_TRUE(dtd.ok());
  auto doc = ParseXml(kBerkeleyDoc);
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(dtd.value().Validate(*doc.value()).ok());
}

TEST(DtdTest, RejectsWrongRoot) {
  auto dtd = Dtd::Parse(kBerkeleyDtd);
  ASSERT_TRUE(dtd.ok());
  auto doc = ParseXml("<catalog/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(dtd.value().Validate(*doc.value()).ok());
}

TEST(DtdTest, RejectsMissingRequiredChild) {
  auto dtd = Dtd::Parse(kBerkeleyDtd);
  ASSERT_TRUE(dtd.ok());
  // course requires title AND size.
  auto doc = ParseXml(
      "<schedule><college><name>X</name><dept><name>D</name>"
      "<course><title>T</title></course></dept></college></schedule>");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(dtd.value().Validate(*doc.value()).ok());
}

TEST(DtdTest, RejectsUnexpectedChild) {
  auto dtd = Dtd::Parse(kBerkeleyDtd);
  ASSERT_TRUE(dtd.ok());
  auto doc = ParseXml("<schedule><stray/></schedule>");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(dtd.value().Validate(*doc.value()).ok());
}

TEST(DtdTest, LeafMustBeText) {
  auto dtd = Dtd::Parse("Element a(b)\n");
  ASSERT_TRUE(dtd.ok());
  auto doc = ParseXml("<a><b><c/></b></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(dtd.value().Validate(*doc.value()).ok());
}

TEST(DtdTest, DuplicateDeclarationFails) {
  EXPECT_FALSE(Dtd::Parse("Element a(b)\nElement a(c)\n").ok());
}

TEST(DtdTest, ToStringRoundTrips) {
  auto dtd = Dtd::Parse(kBerkeleyDtd);
  ASSERT_TRUE(dtd.ok());
  auto again = Dtd::Parse(dtd.value().ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().ToString(), dtd.value().ToString());
}

TEST(PathTest, AbsoluteChildPath) {
  auto doc = ParseXml(kBerkeleyDoc);
  ASSERT_TRUE(doc.ok());
  auto path = PathExpr::Parse("/schedule/college/dept");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path.value().SelectNodes(*doc.value()).size(), 2u);
}

TEST(PathTest, TextStep) {
  auto doc = ParseXml(kBerkeleyDoc);
  ASSERT_TRUE(doc.ok());
  auto path = PathExpr::Parse("/schedule/college/dept/name/text()");
  ASSERT_TRUE(path.ok());
  EXPECT_TRUE(path.value().yields_text());
  auto texts = path.value().SelectText(*doc.value());
  ASSERT_EQ(texts.size(), 2u);
  EXPECT_EQ(texts[0], "History");
}

TEST(PathTest, RelativePath) {
  auto doc = ParseXml(kBerkeleyDoc);
  ASSERT_TRUE(doc.ok());
  auto dept_path = PathExpr::Parse("/schedule/college/dept");
  ASSERT_TRUE(dept_path.ok());
  auto depts = dept_path.value().SelectNodes(*doc.value());
  ASSERT_EQ(depts.size(), 2u);
  auto rel = PathExpr::Parse("course/title/text()");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel.value().SelectText(*depts[0]).size(), 2u);
  EXPECT_EQ(rel.value().SelectText(*depts[1]).size(), 1u);
}

TEST(PathTest, DescendantAxis) {
  auto doc = ParseXml(kBerkeleyDoc);
  ASSERT_TRUE(doc.ok());
  auto path = PathExpr::Parse("//course");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path.value().SelectNodes(*doc.value()).size(), 3u);
  auto mixed = PathExpr::Parse("/schedule//title/text()");
  ASSERT_TRUE(mixed.ok());
  EXPECT_EQ(mixed.value().SelectText(*doc.value()).size(), 3u);
}

TEST(PathTest, WildcardStep) {
  auto doc = ParseXml("<r><a>1</a><b>2</b></r>");
  ASSERT_TRUE(doc.ok());
  auto path = PathExpr::Parse("/r/*");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path.value().SelectNodes(*doc.value()).size(), 2u);
}

TEST(PathTest, ParseErrors) {
  EXPECT_FALSE(PathExpr::Parse("").ok());
  EXPECT_FALSE(PathExpr::Parse("a/text()/b").ok());
}

TEST(XmlParserTest, PrettySerialization) {
  auto res = ParseXml("<a><b>hi</b><c><d/></c></a>");
  ASSERT_TRUE(res.ok());
  std::string pretty = Serialize(*res.value(), /*pretty=*/true);
  // Indented, one element per line, inline single-text elements.
  EXPECT_NE(pretty.find("<a>\n"), std::string::npos);
  EXPECT_NE(pretty.find("  <b>hi</b>\n"), std::string::npos);
  EXPECT_NE(pretty.find("    <d/>\n"), std::string::npos);
  // Pretty output reparses to the same compact form.
  auto again = ParseXml(pretty);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(Serialize(*again.value()), Serialize(*res.value()));
}

TEST(PathTest, SourceAndAbsoluteAccessors) {
  auto p = PathExpr::Parse("/a/b/text()");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p.value().is_absolute());
  EXPECT_TRUE(p.value().yields_text());
  EXPECT_EQ(p.value().source(), "/a/b/text()");
  auto rel = PathExpr::Parse("b/c");
  ASSERT_TRUE(rel.ok());
  EXPECT_FALSE(rel.value().is_absolute());
  EXPECT_FALSE(rel.value().yields_text());
}

TEST(PathTest, NoMatchesIsEmptyNotError) {
  auto doc = ParseXml("<r/>");
  ASSERT_TRUE(doc.ok());
  auto path = PathExpr::Parse("/r/missing");
  ASSERT_TRUE(path.ok());
  EXPECT_TRUE(path.value().SelectNodes(*doc.value()).empty());
}

}  // namespace
}  // namespace revere::xml
