#include <gtest/gtest.h>

#include <string>

#include "src/common/strings.h"
#include "src/html/annotation.h"
#include "src/html/parser.h"
#include "src/xml/parser.h"

namespace revere::html {
namespace {

constexpr char kCoursePage[] = R"(
<html>
<head><title>CSE 544</title><meta charset="utf-8"></head>
<body>
<h1>CSE 544: Principles of DBMS</h1>
<p>Instructor: Alon Halevy<br>Office hours: Tue 2-3
<p>Textbook: Database Systems
<ul><li>Homework 1<li>Homework 2</ul>
</body>
</html>
)";

TEST(HtmlParserTest, ParsesWellFormed) {
  auto res = ParseHtml("<html><body><p>hi</p></body></html>");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value()->Descendants("p").size(), 1u);
}

TEST(HtmlParserTest, ToleratesUnclosedTags) {
  auto res = ParseHtml(kCoursePage);
  ASSERT_TRUE(res.ok());
  // Both <p> and both <li> exist despite missing close tags.
  EXPECT_EQ(res.value()->Descendants("li").size(), 2u);
  EXPECT_GE(res.value()->Descendants("p").size(), 1u);
  EXPECT_EQ(res.value()->Descendants("h1").size(), 1u);
}

TEST(HtmlParserTest, VoidElements) {
  auto res = ParseHtml("<p>a<br>b<img src=\"x.png\">c</p>");
  ASSERT_TRUE(res.ok());
  auto ps = res.value()->Descendants("p");
  ASSERT_EQ(ps.size(), 1u);
  EXPECT_EQ(ps[0]->ChildElements("br").size(), 1u);
  EXPECT_EQ(ps[0]->ChildElements("img").size(), 1u);
  EXPECT_EQ(ps[0]->InnerText(), "abc");
}

TEST(HtmlParserTest, CaseNormalization) {
  auto res = ParseHtml("<DIV Class=\"x\"><P>hi</P></DIV>");
  ASSERT_TRUE(res.ok());
  auto divs = res.value()->Descendants("div");
  ASSERT_EQ(divs.size(), 1u);
  EXPECT_EQ(divs[0]->GetAttribute("class").value(), "x");
}

TEST(HtmlParserTest, IgnoresUnmatchedCloseTag) {
  auto res = ParseHtml("<div>a</span>b</div>");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value()->Descendants("div")[0]->InnerText(), "ab");
}

TEST(HtmlParserTest, CloseTagPopsIntermediates) {
  auto res = ParseHtml("<div><b>x</div>after");
  ASSERT_TRUE(res.ok());
  // "after" must be outside the div.
  auto divs = res.value()->Descendants("div");
  ASSERT_EQ(divs.size(), 1u);
  EXPECT_EQ(divs[0]->InnerText(), "x");
}

TEST(HtmlParserTest, ScriptBodyIsRawText) {
  auto res = ParseHtml("<script>if (a < b && c > d) {}</script><p>x</p>");
  ASSERT_TRUE(res.ok());
  auto scripts = res.value()->Descendants("script");
  ASSERT_EQ(scripts.size(), 1u);
  EXPECT_TRUE(revere::Contains(scripts[0]->InnerText(), "a < b"));
  EXPECT_EQ(res.value()->Descendants("p").size(), 1u);
}

TEST(HtmlParserTest, UnquotedAttributes) {
  auto res = ParseHtml("<a href=page.html>x</a>");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value()->Descendants("a")[0]->GetAttribute("href").value(),
            "page.html");
}

TEST(HtmlParserTest, SkipsCommentsAndDoctype) {
  auto res = ParseHtml("<!DOCTYPE html><!-- c --><p>x</p>");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value()->Descendants("p").size(), 1u);
}

TEST(HtmlParserTest, VisibleTextOmitsScriptStyle) {
  auto res = ParseHtml(
      "<body><style>p{}</style><p>hello</p><script>x()</script></body>");
  ASSERT_TRUE(res.ok());
  std::string text = VisibleText(*res.value());
  EXPECT_TRUE(revere::Contains(text, "hello"));
  EXPECT_FALSE(revere::Contains(text, "x()"));
  EXPECT_FALSE(revere::Contains(text, "p{}"));
}

/// `depth` nested <div> elements, never closed.
std::string NestedDivs(size_t depth) {
  std::string page;
  page.reserve(depth * 5);
  for (size_t i = 0; i < depth; ++i) page += "<div>";
  return page;
}

TEST(HtmlParserTest, NestingAtTheLimitParses) {
  auto doc = ParseHtml(NestedDivs(xml::kMaxXmlDepth) + "x");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_NE(VisibleText(*doc.value()).find('x'), std::string::npos);
}

TEST(HtmlParserTest, DeepNestingIsAParseErrorNotACrash) {
  auto doc = ParseHtml(NestedDivs(300000));
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kParseError);
  EXPECT_FALSE(ParseHtml(NestedDivs(xml::kMaxXmlDepth + 1)).ok());
}

TEST(AnnotationTest, AnnotateFirstWrapsText) {
  auto res = AnnotateFirst("<p>Instructor: Alon Halevy</p>", "Alon Halevy",
                           "instructor");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value(),
            "<p>Instructor: <span m=\"instructor\">Alon Halevy</span></p>");
}

TEST(AnnotationTest, AnnotateFirstSkipsTagContent) {
  // "title" appears inside a tag attribute first; only text matches.
  auto res = AnnotateFirst("<p class=\"title\">title here</p>", "title",
                           "course.title");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value(),
            "<p class=\"title\"><span m=\"course.title\">title</span> "
            "here</p>");
}

TEST(AnnotationTest, AnnotateFirstNotFound) {
  EXPECT_FALSE(AnnotateFirst("<p>abc</p>", "xyz", "t").ok());
}

TEST(AnnotationTest, AnnotateRangeWrapsBlock) {
  auto res = AnnotateRange("<p>CSE 544 meets MWF. Enroll now.</p>",
                           "CSE 544", "MWF", "course", "cse544");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value(),
            "<p><span m=\"course\" m-id=\"cse544\">CSE 544 meets "
            "MWF</span>. Enroll now.</p>");
}

TEST(AnnotationTest, AnnotatedPageStillParsesAndRendersSameText) {
  // Backward compatibility (§2.1): annotations must not change what the
  // browser shows.
  std::string page = "<body><p>Instructor: Alon Halevy</p></body>";
  auto annotated = AnnotateFirst(page, "Alon Halevy", "instructor");
  ASSERT_TRUE(annotated.ok());
  auto before = ParseHtml(page);
  auto after = ParseHtml(annotated.value());
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  // Whitespace-insensitive: wrapping in <span> may add word separators
  // but must never change the words the browser renders.
  auto words = [](const xml::XmlNode& n) {
    return revere::SplitAny(VisibleText(n), " \t\n");
  };
  EXPECT_EQ(words(*before.value()), words(*after.value()));
}

TEST(AnnotationTest, FindAnnotationsWalksTree) {
  std::string page =
      "<body><span m=\"course\" m-id=\"c1\">CSE 544 "
      "<span m=\"title\">DBMS</span></span></body>";
  auto doc = ParseHtml(page);
  ASSERT_TRUE(doc.ok());
  auto regions = FindAnnotations(*doc.value());
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_EQ(regions[0].tag, "course");
  EXPECT_EQ(regions[0].id, "c1");
  EXPECT_EQ(regions[1].tag, "title");
  EXPECT_EQ(regions[1].node->InnerText(), "DBMS");
}

TEST(AnnotationTest, NoAnnotationsInPlainPage) {
  auto doc = ParseHtml(kCoursePage);
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(FindAnnotations(*doc.value()).empty());
}

}  // namespace
}  // namespace revere::html
