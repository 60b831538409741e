#include <gtest/gtest.h>

#include <string>

#include "src/core/revere.h"
#include "src/datagen/university.h"
#include "src/piazza/peer.h"
#include "src/query/cq.h"

namespace revere::core {
namespace {

TEST(RevereTest, ConstructionCreatesOwnPeer) {
  auto system = Revere::ForUniversity("uw");
  EXPECT_EQ(system->org(), "uw");
  EXPECT_TRUE(system->pdms().HasPeer("uw"));
  EXPECT_NE(system->schema().FindConcept("course"), nullptr);
}

TEST(RevereTest, PublishPageFillsRepository) {
  auto system = Revere::ForUniversity("uw");
  Rng rng(1);
  auto courses = datagen::GenerateCourses(2, &rng);
  for (const auto& c : courses) {
    auto receipt = system->PublishPage(
        "http://uw.edu/" + c.id, datagen::RenderAnnotatedCoursePage(c));
    ASSERT_TRUE(receipt.ok());
    EXPECT_GT(receipt.value().triples_added, 0u);
  }
  EXPECT_GT(system->repository().size(), 0u);
}

TEST(RevereTest, ExportConceptToPeerMaterializesRelation) {
  auto system = Revere::ForUniversity("uw");
  Rng rng(2);
  auto courses = datagen::GenerateCourses(3, &rng);
  for (const auto& c : courses) {
    ASSERT_TRUE(system
                    ->PublishPage("http://uw.edu/" + c.id,
                                  datagen::RenderAnnotatedCoursePage(c))
                    .ok());
  }
  auto exported = system->ExportConceptToPeer(
      "course", {mangrove::ConflictResolution::kAny, ""});
  ASSERT_TRUE(exported.ok());
  EXPECT_EQ(exported.value(), 3u);
  // The PDMS can now answer queries over the exported relation.
  auto q = query::ConjunctiveQuery::Parse(
      "q(S, T) :- uw:course(S, N, T, I, M, R, B, D)");
  ASSERT_TRUE(q.ok());
  auto rows = system->pdms().Answer(q.value());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 3u);
}

TEST(RevereTest, ExportReplacesPreviousExport) {
  auto system = Revere::ForUniversity("uw");
  Rng rng(3);
  auto courses = datagen::GenerateCourses(1, &rng);
  ASSERT_TRUE(system
                  ->PublishPage("http://uw.edu/a",
                                datagen::RenderAnnotatedCoursePage(
                                    courses[0]))
                  .ok());
  ASSERT_TRUE(system
                  ->ExportConceptToPeer(
                      "course", {mangrove::ConflictResolution::kAny, ""})
                  .ok());
  auto again = system->ExportConceptToPeer(
      "course", {mangrove::ConflictResolution::kAny, ""});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), 1u);
}

// A re-export drops and re-creates uw:course behind the PDMS; the warm
// plan must read the new table, not the dropped one.
TEST(RevereTest, WarmPlanReadsTheReExportedTable) {
  auto system = Revere::ForUniversity("uw");
  Rng rng(4);
  auto courses = datagen::GenerateCourses(3, &rng);
  auto publish_and_export = [&](size_t i) {
    ASSERT_TRUE(system
                    ->PublishPage("http://uw.edu/" + courses[i].id,
                                  datagen::RenderAnnotatedCoursePage(
                                      courses[i]))
                    .ok());
    ASSERT_TRUE(system
                    ->ExportConceptToPeer(
                        "course", {mangrove::ConflictResolution::kAny, ""})
                    .ok());
  };
  publish_and_export(0);
  publish_and_export(1);
  auto q = query::ConjunctiveQuery::Parse(
      "q(S, T) :- uw:course(S, N, T, I, M, R, B, D)");
  ASSERT_TRUE(q.ok());
  auto rows = system->pdms().Answer(q.value());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 2u);

  publish_and_export(2);
  piazza::ExecutionStats stats;
  rows = system->pdms().Answer(q.value(), {}, &stats);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(stats.plan_cache_hits, 1u);
  EXPECT_EQ(rows.value().size(), 3u);
  piazza::ReformulationOptions uncached;
  uncached.use_plan_cache = false;
  EXPECT_EQ(rows.value(), system->pdms().Answer(q.value(), uncached).value());
}

TEST(RevereTest, ExportUnknownConceptFails) {
  auto system = Revere::ForUniversity("uw");
  EXPECT_FALSE(system
                   ->ExportConceptToPeer(
                       "starship", {mangrove::ConflictResolution::kAny, ""})
                   .ok());
}

TEST(RevereTest, ContributeSchemaAndAdviseMatching) {
  auto system = Revere::ForUniversity("uw");
  ASSERT_TRUE(system->ContributeSchemaToCorpus().ok());
  // A second org's schema lands in the same corpus.
  ASSERT_TRUE(system->corpus()
                  .AddSchema(corpus::SchemaEntry{
                      "mit",
                      "university",
                      {{"subject",
                        {"title", "lecturer", "room", "enrollment"}}}})
                  .ok());
  auto matches = system->AdviseMatching("uw", "mit");
  ASSERT_TRUE(matches.ok());
  ASSERT_FALSE(matches.value().empty());
  // course.title <-> subject.title must be among the proposals.
  bool found = false;
  for (const auto& m : matches.value()) {
    if (m.a == "course.title" && m.b == "subject.title") found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_FALSE(system->AdviseMatching("uw", "nowhere").ok());
}

TEST(RevereTest, DesignAdvisorFromFacade) {
  auto system = Revere::ForUniversity("uw");
  ASSERT_TRUE(system->ContributeSchemaToCorpus().ok());
  auto advisor = system->MakeDesignAdvisor();
  auto suggestions = advisor.SuggestSchemas(
      corpus::SchemaEntry{"draft",
                          "university",
                          {{"course", {"title", "instructor"}}}});
  ASSERT_EQ(suggestions.size(), 1u);
  EXPECT_EQ(suggestions[0].schema_id, "uw");
  EXPECT_GT(suggestions[0].fit, 0.0);
}

TEST(RevereTest, QueryFlexiblyRepairsVocabulary) {
  auto system = Revere::ForUniversity("uw");
  Rng rng(5);
  auto courses = datagen::GenerateCourses(2, &rng);
  for (const auto& c : courses) {
    ASSERT_TRUE(system
                    ->PublishPage("http://uw.edu/" + c.id,
                                  datagen::RenderAnnotatedCoursePage(c))
                    .ok());
  }
  ASSERT_TRUE(system
                  ->ExportConceptToPeer(
                      "course", {mangrove::ConflictResolution::kAny, ""})
                  .ok());
  // The user says "uw:classes"; the stored relation is "uw:course".
  advisor::QuerySuggestion used;
  auto rows = system->QueryFlexibly(
      "q(S, T) :- uw:classes(S, T, N, I, M, R, B, D)", &used);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows.value().size(), 2u);
  ASSERT_EQ(used.repairs.size(), 1u);
  EXPECT_EQ(used.repairs[0], "uw:classes -> uw:course");
  // Nonsense stays nonsense.
  EXPECT_FALSE(system->QueryFlexibly("q(X) :- uw:starships(X)").ok());
  // Parse errors surface.
  EXPECT_FALSE(system->QueryFlexibly("not a query").ok());
}

TEST(RevereTest, EndToEndPipeline) {
  // The full chasm crossing: author annotates -> publish -> instant app
  // sees it -> export to PDMS -> another org's query reaches it.
  auto uw = Revere::ForUniversity("uw");
  Rng rng(4);
  auto courses = datagen::GenerateCourses(2, &rng);
  for (const auto& c : courses) {
    ASSERT_TRUE(uw->PublishPage("http://uw.edu/" + c.id,
                                datagen::RenderAnnotatedCoursePage(c))
                    .ok());
  }
  mangrove::CourseCalendar calendar(
      &uw->repository(), {mangrove::ConflictResolution::kAny, ""});
  EXPECT_EQ(calendar.Refresh().size(), 2u);

  ASSERT_TRUE(uw->ExportConceptToPeer(
                    "course", {mangrove::ConflictResolution::kAny, ""})
                  .ok());
  // A second university peer joins and maps its vocabulary to UW's.
  ASSERT_TRUE(uw->pdms().AddPeer("mit").ok());
  auto source = query::ConjunctiveQuery::Parse(
      "m(S, T) :- uw:course(S, N, T, I, M, R, B, D)");
  auto target =
      query::ConjunctiveQuery::Parse("m(S, T) :- mit:subject(S, T)");
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE(target.ok());
  ASSERT_TRUE(uw->pdms()
                  .AddMapping(piazza::PeerMapping{
                      {"uw-mit", source.value(), target.value()},
                      "uw",
                      "mit",
                      false})
                  .ok());
  auto q =
      query::ConjunctiveQuery::Parse("q(S, T) :- mit:subject(S, T)");
  ASSERT_TRUE(q.ok());
  auto rows = uw->pdms().Answer(q.value());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 2u);
}

}  // namespace
}  // namespace revere::core
