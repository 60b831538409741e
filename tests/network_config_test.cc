#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/piazza/network_config.h"
#include "src/piazza/pdms.h"
#include "src/query/cq.h"
#include "src/storage/schema.h"
#include "src/storage/table.h"

namespace revere::piazza {
namespace {

constexpr char kConfig[] = R"(# Two-university federation
peer uw
peer mit

stored uw course id title instructor
stored mit subject id title instructor

row uw course cse544 | Principles of DBMS | Alon Halevy
row uw course cse403 | Software Engineering | Oren Etzioni
row mit subject 6.830 | Database Systems | Sam Madden

mapping uw-mit uw mit bidirectional
  m(I, T, P) :- uw:course(I, T, P) => m(I, T, P) :- mit:subject(I, T, P)
)";

TEST(NetworkConfigTest, LoadBuildsWorkingNetwork) {
  PdmsNetwork net;
  ASSERT_TRUE(LoadNetworkConfig(kConfig, &net).ok());
  EXPECT_EQ(net.peer_count(), 2u);
  EXPECT_EQ(net.mappings().size(), 1u);
  EXPECT_TRUE(net.mappings()[0].bidirectional);
  // The loaded network answers transitively.
  auto q = query::ConjunctiveQuery::Parse(
      "q(I, T) :- mit:subject(I, T, P)");
  ASSERT_TRUE(q.ok());
  auto rows = net.Answer(q.value());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 3u);  // MIT's own + two UW courses
}

TEST(NetworkConfigTest, ValuesWithSpacesSurvive) {
  PdmsNetwork net;
  ASSERT_TRUE(LoadNetworkConfig(kConfig, &net).ok());
  auto q = query::ConjunctiveQuery::Parse(
      "q(I) :- uw:course(I, \"Principles of DBMS\", P)");
  ASSERT_TRUE(q.ok());
  auto rows = net.Answer(q.value());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0][0].as_string(), "cse544");
}

TEST(NetworkConfigTest, SaveLoadRoundTrip) {
  PdmsNetwork original;
  ASSERT_TRUE(LoadNetworkConfig(kConfig, &original).ok());
  std::string saved = SaveNetworkConfig(original);
  PdmsNetwork reloaded;
  ASSERT_TRUE(LoadNetworkConfig(saved, &reloaded).ok()) << saved;
  EXPECT_EQ(SaveNetworkConfig(reloaded), saved);
}

// Save writes each row value quoted, so values that the bare `a | b`
// form cannot hold reload unchanged, and Save → Load → Save is a
// fixpoint.
TEST(NetworkConfigTest, QuotedRowValuesRoundTrip) {
  const std::vector<std::string> values = {
      "", "a|b", "  pad  ", "say \"hi\"", "back\\slash", " | ",
      "two\nlines", "back\\n"};
  PdmsNetwork original;
  ASSERT_TRUE(original.AddPeer("p").ok());
  auto one = original.AddStoredRelation(
      "p", storage::TableSchema::AllStrings("one", {"v"}));
  auto two = original.AddStoredRelation(
      "p", storage::TableSchema::AllStrings("two", {"v", "w"}));
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(two.ok());
  for (const std::string& v : values) {
    ASSERT_TRUE((*one)->Insert({storage::Value(v)}).ok());
    ASSERT_TRUE((*two)->Insert({storage::Value(v), storage::Value(v)}).ok());
  }
  std::string saved = SaveNetworkConfig(original);
  PdmsNetwork reloaded;
  Status loaded = LoadNetworkConfig(saved, &reloaded);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString() << "\n" << saved;
  for (const char* name : {"p:one", "p:two"}) {
    auto before = original.storage().GetTable(name).value()->Snapshot();
    auto after = reloaded.storage().GetTable(name).value()->Snapshot();
    ASSERT_EQ(after->size(), before->size()) << name;
    for (size_t r = 0; r < before->size(); ++r) {
      EXPECT_EQ(after->row(r), before->row(r)) << name << " row " << r;
    }
  }
  EXPECT_EQ(SaveNetworkConfig(reloaded), saved);
}

TEST(NetworkConfigTest, QuotedRowErrors) {
  PdmsNetwork net;
  ASSERT_TRUE(
      LoadNetworkConfig("peer uw\nstored uw course id title\n", &net).ok());
  EXPECT_EQ(LoadNetworkConfig("row uw course \"open\n", &net).code(),
            StatusCode::kParseError);
  EXPECT_FALSE(LoadNetworkConfig("row uw course \"a\"\n", &net).ok());
  EXPECT_TRUE(LoadNetworkConfig("row uw course \"a\" \"b c\"\n", &net).ok());
}

TEST(NetworkConfigTest, Errors) {
  PdmsNetwork net;
  EXPECT_FALSE(LoadNetworkConfig("peer\n", &net).ok());
  PdmsNetwork net2;
  EXPECT_FALSE(LoadNetworkConfig("stored uw course\n", &net2).ok());
  PdmsNetwork net3;
  EXPECT_FALSE(
      LoadNetworkConfig("row uw course a | b\n", &net3).ok());  // no table
  PdmsNetwork net4;
  EXPECT_FALSE(LoadNetworkConfig("mapping m a b\n", &net4).ok());  // no glav
  PdmsNetwork net5;
  EXPECT_FALSE(LoadNetworkConfig("frobnicate x\n", &net5).ok());
  // No overlay-shape directive: nothing reads one.
  Status topology = LoadNetworkConfig("topology small_world 1000\n", &net5);
  EXPECT_EQ(topology.code(), StatusCode::kParseError) << topology.ToString();
  // No metrics directive: the registry is always on.
  Status metrics = LoadNetworkConfig("metrics off\n", &net5);
  EXPECT_EQ(metrics.code(), StatusCode::kParseError) << metrics.ToString();
  PdmsNetwork net6;
  // Mapping referencing unknown peers fails at AddMapping.
  EXPECT_FALSE(LoadNetworkConfig(
                   "mapping m a b\n  m(X) :- a:r(X) => m(X) :- b:s(X)\n",
                   &net6)
                   .ok());
}

// Errors from the catalog and the GLAV parser name their line too, not
// only the loader's own syntax errors.
TEST(NetworkConfigTest, EveryErrorNamesItsLine) {
  for (const char* config : {
           "peer uw\n\npeer uw\n",                         // duplicate peer
           "peer uw\n# no such peer\nstored mit course id\n",
           "peer uw\nstored uw course id\nrow uw course a | b\n",  // arity
           "peer uw\nmapping m uw uw\n  not a mapping\n",  // GLAV syntax
           "peer uw\nmapping m uw uw\n",  // no GLAV line before the end
       }) {
    PdmsNetwork net;
    Status status = LoadNetworkConfig(config, &net);
    EXPECT_FALSE(status.ok()) << config;
    EXPECT_EQ(status.message().rfind("network config line 3: ", 0), 0u)
        << status.ToString();
  }
}

TEST(NetworkConfigTest, ArityMismatchOnRowRejected) {
  PdmsNetwork net;
  EXPECT_FALSE(LoadNetworkConfig(
                   "peer uw\nstored uw course id title\n"
                   "row uw course only-one-value\n",
                   &net)
                   .ok());
}

TEST(NetworkConfigTest, FaultDirectivesLoadIntoInjector) {
  constexpr char kFaultConfig[] =
      "peer uw\npeer mit\npeer stanford\n"
      "fault uw down\n"
      "fault mit flaky 0.25\n"
      "fault stanford slow 80\n";
  PdmsNetwork net;
  FaultInjector faults(1);
  ASSERT_TRUE(LoadNetworkConfig(kFaultConfig, &net, &faults).ok());
  EXPECT_EQ(faults.GetFault("uw").mode, FaultMode::kDown);
  EXPECT_EQ(faults.GetFault("mit").mode, FaultMode::kFlaky);
  EXPECT_DOUBLE_EQ(faults.GetFault("mit").failure_probability, 0.25);
  EXPECT_EQ(faults.GetFault("stanford").mode, FaultMode::kSlow);
  EXPECT_DOUBLE_EQ(faults.GetFault("stanford").extra_latency_ms, 80.0);
}

TEST(NetworkConfigTest, FaultDirectivesRoundTripThroughSave) {
  constexpr char kFaultConfig[] =
      "peer uw\npeer mit\n"
      "fault uw down\n"
      "fault mit flaky 0.5\n";
  PdmsNetwork net;
  FaultInjector faults(1);
  ASSERT_TRUE(LoadNetworkConfig(kFaultConfig, &net, &faults).ok());
  std::string saved = SaveNetworkConfig(net, &faults);
  PdmsNetwork reloaded;
  FaultInjector refaults(1);
  ASSERT_TRUE(LoadNetworkConfig(saved, &reloaded, &refaults).ok()) << saved;
  EXPECT_EQ(SaveNetworkConfig(reloaded, &refaults), saved);
  EXPECT_EQ(refaults.FaultyPeers(), faults.FaultyPeers());
}

// Fault values are saved in their shortest exact form, so a load reads
// back the very doubles that were saved (not 6-decimal roundings).
TEST(NetworkConfigTest, FaultValuesRoundTripExactly) {
  PdmsNetwork net;
  ASSERT_TRUE(LoadNetworkConfig("peer uw\npeer mit\n", &net).ok());
  FaultInjector faults(1);
  faults.SetFlaky("uw", 0.53728191234);
  faults.SetSlow("mit", 12.0000004);
  std::string saved = SaveNetworkConfig(net, &faults);
  PdmsNetwork reloaded;
  FaultInjector refaults(1);
  ASSERT_TRUE(LoadNetworkConfig(saved, &reloaded, &refaults).ok()) << saved;
  EXPECT_EQ(refaults.GetFault("uw").failure_probability, 0.53728191234)
      << saved;
  EXPECT_EQ(refaults.GetFault("mit").extra_latency_ms, 12.0000004) << saved;
}

TEST(NetworkConfigTest, PlanCacheDirectiveSizesCache) {
  PdmsNetwork net;
  ASSERT_TRUE(
      LoadNetworkConfig("plan_cache 64\npeer uw\n", &net).ok());
  EXPECT_EQ(net.plan_cache_capacity(), 64u);
  // Zero disables caching entirely.
  PdmsNetwork off;
  ASSERT_TRUE(LoadNetworkConfig("plan_cache 0\n", &off).ok());
  EXPECT_EQ(off.plan_cache_capacity(), 0u);
}

TEST(NetworkConfigTest, PlanCacheDirectiveRoundTripsThroughSave) {
  PdmsNetwork net;
  ASSERT_TRUE(LoadNetworkConfig(std::string("plan_cache 7\n") + kConfig,
                                &net)
                  .ok());
  std::string saved = SaveNetworkConfig(net);
  EXPECT_NE(saved.find("plan_cache 7\n"), std::string::npos);
  PdmsNetwork reloaded;
  ASSERT_TRUE(LoadNetworkConfig(saved, &reloaded).ok()) << saved;
  EXPECT_EQ(reloaded.plan_cache_capacity(), 7u);
  EXPECT_EQ(SaveNetworkConfig(reloaded), saved);
  // The default capacity is left implicit: no directive emitted.
  PdmsNetwork vanilla;
  ASSERT_TRUE(LoadNetworkConfig(kConfig, &vanilla).ok());
  EXPECT_EQ(SaveNetworkConfig(vanilla).find("plan_cache"),
            std::string::npos);
}

TEST(NetworkConfigTest, PlanCacheDirectiveErrors) {
  PdmsNetwork net;
  EXPECT_FALSE(LoadNetworkConfig("plan_cache\n", &net).ok());
  EXPECT_FALSE(LoadNetworkConfig("plan_cache banana\n", &net).ok());
  EXPECT_FALSE(LoadNetworkConfig("plan_cache 12x\n", &net).ok());
  EXPECT_FALSE(LoadNetworkConfig("plan_cache -3\n", &net).ok());
  EXPECT_FALSE(LoadNetworkConfig("plan_cache 1 2\n", &net).ok());
}

TEST(NetworkConfigTest, FaultDirectiveErrors) {
  {
    // No injector supplied.
    PdmsNetwork fresh;
    EXPECT_FALSE(LoadNetworkConfig("peer uw\nfault uw down\n", &fresh).ok());
  }
  PdmsNetwork net;
  FaultInjector faults(1);
  ASSERT_TRUE(net.AddPeer("uw").ok());
  // Unknown peer / unknown mode / malformed value / stray value.
  EXPECT_FALSE(LoadNetworkConfig("fault ghost down\n", &net, &faults).ok());
  EXPECT_FALSE(LoadNetworkConfig("fault uw haunted\n", &net, &faults).ok());
  EXPECT_FALSE(
      LoadNetworkConfig("fault uw flaky banana\n", &net, &faults).ok());
  EXPECT_FALSE(LoadNetworkConfig("fault uw down 3\n", &net, &faults).ok());
}

}  // namespace
}  // namespace revere::piazza
