// Tests for the differential fuzz harness itself — generator
// determinism, the seed-file round trip (its network part a plain
// network config), the shrinker, digest-stable replay, the certain-
// answers chase — plus a bounded live fuzz pass asserting every oracle
// holds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "src/datagen/topology.h"
#include "src/fuzz/fuzzer.h"
#include "src/piazza/fault.h"
#include "src/piazza/network_config.h"
#include "src/piazza/pdms.h"
#include "src/query/cq.h"

namespace revere::fuzz {
namespace {

TEST(FuzzGenTest, DeterministicAcrossCalls) {
  for (uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
    FuzzCase a = GenerateCase(seed);
    FuzzCase b = GenerateCase(seed);
    EXPECT_EQ(SerializeCase(a), SerializeCase(b)) << "seed " << seed;
  }
}

TEST(FuzzGenTest, DifferentSeedsDiffer) {
  EXPECT_NE(SerializeCase(GenerateCase(1)), SerializeCase(GenerateCase(2)));
}

TEST(FuzzGenTest, CasesAreWellFormed) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    FuzzCase c = GenerateCase(seed);
    EXPECT_GE(c.tables.size(), 2u);
    EXPECT_GE(c.queries.size(), 1u);
    EXPECT_GE(c.workers, 2u);
    for (const auto& q : c.queries) EXPECT_TRUE(q.IsSafe()) << q.ToString();
    for (const auto& m : c.mappings) {
      EXPECT_TRUE(m.glav.Validate().ok()) << m.glav.ToString();
    }
    piazza::PdmsNetwork net;
    EXPECT_TRUE(BuildNetwork(c, &net).ok()) << "seed " << seed;
  }
}

TEST(FuzzGenTest, MultiAtomSidesStayWeaklyAcyclic) {
  size_t multi_atom_cases = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    FuzzCase c = GenerateCase(seed);
    EXPECT_TRUE(WeaklyAcyclic(c.mappings)) << "seed " << seed;
    multi_atom_cases += std::any_of(
        c.mappings.begin(), c.mappings.end(), [](const auto& m) {
          return m.glav.source.body().size() > 1 ||
                 m.glav.target.body().size() > 1;
        });
  }
  EXPECT_GT(multi_atom_cases, 20u);
}

piazza::PeerMapping Mapping(const std::string& glav, const std::string& from,
                            const std::string& to, bool bidirectional) {
  return piazza::PeerMapping{query::GlavMapping::Parse(glav).value(), from, to,
                             bidirectional};
}

TEST(WeaklyAcyclicTest, CycleThroughAnExistentialIsRejected) {
  // Forward, s's positions feed r's existential Z; backward, r's head
  // positions feed s again.
  const std::string path =
      "m(X, Y) :- a:s(X, Y) => m(X, Y) :- b:r(X, Z), b:r(Z, Y)";
  EXPECT_TRUE(WeaklyAcyclic({Mapping(path, "a", "b", false)}));
  EXPECT_FALSE(WeaklyAcyclic({Mapping(path, "a", "b", true)}));
  // An existential past the head positions never feeds back.
  EXPECT_TRUE(WeaklyAcyclic({Mapping(
      "m(X) :- a:s(X) => m(X) :- b:r(X, Z), b:t(X, Z)", "a", "b", true)}));
}

std::vector<storage::Row> Sorted(std::vector<storage::Row> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Figure 2's six universities: each peer's all-courses query answers
// exactly the certain answers, every course at every peer.
TEST(CertainAnswersTest, Figure2AnswersAreTheCertainAnswers) {
  piazza::PdmsNetwork net;
  datagen::PdmsGenOptions options;
  options.topology = datagen::Topology::kFigure2;
  options.rows_per_peer = 5;
  auto report = datagen::BuildUniversityPdms(&net, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  CertainAnswers chase(net);
  ASSERT_TRUE(chase.fixpoint());
  for (size_t peer = 0; peer < report.value().peer_names.size(); ++peer) {
    query::ConjunctiveQuery q = datagen::AllCoursesQuery(report.value(), peer);
    auto rows = net.Answer(q);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(Sorted(rows.value()), chase.Of(q)) << q.ToString();
    EXPECT_EQ(rows.value().size(), report.value().total_rows);
  }
}

// Nulls join within one mapping's facts and never leave an answer.
TEST(CertainAnswersTest, NullsJoinButAreNeverAnswers) {
  piazza::PdmsNetwork net;
  ASSERT_TRUE(piazza::LoadNetworkConfig(
                  "peer a\npeer b\nstored a s x y\nrow a s x1 | y1\n"
                  "stored b r x z\nstored b t z y\n"
                  "mapping m a b\n"
                  "  m(X, Y) :- a:s(X, Y) => m(X, Y) :- b:r(X, Z), b:t(Z, Y)\n",
                  &net)
                  .ok());
  CertainAnswers chase(net);
  ASSERT_TRUE(chase.fixpoint());
  auto q = [](const char* text) {
    return query::ConjunctiveQuery::Parse(text).value();
  };
  EXPECT_EQ(chase.Of(q("q(X, Y) :- b:r(X, Z), b:t(Z, Y)")),
            (std::vector<storage::Row>{{storage::Value("x1"),
                                        storage::Value("y1")}}));
  EXPECT_TRUE(chase.Of(q("q(X, Z) :- b:r(X, Z)")).empty());
  EXPECT_EQ(chase.Of(q("q(X) :- b:r(X, Z)")).size(), 1u);
}

// r(X, Y) => r(Y, Z) adds a fact with a new null every round.
TEST(CertainAnswersTest, NoFixpointWhenTheRoundsRunOut) {
  piazza::PdmsNetwork net;
  ASSERT_TRUE(piazza::LoadNetworkConfig(
                  "peer a\nstored a r x y\nrow a r 1 | 2\n"
                  "mapping m a a\n"
                  "  m(Y) :- a:r(X, Y) => m(Y) :- a:r(Y, Z)\n",
                  &net)
                  .ok());
  EXPECT_FALSE(WeaklyAcyclic(net.mappings()));
  EXPECT_FALSE(CertainAnswers(net).fixpoint());
}

// The seed file holds the whole case: the text serializes back byte
// for byte, and the loaded case checks exactly like the generated one.
TEST(FuzzSerializeTest, RoundTripsEveryField) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    FuzzCase c = GenerateCase(seed);
    std::string text = SerializeCase(c);
    Result<FuzzCase> parsed = ParseCase(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
    EXPECT_EQ(SerializeCase(parsed.value()), text) << "seed " << seed;
    CaseReport want = CheckCase(c);
    CaseReport got = CheckCase(parsed.value());
    EXPECT_EQ(got.answer_digest, want.answer_digest) << "seed " << seed;
    EXPECT_EQ(got.oracle_checks, want.oracle_checks) << "seed " << seed;
  }
}

// Everything after the `network` line is what SaveNetworkConfig writes,
// so a failing case loads wherever a config does.
TEST(FuzzSerializeTest, NetworkPartIsAConfig) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    std::string text = SerializeCase(GenerateCase(seed));
    size_t at = text.find("\nnetwork\n");
    ASSERT_NE(at, std::string::npos) << text;
    std::string config = text.substr(at + 9);
    piazza::PdmsNetwork net;
    piazza::FaultInjector faults(1);
    Status loaded = piazza::LoadNetworkConfig(config, &net, &faults);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString() << "\n" << config;
    EXPECT_EQ(piazza::SaveNetworkConfig(net, &faults), config)
        << "seed " << seed;
  }
}

TEST(FuzzSerializeTest, EscapesQuotesAndBackslashes) {
  FuzzCase c = GenerateCase(1);
  ASSERT_FALSE(c.tables.empty());
  storage::Row tricky;
  storage::Row multiline;  // a newline, and a backslash before an n
  for (size_t i = 0; i < c.tables[0].arity; ++i) {
    tricky.emplace_back(std::string("a\"b\\c") + std::to_string(i));
    multiline.emplace_back(
        (i % 2 == 0 ? std::string("two\nlines") : std::string("back\\n")) +
        std::to_string(i));
  }
  c.tables[0].rows.push_back(tricky);
  c.tables[0].rows.push_back(multiline);
  Result<FuzzCase> parsed = ParseCase(SerializeCase(c));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::vector<storage::Row>& rows = parsed.value().tables[0].rows;
  ASSERT_GE(rows.size(), 2u);
  EXPECT_EQ(rows[rows.size() - 2], tricky);
  EXPECT_EQ(rows.back(), multiline);
}

TEST(FuzzSerializeTest, RejectsGarbage) {
  EXPECT_FALSE(ParseCase("").ok());
  EXPECT_FALSE(ParseCase("not a fuzz case").ok());
  // v1 files, with their own table/row/mapping/fault lines, are gone.
  EXPECT_FALSE(ParseCase("revere-fuzz-case v1\nseed 1\n"
                         "table p0 course 2\nrow 0 \"c1\" \"x\"\nend\n")
                   .ok());
  EXPECT_FALSE(ParseCase("revere-fuzz-case v2\nseed 1\n").ok());  // no network
  Status unknown =
      ParseCase("revere-fuzz-case v2\nseed 1\ntable p0 course 2\nnetwork\n")
          .status();
  EXPECT_EQ(unknown.code(), StatusCode::kParseError);
  EXPECT_NE(unknown.message().find("line 3"), std::string::npos)
      << unknown.ToString();
  // A partial search section (the scan and a budget, no redundant-path
  // knob) would otherwise load silently with default knobs.
  EXPECT_FALSE(
      ParseCase("revere-fuzz-case v2\nreform 4 64 1 1 1 0 2\nnetwork\n").ok());
  // A config error names its line of the seed file.
  Status config = ParseCase(
                      "revere-fuzz-case v2\nseed 1\nnetwork\npeer p0\n"
                      "row p0 course \"orphan\"\n")
                      .status();
  EXPECT_EQ(config.code(), StatusCode::kNotFound) << config.ToString();
  EXPECT_NE(config.message().find("line 5"), std::string::npos)
      << config.ToString();
  // Each oracle run starts a pool of `workers` threads: no wrapped
  // negative count, no huge one.
  EXPECT_FALSE(ParseCase("revere-fuzz-case v2\nworkers -1\nnetwork\n").ok());
  EXPECT_FALSE(
      ParseCase("revere-fuzz-case v2\nworkers 100000\nnetwork\n").ok());
  // What a case cannot hold: a peer with no table, a plan-cache size.
  EXPECT_FALSE(ParseCase("revere-fuzz-case v2\nnetwork\npeer p0\n").ok());
  EXPECT_FALSE(ParseCase("revere-fuzz-case v2\nnetwork\nplan_cache 4\n").ok());
}

TEST(FuzzSerializeTest, SaveLoadFile) {
  FuzzCase c = GenerateCase(7);
  std::string path =
      (std::filesystem::temp_directory_path() / "revere_fuzz_case.txt")
          .string();
  ASSERT_TRUE(SaveCase(c, path).ok());
  Result<FuzzCase> loaded = LoadCase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(SerializeCase(loaded.value()), SerializeCase(c));
  std::remove(path.c_str());
  EXPECT_FALSE(LoadCase(path).ok());
}

TEST(FuzzReplayTest, DigestIsBitIdenticalAcrossRunsAndRoundTrips) {
  for (uint64_t seed : {3ull, 11ull}) {
    FuzzCase c = GenerateCase(seed);
    CaseReport first = CheckCase(c);
    CaseReport again = CheckCase(c);
    EXPECT_EQ(first.answer_digest, again.answer_digest);
    Result<FuzzCase> reparsed = ParseCase(SerializeCase(c));
    ASSERT_TRUE(reparsed.ok());
    EXPECT_EQ(CheckCase(reparsed.value()).answer_digest, first.answer_digest);
  }
}

TEST(FuzzShrinkTest, ShrinksToMinimalFailingCore) {
  FuzzCase c = GenerateCase(5);
  // Synthetic failure: "still fails while any fault remains". The
  // shrinker must strip everything else down to its floors and keep
  // exactly one fault.
  if (c.faults.empty()) {
    FuzzFault f;
    f.peer = c.tables[0].peer;
    f.fault.mode = piazza::FaultMode::kDown;
    c.faults.push_back(f);
  }
  size_t probes = 0;
  FuzzCase shrunk = ShrinkCase(c, [&probes](const FuzzCase& s) {
    ++probes;
    return !s.faults.empty();
  });
  EXPECT_EQ(shrunk.faults.size(), 1u);
  EXPECT_EQ(shrunk.queries.size(), 1u);  // floor: one query survives
  EXPECT_EQ(shrunk.mappings.size(), 0u);
  for (const auto& t : shrunk.tables) EXPECT_TRUE(t.rows.empty());
  for (const auto& q : shrunk.queries) EXPECT_EQ(q.body().size(), 1u);
  EXPECT_GT(probes, 0u);
}

TEST(FuzzShrinkTest, RespectsProbeBudget) {
  FuzzCase c = GenerateCase(6);
  size_t probes = 0;
  ShrinkCase(
      c,
      [&probes](const FuzzCase&) {
        ++probes;
        return true;
      },
      /*max_probes=*/10);
  EXPECT_LE(probes, 10u);
}

// The second input is a shrunk case the pruned_vs_exhaustive count
// bound used to flag although the program is right: with
// prune_contained on, the exhaustive search drops the `class` and
// `corso` rewritings as contained in one the budget-2 route search
// never generates (it would re-enter p1), so the bounded search keeps
// 3 rewritings to the exhaustive 2 — each contained in an exhaustive
// one, its rows a subset of the exhaustive answer.
TEST(FuzzOracleTest, SingleCaseAllOraclesHold) {
  Result<FuzzCase> contained_pruning = ParseCase(R"(revere-fuzz-case v2
seed 171375963757849069
workers 2
reform 4 64 1 1 1 0 0 0
retry 2 0.5 6
policy failfast
query q(V0) :- p1:subject(V0, "c6", V0, V0), p0:course(V1, V2)
network
# REVERE network config v1
peer p0
peer p1
peer p2
peer p3
stored p0 course c0 c1
stored p1 subject c0 c1 c2 c3
stored p2 class c0 c1 c2 c3
stored p3 corso c0 c1 c2
mapping m0 p0 p1 bidirectional
  m(H0, H1) :- p0:course(H0, H1) => m(H0, H1) :- p1:subject(H0, H1, T0, T1)
mapping m1 p0 p2 bidirectional
  m(H0, H1) :- p0:course(H0, H1) => m(H0, H1) :- p2:class(H0, H1, T0, T1)
mapping m2 p2 p3 bidirectional
  m(H0, H1, H2) :- p2:class(H0, H1, H2, S0) => m(H0, H1, H2) :- p3:corso(H0, H1, H2)
)");
  ASSERT_TRUE(contained_pruning.ok())
      << contained_pruning.status().ToString();
  for (const FuzzCase& c : {GenerateCase(9), contained_pruning.value()}) {
    CaseReport r = CheckCase(c);
    EXPECT_TRUE(r.ok()) << "case seed " << c.seed << ": "
                        << (r.failures.empty()
                                ? std::string()
                                : r.failures[0].oracle + ": " +
                                      r.failures[0].detail);
  }
}

TEST(FuzzRunTest, BoundedPassIsClean) {
  FuzzRunOptions options;
  options.seed = 20260807;
  options.cases = 40;
  FuzzRunReport report = RunFuzz(options);
  EXPECT_EQ(report.cases_run, 40u);
  EXPECT_EQ(report.mismatches, 0u)
      << (report.first_failure_details.empty()
              ? std::string()
              : report.first_failure_details[0].oracle + ": " +
                    report.first_failure_details[0].detail);
  EXPECT_GT(report.oracle_checks, 1000u);
  EXPECT_FALSE(report.time_boxed);
}

TEST(FuzzRunTest, TimeBoxStops) {
  FuzzRunOptions options;
  options.seed = 2;
  options.cases = 1000000;  // would take minutes un-boxed
  options.max_seconds = 0.2;
  FuzzRunReport report = RunFuzz(options);
  EXPECT_TRUE(report.time_boxed);
  EXPECT_LT(report.cases_run, options.cases);
  EXPECT_EQ(report.mismatches, 0u);
}

TEST(FuzzRunTest, CampaignSeedIsDeterministic) {
  FuzzRunOptions options;
  options.seed = 77;
  options.cases = 5;
  FuzzRunReport a = RunFuzz(options);
  FuzzRunReport b = RunFuzz(options);
  EXPECT_EQ(a.cases_run, b.cases_run);
  EXPECT_EQ(a.oracle_checks, b.oracle_checks);
  EXPECT_EQ(a.mismatches, b.mismatches);
}

}  // namespace
}  // namespace revere::fuzz
