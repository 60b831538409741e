#ifndef REVERE_FUZZ_FUZZER_H_
#define REVERE_FUZZ_FUZZER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/datagen/topology.h"
#include "src/piazza/fault.h"
#include "src/piazza/pdms.h"
#include "src/piazza/reformulation.h"
#include "src/query/cq.h"
#include "src/storage/value.h"

namespace revere::fuzz {

/// Differential fuzz harness for the whole answer pipeline (ISSUE 5).
///
/// A FuzzCase is a fully *explicit* PDMS scenario — peers, stored
/// relations, rows, GLAV mappings, conjunctive queries, a fault plan,
/// and execution knobs — generated deterministically from a seed but
/// stored as data so it can be shrunk element-by-element and written to
/// a replayable seed file. CheckCase() drives each case through every
/// engine configuration the seed semantics has grown fast paths for and
/// asserts the invariants that make those paths exact:
///
///   engine_vs_reference
///                     the columnar engine == the map reference byte
///                     for byte (rows, statuses, stats), serial and
///                     pooled, fault-free and faulted
///   plan_cache        cache off == cold miss == warm hit (hit flagged)
///   workers           pool-parallel EvaluateUnion == serial
///   answer_vs_union   EvaluateUnion over the rewritings == Answer;
///                     AnswerWithProvenance carries Answer's rows with
///                     the peers of their deriving rewritings
///   fault_replay      same fault seed => byte-identical run (rows,
///                     completeness accounting, simulated clock), and
///                     best-effort answers are a subset of fault-free
///   batch_vs_answer   AnswerBatch slots == standalone Answer calls
///   trace             tracing changes no answer; the span tree is
///                     well-formed (parents exist, names nest per the
///                     answer-path schema)
///   serve_vs_answer   RevereServer with an infinite deadline, no
///                     breakers, and an unlimited retry budget ==
///                     direct Answer calls, byte for byte (rows,
///                     statuses, completeness accounting) — the
///                     overload machinery costs nothing when off
///   pruned_vs_exhaustive
///                     the route-mode best-first search (ISSUE 9) with
///                     an unlimited budget == the legacy exhaustive BFS
///                     byte for byte (rows, statuses, stats, zero
///                     pruning counters); with a bounded max_path_cost
///                     every rewriting it keeps is contained in some
///                     exhaustive rewriting and every returned row is in
///                     the exhaustive answer, fault-free and faulted
///   snapshot_vs_quiesced
///                     MVCC (ISSUE 10): answers computed while a writer
///                     thread churns every stored relation == the same
///                     queries re-run over the SAME pinned versions
///                     after the writer quiesces, byte for byte (rows,
///                     statuses, stats, digest) — readers never observe
///                     a torn or shifting table, and under TSan the
///                     whole Snapshot/Publish protocol is race-checked
///
/// plus cross-cutting stats invariants (peers_contacted bounds,
/// completeness arithmetic, plan-cache hit/miss flags).

/// One stored relation in a case: all-string columns, bag semantics.
struct FuzzTable {
  std::string peer;
  std::string relation;  // unqualified
  size_t arity = 3;
  std::vector<storage::Row> rows;  // string values only
};

/// One GLAV edge. Source/target bodies are over qualified names.
struct FuzzMapping {
  std::string source_peer;
  std::string target_peer;
  bool bidirectional = true;
  query::GlavMapping glav;
};

/// One injected peer fault.
struct FuzzFault {
  std::string peer;
  piazza::PeerFault fault;
};

/// A complete, self-contained fuzz scenario.
struct FuzzCase {
  uint64_t seed = 0;  // seeds the fault injectors; labels the case
  std::vector<FuzzTable> tables;
  std::vector<FuzzMapping> mappings;
  std::vector<query::ConjunctiveQuery> queries;
  std::vector<FuzzFault> faults;
  piazza::ReformulationOptions reform;  // use_plan_cache varied per oracle
  piazza::RetryPolicy retry;
  piazza::FailurePolicy policy = piazza::FailurePolicy::kBestEffort;
  size_t workers = 3;  // pool size for the parallel oracles
};

/// Shape knobs for GenerateCase. Defaults keep cases small enough that
/// a full CheckCase (a dozen network builds) stays in the hundreds of
/// microseconds, so CI fuzz passes clear hundreds of cases per second.
struct FuzzCaseOptions {
  size_t min_peers = 2;
  size_t max_peers = 5;
  size_t max_rows_per_peer = 8;
  size_t max_queries = 3;
  size_t max_extra_atoms = 2;  // join atoms beyond each query's first
  double constant_prob = 0.25;  // per atom argument
  double duplicate_row_prob = 0.15;  // bag-semantics pressure
  double fault_case_prob = 0.5;  // chance a case has any faults
  double fault_peer_prob = 0.4;  // per peer, within a faulty case
  double bidirectional_prob = 0.75;  // per mapping edge
  /// Random-topology chord probability — the one documented default,
  /// shared with datagen::PdmsGenOptions (they used to drift).
  double extra_edge_prob = datagen::kDefaultExtraEdgeProb;
  double route_case_prob = 0.3;  // chance a case runs route-mode search
};

/// Deterministically generates the case for `seed` (same seed, same
/// options => identical case, any machine). Reuses src/datagen: course
/// rows come from datagen::GenerateCourses, topology shapes and the
/// relation vocabulary from datagen::TopologyEdges/RelationNamePool.
FuzzCase GenerateCase(uint64_t seed, const FuzzCaseOptions& options = {});

/// Materializes the case's network (peers, tables, rows, mappings) into
/// `net`.
Status BuildNetwork(const FuzzCase& c, piazza::PdmsNetwork* net);

/// One violated invariant.
struct OracleFailure {
  std::string oracle;  // "engine_vs_reference", "fault_replay", ...
  std::string detail;  // human-readable: query index, counts, values
};

/// Outcome of running every oracle over one case.
struct CaseReport {
  std::vector<OracleFailure> failures;
  size_t oracle_checks = 0;  // individual comparisons performed
  /// FNV-1a-64 over the baseline answers (rows and statuses, in query
  /// order) — two runs of the same case must produce equal digests,
  /// the bit-identical-replay acceptance check.
  uint64_t answer_digest = 0;
  bool ok() const { return failures.empty(); }
};

/// Runs all differential oracles + invariants over `c`.
CaseReport CheckCase(const FuzzCase& c);

/// Greedy structural shrinking: repeatedly tries removing one element —
/// a query, a query atom (with the head re-projected to surviving
/// variables), a fault, a mapping, a row — keeping
/// any removal for which `still_fails` returns true, until a fixpoint
/// or `max_probes` predicate evaluations. The predicate form lets tests
/// shrink against synthetic failures; production callers pass
/// [](const FuzzCase& c) { return !CheckCase(c).ok(); }.
using FailurePredicate = std::function<bool(const FuzzCase&)>;
FuzzCase ShrinkCase(FuzzCase c, const FailurePredicate& still_fails,
                    size_t max_probes = 600);

/// Replayable seed-file format: a line-oriented text serialization that
/// round-trips every field of FuzzCase (queries and mappings through
/// the datalog parser, row values with quote/backslash escaping).
std::string SerializeCase(const FuzzCase& c);
Result<FuzzCase> ParseCase(std::string_view text);
Status SaveCase(const FuzzCase& c, const std::string& path);
Result<FuzzCase> LoadCase(const std::string& path);

/// One bounded fuzz campaign.
struct FuzzRunOptions {
  uint64_t seed = 1;       // campaign seed; case seeds derive from it
  size_t cases = 100;      // generated cases to check
  double max_seconds = 0;  // wall-clock time box; 0 = no box
  std::string failure_dir;  // where shrunken seed files land ("" = skip)
  FuzzCaseOptions gen;
};

struct FuzzRunReport {
  size_t cases_run = 0;
  size_t oracle_checks = 0;
  size_t mismatches = 0;  // cases with >= 1 failing oracle
  bool time_boxed = false;  // stopped by max_seconds, not by cases
  std::vector<std::string> failure_files;  // saved shrunken seed files
  /// First failing case, shrunk (empty tables+queries when none).
  FuzzCase first_failure;
  std::vector<OracleFailure> first_failure_details;
};

/// Generates and checks cases until the budget runs out; shrinks and
/// (when failure_dir is set) saves every mismatching case.
FuzzRunReport RunFuzz(const FuzzRunOptions& options);

}  // namespace revere::fuzz

#endif  // REVERE_FUZZ_FUZZER_H_
