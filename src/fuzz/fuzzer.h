#ifndef REVERE_FUZZ_FUZZER_H_
#define REVERE_FUZZ_FUZZER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/piazza/fault.h"
#include "src/piazza/pdms.h"
#include "src/piazza/peer.h"
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
/// a replayable seed file, whose network part is a plain network config
/// (SerializeCase). The harness builds as its own library, revere_fuzz,
/// linked only by the fuzz_answer tool, its test and its bench, so
/// librevere.a carries no fuzz code. CheckCase() drives each case
/// through every engine configuration the seed semantics has grown fast
/// paths for and asserts the invariants that make those paths exact:
///
///   engine_vs_reference
///                     the columnar engine == the map reference byte
///                     for byte (rows, statuses, stats), serial and
///                     pooled, fault-free and faulted
///   plan_cache        cache off == cold miss == warm hit (hit flagged);
///                     after each query's warm run, variants that redraw
///                     every distinct constant from the case's stored
///                     values and constants == cache-off byte for byte
///                     (rewriting text, rows, statuses, stats)
///   workers           pool-parallel EvaluateUnion == serial
///   answer_vs_union   EvaluateUnion over the rewritings == Answer ==
///                     the naive union (each rewriting's map-engine rows
///                     in order, first occurrence kept through a
///                     std::set); AnswerWithProvenance carries Answer's
///                     rows with the peers of their deriving rewritings
///   fault_replay      same fault seed => byte-identical run (rows,
///                     completeness accounting, simulated clock), and
///                     best-effort answers are a subset of fault-free
///   trace             tracing (plan cache, pool) changes no answer of
///                     the faulted run; the span tree is well-formed
///                     (parents exist, top-level `answer` spans, names
///                     nest per the answer-path schema)
///   serve_vs_answer   RevereServer with an infinite deadline, no
///                     breakers, and an unlimited retry budget ==
///                     direct Answer calls, byte for byte (rows,
///                     statuses, completeness accounting) — the
///                     overload machinery costs nothing when off
///   pruned_vs_exhaustive
///                     the indexed reformulation search with an
///                     unlimited budget == the scan reference (every
///                     mapping at every node) byte for byte (rows,
///                     statuses, stats, zero pruning counters); with a
///                     bounded max_path_cost every rewriting it keeps is
///                     contained in some exhaustive rewriting and every
///                     returned row is in the exhaustive answer,
///                     fault-free and faulted
///   snapshot_vs_quiesced
///                     MVCC (ISSUE 10): answers computed while a writer
///                     thread churns every stored relation == the same
///                     queries re-run over the SAME pinned versions
///                     after the writer quiesces, byte for byte (rows,
///                     statuses, stats, digest) — readers never observe
///                     a torn or shifting table, and under TSan the
///                     whole Snapshot/Publish protocol is race-checked
///
///   certain_answers   the root of trust: every answer row the oracles
///                     above compute (faulted, budgeted, capped, cache
///                     on or off; not the snapshot oracle's, which a
///                     writer changes under it) is a certain answer
///                     (CertainAnswers), and the baseline answer holds
///                     every certain answer wherever its search claims
///                     completeness: no unreachable peer, no pruned_cost,
///                     pruned_depth or pruned_redundant, fewer rewritings
///                     than max_rewritings, and a search one level deeper
///                     expands no more nodes (pruned_depth counts only
///                     nodes it drops unemitted, so an emitted node at
///                     the depth limit can hide a cut). A case whose
///                     chase reaches no fixpoint is skipped and counted.
///                     The differentials above share the search and the
///                     evaluator's semantics with the baseline; this one
///                     shares neither, so it alone sees a rewriting step
///                     that loses or invents answers
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

/// One injected peer fault.
struct FuzzFault {
  std::string peer;
  piazza::PeerFault fault;
};

/// A complete, self-contained fuzz scenario.
struct FuzzCase {
  uint64_t seed = 0;  // seeds the fault injectors; labels the case
  std::vector<FuzzTable> tables;
  std::vector<piazza::PeerMapping> mappings;
  std::vector<query::ConjunctiveQuery> queries;
  std::vector<FuzzFault> faults;
  piazza::ReformulationOptions reform;  // use_plan_cache varied per oracle
  piazza::RetryPolicy retry;
  piazza::FailurePolicy policy = piazza::FailurePolicy::kBestEffort;
  size_t workers = 3;  // pool size for the parallel oracles
};

/// Deterministically generates the case for `seed` (same seed => the
/// identical case, on any machine): 2-5 peers with one table each,
/// small enough that a full CheckCase stays in the tens of milliseconds.
/// Reuses src/datagen: course rows come from datagen::GenerateCourses,
/// topology shapes and the relation vocabulary from
/// datagen::TopologyEdges/RelationNamePool. A fixed share of cases,
/// drawn from a stream of their own, redraw some mappings with 2-3-atom
/// sides joined on a shared existential, keeping the mapping set weakly
/// acyclic (WeaklyAcyclic); every other case is drawn as if no case had
/// such sides.
FuzzCase GenerateCase(uint64_t seed);

/// Weak acyclicity (Fagin, Kolaitis, Miller & Popa, "Data exchange",
/// ICDT 2003), each bidirectional mapping read in both directions: in
/// the graph over (relation, position), a position holding a head
/// variable of one side has an edge to each position its head twin
/// fills on the other side, and a special edge to each position an
/// existential fills there. With no cycle through a special edge, every
/// chase of the mappings terminates.
bool WeaklyAcyclic(const std::vector<piazza::PeerMapping>& mappings);

/// The certain answers of PDMS semantics — those of data exchange (same
/// paper): a restricted chase of a network's stored rows through its
/// mappings, each bidirectional mapping in both directions, that fills
/// existential positions with labeled nulls. A query's certain answers
/// are its answers over the chased facts that hold no null.
class CertainAnswers {
 public:
  /// Chases `net`'s stored rows for at most kMaxRounds rounds.
  explicit CertainAnswers(const piazza::PdmsNetwork& net);

  /// Bounds the chase, which need not end when the mappings are not
  /// weakly acyclic.
  static constexpr size_t kMaxRounds = 32;

  /// True when a round added no fact. Otherwise the rounds ran out, the
  /// facts are no solution, and Of() means nothing.
  bool fixpoint() const { return fixpoint_; }

  /// `query`'s certain answers, sorted and distinct.
  std::vector<storage::Row> Of(const query::ConjunctiveQuery& query) const;

 private:
  using Fact = std::vector<int64_t>;  // value ids; a null is negative
  using Binding = std::map<std::string, int64_t>;

  /// Calls `emit` with every extension of `binding` that maps
  /// `body[i..]` onto facts.
  void Match(const std::vector<query::Atom>& body, size_t i, Binding* binding,
             const std::function<void()>& emit) const;
  /// The id of a constant, or 0 with `known` false when no fact holds it.
  int64_t IdOf(const storage::Value& v, bool* known) const;
  int64_t Intern(const storage::Value& v);

  std::map<std::string, std::set<Fact>> facts_;  // per relation
  std::vector<storage::Value> values_;           // id -> constant
  std::map<storage::Value, int64_t> ids_;
  bool fixpoint_ = false;
};

/// Materializes the case's network (peers, tables, rows, mappings) into
/// `net` — the same network LoadNetworkConfig builds from the case's
/// seed file.
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
  /// The certain_answers oracle's share of oracle_checks: answers
  /// checked for soundness, and baseline answers for completeness.
  size_t soundness_checks = 0;
  size_t completeness_checks = 0;
  /// False when the case's chase reached no fixpoint (and the
  /// certain_answers oracle skipped it).
  bool chase_fixpoint = true;
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

/// Replayable seed file, `revere-fuzz-case v2`. After the header come
/// the case lines
///
///   seed <n>
///   workers <n>                                        (at most 64)
///   reform <max_depth> <max_rewritings> <prune_duplicates>
///          <prune_unreachable> <prune_contained> <use_route_search>
///          <max_path_cost> <prune_redundant_paths>      (one line; 0/1)
///   retry <max_attempts> <base_backoff_ms> <deadline_ms>
///   policy failfast|besteffort
///   query <conjunctive query>                          (one per query)
///
/// then a `network` line, then the case's tables, mappings and faults
/// exactly as piazza::SaveNetworkConfig writes them. So everything after
/// the `network` line is a network config that loads on its own with
/// piazza::LoadNetworkConfig (faults need an injector), and ParseCase
/// reads the case's tables, mappings and faults back from one such load.
/// Errors name the seed-file line. A peer with no table and a
/// `plan_cache` line are errors: a case cannot hold them.
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
};

struct FuzzRunReport {
  size_t cases_run = 0;
  size_t oracle_checks = 0;
  size_t soundness_checks = 0;     // CaseReport's, summed
  size_t completeness_checks = 0;  // CaseReport's, summed
  size_t no_fixpoint_cases = 0;    // cases the chase left unchecked
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
