#ifndef REVERE_QUERY_EVALUATE_H_
#define REVERE_QUERY_EVALUATE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/query/cq.h"
#include "src/storage/catalog.h"
#include "src/storage/table_version.h"

namespace revere {
class ThreadPool;
}  // namespace revere

namespace revere::obs {
class Tracer;
}  // namespace revere::obs

namespace revere::query {

class PreparedQueries;

/// Which CQ evaluation engine to run. Both produce byte-identical
/// results (same rows, same order) — the fuzzer's engine_vs_reference
/// oracle and tests/query_test.cc enforce this.
enum class EvalEngine {
  /// The naive reference: std::map<std::string, Value> bindings copied
  /// per candidate row and a full scan for every atom. Tests, the
  /// fuzzer and benchmarks compute expected answers with it; it shares
  /// no index or snapshot with the engine under test.
  kMap,
  /// The production engine (vectorized.h): evaluates against
  /// each table version's dictionary-encoded ColumnTable snapshot,
  /// joining and filtering on integer codes in ~1024-tuple batches over
  /// a bump arena and probing the snapshot's grouped index, and
  /// materializes Rows only at the output boundary.
  kColumnar,
};

/// Knobs for conjunctive-query evaluation.
struct EvalOptions {
  /// See EvalEngine.
  EvalEngine engine = EvalEngine::kColumnar;
  /// When set, UnionMembers (behind EvaluateUnion and
  /// PdmsNetwork::Answer) evaluates member queries in parallel on this
  /// pool. Results are merged in query order through one dedup set, so
  /// output is byte-identical for any worker count (and to the serial
  /// path). EvaluateCQ itself never uses the pool.
  ThreadPool* pool = nullptr;
  /// MVCC pin scope (see storage::SnapshotSet). When set, every table
  /// touched by the evaluation is read at the version this set pins
  /// (pinning the head on first touch) — the PDMS answer path shares
  /// one set across all rewritings of a query so the whole answer is
  /// computed against one consistent version per table. When null, each
  /// EvaluateCQ/EvaluateUnion call pins its own scope internally.
  storage::SnapshotSet* snapshots = nullptr;

  // ---- Observability (ISSUE 4) ----

  /// When set, UnionMembers opens one `evaluate` span per member under
  /// `parent_span`; PdmsNetwork::Answer* sets both to its tracer and
  /// `answer` span. Evaluation results never depend on these fields.
  obs::Tracer* tracer = nullptr;
  /// Span id the evaluate spans attach under (0 = top level).
  uint64_t parent_span = 0;
};

/// Evaluates a conjunctive query against stored relations. Each body
/// atom's relation must exist in `catalog` with matching arity. Returns
/// the set (duplicates eliminated) of head tuples. Join strategy:
/// greedy most-bound-first atom ordering (query-static, ties to the
/// first atom), each atom probed through the grouped index on its first
/// bound position or scanned (see EvalEngine).
Result<std::vector<storage::Row>> EvaluateCQ(const storage::Catalog& catalog,
                                             const ConjunctiveQuery& query,
                                             const EvalOptions& options = {});

/// One union member's duplicate-free rows with their HashRow values
/// (hashes[i] == HashRow(rows[i])), which the union merge passes to
/// RowDedup::Emit instead of hashing the rows again.
struct MemberRows {
  std::vector<storage::Row> rows;
  std::vector<uint64_t> hashes;
};

/// One member of a union: a query resolved by name (the columnar
/// engine prepares it on the fly), or, with `programs` set, program
/// `program` prepared from `query`, run over `tables` (one live table
/// of the right arity per body atom) with parameter slot k reading
/// (*params)[k]. Members for the map reference carry no program.
struct UnionMember {
  const ConjunctiveQuery* query = nullptr;
  const PreparedQueries* programs = nullptr;
  size_t program = 0;
  const storage::Table* const* tables = nullptr;
  const std::vector<storage::Value>* params = nullptr;
};

/// The member evaluator behind both union paths, EvaluateUnion and
/// PdmsNetwork::Answer: the caller takes members in order and merges
/// them itself. With options.pool set and more than one member, every
/// member is submitted at construction, so the merge of member i
/// overlaps the evaluation of later ones. A worker skips a member it
/// has not started once `stop` returns true (the answer path passes its
/// deadline check) or the evaluator is being destroyed. Each evaluation
/// opens an `evaluate` span (detail "rw<i>") under options.tracer /
/// parent_span. With options.snapshots null, members share one pin
/// scope owned here.
class UnionMembers {
 public:
  /// `catalog` and what `members` point at must outlive the evaluator.
  UnionMembers(const storage::Catalog& catalog,
               std::vector<UnionMember> members, const EvalOptions& options,
               std::function<bool()> stop = {});
  /// Skips the members no worker has started and waits for the rest.
  ~UnionMembers();
  UnionMembers(const UnionMembers&) = delete;  // pool tasks hold `this`
  UnionMembers& operator=(const UnionMembers&) = delete;

  size_t size() const { return members_.size(); }

  /// Member i's rows. Waits for member i alone when a worker is
  /// evaluating it; otherwise (no pool, not started yet, or skipped)
  /// evaluates it on the calling thread. At most once per member.
  Result<MemberRows> Take(size_t i);

  /// Member i's `evaluate` span (0 when untraced), once Take(i) returned.
  uint64_t span_id(size_t i) const { return slots_[i].span_id; }

  /// The pin scope every member reads through.
  storage::SnapshotSet* snapshots() const { return options_.snapshots; }

 private:
  struct Slot {
    std::atomic<bool> claimed{false};  // whoever sets it evaluates
    std::future<void> submitted;       // valid when queued on the pool
    std::optional<Result<MemberRows>> result;
    uint64_t span_id = 0;
  };

  void Evaluate(size_t i);

  const storage::Catalog& catalog_;
  std::vector<UnionMember> members_;
  storage::SnapshotSet own_pins_;
  EvalOptions options_;
  std::function<bool()> stop_;
  std::vector<Slot> slots_;
};

/// Evaluates a union of conjunctive queries (set union of results). All
/// members must share head arity. Syntactically identical members are
/// evaluated once; each row is deduplicated exactly once against the
/// union-level seen set. With options.pool set, members evaluate in
/// parallel and merge deterministically in query order.
Result<std::vector<storage::Row>> EvaluateUnion(
    const storage::Catalog& catalog,
    const std::vector<ConjunctiveQuery>& queries,
    const EvalOptions& options = {});

}  // namespace revere::query

#endif  // REVERE_QUERY_EVALUATE_H_
