#ifndef REVERE_QUERY_EVALUATE_H_
#define REVERE_QUERY_EVALUATE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/query/cq.h"
#include "src/storage/catalog.h"

namespace revere {
class ThreadPool;
}  // namespace revere

namespace revere::obs {
class Tracer;
}  // namespace revere::obs

namespace revere::query {

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
  /// When set, EvaluateUnion evaluates member queries in parallel on
  /// this pool. Results are merged in query order through one dedup
  /// set, so output is byte-identical for any worker count (and to the
  /// serial path). EvaluateCQ itself never uses the pool.
  ThreadPool* pool = nullptr;
  /// MVCC pin scope (see storage::SnapshotSet). When set, every table
  /// touched by the evaluation is read at the version this set pins
  /// (pinning the head on first touch) — the PDMS answer path shares
  /// one set across all rewritings of a query so the whole answer is
  /// computed against one consistent version per table. When null, each
  /// EvaluateCQ/EvaluateUnion call pins its own scope internally.
  storage::SnapshotSet* snapshots = nullptr;

  // ---- Observability (ISSUE 4) ----

  /// When set, EvaluateUnion opens one `evaluate` span per distinct
  /// member under `parent_span`. PdmsNetwork::Answer* instead opens its
  /// per-rewriting spans itself (it owns the rewriting indices and the
  /// contact span parenting) and leaves this null on the inner calls.
  /// Evaluation results never depend on these fields.
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
