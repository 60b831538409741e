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

/// Which CQ evaluation engine to run. All three produce byte-identical
/// results (same rows, same order) — the differential fuzz oracles and
/// tests/parallel_test.cc enforce this — so the choice is purely a
/// performance/reference knob.
enum class EvalEngine {
  /// The original std::map<std::string, Value> binding engine, kept
  /// verbatim as the reference implementation (ignores the index
  /// options below).
  kMap,
  /// Slot-compiled bindings: per CQ, variables are mapped to dense
  /// integer slots once, and the binding is a std::vector<Value> plus a
  /// bound-bitmask mutated and rolled back in place during the search —
  /// no per-row map copies.
  kSlots,
  /// Columnar vectorized engine (ISSUE 7): evaluates against each
  /// table's dictionary-encoded ColumnTable snapshot, joining and
  /// filtering on integer codes in ~1024-tuple batches over a bump
  /// arena, materializing Rows only at the output boundary. Replays the
  /// slot engine's greedy join order (which is query-static), so output
  /// is byte-identical. Ignores the index options below — the snapshot
  /// carries a grouped index on every column.
  kColumnar,
};

/// Knobs for conjunctive-query evaluation. The defaults are the fast
/// path; the legacy knobs exist so benches can measure each optimization
/// in isolation and tests can differentially check the engines against
/// each other.
struct EvalOptions {
  /// See EvalEngine. kSlots remains the default serving engine;
  /// kColumnar is the vectorized fast path for read-heavy workloads.
  EvalEngine engine = EvalEngine::kSlots;
  /// When the join order picks an atom with a bound position that has
  /// no index, build (and memoize on the Table) a hash index for that
  /// column instead of scanning. Indexes are never evicted.
  bool on_demand_indexes = true;
  /// Do not bother building an on-demand index for tables smaller than
  /// this — a scan of a tiny table beats the build cost.
  size_t on_demand_index_min_rows = 32;
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
/// backtracking binding with greedy most-bound-first atom ordering,
/// probing table hash indexes where available and building missing
/// ones on demand (see EvalOptions).
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
