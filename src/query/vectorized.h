#ifndef REVERE_QUERY_VECTORIZED_H_
#define REVERE_QUERY_VECTORIZED_H_

#include "src/common/status.h"
#include "src/query/cq.h"
#include "src/query/evaluate.h"
#include "src/query/row_dedup.h"
#include "src/storage/catalog.h"

namespace revere::query {

/// Columnar, vectorized CQ evaluation (ISSUE 7; EvalEngine::kColumnar).
///
/// Instead of walking Row vectors with backtracking Value comparisons,
/// this engine evaluates against each table's dictionary-encoded
/// ColumnTable snapshot (Table::EnsureColumnar): every filter and join
/// compares dense uint32 codes, probes are grouped-index range scans
/// with zero hashing, and cross-table code spaces are bridged by
/// translation arrays built once per plan step. Tuples flow through the
/// join pipeline in chunks of ~1024 as parallel row-id arrays allocated
/// from a bump Arena (steady-state batches perform zero heap
/// allocations); Rows are materialized — dictionary decode — only at
/// the output boundary, where they emit through `dedup`.
///
/// Every step, the first included, runs one candidate loop: its probe
/// (a constant or an earlier step's variable) picks a grouped-index
/// range, or the whole table when it has none, and one filter writes
/// the candidates that pass the step's remaining equality checks
/// straight into the step's row-id column. A batched output boundary
/// hashes rows directly from column codes (HashStep over
/// ColumnTable::dict_hashes, reproducing HashRow bit for bit) and
/// dictionary-decodes only surviving first-occurrence rows,
/// column-major; a body-free query emits its one head row through it
/// too.
///
/// Output contract: byte-identical to the map reference
/// (EvalEngine::kMap) — same rows, same order, for every query. The
/// reference's greedy most-bound-first atom order depends only on which
/// atoms are solved (never on row values), so this engine replays that
/// order statically; all candidate enumeration paths are
/// ascending-row-order, matching the reference's scans; and both
/// engines emit through RowDedup, first occurrence winning.
Status EvaluateColumnarInto(const storage::Catalog& catalog,
                            const ConjunctiveQuery& query,
                            const EvalOptions& options, RowDedup* dedup);

}  // namespace revere::query

#endif  // REVERE_QUERY_VECTORIZED_H_
