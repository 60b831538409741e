#ifndef REVERE_QUERY_VECTORIZED_H_
#define REVERE_QUERY_VECTORIZED_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/query/cq.h"
#include "src/query/evaluate.h"
#include "src/query/resolve.h"
#include "src/storage/value.h"

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
/// the output boundary, where they emit through a RowDedup.
///
/// Prepare fixes a program from the query alone; Bind turns it into
/// code comparisons against pinned snapshots per evaluation. The PDMS
/// plan cache keeps its rewritings' programs; EvaluateCQ prepares on
/// the fly.
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
class PreparedQueries {
 public:
  /// Prepare: appends `query`'s program as program size() - 1: the
  /// greedy atom order, each position's role (binding site, probe or
  /// check, and its source) and the head slots. A constant equal to
  /// params[k] becomes parameter slot k, filled per evaluation; other
  /// constants are read from the query. Counts `columnar.prepares`.
  void Prepare(const ConjunctiveQuery& query,
               const std::vector<storage::Value>& params = {});
  void ShrinkToFit() {
    ops_.shrink_to_fit();
    begin_.shrink_to_fit();
  }

  /// A program is, per step, a kStep header (atom `a`; `b` check ops
  /// follow, the probe first when `c` is 1), then one op per head term.
  /// Other ops name a position `a` and its source: the query's constant
  /// there, parameter `b`, or step `b`'s column `c`.
  struct Op {
    enum Kind : uint32_t { kStep, kConst, kParam, kVar, kNull };
    uint32_t kind : 3, a : 29;
    uint32_t b = 0, c = 0;
  };
  const Op* program(size_t i) const { return ops_.data() + begin_[i]; }

 private:
  std::vector<Op> ops_;
  std::vector<uint32_t> begin_;  // program i starts at ops_[begin_[i]]
};

/// Binds program `i` of `programs`, prepared from `query`, to `atoms`
/// (`query`'s body atoms, pinned) and `params`, and runs it into the
/// empty `*out`. No dedup, arena or output state exists before step 0
/// has a candidate.
void EvaluatePrepared(const PreparedQueries& programs, size_t i,
                      const ConjunctiveQuery& query,
                      const std::vector<ResolvedAtom>& atoms,
                      const std::vector<storage::Value>& params,
                      MemberRows* out);

}  // namespace revere::query

#endif  // REVERE_QUERY_VECTORIZED_H_
