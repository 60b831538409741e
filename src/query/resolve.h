#ifndef REVERE_QUERY_RESOLVE_H_
#define REVERE_QUERY_RESOLVE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/query/cq.h"
#include "src/storage/catalog.h"
#include "src/storage/table_version.h"

namespace revere::query {

/// One body atom resolved to a pinned MVCC snapshot of its relation.
/// Engines read rows, probe indexes, and build columnar snapshots
/// exclusively through `snap`, so a query's answer is computed against
/// one immutable version per table no matter what writers do meanwhile.
struct ResolvedAtom {
  std::shared_ptr<const storage::TableVersion> snap;
  const Atom* atom = nullptr;
};

/// Resolves every body atom to a pinned table version, validating
/// existence + arity. Shared by all evaluation engines so they agree
/// byte-for-byte on error outcomes too (the differential fuzz oracles
/// compare failure messages across engines, not just result rows).
///
/// `pins` scopes snapshot consistency: atoms over the same relation
/// always share one version within a call, and when the caller passes a
/// SnapshotSet (EvaluateUnion and the PDMS answer path thread one
/// through EvalOptions) the same holds across every member query and
/// rewriting of the whole request. Pass null for single-query scope.
/// `tables`, when set, holds each atom's table already resolved and
/// checked (a cached plan's handles), so only the pins remain.
inline Result<std::vector<ResolvedAtom>> ResolveAtoms(
    const storage::Catalog& catalog, const ConjunctiveQuery& query,
    storage::SnapshotSet* pins, const storage::Table* const* tables = nullptr) {
  storage::SnapshotSet local;
  if (pins == nullptr) pins = &local;
  std::vector<ResolvedAtom> atoms;
  atoms.reserve(query.body().size());
  for (const auto& atom : query.body()) {
    const storage::Table* table = nullptr;
    if (tables != nullptr) {
      table = tables[atoms.size()];
    } else {
      REVERE_ASSIGN_OR_RETURN(table, catalog.GetTable(atom.relation));
    }
    if (table->schema().arity() != atom.args.size()) {
      return Status::InvalidArgument(
          "atom " + atom.ToString() + " has arity " +
          std::to_string(atom.args.size()) + " but relation has " +
          std::to_string(table->schema().arity()));
    }
    atoms.push_back(ResolvedAtom{pins->Pin(*table), &atom});
  }
  return atoms;
}

}  // namespace revere::query

#endif  // REVERE_QUERY_RESOLVE_H_
