#include "src/query/evaluate.h"

#include <future>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>

#include "src/common/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/query/resolve.h"
#include "src/query/row_dedup.h"
#include "src/query/vectorized.h"

namespace revere::query {

namespace {

using storage::Row;
using storage::SnapshotSet;
using storage::TableVersion;
using storage::Value;

// ---------------------------------------------------------------------
// Reference engine (EvalEngine::kMap): string-keyed map bindings copied
// per candidate row, every atom a full scan. Deliberately naive, and
// sharing no index or snapshot with the columnar engine, so it can
// serve as the answer oracle for tests, the fuzzer and benchmarks.
// ---------------------------------------------------------------------

using ValueBinding = std::map<std::string, Value>;

// Number of argument positions of `atom` fixed under `binding`.
int BoundPositions(const Atom& atom, const ValueBinding& binding) {
  int n = 0;
  for (const auto& t : atom.args) {
    if (!t.is_var() || binding.count(t.var()) > 0) ++n;
  }
  return n;
}

// Tries to extend `binding` so that `row` matches `atom`; returns false
// (leaving binding untouched) on mismatch.
bool MatchRow(const Atom& atom, const Row& row, ValueBinding* binding) {
  ValueBinding local = *binding;
  for (size_t i = 0; i < atom.args.size(); ++i) {
    const QTerm& t = atom.args[i];
    if (t.is_var()) {
      auto it = local.find(t.var());
      if (it == local.end()) {
        local[t.var()] = row[i];
      } else if (!(it->second == row[i])) {
        return false;
      }
    } else if (!(t.value() == row[i])) {
      return false;
    }
  }
  *binding = std::move(local);
  return true;
}

void MapSearch(const std::vector<ResolvedAtom>& atoms,
               std::vector<bool>* done, const ValueBinding& binding,
               const std::vector<QTerm>& head, RowDedup* dedup) {
  // All atoms satisfied: emit the head tuple.
  size_t remaining = 0;
  for (bool d : *done) {
    if (!d) ++remaining;
  }
  if (remaining == 0) {
    Row result;
    result.reserve(head.size());
    for (const auto& t : head) {
      if (t.is_var()) {
        auto it = binding.find(t.var());
        result.push_back(it == binding.end() ? Value() : it->second);
      } else {
        result.push_back(t.value());
      }
    }
    dedup->EmitIfNew(std::move(result));
    return;
  }

  // Pick the unsolved atom with the most bound positions.
  size_t best = atoms.size();
  int best_bound = -1;
  for (size_t i = 0; i < atoms.size(); ++i) {
    if ((*done)[i]) continue;
    int b = BoundPositions(*atoms[i].atom, binding);
    if (b > best_bound) {
      best_bound = b;
      best = i;
    }
  }
  const TableVersion* table = atoms[best].snap.get();
  const Atom& atom = *atoms[best].atom;
  (*done)[best] = true;
  for (size_t r = 0; r < table->size(); ++r) {
    ValueBinding next = binding;
    if (MatchRow(atom, table->row(r), &next)) {
      MapSearch(atoms, done, next, head, dedup);
    }
  }
  (*done)[best] = false;
}

/// Evaluates `query`, appending head tuples that are new w.r.t.
/// `dedup` to its output vector — the single-dedup primitive both
/// EvaluateCQ and the serial EvaluateUnion build on. Both engines emit
/// through the same RowDedup: the map engine per row, the
/// columnar engine batch-wise at its output boundary.
Status EvaluateInto(const storage::Catalog& catalog,
                    const ConjunctiveQuery& query, const EvalOptions& options,
                    RowDedup* dedup) {
  if (options.engine == EvalEngine::kColumnar) {
    return EvaluateColumnarInto(catalog, query, options, dedup);
  }
  REVERE_ASSIGN_OR_RETURN(auto atoms,
                          ResolveAtoms(catalog, query, options.snapshots));
  std::vector<bool> done(atoms.size(), false);
  MapSearch(atoms, &done, {}, query.head(), dedup);
  return Status::Ok();
}

}  // namespace

Result<std::vector<Row>> EvaluateCQ(const storage::Catalog& catalog,
                                    const ConjunctiveQuery& query,
                                    const EvalOptions& options) {
  // Process-wide instrumentation (ISSUE 4): resolved once, then two
  // relaxed atomic adds per call — compiled in, never gated.
  static obs::Counter* queries =
      obs::MetricsRegistry::Default().GetCounter("eval.queries");
  static obs::Counter* rows_out =
      obs::MetricsRegistry::Default().GetCounter("eval.rows");
  std::vector<Row> out;
  {
    // Both engines dedup through the allocation-lean RowDedup (hash
    // index over `out` itself) instead of a side set of Rows.
    RowDedup dedup(&out);
    REVERE_RETURN_IF_ERROR(EvaluateInto(catalog, query, options, &dedup));
  }
  queries->Increment();
  rows_out->Increment(out.size());
  return out;
}

Result<std::vector<Row>> EvaluateUnion(
    const storage::Catalog& catalog,
    const std::vector<ConjunctiveQuery>& queries,
    const EvalOptions& options) {
  std::vector<Row> out;
  // Syntactically identical members can only reproduce rows the first
  // copy already emitted — evaluate each distinct member once.
  std::unordered_set<std::string> distinct;
  std::vector<const ConjunctiveQuery*> members;
  members.reserve(queries.size());
  for (const auto& q : queries) {
    if (distinct.insert(q.ToString()).second) members.push_back(&q);
  }

  // One MVCC pin scope for the whole union (unless the caller already
  // threaded one through): every member — serial or on the pool — reads
  // each table at the version pinned by whichever member touched it
  // first, so the union is one consistent point-in-time answer.
  SnapshotSet local_pins;
  EvalOptions union_options = options;
  if (union_options.snapshots == nullptr) {
    union_options.snapshots = &local_pins;
  }

  if (options.pool != nullptr && members.size() > 1) {
    // Parallel path: every member evaluates independently (each with a
    // private dedup inside EvaluateCQ), then results merge through a
    // union-level RowDedup in member order — byte-identical to the
    // serial path for any worker count.
    EvalOptions member_options = union_options;
    member_options.pool = nullptr;
    member_options.tracer = nullptr;  // spans open here, not per inner call
    std::vector<std::optional<Result<std::vector<Row>>>> results(
        members.size());
    std::vector<std::future<void>> futures;
    futures.reserve(members.size());
    for (size_t i = 0; i < members.size(); ++i) {
      futures.push_back(options.pool->Submit([&, i] {
        obs::Span span;
        if (options.tracer != nullptr) {  // skip detail alloc when off
          span = options.tracer->StartSpan("evaluate", options.parent_span,
                                           "member" + std::to_string(i));
        }
        results[i].emplace(EvaluateCQ(catalog, *members[i], member_options));
        if (results[i]->ok()) {
          span.AddAttr("rows",
                       static_cast<double>(results[i]->value().size()));
        }
      }));
    }
    for (auto& f : futures) f.wait();
    RowDedup merge(&out);
    for (auto& result : results) {
      if (!result->ok()) return result->status();
      std::vector<Row> rows = std::move(*result).value();
      out.reserve(out.size() + rows.size());
      for (auto& r : rows) merge.EmitIfNew(std::move(r));
    }
    return out;
  }

  // Serial path: one RowDedup over `out` shared across members, for
  // either engine — code-domain hashes (columnar) and string hashes
  // (map) agree bit for bit, so members of either engine mix.
  RowDedup dedup(&out);
  for (size_t i = 0; i < members.size(); ++i) {
    obs::Span span;
    if (options.tracer != nullptr) {  // skip detail alloc when off
      span = options.tracer->StartSpan("evaluate", options.parent_span,
                                       "member" + std::to_string(i));
    }
    size_t before = out.size();
    REVERE_RETURN_IF_ERROR(
        EvaluateInto(catalog, *members[i], union_options, &dedup));
    span.AddAttr("rows", static_cast<double>(out.size() - before));
  }
  return out;
}

}  // namespace revere::query
