#include "src/query/evaluate.h"

#include <cstdint>
#include <future>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
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
// Legacy engine: string-keyed map bindings copied per candidate row.
// Kept verbatim (EvalEngine::kMap) as the reference implementation for
// differential tests and as the bench baseline the slot engine is
// measured against.
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

  // If some position is bound and indexed, probe; else scan.
  std::optional<size_t> probe_col;
  Value probe_key;
  for (size_t i = 0; i < atom.args.size(); ++i) {
    const QTerm& t = atom.args[i];
    Value key;
    bool bound = false;
    if (!t.is_var()) {
      key = t.value();
      bound = true;
    } else {
      auto it = binding.find(t.var());
      if (it != binding.end()) {
        key = it->second;
        bound = true;
      }
    }
    if (bound && table->HasIndex(i)) {
      probe_col = i;
      probe_key = key;
      break;
    }
  }

  auto consider = [&](const Row& row) {
    ValueBinding next = binding;
    if (MatchRow(atom, row, &next)) {
      MapSearch(atoms, done, next, head, dedup);
    }
  };
  if (probe_col) {
    for (size_t idx : table->LookupIndices(*probe_col, probe_key)) {
      consider(table->row(idx));
    }
  } else {
    for (size_t r = 0; r < table->size(); ++r) consider(table->row(r));
  }
  (*done)[best] = false;
}

// ---------------------------------------------------------------------
// Slot engine: per CQ, variable names compile to dense integer slots;
// the binding is a vector<Value> plus a bound-bitmask mutated and
// rolled back in place — no map copies anywhere in the search.
// ---------------------------------------------------------------------

/// One compiled argument position: either a constant (borrowed from the
/// query, which outlives the evaluation) or a slot number.
struct SlotTerm {
  const Value* constant = nullptr;  // non-null -> constant position
  int slot = -1;                    // valid when constant == nullptr
};

struct SlotAtom {
  const TableVersion* table = nullptr;
  std::vector<SlotTerm> terms;
};

/// Dynamic bitmask over slots (queries reformulated through deep
/// mapping chains can exceed 64 variables).
class BoundMask {
 public:
  explicit BoundMask(size_t slots) : words_((slots + 63) / 64, 0) {}
  bool test(int s) const {
    return (words_[static_cast<size_t>(s) >> 6] >> (s & 63)) & 1;
  }
  void set(int s) {
    words_[static_cast<size_t>(s) >> 6] |= uint64_t{1} << (s & 63);
  }
  void clear(int s) {
    words_[static_cast<size_t>(s) >> 6] &= ~(uint64_t{1} << (s & 63));
  }

 private:
  std::vector<uint64_t> words_;
};

struct SlotProgram {
  std::vector<SlotAtom> atoms;
  std::vector<SlotTerm> head;
  size_t num_slots = 0;
};

/// Maps every distinct variable to a dense slot, once per CQ.
SlotProgram CompileSlots(const ConjunctiveQuery& query,
                         const std::vector<ResolvedAtom>& atoms) {
  SlotProgram prog;
  std::unordered_map<std::string, int> slot_of;
  auto compile_term = [&](const QTerm& t) {
    SlotTerm st;
    if (t.is_var()) {
      auto [it, inserted] =
          slot_of.emplace(t.var(), static_cast<int>(slot_of.size()));
      (void)inserted;
      st.slot = it->second;
    } else {
      st.constant = &t.value();
    }
    return st;
  };
  prog.head.reserve(query.head().size());
  for (const auto& t : query.head()) prog.head.push_back(compile_term(t));
  prog.atoms.reserve(atoms.size());
  for (const auto& ra : atoms) {
    SlotAtom sa;
    sa.table = ra.snap.get();
    sa.terms.reserve(ra.atom->args.size());
    for (const auto& t : ra.atom->args) sa.terms.push_back(compile_term(t));
    prog.atoms.push_back(std::move(sa));
  }
  prog.num_slots = slot_of.size();
  return prog;
}

/// All mutable state of one slot-engine search, shared down the
/// recursion instead of copied.
struct SlotState {
  const SlotProgram& prog;
  const EvalOptions& options;
  std::vector<Value> slots;
  BoundMask bound;
  std::vector<int> trail;  // slots bound on the path to the current node
  std::vector<bool> done;
  RowDedup* dedup;

  SlotState(const SlotProgram& p, const EvalOptions& opts, RowDedup* d)
      : prog(p),
        options(opts),
        slots(p.num_slots),
        bound(p.num_slots),
        done(p.atoms.size(), false),
        dedup(d) {}
};

void SlotSearch(SlotState& st, size_t remaining) {
  if (remaining == 0) {
    Row result;
    result.reserve(st.prog.head.size());
    for (const auto& t : st.prog.head) {
      if (t.constant != nullptr) {
        result.push_back(*t.constant);
      } else if (st.bound.test(t.slot)) {
        result.push_back(st.slots[t.slot]);
      } else {
        result.emplace_back();
      }
    }
    st.dedup->EmitIfNew(std::move(result));
    return;
  }

  // Pick the unsolved atom with the most bound positions.
  size_t best = st.prog.atoms.size();
  int best_bound = -1;
  for (size_t i = 0; i < st.prog.atoms.size(); ++i) {
    if (st.done[i]) continue;
    int b = 0;
    for (const auto& t : st.prog.atoms[i].terms) {
      if (t.constant != nullptr || st.bound.test(t.slot)) ++b;
    }
    if (b > best_bound) {
      best_bound = b;
      best = i;
    }
  }
  const SlotAtom& atom = st.prog.atoms[best];
  const TableVersion* table = atom.table;
  st.done[best] = true;

  // Probe column: the first bound position that is indexed; when none
  // is but some position is bound, build the missing index on demand
  // (memoized on the table) instead of scanning.
  int probe_col = -1;
  int first_bound_col = -1;
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    const SlotTerm& t = atom.terms[i];
    if (t.constant == nullptr && !st.bound.test(t.slot)) continue;
    if (first_bound_col < 0) first_bound_col = static_cast<int>(i);
    if (table->HasIndex(i)) {
      probe_col = static_cast<int>(i);
      break;
    }
  }
  if (probe_col < 0 && first_bound_col >= 0 &&
      st.options.on_demand_indexes &&
      table->size() >= st.options.on_demand_index_min_rows) {
    if (table->EnsureIndex(static_cast<size_t>(first_bound_col)).ok()) {
      probe_col = first_bound_col;
    }
  }

  auto consider = [&](const Row& row) {
    size_t trail_mark = st.trail.size();
    bool match = true;
    for (size_t i = 0; i < atom.terms.size(); ++i) {
      const SlotTerm& t = atom.terms[i];
      if (t.constant != nullptr) {
        if (!(*t.constant == row[i])) {
          match = false;
          break;
        }
      } else if (st.bound.test(t.slot)) {
        if (!(st.slots[t.slot] == row[i])) {
          match = false;
          break;
        }
      } else {
        st.slots[t.slot] = row[i];
        st.bound.set(t.slot);
        st.trail.push_back(t.slot);
      }
    }
    if (match) SlotSearch(st, remaining - 1);
    // Roll back exactly the bindings this row introduced.
    while (st.trail.size() > trail_mark) {
      st.bound.clear(st.trail.back());
      st.trail.pop_back();
    }
  };
  if (probe_col >= 0) {
    const SlotTerm& t = atom.terms[probe_col];
    const Value& key =
        t.constant != nullptr ? *t.constant : st.slots[t.slot];
    for (size_t idx :
         table->LookupIndices(static_cast<size_t>(probe_col), key)) {
      consider(table->row(idx));
    }
  } else {
    for (size_t r = 0; r < table->size(); ++r) consider(table->row(r));
  }
  st.done[best] = false;
}

/// Evaluates `query`, appending head tuples that are new w.r.t.
/// `dedup` to its output vector — the single-dedup primitive both
/// EvaluateCQ and the serial EvaluateUnion build on. All three engines
/// now emit through the same RowDedup (ISSUE 8): the recursive engines
/// per row, the columnar engine batch-wise at its output boundary.
Status EvaluateInto(const storage::Catalog& catalog,
                    const ConjunctiveQuery& query, const EvalOptions& options,
                    RowDedup* dedup) {
  if (options.engine == EvalEngine::kColumnar) {
    return EvaluateColumnarInto(catalog, query, options, dedup);
  }
  REVERE_ASSIGN_OR_RETURN(auto atoms,
                          ResolveAtoms(catalog, query, options.snapshots));
  if (options.engine == EvalEngine::kSlots) {
    SlotProgram prog = CompileSlots(query, atoms);
    SlotState st(prog, options, dedup);
    SlotSearch(st, prog.atoms.size());
  } else {
    std::vector<bool> done(atoms.size(), false);
    MapSearch(atoms, &done, {}, query.head(), dedup);
  }
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
    // Every engine dedups through the allocation-lean RowDedup (hash
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
  // every engine — code-domain hashes (columnar) and string hashes
  // (map/slots) agree bit for bit, so members of any engine mix.
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
