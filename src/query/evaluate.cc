#include "src/query/evaluate.h"

#include <map>
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

/// Evaluates `member` into a duplicate-free row vector, keeping the
/// hash RowDedup computed for every row. Both engines emit through that
/// RowDedup (a hash index over the output vector itself, no side set of
/// Rows): the map engine per row, the columnar engine batch-wise at its
/// output boundary.
Result<MemberRows> EvaluateMember(const storage::Catalog& catalog,
                                  const UnionMember& m,
                                  const EvalOptions& options) {
  // Process-wide instrumentation: resolved once, then two
  // relaxed atomic adds per call — compiled in, never gated.
  static obs::Counter* queries =
      obs::MetricsRegistry::Default().GetCounter("eval.queries");
  static obs::Counter* rows_out =
      obs::MetricsRegistry::Default().GetCounter("eval.rows");
  REVERE_ASSIGN_OR_RETURN(
      auto atoms, ResolveAtoms(catalog, *m.query, options.snapshots,
                               m.programs != nullptr ? m.tables : nullptr));
  MemberRows member;
  if (options.engine == EvalEngine::kMap) {
    RowDedup dedup(&member.rows);
    std::vector<bool> done(atoms.size(), false);
    MapSearch(atoms, &done, {}, m.query->head(), &dedup);
    member.hashes = dedup.TakeHashes();
  } else if (m.programs != nullptr) {
    EvaluatePrepared(*m.programs, m.program, *m.query, atoms, *m.params,
                     &member);
  } else {
    PreparedQueries program;
    program.Prepare(*m.query);
    EvaluatePrepared(program, 0, *m.query, atoms, {}, &member);
  }
  queries->Increment();
  rows_out->Increment(member.rows.size());
  return member;
}

}  // namespace

Result<std::vector<Row>> EvaluateCQ(const storage::Catalog& catalog,
                                    const ConjunctiveQuery& query,
                                    const EvalOptions& options) {
  REVERE_ASSIGN_OR_RETURN(MemberRows member,
                          EvaluateMember(catalog, {&query}, options));
  return std::move(member.rows);
}

UnionMembers::UnionMembers(const storage::Catalog& catalog,
                           std::vector<UnionMember> members,
                           const EvalOptions& options,
                           std::function<bool()> stop)
    : catalog_(catalog),
      members_(std::move(members)),
      options_(options),
      stop_(std::move(stop)),
      slots_(members_.size()) {
  // One MVCC pin scope for the whole union (unless the caller already
  // threaded one through): every member — inline or on the pool — reads
  // each table at the version pinned by whichever member touched it
  // first, so the union is one consistent point-in-time answer.
  if (options_.snapshots == nullptr) options_.snapshots = &own_pins_;
  if (options_.pool == nullptr || members_.size() < 2) return;
  for (size_t i = 0; i < members_.size(); ++i) {
    slots_[i].submitted = options_.pool->Submit([this, i] {
      // After `stop`, the member is left unclaimed for Take to evaluate.
      if (!(stop_ && stop_()) && !slots_[i].claimed.exchange(true)) {
        Evaluate(i);
      }
    });
  }
}

UnionMembers::~UnionMembers() {
  // Claiming every member makes the workers skip those not started.
  for (Slot& slot : slots_) slot.claimed = true;
  for (Slot& slot : slots_) {
    if (slot.submitted.valid()) slot.submitted.wait();
  }
}

void UnionMembers::Evaluate(size_t i) {
  Slot& slot = slots_[i];
  obs::Span span;
  if (options_.tracer != nullptr) {  // guard: the detail string allocates
    span = options_.tracer->StartSpan("evaluate", options_.parent_span,
                                      "rw" + std::to_string(i));
    slot.span_id = span.id();
  }
  slot.result.emplace(EvaluateMember(catalog_, members_[i], options_));
  if (span.active() && slot.result->ok()) {
    span.AddAttr("rows", slot.result->value().rows.size());
  }
}

Result<MemberRows> UnionMembers::Take(size_t i) {
  Slot& slot = slots_[i];
  if (!slot.claimed.exchange(true)) {
    Evaluate(i);  // nobody started it: evaluate here rather than wait
  } else {
    slot.submitted.wait();  // a worker is evaluating it
  }
  return std::move(*slot.result);
}

Result<std::vector<Row>> EvaluateUnion(
    const storage::Catalog& catalog,
    const std::vector<ConjunctiveQuery>& queries,
    const EvalOptions& options) {
  // Syntactically identical members can only reproduce rows the first
  // copy already emitted — evaluate each distinct member once.
  std::unordered_set<std::string> distinct;
  std::vector<UnionMember> members;
  members.reserve(queries.size());
  for (const auto& q : queries) {
    if (distinct.insert(q.ToString()).second) members.push_back({&q});
  }
  UnionMembers evaluated(catalog, std::move(members), options);
  std::vector<Row> out;
  RowDedup merge(&out);
  for (size_t i = 0; i < evaluated.size(); ++i) {
    REVERE_ASSIGN_OR_RETURN(MemberRows member, evaluated.Take(i));
    for (size_t r = 0; r < member.rows.size(); ++r) {
      merge.Emit(std::move(member.rows[r]), member.hashes[r]);
    }
  }
  return out;
}

}  // namespace revere::query
