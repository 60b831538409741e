#include "src/query/vectorized.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/arena.h"
#include "src/common/hash.h"
#include "src/obs/metrics.h"
#include "src/query/row_dedup.h"
#include "src/storage/column_table.h"

namespace revere::query {

namespace {

using storage::ColumnTable;
using storage::Row;
using storage::Value;

/// Tuples per batch through the join pipeline. Small enough that a
/// batch's row-id arrays stay cache-resident, large enough to amortize
/// the per-chunk setup.
constexpr size_t kChunkRows = 1024;
constexpr uint32_t kNoCode = ColumnTable::kNoCode;

// ---------------------------------------------------------------------
// Kernels of the output boundary over uint32 code arrays; each touches
// exactly n elements.
// ---------------------------------------------------------------------

/// out[i] = vals[idx[i]].
void Gather(const uint32_t* vals, const uint32_t* idx, size_t n,
            uint32_t* out) {
  for (size_t i = 0; i < n; ++i) out[i] = vals[idx[i]];
}

/// h[i] = HashStep(h[i], vh[codes[i]]): the code-domain row-hash mix
/// (vh = per-dictionary value hashes).
void HashMix(const uint64_t* vh, const uint32_t* codes, size_t n,
             uint64_t* h) {
  for (size_t i = 0; i < n; ++i) h[i] = HashStep(h[i], vh[codes[i]]);
}

/// h[i] = HashStep(h[i], hv): constant / unbound head positions.
void HashMixConst(uint64_t hv, size_t n, uint64_t* h) {
  for (size_t i = 0; i < n; ++i) h[i] = HashStep(h[i], hv);
}

// ---------------------------------------------------------------------
// Plan: the map reference's query-static join order, prepared once and
// bound per evaluation to integer code comparisons against snapshots.
// ---------------------------------------------------------------------

/// One equality constraint on a candidate row: position `col` of this
/// step's table must decode to the same Value as the source — a query
/// constant or parameter, a variable bound by an earlier step, or an
/// earlier position of this same atom (repeated variable). All three
/// reduce to one uint32 comparison: the candidate's code vs the code the
/// check wants (WantedCode), obtained through the source column's
/// translation array (kNoCode = the source value does not occur in this
/// column at all, so nothing matches).
struct Check {
  size_t col = 0;
  /// Per-row codes of `col` (into the snapshots the plan's steps keep
  /// alive).
  const uint32_t* col_codes = nullptr;
  /// Constant source (`src_codes` null): its code in `col`.
  uint32_t const_code = kNoCode;
  /// Variable source: the binding site's step and per-row codes.
  /// `intra` when the site is an earlier position of this same step, in
  /// which case the wanted code is computed per candidate row rather
  /// than hoisted per tuple.
  size_t src_step = 0;
  const uint32_t* src_codes = nullptr;
  bool intra = false;
  /// Same snapshot + same column: codes compare directly, no table.
  bool identity = false;
  /// src dict code -> this column's code (kNoCode on miss). Built once
  /// per bind — O(|src dict|) Value hashes — so the per-row loops never
  /// hash or compare Values.
  std::vector<uint32_t> xlate;
};

struct ExecStep {
  std::shared_ptr<const ColumnTable> snap;
  /// The first position bound at entry — a constant or a variable bound
  /// by an earlier step; none = full scan. Candidates come from the
  /// grouped index range for the code it wants, which both subsumes its
  /// equality and enumerates rows in ascending order, exactly like a
  /// scan. The choice of probe never affects output: the checks accept
  /// the same row set and every enumeration is ascending.
  std::optional<Check> probe;
  std::vector<Check> checks;
};

/// One head position: a constant, a bound variable's (step, col) site,
/// or an unbound variable (null Value), mirroring the map reference's
/// head emission.
struct HeadSlot {
  const Value* constant = nullptr;
  int step = -1;
  size_t col = 0;
};

struct ColumnarPlan {
  std::vector<ExecStep> steps;
  std::vector<HeadSlot> head;
};

std::vector<uint32_t> BuildXlate(const ColumnTable::Column& src,
                                 const ColumnTable& dst, size_t dst_col) {
  std::vector<uint32_t> x(src.dict.size());
  for (size_t i = 0; i < src.dict.size(); ++i) {
    x[i] = dst.CodeOf(dst_col, src.dict[i]);
  }
  return x;
}

}  // namespace

void PreparedQueries::Prepare(const ConjunctiveQuery& query,
                              const std::vector<Value>& params) {
  static obs::Counter* prepares =
      obs::MetricsRegistry::Default().GetCounter("columnar.prepares");
  prepares->Increment();
  begin_.push_back(static_cast<uint32_t>(ops_.size()));
  // Replay the map reference's greedy most-bound-first atom order
  // (ties: lowest atom index). The order is query-static: once an atom
  // is solved, every one of its variables is bound, so the bound set
  // after k steps is the union of those atoms' variables regardless of
  // row values — which is what lets this breadth-style batch pipeline
  // reproduce the reference's DFS emission order byte for byte.
  const std::vector<Atom>& body = query.body();
  const size_t n = body.size();
  std::vector<size_t> order;
  order.reserve(n);
  std::vector<bool> done(n, false);
  std::unordered_set<std::string> bound_vars;
  for (size_t round = 0; round < n; ++round) {
    size_t best = n;
    int best_bound = -1;
    for (size_t i = 0; i < n; ++i) {
      if (done[i]) continue;
      int b = 0;
      for (const QTerm& t : body[i].args) {
        if (!t.is_var() || bound_vars.count(t.var()) > 0) ++b;
      }
      if (b > best_bound) {
        best_bound = b;
        best = i;
      }
    }
    done[best] = true;
    order.push_back(best);
    for (const QTerm& t : body[best].args) {
      if (t.is_var()) bound_vars.insert(t.var());
    }
  }

  // A constant is the parameter it equals, else the query's own.
  auto constant = [&params](const Value& v, uint32_t pos) {
    auto k = std::find(params.begin(), params.end(), v);
    return k == params.end()
               ? Op{Op::kConst, pos}
               : Op{Op::kParam, pos, static_cast<uint32_t>(k - params.begin())};
  };
  std::unordered_map<std::string, std::pair<uint32_t, uint32_t>> site_of;
  for (uint32_t s = 0; s < n; ++s) {
    const std::vector<QTerm>& args = body[order[s]].args;
    const size_t header = ops_.size();
    ops_.push_back(Op{Op::kStep, static_cast<uint32_t>(order[s])});
    // Each position is a new binding site (the first occurrence of a
    // variable: the candidate row defines the value, nothing to check),
    // the probe, or a check.
    for (uint32_t c = 0; c < args.size(); ++c) {
      Op op = Op{Op::kVar, c};
      if (!args[c].is_var()) {
        op = constant(args[c].value(), c);
      } else {
        auto [it, inserted] = site_of.emplace(args[c].var(), std::pair{s, c});
        if (inserted) continue;
        std::tie(op.b, op.c) = it->second;
      }
      // The probe, the first check whose source precedes the candidate
      // row, goes first.
      const bool probe =
          ops_[header].c == 0 && !(op.kind == Op::kVar && op.b == s);
      ops_.insert(probe ? ops_.begin() + header + 1 : ops_.end(), op);
      ++ops_[header].b;
      ops_[header].c |= probe;
    }
  }
  for (uint32_t j = 0; j < query.head().size(); ++j) {
    const QTerm& t = query.head()[j];
    auto it = t.is_var() ? site_of.find(t.var()) : site_of.end();
    ops_.push_back(!t.is_var()           ? constant(t.value(), j)
                   : it == site_of.end() ? Op{Op::kNull, j}
                                         : Op{Op::kVar, j, it->second.first,
                                              it->second.second});
  }
}

namespace {

// ---------------------------------------------------------------------
// Execution: chunked batch pipeline over an arena. Every step, stage 0
// included, takes its candidates from its probe and keeps those that
// pass its checks through one filter.
// ---------------------------------------------------------------------

/// The code `ck` wants in its column, or kNoCode when nothing can
/// match: a constant's code, or the translated code of the value its
/// binding site holds — in tuple `t` of the pipeline's per-step row-id
/// arrays `cols`, or in candidate row `r` when the check is intra.
uint32_t WantedCode(const Check& ck, uint32_t* const* cols, size_t t,
                    uint32_t r) {
  if (ck.src_codes == nullptr) return ck.const_code;
  const uint32_t sc = ck.src_codes[ck.intra ? r : cols[ck.src_step][t]];
  return ck.identity ? sc : ck.xlate[sc];
}

/// Ascending candidate row ids: rows[0, n), or first .. first + n - 1
/// when `rows` is null.
struct Range {
  const uint32_t* rows = nullptr;
  uint32_t first = 0;
  size_t n = 0;
};

/// A step's candidates for tuple `t` of `cols`: the grouped-index range
/// of the code its probe wants, or every row when it has no probe.
Range Candidates(const ExecStep& st, uint32_t* const* cols, size_t t) {
  if (!st.probe) return Range{nullptr, 0, st.snap->row_count()};
  const uint32_t key = WantedCode(*st.probe, cols, t, 0);
  if (key == kNoCode) return Range{};
  const ColumnTable::Column& pc = st.snap->column(st.probe->col);
  return Range{pc.group_rows.data() + pc.group_offsets[key], 0,
               pc.group_offsets[key + 1] - pc.group_offsets[key]};
}

/// The one filter: writes the candidates that pass every check of `st`
/// for tuple `t` of `cols` to `out` (room for cand.n), in ascending
/// order, and returns how many passed. `want` has room for one code per
/// check.
size_t Filter(const ExecStep& st, Range cand, uint32_t* const* cols,
              size_t t, uint32_t* want, uint32_t* out) {
  if (st.checks.empty()) {
    if (cand.rows != nullptr) {
      std::copy_n(cand.rows, cand.n, out);
    } else {
      std::iota(out, out + cand.n, cand.first);
    }
    return cand.n;
  }
  // Hoist the code of every constant and earlier-step check once per
  // tuple; a kNoCode means the value is absent from the checked column,
  // so no candidate can match.
  for (size_t k = 0; k < st.checks.size(); ++k) {
    if (st.checks[k].intra) continue;  // per candidate below
    want[k] = WantedCode(st.checks[k], cols, t, 0);
    if (want[k] == kNoCode) return 0;
  }
  size_t m = 0;
  for (size_t i = 0; i < cand.n; ++i) {
    const uint32_t r = cand.rows != nullptr
                           ? cand.rows[i]
                           : cand.first + static_cast<uint32_t>(i);
    bool pass = true;
    for (size_t k = 0; pass && k < st.checks.size(); ++k) {
      const Check& ck = st.checks[k];
      pass = ck.col_codes[r] ==
             (ck.intra ? WantedCode(ck, cols, t, r) : want[k]);
    }
    out[m] = r;
    m += pass;
  }
  return m;
}

/// The batched output boundary (ISSUE 8): hashes whole chunks of
/// completed tuples directly from column codes and decodes only the
/// rows that survive dedup.
///
/// Per chunk: (1) gather each bound head slot's dictionary codes for
/// all tuples (one gather kernel per slot), (2) chain HashStep over the
/// per-dictionary value-hash tables — reproducing storage::HashRow of
/// the decoded row bit for bit without touching a dictionary, (3) probe
/// RowDedup sequentially (order is semantics: first occurrence wins),
/// comparing duplicates by code signature within the call and by Value
/// against pre-existing rows, and (4) decode the surviving rows
/// column-major, one head slot at a time, into the output vector.
class OutputBoundary {
 public:
  OutputBoundary(const ColumnarPlan& plan, RowDedup* dedup)
      : head_(plan.head.size()), dedup_(dedup) {
    for (size_t j = 0; j < plan.head.size(); ++j) {
      const HeadSlot& h = plan.head[j];
      BSlot& b = head_[j];
      if (h.constant != nullptr) {
        b.constant = h.constant;
        b.chash = h.constant->Hash();
      } else if (h.step >= 0) {
        const ColumnTable::Column& c = plan.steps[h.step].snap->column(h.col);
        b.step = h.step;
        b.codes = c.codes.data();
        b.vh = c.dict_hashes.data();
        b.dict = c.dict.data();
        b.vslot = static_cast<int>(nvar_++);
      } else {
        b.chash = null_.Hash();
      }
    }
    slot_codes_.resize(nvar_);
  }

  /// Number of rows appended to the output so far by this boundary.
  size_t rows_decoded() const { return rows_decoded_; }

  /// Emits one completed chunk: `cols` are the pipeline's per-step
  /// row-id arrays holding `size` tuples (size > 0). A body-free query
  /// has no steps and emits one tuple with `cols` null.
  void EmitChunk(uint32_t* const* cols, size_t size, Arena* arena) {
    const size_t nsl = head_.size();
    // (1) Per-slot code gather + (2) code-domain hash chain, whole
    // chunk at a time. Seed matches HashRow: the row arity.
    uint64_t* h = arena->AllocateArray<uint64_t>(size);
    std::fill_n(h, size, static_cast<uint64_t>(nsl));
    for (const BSlot& b : head_) {
      if (b.step < 0) {
        HashMixConst(b.chash, size, h);
        continue;
      }
      uint32_t* sc = arena->AllocateArray<uint32_t>(size);
      Gather(b.codes, cols[b.step], size, sc);
      slot_codes_[b.vslot] = sc;
      HashMix(b.vh, sc, size, h);
    }
    // (3) Sequential dedup probes. Claims are deferred: the row itself
    // is decoded only after the whole chunk has probed.
    const size_t base = dedup_->out()->size();
    pending_.clear();
    sigs_.clear();
    for (size_t t = 0; t < size; ++t) {
      int64_t claimed = dedup_->ClaimIfNew(h[t], [&](size_t i) {
        if (i >= base) {  // pending claim from this chunk: compare codes
          const uint32_t* sig = sigs_.data() + (i - base) * nvar_;
          for (size_t v = 0; v < nvar_; ++v) {
            if (sig[v] != slot_codes_[v][t]) return false;
          }
          return true;
        }
        const Row& existing = (*dedup_->out())[i];
        for (size_t j = 0; j < nsl; ++j) {
          const BSlot& b = head_[j];
          const Value& want = b.constant != nullptr ? *b.constant
                              : b.step >= 0 ? b.dict[slot_codes_[b.vslot][t]]
                                            : null_;
          if (!(existing[j] == want)) return false;
        }
        return true;
      });
      if (claimed < 0) continue;
      pending_.push_back(static_cast<uint32_t>(t));
      for (size_t v = 0; v < nvar_; ++v) {
        sigs_.push_back(slot_codes_[v][t]);
      }
    }
    // (4) Column-major decode of the survivors: per head slot, walk the
    // pending tuples — dictionary and output locality beat row-major.
    std::vector<Row>* out = dedup_->out();
    const size_t np = pending_.size();
    out->resize(base + np);
    for (size_t k = 0; k < np; ++k) {
      (*out)[base + k].resize(nsl);  // null-filled; unbound slots stay
    }
    for (const BSlot& b : head_) {
      size_t j = static_cast<size_t>(&b - head_.data());
      if (b.constant != nullptr) {
        for (size_t k = 0; k < np; ++k) (*out)[base + k][j] = *b.constant;
      } else if (b.step >= 0) {
        const uint32_t* sc = slot_codes_[b.vslot];
        for (size_t k = 0; k < np; ++k) {
          (*out)[base + k][j] = b.dict[sc[pending_[k]]];
        }
      }
    }
    rows_decoded_ += np;
  }

 private:
  struct BSlot {
    const Value* constant = nullptr;  // non-null: constant head term
    uint64_t chash = 0;               // hash of constant / null value
    int step = -1;                    // >= 0: bound variable slot
    int vslot = -1;                   // index into slot_codes_
    const uint32_t* codes = nullptr;  // per-row codes of the source col
    const uint64_t* vh = nullptr;     // code -> value hash
    const Value* dict = nullptr;      // code -> value
  };

  std::vector<BSlot> head_;
  RowDedup* dedup_;
  const Value null_;
  size_t nvar_ = 0;
  size_t rows_decoded_ = 0;
  std::vector<uint32_t*> slot_codes_;   // per var slot, arena chunk arrays
  std::vector<uint32_t> pending_;       // tuple indexes claimed this chunk
  std::vector<uint32_t> sigs_;          // pending code signatures, nvar_ wide
};

/// Bind: program `op` of `query` against `atoms`' snapshots, one CodeOf
/// per constant or parameter, one translation array per column pair.
ColumnarPlan Bind(const PreparedQueries::Op* op, const ConjunctiveQuery& query,
                  const std::vector<ResolvedAtom>& atoms,
                  const std::vector<Value>& params) {
  using Op = PreparedQueries::Op;
  ColumnarPlan plan;
  plan.steps.resize(atoms.size());
  for (size_t s = 0; s < atoms.size(); ++s) {
    ExecStep& step = plan.steps[s];
    const Op& header = *op++;
    const Atom& atom = *atoms[header.a].atom;
    // Per-version memoized build: every plan step over this pinned
    // version — in this query or any other — shares one ColumnTable.
    step.snap = atoms[header.a].snap->EnsureColumnar();
    for (uint32_t k = 0; k < header.b; ++k, ++op) {
      Check ck;
      ck.col = op->a;
      ck.col_codes = step.snap->column(op->a).codes.data();
      if (op->kind != Op::kVar) {
        ck.const_code = step.snap->CodeOf(
            op->a, op->kind == Op::kParam ? params[op->b]
                                          : atom.args[op->a].value());
      } else {
        ck.src_step = op->b;
        ck.intra = op->b == s;
        const ColumnTable& src = *plan.steps[op->b].snap;
        const ColumnTable::Column& src_col = src.column(op->c);
        ck.src_codes = src_col.codes.data();
        ck.identity = &src == step.snap.get() && op->c == op->a;
        if (!ck.identity) ck.xlate = BuildXlate(src_col, *step.snap, op->a);
      }
      if (k == 0 && header.c == 1) {
        step.probe = std::move(ck);
      } else {
        step.checks.push_back(std::move(ck));
      }
    }
  }
  plan.head.resize(query.head().size());
  for (HeadSlot& h : plan.head) {
    if (op->kind == Op::kConst) {
      h.constant = &query.head()[op->a].value();
    } else if (op->kind == Op::kParam) {
      h.constant = &params[op->b];
    } else if (op->kind == Op::kVar) {
      h.step = static_cast<int>(op->b);
      h.col = op->c;
    }
    ++op;
  }
  return plan;
}

}  // namespace

void EvaluatePrepared(const PreparedQueries& programs, size_t i,
                      const ConjunctiveQuery& query,
                      const std::vector<ResolvedAtom>& atoms,
                      const std::vector<Value>& params, MemberRows* out) {
  // Columnar counters (ISSUE 7), mirroring the eval.* convention:
  // resolved once, relaxed atomic adds after that.
  static obs::Counter* batches =
      obs::MetricsRegistry::Default().GetCounter("columnar.batches");
  static obs::Counter* rows_mat =
      obs::MetricsRegistry::Default().GetCounter("columnar.rows_materialized");
  static obs::Counter* arena_bytes =
      obs::MetricsRegistry::Default().GetCounter("columnar.arena_bytes");

  const ColumnarPlan plan = Bind(programs.program(i), query, atoms, params);

  // Step 0's candidates (its probe, when it has one, is a constant: no
  // step precedes it), consumed in kChunkRows slices. Most rewritings
  // of a point lookup name a constant their table lacks; they stop
  // here, before the boundary is set up.
  const size_t nsteps = plan.steps.size();
  const Range cand0 =
      nsteps == 0 ? Range{} : Candidates(plan.steps[0], nullptr, 0);
  if (nsteps > 0 && cand0.n == 0) return;
  RowDedup dedup(&out->rows);
  Arena arena;
  OutputBoundary boundary(plan, &dedup);
  // Body-free query: one head row of constants / nulls — the same base
  // case the map reference hits at remaining == 0.
  if (nsteps == 0) boundary.EmitChunk(nullptr, 1, &arena);

  std::vector<uint32_t*> cols, newcols;
  std::vector<uint32_t> want;  // hoisted per-tuple codes, per check
  for (size_t off = 0; off < cand0.n; off += kChunkRows) {
    const size_t len = std::min(kChunkRows, cand0.n - off);
    arena.Reset();
    batches->Increment();

    // Stage 0: filter this chunk's candidates into a selection vector.
    const Range slice{cand0.rows != nullptr ? cand0.rows + off : nullptr,
                      static_cast<uint32_t>(off), len};
    cols.assign(1, arena.AllocateArray<uint32_t>(len));
    want.resize(plan.steps[0].checks.size());
    size_t size = Filter(plan.steps[0], slice, nullptr, 0, want.data(),
                         cols[0]);

    // Join pipeline: expand the batch through steps 1..n-1. Each output
    // tuple is one row-id per joined step, stored column-wise in arena
    // arrays that grow geometrically.
    for (size_t s = 1; s < nsteps && size > 0; ++s) {
      const ExecStep& st = plan.steps[s];
      size_t cap = std::max<size_t>(size, 64);
      newcols.assign(s + 1, nullptr);
      for (size_t j = 0; j <= s; ++j) {
        newcols[j] = arena.AllocateArray<uint32_t>(cap);
      }
      size_t nsize = 0;
      want.resize(st.checks.size());
      for (size_t t = 0; t < size; ++t) {
        const Range cand = Candidates(st, cols.data(), t);
        if (nsize + cand.n > cap) {
          while (cap < nsize + cand.n) cap *= 2;
          for (size_t j = 0; j <= s; ++j) {
            uint32_t* p = arena.AllocateArray<uint32_t>(cap);
            std::memcpy(p, newcols[j], nsize * sizeof(uint32_t));
            newcols[j] = p;
          }
        }
        // The passing row ids land in the new step's column; the prefix
        // columns repeat the tuple's row ids beside them.
        const size_t m = Filter(st, cand, cols.data(), t, want.data(),
                                newcols[s] + nsize);
        for (size_t j = 0; j < s; ++j) {
          std::fill_n(newcols[j] + nsize, m, cols[j][t]);
        }
        nsize += m;
      }
      cols = newcols;
      size = nsize;
    }

    // Output boundary: batched hash + dedup + column-major decode, in
    // pipeline (= DFS) order.
    if (size > 0) boundary.EmitChunk(cols.data(), size, &arena);
  }
  rows_mat->Increment(boundary.rows_decoded());
  arena_bytes->Increment(arena.bytes_reserved());
  out->hashes = dedup.TakeHashes();
}

}  // namespace revere::query
