#include "src/query/vectorized.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/arena.h"
#include "src/common/hash.h"
#include "src/obs/metrics.h"
#include "src/query/resolve.h"
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

/// Candidate-set size below which the per-candidate check loop beats
/// the mask/compact kernels (a few kernel calls cost more than a
/// handful of compares). Both paths accept the same rows in the same
/// order.
constexpr size_t kScalarCandCutoff = 16;

// ---------------------------------------------------------------------
// Kernels over uint32 code arrays; each touches exactly n elements.
// Masks are bit-per-element uint64 words (bit i of word i/64 = element
// i), and bits >= n stay zero.
// ---------------------------------------------------------------------

size_t MaskWords(size_t n) { return (n + 63) / 64; }

/// out[i] = vals[idx[i]]. `idx == out` aliasing is allowed.
void Gather(const uint32_t* vals, const uint32_t* idx, size_t n,
            uint32_t* out) {
  for (size_t i = 0; i < n; ++i) out[i] = vals[idx[i]];
}

/// mask bit i = pred(i) for i < n, ANDed into the existing bit when
/// `and_into`.
template <typename Pred>
void SetMask(size_t n, bool and_into, uint64_t* mask, Pred pred) {
  for (size_t w = 0; w < MaskWords(n); ++w) {
    uint64_t word = 0;
    const size_t limit = std::min<size_t>(n - w * 64, 64);
    for (size_t b = 0; b < limit; ++b) {
      word |= uint64_t{pred(w * 64 + b)} << b;
    }
    mask[w] = and_into ? mask[w] & word : word;
  }
}

/// out[k++] = src[i] for each set mask bit i, ascending; returns k.
size_t Compact(const uint32_t* src, const uint64_t* mask, size_t n,
               uint32_t* out) {
  size_t k = 0;
  for (size_t w = 0; w < MaskWords(n); ++w) {
    for (uint64_t word = mask[w]; word != 0; word &= word - 1) {
      out[k++] = src[w * 64 + static_cast<unsigned>(__builtin_ctzll(word))];
    }
  }
  return k;
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
// Plan: the slot engine's query-static join order, compiled to integer
// code comparisons against ColumnTable snapshots.
// ---------------------------------------------------------------------

/// One residual equality constraint on a candidate row: position `col`
/// of this step's table must decode to the same Value as the source —
/// a query constant, a variable bound by an earlier step, or an earlier
/// position of this same atom (repeated variable). All three reduce to
/// one uint32 comparison: candidate code vs an expected code obtained
/// through the source column's translation array (kNoCode = the source
/// value does not occur in this column at all, so nothing matches).
struct Check {
  size_t col = 0;
  bool is_const = false;
  uint32_t const_code = kNoCode;
  /// Variable source: step and column of the binding site. `intra` when
  /// the binding site is an earlier position of this same step, in
  /// which case the expected code is computed per candidate row rather
  /// than hoisted per tuple.
  size_t src_step = 0;
  size_t src_col = 0;
  bool intra = false;
  /// Same snapshot + same column: codes compare directly, no table.
  bool identity = false;
  /// src dict code -> this column's code (kNoCode on miss). Built once
  /// per plan — O(|src dict|) Value hashes — so the per-row loops never
  /// hash or compare Values.
  std::vector<uint32_t> xlate;
  /// Raw code vectors (into the snapshots the plan's steps keep alive).
  const uint32_t* col_codes = nullptr;
  const uint32_t* src_codes = nullptr;
};

struct ExecStep {
  std::shared_ptr<const ColumnTable> snap;
  /// Probe position (-1 = full scan): the first position bound at entry
  /// — a constant or a variable bound by an earlier step. Candidates
  /// come from the grouped index range for the probe code, which both
  /// subsumes the equality check at that position and enumerates rows
  /// in ascending order, exactly like Table::LookupIndices. The choice
  /// of probe column never affects output: the residual checks accept
  /// the same row set and every enumeration path is ascending.
  int probe_col = -1;
  bool probe_is_const = false;
  uint32_t probe_const_code = kNoCode;
  size_t probe_src_step = 0;
  size_t probe_src_col = 0;
  bool probe_identity = false;
  std::vector<uint32_t> probe_xlate;
  const uint32_t* probe_src_codes = nullptr;
  std::vector<Check> checks;
};

/// One head position: a constant, a bound variable's (step, col) site,
/// or an unbound variable (null Value), mirroring the slot engine's
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

ColumnarPlan Compile(
    const ConjunctiveQuery& query,
    const std::vector<ResolvedAtom>& atoms) {
  ColumnarPlan plan;
  // Replay the slot engine's greedy most-bound-first atom order (ties:
  // lowest atom index). The order is query-static: once an atom is
  // solved, every one of its variables is bound, so the bound set after
  // k steps is the union of those atoms' variables regardless of row
  // values — which is what lets this breadth-style batch pipeline
  // reproduce the slot engine's DFS emission order byte for byte.
  const size_t n = atoms.size();
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
      for (const QTerm& t : atoms[i].atom->args) {
        if (!t.is_var() || bound_vars.count(t.var()) > 0) ++b;
      }
      if (b > best_bound) {
        best_bound = b;
        best = i;
      }
    }
    done[best] = true;
    order.push_back(best);
    for (const QTerm& t : atoms[best].atom->args) {
      if (t.is_var()) bound_vars.insert(t.var());
    }
  }

  struct Site {
    size_t step;
    size_t col;
  };
  std::unordered_map<std::string, Site> site_of;
  plan.steps.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    const Atom& atom = *atoms[order[s]].atom;
    ExecStep step;
    // Per-version memoized build: every plan step over this pinned
    // version — in this query or any other — shares one ColumnTable.
    step.snap = atoms[order[s]].snap->EnsureColumnar();
    // Pass 1 — probe: first position bound at entry (sites from earlier
    // steps only; this atom's own sites are assigned in pass 2).
    for (size_t c = 0; c < atom.args.size(); ++c) {
      const QTerm& t = atom.args[c];
      if (!t.is_var()) {
        step.probe_col = static_cast<int>(c);
        step.probe_is_const = true;
        step.probe_const_code = step.snap->CodeOf(c, t.value());
        break;
      }
      auto it = site_of.find(t.var());
      if (it == site_of.end()) continue;
      step.probe_col = static_cast<int>(c);
      step.probe_src_step = it->second.step;
      step.probe_src_col = it->second.col;
      const ColumnTable& src_snap = *plan.steps[it->second.step].snap;
      step.probe_src_codes = src_snap.column(it->second.col).codes.data();
      step.probe_identity =
          &src_snap == step.snap.get() && it->second.col == c;
      if (!step.probe_identity) {
        step.probe_xlate =
            BuildXlate(src_snap.column(it->second.col), *step.snap, c);
      }
      break;
    }
    // Pass 2 — classify the remaining positions: new binding sites
    // (first occurrence of a variable: no constraint, the candidate row
    // defines the value) and residual checks.
    for (size_t c = 0; c < atom.args.size(); ++c) {
      if (static_cast<int>(c) == step.probe_col) continue;  // subsumed
      const QTerm& t = atom.args[c];
      if (!t.is_var()) {
        Check ck;
        ck.col = c;
        ck.is_const = true;
        ck.const_code = step.snap->CodeOf(c, t.value());
        ck.col_codes = step.snap->column(c).codes.data();
        step.checks.push_back(std::move(ck));
        continue;
      }
      auto [it, inserted] = site_of.emplace(t.var(), Site{s, c});
      if (inserted) continue;  // binds here, checked nowhere
      Check ck;
      ck.col = c;
      ck.src_step = it->second.step;
      ck.src_col = it->second.col;
      ck.intra = ck.src_step == s;
      const ColumnTable* src_snap =
          ck.intra ? step.snap.get() : plan.steps[ck.src_step].snap.get();
      ck.identity = src_snap == step.snap.get() && ck.src_col == c;
      ck.col_codes = step.snap->column(c).codes.data();
      ck.src_codes = src_snap->column(ck.src_col).codes.data();
      if (!ck.identity) {
        ck.xlate = BuildXlate(src_snap->column(ck.src_col), *step.snap, c);
      }
      step.checks.push_back(std::move(ck));
    }
    plan.steps.push_back(std::move(step));
  }

  plan.head.reserve(query.head().size());
  for (const QTerm& t : query.head()) {
    HeadSlot h;
    if (!t.is_var()) {
      h.constant = &t.value();
    } else {
      auto it = site_of.find(t.var());
      if (it != site_of.end()) {
        h.step = static_cast<int>(it->second.step);
        h.col = it->second.col;
      }
    }
    plan.head.push_back(h);
  }
  return plan;
}

// ---------------------------------------------------------------------
// Execution: chunked batch pipeline over an arena, on the kernels
// above.
// ---------------------------------------------------------------------

/// Dictionary-decodes one completed tuple into a Row and dedups it —
/// only used for the body-free base case; batches go through
/// OutputBoundary.
void MaterializeTuple(const ColumnarPlan& plan, uint32_t* const* cols,
                      size_t t, RowDedup* dedup) {
  Row result;
  result.reserve(plan.head.size());
  for (const HeadSlot& h : plan.head) {
    if (h.constant != nullptr) {
      result.push_back(*h.constant);
    } else if (h.step >= 0) {
      result.push_back(plan.steps[h.step].snap->ValueAt(h.col, cols[h.step][t]));
    } else {
      result.emplace_back();
    }
  }
  dedup->EmitIfNew(std::move(result));
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
  /// row-id arrays holding `size` tuples (size > 0).
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

}  // namespace

Status EvaluateColumnarInto(const storage::Catalog& catalog,
                            const ConjunctiveQuery& query,
                            const EvalOptions& options, RowDedup* dedup) {
  // Columnar counters (ISSUE 7), mirroring the eval.* convention:
  // resolved once, relaxed atomic adds after that.
  static obs::Counter* batches =
      obs::MetricsRegistry::Default().GetCounter("columnar.batches");
  static obs::Counter* rows_mat =
      obs::MetricsRegistry::Default().GetCounter("columnar.rows_materialized");
  static obs::Counter* arena_bytes =
      obs::MetricsRegistry::Default().GetCounter("columnar.arena_bytes");
  static obs::Gauge* dict_entries =
      obs::MetricsRegistry::Default().GetGauge("columnar.dict_entries");

  // The index knobs are meaningless here (every snapshot column carries
  // a grouped index); the pool/tracer knobs are handled by
  // EvaluateUnion, exactly as for the other engines.
  REVERE_ASSIGN_OR_RETURN(auto atoms,
                          ResolveAtoms(catalog, query, options.snapshots));
  ColumnarPlan plan = Compile(query, atoms);

  {
    size_t total = 0;
    std::unordered_set<const ColumnTable*> distinct;
    for (const auto& s : plan.steps) {
      if (distinct.insert(s.snap.get()).second) total += s.snap->dict_entries();
    }
    dict_entries->Set(static_cast<int64_t>(total));
  }

  const size_t nsteps = plan.steps.size();
  if (nsteps == 0) {
    // Body-free query: one head row of constants / nulls — the same
    // base case the recursive engines hit at remaining == 0.
    uint32_t* no_cols = nullptr;
    MaterializeTuple(plan, &no_cols, 0, dedup);
    rows_mat->Increment();
    return Status::Ok();
  }

  // Step-0 candidate stream: a grouped-index range when the atom has a
  // constant (step 0 has no earlier bindings, so a probe can only be a
  // constant), else the whole table — either way ascending row ids,
  // consumed in kChunkRows slices.
  const ExecStep& s0 = plan.steps[0];
  const uint32_t* cand0 = nullptr;
  size_t cand0_n = 0;
  if (s0.probe_col >= 0) {
    if (s0.probe_const_code == kNoCode) return Status::Ok();
    const auto& pc = s0.snap->column(s0.probe_col);
    cand0 = pc.group_rows.data() + pc.group_offsets[s0.probe_const_code];
    cand0_n = pc.group_offsets[s0.probe_const_code + 1] -
              pc.group_offsets[s0.probe_const_code];
  } else {
    cand0_n = s0.snap->row_count();
  }

  Arena arena;
  OutputBoundary boundary(plan, dedup);
  std::vector<uint32_t*> cols, newcols;
  std::vector<uint32_t> expected;  // hoisted per-tuple codes, per check
  // Candidate-set scratch for the masked check path; sized to the
  // largest candidate set seen, reused across tuples and chunks.
  std::vector<uint32_t> crows, ca, cb;
  std::vector<uint64_t> cmask;
  auto reserve_scratch = [&](size_t cn) {
    if (crows.size() < cn) {
      crows.resize(cn);
      ca.resize(cn);
      cb.resize(cn);
      cmask.resize(MaskWords(cn));
    }
  };
  for (size_t off = 0; off < cand0_n; off += kChunkRows) {
    const size_t len = std::min(kChunkRows, cand0_n - off);
    arena.Reset();
    batches->Increment();

    // Stage 0: filter this chunk's candidates into a selection vector —
    // one mask kernel per residual check, then one compaction. Checks
    // here are constants or intra-atom repeats only.
    uint32_t* rows0 = arena.AllocateArray<uint32_t>(len);
    if (cand0 != nullptr) {
      std::copy_n(cand0 + off, len, rows0);
    } else {
      std::iota(rows0, rows0 + len, static_cast<uint32_t>(off));
    }
    uint32_t* sel = rows0;
    size_t size = len;
    if (!s0.checks.empty()) {
      reserve_scratch(len);
      const uint32_t* a = ca.data();
      const uint32_t* b = cb.data();
      for (size_t k = 0; k < s0.checks.size(); ++k) {
        const Check& ck = s0.checks[k];
        Gather(ck.col_codes, rows0, len, ca.data());
        if (ck.is_const) {
          // const_code may be kNoCode (value absent): no code equals
          // the sentinel, so the mask naturally goes empty.
          const uint32_t want = ck.const_code;
          SetMask(len, k > 0, cmask.data(),
                  [&](size_t i) { return a[i] == want; });
        } else {
          Gather(ck.src_codes, rows0, len, cb.data());
          if (!ck.identity) Gather(ck.xlate.data(), b, len, cb.data());
          SetMask(len, k > 0, cmask.data(),
                  [&](size_t i) { return a[i] == b[i]; });
        }
      }
      sel = arena.AllocateArray<uint32_t>(len);
      size = Compact(rows0, cmask.data(), len, sel);
    }
    cols.assign(1, sel);

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
      auto grow_to = [&](size_t need) {
        while (cap < need) cap *= 2;
        for (size_t j = 0; j <= s; ++j) {
          uint32_t* p = arena.AllocateArray<uint32_t>(cap);
          std::memcpy(p, newcols[j], nsize * sizeof(uint32_t));
          newcols[j] = p;
        }
      };
      expected.resize(st.checks.size());
      for (size_t t = 0; t < size; ++t) {
        // Probe: translate the tuple's bound code into this table's
        // code space and take the grouped-index range.
        const uint32_t* cand = nullptr;
        size_t cn = 0;
        if (st.probe_col >= 0) {
          uint32_t key;
          if (st.probe_is_const) {
            key = st.probe_const_code;
          } else {
            uint32_t sc = st.probe_src_codes[cols[st.probe_src_step][t]];
            key = st.probe_identity ? sc : st.probe_xlate[sc];
          }
          if (key == kNoCode) continue;
          const auto& pc = st.snap->column(st.probe_col);
          cand = pc.group_rows.data() + pc.group_offsets[key];
          cn = pc.group_offsets[key + 1] - pc.group_offsets[key];
        } else {
          cn = st.snap->row_count();
        }
        if (cn == 0) continue;
        // Hoist the expected code of every earlier-step check once per
        // tuple; a kNoCode means the bound value is absent from the
        // checked column, so no candidate can match.
        bool dead = false;
        for (size_t k = 0; k < st.checks.size(); ++k) {
          const Check& ck = st.checks[k];
          if (ck.is_const) {
            expected[k] = ck.const_code;
          } else if (!ck.intra) {
            uint32_t sc = ck.src_codes[cols[ck.src_step][t]];
            expected[k] = ck.identity ? sc : ck.xlate[sc];
          } else {
            continue;  // intra: per-candidate below
          }
          if (expected[k] == kNoCode) {
            dead = true;
            break;
          }
        }
        if (dead) continue;

        if (st.checks.empty()) {
          // No residual checks: the whole candidate range joins. Bulk
          // append — broadcast the prefix columns, copy the row ids.
          // This is the P3 title-self-join fast path.
          if (nsize + cn > cap) grow_to(nsize + cn);
          for (size_t j = 0; j < s; ++j) {
            std::fill_n(newcols[j] + nsize, cn, cols[j][t]);
          }
          if (cand != nullptr) {
            std::copy_n(cand, cn, newcols[s] + nsize);
          } else {
            std::iota(newcols[s] + nsize, newcols[s] + nsize + cn, 0u);
          }
          nsize += cn;
          continue;
        }

        if (cn < kScalarCandCutoff) {
          // Small candidate set: scalar per-candidate loop.
          for (size_t i = 0; i < cn; ++i) {
            uint32_t r = cand != nullptr ? cand[i] : static_cast<uint32_t>(i);
            bool pass = true;
            for (size_t k = 0; k < st.checks.size(); ++k) {
              const Check& ck = st.checks[k];
              uint32_t want;
              if (ck.intra) {
                uint32_t sc = ck.src_codes[r];
                want = ck.identity ? sc : ck.xlate[sc];
              } else {
                want = expected[k];
              }
              if (ck.col_codes[r] != want) {
                pass = false;
                break;
              }
            }
            if (!pass) continue;
            if (nsize == cap) grow_to(cap + 1);
            for (size_t j = 0; j < s; ++j) newcols[j][nsize] = cols[j][t];
            newcols[s][nsize] = r;
            ++nsize;
          }
          continue;
        }

        // Masked path: one gather + compare kernel per check over the
        // whole candidate range, then compact the survivors straight
        // into the output arrays. Identical accept set and order to the
        // scalar loop above.
        reserve_scratch(cn);
        uint32_t* rows = crows.data();
        if (cand != nullptr) {
          std::copy_n(cand, cn, rows);
        } else {
          std::iota(rows, rows + cn, 0u);
        }
        const uint32_t* a = ca.data();
        const uint32_t* b = cb.data();
        for (size_t k = 0; k < st.checks.size(); ++k) {
          const Check& ck = st.checks[k];
          Gather(ck.col_codes, rows, cn, ca.data());
          if (ck.intra) {
            Gather(ck.src_codes, rows, cn, cb.data());
            if (!ck.identity) Gather(ck.xlate.data(), b, cn, cb.data());
            SetMask(cn, k > 0, cmask.data(),
                    [&](size_t i) { return a[i] == b[i]; });
          } else {
            const uint32_t want = expected[k];
            SetMask(cn, k > 0, cmask.data(),
                    [&](size_t i) { return a[i] == want; });
          }
        }
        if (nsize + cn > cap) grow_to(nsize + cn);
        size_t m = Compact(rows, cmask.data(), cn, newcols[s] + nsize);
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
  return Status::Ok();
}

}  // namespace revere::query
