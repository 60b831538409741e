#ifndef REVERE_QUERY_ROW_DEDUP_H_
#define REVERE_QUERY_ROW_DEDUP_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/storage/value.h"

namespace revere::query {

/// Order-preserving set of output rows: an open-addressing hash index
/// over the rows already appended to `*out`. Each row is stored exactly
/// once (in the output vector itself); the index keeps only cached
/// 64-bit hashes and row positions, so inserting n unique rows costs n
/// string hashes total — no per-row node allocation, no copy into a
/// side set, and no re-hashing of row contents when the table grows.
///
/// Semantics are identical to an unordered_set<Row> dedup: first
/// occurrence wins, equality is the strict (type-exact) Row operator==.
/// Both engines emit through this — the map reference per
/// materialized row (EmitIfNew), the columnar engine per batch at its
/// output boundary (ClaimIfNew + deferred decode) — and so does the
/// union merge behind EvaluateUnion and Answer (Emit with the members'
/// hashes, which also reports where the equal row sits). Because the
/// columnar boundary computes the very same HashRow value from column
/// codes (see common/hash.h HashStep), string-hashed and code-hashed
/// entries mix freely in one table — which is what lets a union share a
/// single dedup across engines.
class RowDedup {
 public:
  /// Indexes any rows already in `*out` (callers normally start empty)
  /// and appends through it from then on. `out` must outlive the dedup
  /// and must not be modified behind its back.
  explicit RowDedup(std::vector<storage::Row>* out);

  /// Appends `r` to the output if no equal row is present yet. Returns
  /// the output position of the row equal to `r` — the one just
  /// appended, or the earlier one — and whether `r` was appended; `r`
  /// is left untouched when it was not. Must not be called while claims
  /// from ClaimIfNew are pending (i.e. before their rows are appended).
  std::pair<size_t, bool> Emit(storage::Row&& r) {
    uint64_t h = storage::HashRow(r);
    return Emit(std::move(r), h);
  }

  /// Emit for a row whose HashRow value is already known (`hash` ==
  /// HashRow(r)), as a union merge knows it from the member's dedup.
  std::pair<size_t, bool> Emit(storage::Row&& r, uint64_t hash);

  /// Emit, for callers that only need to know whether `r` was new.
  bool EmitIfNew(storage::Row&& r) { return Emit(std::move(r)).second; }

  /// Batched emission: claims an output position for a row
  /// that is NOT materialized yet, identified only by its precomputed
  /// HashRow value `h` and a caller equality predicate. Returns the
  /// claimed index (== the position the caller must append the row at),
  /// or -1 when an equal row is already present. `eq(i)` must answer
  /// "is existing entry i equal to the candidate?" — entry i is
  /// (*out())[i] when i < out()->size(), otherwise a pending claim from
  /// the caller's current batch (the caller compares code signatures).
  /// After a batch of claims, the caller appends exactly one row per
  /// successful claim to *out(), in claim order, before any other call.
  template <typename Eq>
  int64_t ClaimIfNew(uint64_t h, Eq&& eq) {
    if ((hashes_.size() + 1) * 2 > table_.size()) Grow();
    size_t slot = h & mask_;
    while (true) {
      uint32_t e = table_[slot];
      if (e == 0) {
        size_t index = hashes_.size();
        hashes_.push_back(h);
        table_[slot] = static_cast<uint32_t>(index + 1);
        return static_cast<int64_t>(index);
      }
      if (hashes_[e - 1] == h && eq(static_cast<size_t>(e - 1))) return -1;
      slot = (slot + 1) & mask_;
    }
  }

  /// The output vector this dedup indexes (claim flushing appends here).
  std::vector<storage::Row>* out() { return out_; }

  size_t size() const { return hashes_.size(); }

  /// Moves out every output row's hash (result[i] == HashRow((*out())[i]));
  /// the dedup must not be used afterwards.
  std::vector<uint64_t> TakeHashes() { return std::move(hashes_); }

 private:
  void Grow();
  /// Probes for `h`/row-at-`index` assuming capacity is available;
  /// records the slot. Returns false if an equal row already exists.
  bool InsertIndexed(uint64_t h, size_t index);

  std::vector<storage::Row>* out_;
  std::vector<uint64_t> hashes_;  // hashes_[i] == HashRow((*out_)[i])
  std::vector<uint32_t> table_;   // open addressing; row index + 1, 0 = empty
  size_t mask_ = 0;
};

}  // namespace revere::query

#endif  // REVERE_QUERY_ROW_DEDUP_H_
