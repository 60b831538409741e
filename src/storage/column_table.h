#ifndef REVERE_STORAGE_COLUMN_TABLE_H_
#define REVERE_STORAGE_COLUMN_TABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/storage/schema.h"
#include "src/storage/value.h"

namespace revere::storage {

/// Immutable columnar snapshot of one Table (ISSUE 7): per-column
/// dictionary-encoded value vectors plus a grouped row-id index per
/// column, built once from the row store and shared by reference.
///
/// Every cell is encoded as a dense `uint32_t` code into the column's
/// dictionary of distinct Values (first-appearance order, so code
/// assignment is deterministic). Strings — the dominant type in REVERE's
/// textual workloads — therefore compare as integers on every filter and
/// join; ints/doubles/bools/nulls ride the same encoding, paying one
/// indirection only when a result row is materialized. Two codes within
/// one column are equal iff the underlying Values are `==`; codes are
/// NOT comparable across columns — executors translate through the
/// dictionaries (see vectorized.cc's translation arrays).
///
/// The grouped index (`group_offsets`/`group_rows`, a stable counting
/// sort by code) plays the role of a hash index with zero hashing on
/// the probe path: the rows whose column equals dictionary code `c` are
/// `group_rows[group_offsets[c] .. group_offsets[c+1])`, in ascending
/// row order — the same enumeration order as Table::LookupIndices, which
/// is what keeps the columnar engine byte-identical to the slot engine.
///
/// Lifetime/concurrency: a ColumnTable is deeply immutable after Build
/// and handed out as shared_ptr<const>, so readers may keep using a
/// snapshot while the source Table mutates and rebuilds a fresh one
/// (Table::EnsureColumnar implements the generation discipline).
class ColumnTable {
 public:
  /// "No such code": returned by CodeOf for values absent from the
  /// column, and used as the miss sentinel in translation arrays.
  static constexpr uint32_t kNoCode = UINT32_MAX;

  struct Column {
    /// code -> distinct value, in first-appearance order.
    std::vector<Value> dict;
    /// value -> code (the dictionary's reverse map; hashes only at
    /// build/translation time, never in per-row loops).
    std::unordered_map<Value, uint32_t, ValueHash> code_of;
    /// code -> Value::Hash() of dict[code] (ISSUE 8): lets the output
    /// boundary chain HashStep over codes and reproduce HashRow of the
    /// decoded row without touching the dictionary.
    std::vector<uint64_t> dict_hashes;
    /// Per-row codes: codes[r] encodes rows[r][col]; row_count entries.
    std::vector<uint32_t> codes;
    /// Stable group-by-code: rows with code c are
    /// group_rows[group_offsets[c] .. group_offsets[c+1]), ascending.
    std::vector<uint32_t> group_offsets;  // dict.size() + 1 entries
    std::vector<uint32_t> group_rows;     // row_count entries
  };

  /// Builds the snapshot from a quiesced row view. `generation` stamps
  /// which version of the source table this encodes (Table's data
  /// generation counter). Rows beyond uint32 range are unsupported.
  static std::shared_ptr<const ColumnTable> Build(
      const std::vector<Row>& rows, size_t arity, uint64_t generation);

  /// Same, over an arbitrary row accessor — `row_at(i)` for i in
  /// [0, row_count) — so chunked MVCC versions build columnar snapshots
  /// without first materializing a contiguous row vector.
  static std::shared_ptr<const ColumnTable> Build(
      size_t row_count, const std::function<const Row&(size_t)>& row_at,
      size_t arity, uint64_t generation);

  size_t row_count() const { return row_count_; }
  size_t column_count() const { return columns_.size(); }
  uint64_t generation() const { return generation_; }
  const Column& column(size_t i) const { return columns_[i]; }

  /// Dictionary code of `v` in column `col`, or kNoCode when absent.
  uint32_t CodeOf(size_t col, const Value& v) const;

  /// Decoded cell (dictionary lookup) — the materialization boundary.
  const Value& ValueAt(size_t col, size_t row) const {
    const Column& c = columns_[col];
    return c.dict[c.codes[row]];
  }

  /// Total dictionary entries across columns (obs mirroring).
  size_t dict_entries() const { return dict_entries_; }

 private:
  ColumnTable() = default;

  std::vector<Column> columns_;
  size_t row_count_ = 0;
  size_t dict_entries_ = 0;
  uint64_t generation_ = 0;
};

}  // namespace revere::storage

#endif  // REVERE_STORAGE_COLUMN_TABLE_H_
