#ifndef REVERE_STORAGE_TABLE_VERSION_H_
#define REVERE_STORAGE_TABLE_VERSION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/storage/column_table.h"
#include "src/storage/schema.h"
#include "src/storage/value.h"

namespace revere::storage {

class Table;

/// One fixed-capacity block of rows inside a TableVersion. Chunks are
/// immutable once their version is published and shared by reference
/// between versions: a writer path-copies only the chunks it touches
/// (for an append, just the tail chunk) and aliases the rest, so
/// publishing a new version after a single Insert costs O(kChunkRows)
/// row copies, not O(table).
struct RowChunk {
  std::vector<Row> rows;
};

/// Rows per chunk. A power of two so row addressing is a shift + mask.
inline constexpr size_t kChunkRowsLog2 = 8;
inline constexpr size_t kChunkRows = size_t{1} << kChunkRowsLog2;  // 256

/// One immutable point-in-time version of a Table's rows (the MVCC
/// snapshot readers pin via Table::Snapshot). The row data — a spine of
/// shared RowChunk pointers, every chunk full except possibly the last —
/// never changes after publication, so readers iterate, probe, and build
/// derived structures with no locks against writers.
///
/// A version has exactly one derived read structure: its columnar
/// snapshot (ColumnTable), whose grouped index on every column serves
/// both the columnar engine and LookupIndices. Because the rows can
/// never change, it is built at most once, on first use, and shared by
/// every reader that pinned this version.
class TableVersion {
 public:
  TableVersion(const TableVersion&) = delete;
  TableVersion& operator=(const TableVersion&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const TableSchema& schema() const { return *schema_; }

  /// Monotone version number (the old Table::generation): 0 for the
  /// empty initial version, +1 per published data mutation.
  uint64_t version() const { return version_; }

  /// Row `i` of this version. Shift + mask into the chunk spine.
  const Row& row(size_t i) const {
    return chunks_[i >> kChunkRowsLog2]->rows[i & (kChunkRows - 1)];
  }

  /// Materializes all rows into one vector (serialization, delta
  /// catalogs). The snapshot stays the source of truth; this copies.
  std::vector<Row> CopyRows() const;

  /// Row indices whose `column` equals `key`, ascending (empty for an
  /// out-of-range column): the key's range of the columnar snapshot's
  /// grouped index, building the snapshot on first use.
  std::vector<size_t> LookupIndices(size_t column, const Value& key) const;

  /// This version's memoized columnar snapshot, built on first call and
  /// shared by all pinners. Stamped with version().
  std::shared_ptr<const ColumnTable> EnsureColumnar() const;

 private:
  friend class Table;
  friend class VersionBuilder;

  explicit TableVersion(std::shared_ptr<const TableSchema> schema)
      : schema_(std::move(schema)) {}

  std::shared_ptr<const TableSchema> schema_;
  /// Row storage: all chunks full (kChunkRows) except possibly the last.
  /// Immutable after publication; chunks shared with other versions.
  std::vector<std::shared_ptr<const RowChunk>> chunks_;
  size_t size_ = 0;
  uint64_t version_ = 0;

  /// The memoized columnar snapshot, built exactly once under
  /// columnar_once_. Writers to the owning Table never touch either.
  mutable std::once_flag columnar_once_;
  mutable std::shared_ptr<const ColumnTable> columnar_;
};

/// Per-query pin set: the first access to each Table pins its head
/// version, and every later access through the set sees that same
/// version — one consistent snapshot per table for the whole query, no
/// matter how many rewritings, engines, or pool workers touch it.
/// Thread-safe (the parallel union path pins from pool workers).
class SnapshotSet {
 public:
  SnapshotSet() = default;
  SnapshotSet(const SnapshotSet&) = delete;
  SnapshotSet& operator=(const SnapshotSet&) = delete;

  /// The pinned version of `table`, pinning its current head on first
  /// call for this table.
  std::shared_ptr<const TableVersion> Pin(const Table& table);

  /// The already-pinned version, or null when `table` was never pinned.
  std::shared_ptr<const TableVersion> Get(const Table& table) const;

  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<const Table*, std::shared_ptr<const TableVersion>>
      pins_;
};

}  // namespace revere::storage

#endif  // REVERE_STORAGE_TABLE_VERSION_H_
