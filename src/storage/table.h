#ifndef REVERE_STORAGE_TABLE_H_
#define REVERE_STORAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "src/common/status.h"
#include "src/storage/column_table.h"
#include "src/storage/schema.h"
#include "src/storage/table_version.h"
#include "src/storage/value.h"

namespace revere::storage {

/// One stored relation: a schema plus a chain of immutable MVCC
/// versions (TableVersion). Bag semantics (duplicates allowed) —
/// REVERE's MANGROVE layer deliberately defers uniqueness constraints
/// to applications.
///
/// Concurrency contract — readers never block, writers never tear:
///   - Readers call Snapshot() to pin the current head version: a
///     shared-lock pointer copy, O(1), never contended by in-flight row
///     mutation. Everything read through the pinned version (rows and
///     its columnar snapshot) is immutable and stays valid for as long
///     as the shared_ptr is held, no matter what writers do.
///   - Writers serialize on a writer mutex, path-copy only the chunks
///     they touch (an append copies at most the tail chunk's kChunkRows
///     rows), and publish the new version by swapping the head pointer
///     under a brief exclusive lock. Readers pinning between versions
///     see either the old or the new head — never a torn mix.
/// The old rows() accessor and the quiescence-demanding move contract
/// are gone: there is no way to observe row storage except through an
/// immutable version, so there is nothing left to race on.
///
/// The convenience forwarders below (size, LookupIndices, ...) each pin
/// the head themselves; two consecutive calls may see different
/// versions. Callers that need one consistent view across calls — every
/// query engine, view maintenance, serialization — hold a Snapshot()
/// (usually via a per-query SnapshotSet) and read through it.
class Table {
 public:
  explicit Table(TableSchema schema);

  /// Tables are pinned by address (Catalog owns them by unique_ptr;
  /// SnapshotSet keys pins on Table*), so they neither copy nor move.
  Table(Table&&) = delete;
  Table& operator=(Table&&) = delete;

  const TableSchema& schema() const { return *schema_; }

  /// Pins the current head version: an immutable point-in-time view of
  /// all rows plus its memoized columnar snapshot. Never blocks on row
  /// mutation (only on the instant of another writer's head swap).
  std::shared_ptr<const TableVersion> Snapshot() const;

  /// Appends `row` after schema validation.
  Status Insert(Row row);
  /// Appends all rows, all-or-nothing: every row is validated up front
  /// and the batch publishes as one new version only when every row
  /// passes, so a failed call leaves the table untouched and readers
  /// never see a partial batch.
  Status InsertAll(const std::vector<Row>& rows);

  /// Removes the first row equal to `row`; NotFound if absent.
  Status Delete(const Row& row);
  /// Removes every row whose `column`-th value equals `key`; returns the
  /// number removed.
  size_t DeleteWhere(size_t column, const Value& key);
  /// Drops all rows.
  void Clear();

  /// Row indices whose `column` equals `key`, ascending, against the
  /// current head (see TableVersion::LookupIndices). Single-call
  /// convenience — pair row access with the SAME pinned Snapshot(), not
  /// with a second forwarder call.
  std::vector<size_t> LookupIndices(size_t column, const Value& key) const;

  /// The current head's memoized columnar snapshot (see
  /// TableVersion::EnsureColumnar). Immutable; stays valid after the
  /// table mutates.
  std::shared_ptr<const ColumnTable> EnsureColumnar() const;

  /// Rows in the current head version.
  size_t size() const;
  /// Data-version counter of the current head: bumped once per
  /// published mutation (Insert/InsertAll/Delete/DeleteWhere/Clear).
  uint64_t generation() const;

 private:
  /// Starts a successor version sharing the base's chunk spine, with
  /// version() = base.version() + 1. Caller holds writer_mu_.
  std::shared_ptr<TableVersion> BeginVersion(const TableVersion& base) const;
  /// Swaps the head pointer. Caller holds writer_mu_.
  void Publish(std::shared_ptr<const TableVersion> next);

  std::shared_ptr<const TableSchema> schema_;
  /// Serializes writers. Version construction (validation, path-copies)
  /// happens under this mutex but NOT under head_mu_, so readers are
  /// never blocked behind a writer's O(chunk) work.
  mutable std::mutex writer_mu_;
  /// Guards only the head pointer. Readers take it shared for the
  /// duration of one pointer copy; writers take it exclusive for one
  /// pointer swap.
  mutable std::shared_mutex head_mu_;
  std::shared_ptr<const TableVersion> head_;
};

}  // namespace revere::storage

#endif  // REVERE_STORAGE_TABLE_H_
