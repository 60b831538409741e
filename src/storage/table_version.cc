#include "src/storage/table_version.h"

#include <utility>

#include "src/storage/table.h"

namespace revere::storage {

std::vector<Row> TableVersion::CopyRows() const {
  std::vector<Row> out;
  out.reserve(size_);
  for (const auto& chunk : chunks_) {
    out.insert(out.end(), chunk->rows.begin(), chunk->rows.end());
  }
  return out;
}

std::vector<size_t> TableVersion::LookupIndices(size_t column,
                                                const Value& key) const {
  if (column >= schema_->arity()) return {};
  std::shared_ptr<const ColumnTable> snap = EnsureColumnar();
  const uint32_t code = snap->CodeOf(column, key);
  if (code == ColumnTable::kNoCode) return {};
  const ColumnTable::Column& c = snap->column(column);
  return std::vector<size_t>(c.group_rows.begin() + c.group_offsets[code],
                             c.group_rows.begin() + c.group_offsets[code + 1]);
}

std::shared_ptr<const ColumnTable> TableVersion::EnsureColumnar() const {
  std::call_once(columnar_once_, [this] {
    columnar_ = ColumnTable::Build(
        size_, [this](size_t i) -> const Row& { return row(i); },
        schema_->arity(), version_);
  });
  return columnar_;
}

std::shared_ptr<const TableVersion> SnapshotSet::Pin(const Table& table) {
  {
    std::lock_guard lock(mu_);
    auto it = pins_.find(&table);
    if (it != pins_.end()) return it->second;
  }
  // Take the head outside mu_ (Snapshot briefly locks the table's head
  // mutex; never nest the two), then race to record it — first pin wins
  // so every user of the set agrees on one version.
  std::shared_ptr<const TableVersion> head = table.Snapshot();
  std::lock_guard lock(mu_);
  auto [it, inserted] = pins_.emplace(&table, std::move(head));
  return it->second;
}

std::shared_ptr<const TableVersion> SnapshotSet::Get(
    const Table& table) const {
  std::lock_guard lock(mu_);
  auto it = pins_.find(&table);
  return it == pins_.end() ? nullptr : it->second;
}

size_t SnapshotSet::size() const {
  std::lock_guard lock(mu_);
  return pins_.size();
}

}  // namespace revere::storage
