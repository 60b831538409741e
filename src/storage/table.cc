#include "src/storage/table.h"

#include <utility>

namespace revere::storage {

/// Append helper for constructing one unpublished successor version:
/// path-copies the shared tail chunk at most once, then appends into
/// the private copy in place, opening fresh chunks as they fill. Only
/// ever touches a version no reader can see yet.
class VersionBuilder {
 public:
  explicit VersionBuilder(TableVersion* v) : v_(v) {}

  void Append(Row row) {
    if ((v_->size_ & (kChunkRows - 1)) == 0) {
      auto chunk = std::make_shared<RowChunk>();
      chunk->rows.reserve(kChunkRows);
      tail_ = chunk.get();
      v_->chunks_.push_back(std::move(chunk));
    } else if (tail_ == nullptr) {
      auto chunk = std::make_shared<RowChunk>(*v_->chunks_.back());
      chunk->rows.reserve(kChunkRows);
      tail_ = chunk.get();
      v_->chunks_.back() = std::move(chunk);
    }
    tail_->rows.push_back(std::move(row));
    ++v_->size_;
  }

 private:
  TableVersion* v_;
  /// The tail chunk iff this builder created it (and so may mutate it);
  /// null while chunks_.back() is still shared with the base version.
  RowChunk* tail_ = nullptr;
};

Table::Table(TableSchema schema)
    : schema_(std::make_shared<const TableSchema>(std::move(schema))) {
  head_ = std::shared_ptr<TableVersion>(new TableVersion(schema_));
}

std::shared_ptr<const TableVersion> Table::Snapshot() const {
  std::shared_lock lock(head_mu_);
  return head_;
}

std::shared_ptr<TableVersion> Table::BeginVersion(
    const TableVersion& base) const {
  auto v = std::shared_ptr<TableVersion>(new TableVersion(schema_));
  v->chunks_ = base.chunks_;  // structure sharing: chunk pointers only
  v->size_ = base.size_;
  v->version_ = base.version_ + 1;
  return v;
}

void Table::Publish(std::shared_ptr<const TableVersion> next) {
  std::unique_lock lock(head_mu_);
  head_ = std::move(next);
}

Status Table::Insert(Row row) {
  REVERE_RETURN_IF_ERROR(schema_->ValidateRow(row));
  std::lock_guard writer(writer_mu_);
  // head_ is stable here: only writers swap it, and they hold writer_mu_.
  auto next = BeginVersion(*head_);
  VersionBuilder builder(next.get());
  builder.Append(std::move(row));
  Publish(std::move(next));
  return Status::Ok();
}

Status Table::InsertAll(const std::vector<Row>& rows) {
  // All-or-nothing: validate every row before building the version, so
  // an invalid row anywhere in the batch leaves the table exactly as it
  // was — and concurrent readers, pinned to the old head, never observe
  // a partial batch either way.
  for (const auto& r : rows) {
    REVERE_RETURN_IF_ERROR(schema_->ValidateRow(r));
  }
  if (rows.empty()) return Status::Ok();
  std::lock_guard writer(writer_mu_);
  auto next = BeginVersion(*head_);
  VersionBuilder builder(next.get());
  for (const auto& r : rows) builder.Append(r);
  Publish(std::move(next));
  return Status::Ok();
}

Status Table::Delete(const Row& row) {
  std::lock_guard writer(writer_mu_);
  const TableVersion& base = *head_;
  size_t victim = base.size();
  for (size_t i = 0; i < base.size(); ++i) {
    if (base.row(i) == row) {
      victim = i;
      break;
    }
  }
  if (victim == base.size()) {
    return Status::NotFound("row not present in " + schema_->name());
  }
  auto next = BeginVersion(base);
  // Share every full chunk before the victim's chunk untouched; rebuild
  // from the victim's chunk on (the suffix must re-pack to keep the
  // all-chunks-full-except-last invariant).
  size_t first_rebuilt = (victim >> kChunkRowsLog2) << kChunkRowsLog2;
  next->chunks_.resize(victim >> kChunkRowsLog2);
  next->size_ = first_rebuilt;
  VersionBuilder builder(next.get());
  for (size_t i = first_rebuilt; i < base.size(); ++i) {
    if (i == victim) continue;
    builder.Append(base.row(i));
  }
  Publish(std::move(next));
  return Status::Ok();
}

size_t Table::DeleteWhere(size_t column, const Value& key) {
  if (column >= schema_->arity()) return 0;
  std::lock_guard writer(writer_mu_);
  const TableVersion& base = *head_;
  size_t first_match = base.size();
  for (size_t i = 0; i < base.size(); ++i) {
    if (base.row(i)[column] == key) {
      first_match = i;
      break;
    }
  }
  if (first_match == base.size()) return 0;
  auto next = BeginVersion(base);
  size_t first_rebuilt = (first_match >> kChunkRowsLog2) << kChunkRowsLog2;
  next->chunks_.resize(first_match >> kChunkRowsLog2);
  next->size_ = first_rebuilt;
  VersionBuilder builder(next.get());
  size_t removed = 0;
  for (size_t i = first_rebuilt; i < base.size(); ++i) {
    const Row& r = base.row(i);
    if (r[column] == key) {
      ++removed;
    } else {
      builder.Append(r);
    }
  }
  Publish(std::move(next));
  return removed;
}

void Table::Clear() {
  std::lock_guard writer(writer_mu_);
  auto next = BeginVersion(*head_);
  next->chunks_.clear();
  next->size_ = 0;
  Publish(std::move(next));
}

std::vector<size_t> Table::LookupIndices(size_t column,
                                         const Value& key) const {
  return Snapshot()->LookupIndices(column, key);
}

std::shared_ptr<const ColumnTable> Table::EnsureColumnar() const {
  return Snapshot()->EnsureColumnar();
}

size_t Table::size() const { return Snapshot()->size(); }

uint64_t Table::generation() const { return Snapshot()->version(); }

}  // namespace revere::storage
