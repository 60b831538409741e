#include "src/query/row_dedup.h"

namespace revere::query {

using storage::Row;

RowDedup::RowDedup(std::vector<Row>* out) : out_(out) {
  size_t slots = 64;
  while (slots < out_->size() * 2) slots *= 2;
  table_.assign(slots, 0);
  mask_ = slots - 1;
  hashes_.reserve(out_->size());
  for (size_t i = 0; i < out_->size(); ++i) {
    hashes_.push_back(storage::HashRow((*out_)[i]));
    InsertIndexed(hashes_.back(), i);
  }
}

void RowDedup::Grow() {
  table_.assign(table_.size() * 2, 0);
  mask_ = table_.size() - 1;
  // Re-seat every row by its cached hash — row contents untouched.
  for (size_t i = 0; i < hashes_.size(); ++i) {
    size_t slot = hashes_[i] & mask_;
    while (table_[slot] != 0) slot = (slot + 1) & mask_;
    table_[slot] = static_cast<uint32_t>(i + 1);
  }
}

bool RowDedup::InsertIndexed(uint64_t h, size_t index) {
  size_t slot = h & mask_;
  while (true) {
    uint32_t e = table_[slot];
    if (e == 0) {
      table_[slot] = static_cast<uint32_t>(index + 1);
      return true;
    }
    if (hashes_[e - 1] == h && (*out_)[e - 1] == (*out_)[index]) return false;
    slot = (slot + 1) & mask_;
  }
}

std::pair<size_t, bool> RowDedup::Emit(Row&& r, uint64_t h) {
  // Keep load factor under 1/2 so linear probes stay short.
  if ((hashes_.size() + 1) * 2 > table_.size()) Grow();
  size_t slot = h & mask_;
  while (true) {
    uint32_t e = table_[slot];
    if (e == 0) {
      out_->push_back(std::move(r));
      hashes_.push_back(h);
      table_[slot] = static_cast<uint32_t>(out_->size());
      return {out_->size() - 1, true};
    }
    if (hashes_[e - 1] == h && (*out_)[e - 1] == r) return {e - 1, false};
    slot = (slot + 1) & mask_;
  }
}

}  // namespace revere::query
