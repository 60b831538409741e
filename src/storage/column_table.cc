#include "src/storage/column_table.h"

#include <algorithm>
#include <bit>

namespace revere::storage {

namespace {

/// Home slot of value hash `h` in a code table of `slots` (a power of
/// two): Fibonacci hashing takes the product's top bits, so ints — whose
/// Value::Hash is near-sequential — and hashes sharing low bits still
/// spread over the whole table.
size_t HomeSlot(uint64_t h, size_t slots) {
  return static_cast<size_t>((h * 0x9e3779b97f4a7c15ULL) >>
                             (64 - std::countr_zero(slots)));
}

/// The slot holding `v`'s code, or the empty slot where it would go.
/// `c.code_slots` must be non-empty and hold at least one empty slot.
size_t FindSlot(const ColumnTable::Column& c, const Value& v, uint64_t h) {
  const size_t mask = c.code_slots.size() - 1;
  size_t slot = HomeSlot(h, c.code_slots.size());
  while (true) {
    uint32_t code = c.code_slots[slot];
    if (code == ColumnTable::kNoCode ||
        (c.dict_hashes[code] == h && c.dict[code] == v)) {
      return slot;
    }
    slot = (slot + 1) & mask;
  }
}

/// Doubles `c`'s code table, re-seating every code by its cached hash.
void GrowCodeSlots(ColumnTable::Column* c) {
  c->code_slots.assign(std::max<size_t>(16, c->code_slots.size() * 2),
                       ColumnTable::kNoCode);
  const size_t mask = c->code_slots.size() - 1;
  for (uint32_t code = 0; code < c->dict.size(); ++code) {
    size_t slot = HomeSlot(c->dict_hashes[code], c->code_slots.size());
    while (c->code_slots[slot] != ColumnTable::kNoCode) {
      slot = (slot + 1) & mask;
    }
    c->code_slots[slot] = code;
  }
}

}  // namespace

std::shared_ptr<const ColumnTable> ColumnTable::Build(
    const std::vector<Row>& rows, size_t arity, uint64_t generation) {
  return Build(
      rows.size(), [&rows](size_t i) -> const Row& { return rows[i]; },
      arity, generation);
}

std::shared_ptr<const ColumnTable> ColumnTable::Build(
    size_t row_count, const std::function<const Row&(size_t)>& row_at,
    size_t arity, uint64_t generation) {
  auto ct = std::shared_ptr<ColumnTable>(new ColumnTable());
  ct->generation_ = generation;
  ct->row_count_ = row_count;
  ct->columns_.resize(arity);
  for (size_t col = 0; col < arity; ++col) {
    Column& c = ct->columns_[col];
    c.codes.reserve(row_count);
    // Encode: one code-table probe per cell; dictionaries stay dense
    // and deterministic because codes are assigned in row order.
    for (size_t r = 0; r < row_count; ++r) {
      const Value& v = row_at(r)[col];
      if ((c.dict.size() + 1) * 2 > c.code_slots.size()) GrowCodeSlots(&c);
      const uint64_t h = v.Hash();
      const size_t slot = FindSlot(c, v, h);
      if (c.code_slots[slot] == kNoCode) {
        c.code_slots[slot] = static_cast<uint32_t>(c.dict.size());
        c.dict.push_back(v);
        c.dict_hashes.push_back(h);
      }
      c.codes.push_back(c.code_slots[slot]);
    }
    // Grouped index: stable counting sort by code. Within a code, rows
    // stay in ascending order — the order a scan enumerates them in,
    // which the byte-identical-answers contract depends on.
    c.group_offsets.assign(c.dict.size() + 1, 0);
    for (uint32_t code : c.codes) ++c.group_offsets[code + 1];
    for (size_t i = 1; i < c.group_offsets.size(); ++i) {
      c.group_offsets[i] += c.group_offsets[i - 1];
    }
    c.group_rows.resize(c.codes.size());
    std::vector<uint32_t> cursor(c.group_offsets.begin(),
                                 c.group_offsets.end() - 1);
    for (uint32_t r = 0; r < c.codes.size(); ++r) {
      c.group_rows[cursor[c.codes[r]]++] = r;
    }
    // Growth left up to half of each dictionary unused; a snapshot
    // lives as long as its version, so trim it.
    c.dict.shrink_to_fit();
    c.dict_hashes.shrink_to_fit();
    ct->dict_entries_ += c.dict.size();
  }
  return ct;
}

uint32_t ColumnTable::CodeOf(size_t col, const Value& v) const {
  const Column& c = columns_[col];
  if (c.code_slots.empty()) return kNoCode;  // no rows, no codes
  return c.code_slots[FindSlot(c, v, v.Hash())];
}

}  // namespace revere::storage
