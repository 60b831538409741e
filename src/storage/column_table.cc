#include "src/storage/column_table.h"

namespace revere::storage {

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
    // Encode: one dictionary probe per cell; dictionaries stay dense
    // and deterministic because codes are assigned in row order.
    for (size_t r = 0; r < row_count; ++r) {
      const Row& row = row_at(r);
      auto [it, inserted] = c.code_of.emplace(
          row[col], static_cast<uint32_t>(c.dict.size()));
      if (inserted) c.dict.push_back(row[col]);
      c.codes.push_back(it->second);
    }
    // Grouped index: stable counting sort by code. Within a code, rows
    // stay in ascending order — the enumeration order every other
    // access path (LookupIndices chains, scans) also uses, which the
    // byte-identical-answers contract depends on.
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
    // Code-domain value hashes: dict_hashes[code] == dict[code].Hash(),
    // the per-column table the output boundary's hash mix reads.
    c.dict_hashes.reserve(c.dict.size());
    for (const Value& v : c.dict) c.dict_hashes.push_back(v.Hash());
    ct->dict_entries_ += c.dict.size();
  }
  return ct;
}

uint32_t ColumnTable::CodeOf(size_t col, const Value& v) const {
  const Column& c = columns_[col];
  auto it = c.code_of.find(v);
  return it == c.code_of.end() ? kNoCode : it->second;
}

}  // namespace revere::storage
