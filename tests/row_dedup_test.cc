// RowDedup unit tests (ISSUE 8): growth/rehash at capacity boundaries,
// first-occurrence-wins under adversarial hash collisions, claims near
// the kNoCode sentinel, and the code-domain hash path agreeing with the
// string-hash path — the invariant that lets one dedup table be shared
// across the map and columnar engines.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/query/row_dedup.h"
#include "src/storage/column_table.h"
#include "src/storage/value.h"

namespace revere::query {
namespace {

using storage::ColumnTable;
using storage::Row;
using storage::Value;

Row MakeRow(int a, int b) {
  return {Value(Numbered("k", a)), Value(Numbered("v", b))};
}

TEST(RowDedupTest, EmitMatchesUnorderedSetSemantics) {
  std::vector<Row> out;
  RowDedup dedup(&out);
  std::unordered_set<Row, storage::RowHash> reference;
  std::vector<Row> ref_order;
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    Row r = MakeRow(static_cast<int>(rng.Uniform(50)),
                    static_cast<int>(rng.Uniform(50)));
    bool ref_new = reference.insert(r).second;
    if (ref_new) ref_order.push_back(r);
    EXPECT_EQ(dedup.EmitIfNew(Row(r)), ref_new);
  }
  EXPECT_EQ(out, ref_order);
  EXPECT_EQ(dedup.size(), reference.size());
}

TEST(RowDedupTest, EmitReportsThePositionOfTheEqualRow) {
  // Emit is EmitIfNew plus the output position of the row equal to the
  // argument: the fresh one when appended, the first occurrence when
  // not — across Grow() calls, since positions never move. Emit with a
  // carried HashRow value must answer exactly as Emit that hashes.
  std::vector<Row> out;
  RowDedup dedup(&out);
  std::vector<Row> carried_out;
  RowDedup carried(&carried_out);
  const int kRows = 300;
  for (int i = 0; i < kRows; ++i) {
    auto [pos, inserted] = dedup.Emit(MakeRow(i, -i));
    EXPECT_TRUE(inserted);
    EXPECT_EQ(pos, static_cast<size_t>(i));
    Row row = MakeRow(i, -i);
    uint64_t h = storage::HashRow(row);
    EXPECT_EQ(carried.Emit(std::move(row), h), std::make_pair(pos, inserted));
  }
  for (int i = kRows - 1; i >= 0; --i) {
    Row dup = MakeRow(i, -i);
    auto [pos, inserted] = dedup.Emit(std::move(dup));
    EXPECT_FALSE(inserted);
    EXPECT_EQ(pos, static_cast<size_t>(i));
    EXPECT_EQ(dup, MakeRow(i, -i));  // a duplicate is left where it was
    Row carried_dup = MakeRow(i, -i);
    uint64_t h = storage::HashRow(carried_dup);
    EXPECT_EQ(carried.Emit(std::move(carried_dup), h),
              std::make_pair(pos, inserted));
    EXPECT_EQ(carried_dup, MakeRow(i, -i));
  }
  EXPECT_EQ(out.size(), static_cast<size_t>(kRows));
  EXPECT_EQ(carried_out, out);
}

TEST(RowDedupTest, GrowthAcrossCapacityBoundaries) {
  // The initial table is 64 slots with load factor < 1/2; inserting a
  // few thousand distinct rows forces multiple rehashes. Every row must
  // stay findable (no duplicate re-admitted) across each Grow().
  std::vector<Row> out;
  RowDedup dedup(&out);
  const int kRows = 5000;  // crosses 64->128->...->16384 slot boundaries
  for (int i = 0; i < kRows; ++i) {
    EXPECT_TRUE(dedup.EmitIfNew(MakeRow(i, i)));
  }
  EXPECT_EQ(out.size(), static_cast<size_t>(kRows));
  // Second pass: every row is a duplicate, straddling all rehash points.
  for (int i = 0; i < kRows; ++i) {
    EXPECT_FALSE(dedup.EmitIfNew(MakeRow(i, i)));
  }
  EXPECT_EQ(out.size(), static_cast<size_t>(kRows));
  for (int i = 0; i < kRows; ++i) EXPECT_EQ(out[i], MakeRow(i, i));
}

TEST(RowDedupTest, PreExistingRowsAreIndexed) {
  std::vector<Row> out = {MakeRow(1, 1), MakeRow(2, 2)};
  RowDedup dedup(&out);
  EXPECT_EQ(dedup.size(), 2u);
  EXPECT_FALSE(dedup.EmitIfNew(MakeRow(1, 1)));
  EXPECT_TRUE(dedup.EmitIfNew(MakeRow(3, 3)));
  EXPECT_EQ(out.size(), 3u);
}

TEST(RowDedupTest, ClaimFirstOccurrenceWinsUnderForcedCollisions) {
  // Adversarial collisions: every claim presents the SAME 64-bit hash,
  // so correctness rests entirely on the eq callback and probe chain.
  std::vector<Row> out;
  RowDedup dedup(&out);
  constexpr uint64_t kHash = 0x42;  // all rows collide
  std::vector<int> claimed_keys;
  auto claim = [&](int key) {
    int64_t idx = dedup.ClaimIfNew(kHash, [&](size_t i) {
      // Entries are pending (never materialized in this test), so
      // compare against our side record — the columnar boundary does
      // the same with code signatures.
      return claimed_keys[i] == key;
    });
    if (idx >= 0) {
      EXPECT_EQ(static_cast<size_t>(idx), claimed_keys.size());
      claimed_keys.push_back(key);
      out.push_back(MakeRow(key, key));  // materialize in claim order
    }
    return idx;
  };
  for (int round = 0; round < 3; ++round) {
    for (int key = 0; key < 200; ++key) {
      int64_t idx = claim(key);
      if (round == 0) {
        EXPECT_GE(idx, 0) << "first occurrence must claim";
      } else {
        EXPECT_EQ(idx, -1) << "repeat occurrence must hit the first claim";
      }
    }
  }
  EXPECT_EQ(out.size(), 200u);
  for (int key = 0; key < 200; ++key) EXPECT_EQ(out[key], MakeRow(key, key));
}

TEST(RowDedupTest, ClaimsNearTheNoCodeSentinel) {
  // Hashes derived from codes adjacent to kNoCode (UINT32_MAX) and the
  // all-ones / all-zeros hash patterns: slot masking and the 0-is-empty
  // table encoding must not confuse them.
  std::vector<Row> out;
  RowDedup dedup(&out);
  std::vector<uint64_t> hashes = {
      0u,
      ~uint64_t{0},
      static_cast<uint64_t>(ColumnTable::kNoCode),
      static_cast<uint64_t>(ColumnTable::kNoCode) - 1,
      HashStep(0, ColumnTable::kNoCode),
      63u,  // initial table size - 1: maps to the last slot
      64u,  // initial table size: wraps to slot 0
  };
  for (size_t i = 0; i < hashes.size(); ++i) {
    int64_t idx = dedup.ClaimIfNew(hashes[i], [&](size_t) { return true; });
    EXPECT_EQ(idx, static_cast<int64_t>(i));
    out.emplace_back();  // keep out in step with claims
  }
  // Re-claiming any of them must report duplicate (eq accepts).
  for (uint64_t h : hashes) {
    EXPECT_EQ(dedup.ClaimIfNew(h, [&](size_t) { return true; }), -1);
  }
  // Same hashes with an eq that always rejects: they are new entries.
  for (size_t i = 0; i < hashes.size(); ++i) {
    EXPECT_GE(dedup.ClaimIfNew(hashes[i], [&](size_t) { return false; }), 0);
    out.emplace_back();
  }
}

TEST(RowDedupTest, CodeDomainHashAgreesWithStringHashPath) {
  // Chain HashStep over per-column dictionary value hashes — exactly
  // what the columnar output boundary does — and verify it reproduces
  // storage::HashRow of the decoded row bit for bit.
  std::vector<Row> rows = {
      {Value("ann"), Value("db"), Value(7)},
      {Value("bob"), Value("ir"), Value(3)},
      {Value("ann"), Value("ir"), Value(7)},
      {Value(), Value(1.5), Value(true)},
  };
  auto ct = ColumnTable::Build(rows, 3, /*generation=*/1);
  for (size_t r = 0; r < rows.size(); ++r) {
    uint64_t h = rows[r].size();  // HashRow seed: the arity
    for (size_t c = 0; c < 3; ++c) {
      const auto& col = ct->column(c);
      h = HashStep(h, col.dict_hashes[col.codes[r]]);
    }
    EXPECT_EQ(h, storage::HashRow(rows[r])) << "row " << r;
  }
}

TEST(RowDedupTest, MixedEmitAndClaimInteroperate) {
  // A union whose first member runs on the map engine (EmitIfNew,
  // string hashes) and second on the columnar engine (ClaimIfNew, code
  // hashes) shares one dedup: cross-path duplicates must be caught.
  std::vector<Row> rows = {{Value("x"), Value("y")}, {Value("z"), Value("w")}};
  auto ct = ColumnTable::Build(rows, 2, 1);
  std::vector<Row> out;
  RowDedup dedup(&out);
  ASSERT_TRUE(dedup.EmitIfNew(Row(rows[0])));  // string-hash path
  // Code-domain claim of the same row must collide and compare equal.
  uint64_t h = 2;
  h = HashStep(h, ct->column(0).dict_hashes[ct->column(0).codes[0]]);
  h = HashStep(h, ct->column(1).dict_hashes[ct->column(1).codes[0]]);
  EXPECT_EQ(dedup.ClaimIfNew(
                h, [&](size_t i) { return out[i] == rows[0]; }),
            -1);
  // And a genuinely new row claims index 1.
  uint64_t h2 = 2;
  h2 = HashStep(h2, ct->column(0).dict_hashes[ct->column(0).codes[1]]);
  h2 = HashStep(h2, ct->column(1).dict_hashes[ct->column(1).codes[1]]);
  EXPECT_EQ(dedup.ClaimIfNew(
                h2, [&](size_t i) { return out[i] == rows[1]; }),
            1);
  out.push_back(rows[1]);
  EXPECT_EQ(out.size(), 2u);
}

}  // namespace
}  // namespace revere::query
