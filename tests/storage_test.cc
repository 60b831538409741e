#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/storage/catalog.h"
#include "src/storage/schema.h"
#include "src/storage/table.h"
#include "src/storage/value.h"

namespace revere::storage {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(true).type(), ValueType::kBool);
  EXPECT_EQ(Value(int64_t{7}).type(), ValueType::kInt);
  EXPECT_EQ(Value(3.5).type(), ValueType::kDouble);
  EXPECT_EQ(Value("hi").type(), ValueType::kString);
  EXPECT_EQ(Value("hi").as_string(), "hi");
  EXPECT_EQ(Value(int64_t{7}).as_int(), 7);
}

TEST(ValueTest, OrderingWithinType) {
  EXPECT_LT(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_LT(Value("a"), Value("b"));
  EXPECT_FALSE(Value("b") < Value("a"));
}

TEST(ValueTest, NumericCrossTypeOrdering) {
  EXPECT_LT(Value(int64_t{1}), Value(1.5));
  EXPECT_LT(Value(0.5), Value(int64_t{1}));
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_LT(Value(), Value(int64_t{0}));
  EXPECT_LT(Value(), Value(""));
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value().ToString(), "NULL");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value(int64_t{42}).ToString(), "42");
  EXPECT_EQ(Value("x").ToString(), "x");
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value("abc").Hash(), Value("abc").Hash());
  EXPECT_EQ(Value(int64_t{5}).Hash(), Value(int64_t{5}).Hash());
  // Different types with "same" content should not collide by design.
  EXPECT_NE(Value(int64_t{0}).Hash(), Value(false).Hash());
}

TEST(SchemaTest, ColumnIndexAndValidate) {
  TableSchema s("course", {{"id", ValueType::kInt},
                           {"title", ValueType::kString},
                           {"size", ValueType::kInt}});
  EXPECT_EQ(s.ColumnIndex("title").value(), 1u);
  EXPECT_FALSE(s.ColumnIndex("nope").has_value());
  EXPECT_TRUE(
      s.ValidateRow({Value(int64_t{1}), Value("DB"), Value(int64_t{30})})
          .ok());
  // Wrong arity.
  EXPECT_FALSE(s.ValidateRow({Value(int64_t{1})}).ok());
  // Wrong type.
  EXPECT_FALSE(
      s.ValidateRow({Value("x"), Value("DB"), Value(int64_t{30})}).ok());
  // Nulls allowed anywhere.
  EXPECT_TRUE(s.ValidateRow({Value(), Value(), Value()}).ok());
}

TEST(SchemaTest, AllStringsAndToString) {
  TableSchema s = TableSchema::AllStrings("t", {"a", "b"});
  EXPECT_EQ(s.arity(), 2u);
  EXPECT_EQ(s.ToString(), "t(a:STRING, b:STRING)");
}

std::unique_ptr<Table> MakeCourses() {
  // By pointer: MVCC tables are pinned by address (snapshots key on
  // Table*), so Table itself neither copies nor moves (ISSUE 10).
  auto t = std::make_unique<Table>(
      TableSchema("course", {{"id", ValueType::kInt},
                             {"title", ValueType::kString},
                             {"dept", ValueType::kString},
                             {"size", ValueType::kInt}}));
  EXPECT_TRUE(t->Insert({Value(1), Value("Databases"), Value("CSE"),
                         Value(120)})
                  .ok());
  EXPECT_TRUE(
      t->Insert({Value(2), Value("Compilers"), Value("CSE"), Value(60)})
          .ok());
  EXPECT_TRUE(t->Insert({Value(3), Value("Ancient History"), Value("HIST"),
                         Value(45)})
                  .ok());
  EXPECT_TRUE(t->Insert({Value(4), Value("Medieval History"), Value("HIST"),
                         Value(30)})
                  .ok());
  return t;
}

/// Matching rows by value, via LookupIndices on one pinned snapshot —
/// the copying convenience the deleted Table::Lookup used to provide
/// (ISSUE 7), now reading indices and rows from the same version
/// (ISSUE 10: rows() is gone; snapshots are the only row access).
std::vector<Row> LookupRows(const Table& t, size_t col, const Value& key) {
  std::vector<Row> out;
  auto snap = t.Snapshot();
  for (size_t i : snap->LookupIndices(col, key)) out.push_back(snap->row(i));
  return out;
}

TEST(TableTest, InsertValidatesSchema) {
  auto t_owner = MakeCourses();
  Table& t = *t_owner;
  EXPECT_EQ(t.size(), 4u);
  EXPECT_FALSE(t.Insert({Value("bad"), Value("x"), Value("y"), Value(1)})
                   .ok());
}

// ISSUE 7 regression: InsertAll must be all-or-nothing. The previous
// version validated row by row while inserting, so a batch with an
// invalid row in the middle landed its prefix and reported an error —
// with no indication of how many rows had been applied.
TEST(TableTest, InsertAllIsAllOrNothing) {
  auto t_owner = MakeCourses();
  Table& t = *t_owner;
  EXPECT_TRUE(t.LookupIndices(2, Value("MATH")).empty());
  uint64_t before_gen = t.generation();
  Status failed = t.InsertAll(
      {{Value(5), Value("Algebra"), Value("MATH"), Value(90)},
       {Value("bad"), Value("x"), Value("y"), Value(1)},  // invalid
       {Value(6), Value("Topology"), Value("MATH"), Value(15)}});
  EXPECT_FALSE(failed.ok());
  // Nothing landed: size, generation, lookups all untouched.
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.generation(), before_gen);
  EXPECT_TRUE(t.LookupIndices(2, Value("MATH")).empty());

  // The same batch without the poison row lands atomically, with one
  // generation bump and every row found by lookup.
  ASSERT_TRUE(t.InsertAll({{Value(5), Value("Algebra"), Value("MATH"),
                            Value(90)},
                           {Value(6), Value("Topology"), Value("MATH"),
                            Value(15)}})
                  .ok());
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.generation(), before_gen + 1);
  EXPECT_EQ(t.LookupIndices(2, Value("MATH")).size(), 2u);
}

TEST(TableTest, IndexedLookup) {
  auto t_owner = MakeCourses();
  Table& t = *t_owner;
  auto rows = LookupRows(t, 2, Value("CSE"));
  EXPECT_EQ(rows.size(), 2u);
  EXPECT_EQ(LookupRows(t, 2, Value("MATH")).size(), 0u);
  // Every column carries the grouped index.
  EXPECT_EQ(LookupRows(t, 1, Value("Compilers")).size(), 1u);
}

TEST(TableTest, IndexMaintainedAcrossInsert) {
  auto t_owner = MakeCourses();
  Table& t = *t_owner;
  EXPECT_TRUE(LookupRows(t, 2, Value("MATH")).empty());
  ASSERT_TRUE(
      t.Insert({Value(5), Value("Calculus"), Value("MATH"), Value(200)})
          .ok());
  EXPECT_EQ(LookupRows(t, 2, Value("MATH")).size(), 1u);
}

TEST(TableTest, DeleteAndReindex) {
  auto t_owner = MakeCourses();
  Table& t = *t_owner;
  EXPECT_EQ(LookupRows(t, 2, Value("CSE")).size(), 2u);
  Row victim{Value(2), Value("Compilers"), Value("CSE"), Value(60)};
  ASSERT_TRUE(t.Delete(victim).ok());
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(LookupRows(t, 2, Value("CSE")).size(), 1u);
  EXPECT_FALSE(t.Delete(victim).ok());  // already gone
}

TEST(TableTest, DeleteWhere) {
  auto t_owner = MakeCourses();
  Table& t = *t_owner;
  EXPECT_EQ(t.DeleteWhere(2, Value("HIST")), 2u);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_TRUE(LookupRows(t, 2, Value("HIST")).empty());
}

TEST(TableTest, LookupIndicesMemoizesOnConstTable) {
  auto t_owner = MakeCourses();
  const Table& ct = *t_owner;
  auto version = ct.Snapshot();
  // The first lookup builds the version's columnar snapshot; later
  // lookups, on any column, probe that same snapshot.
  EXPECT_EQ(LookupRows(ct, 2, Value("CSE")).size(), 2u);
  auto built = version->EnsureColumnar();
  EXPECT_EQ(ct.LookupIndices(0, Value(2)), (std::vector<size_t>{1}));
  EXPECT_EQ(version->EnsureColumnar().get(), built.get());
  // An out-of-range column matches nothing.
  EXPECT_TRUE(ct.LookupIndices(99, Value("CSE")).empty());
}

TEST(TableTest, RowsInsertedAfterLookupAreFound) {
  auto t_owner = MakeCourses();
  Table& t = *t_owner;
  EXPECT_TRUE(t.LookupIndices(2, Value("MATH")).empty());
  ASSERT_TRUE(
      t.Insert({Value(5), Value("Algebra"), Value("MATH"), Value(200)})
          .ok());
  auto snap = t.Snapshot();
  auto hits = snap->LookupIndices(2, Value("MATH"));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(snap->row(hits[0])[1].as_string(), "Algebra");
  // And after a delete publishes a new version, still consistent.
  ASSERT_TRUE(t.Delete({Value(1), Value("Databases"), Value("CSE"),
                        Value(120)})
                  .ok());
  EXPECT_EQ(t.LookupIndices(2, Value("MATH")).size(), 1u);
  EXPECT_EQ(t.LookupIndices(2, Value("CSE")).size(), 1u);
}

TEST(TableTest, LookupIndicesAgreesWithScanRandomized) {
  Rng rng(2003);
  auto random_row = [&rng] {
    return Row{Value(static_cast<int64_t>(rng.Index(25))),
               Value("s" + std::to_string(rng.Index(10))),
               Value(static_cast<int64_t>(rng.Index(5)))};
  };
  for (int round = 0; round < 6; ++round) {
    Table t(TableSchema("rand", {{"a", ValueType::kInt},
                                 {"b", ValueType::kString},
                                 {"c", ValueType::kInt}}));
    size_t n = 20 + rng.Index(180);
    for (size_t i = 0; i < n; ++i) ASSERT_TRUE(t.Insert(random_row()).ok());
    // Every version the mutations below publish: each column's grouped
    // index must agree with a scan of that version, for keys that occur
    // and keys that do not.
    for (int step = 0; step < 8; ++step) {
      auto snap = t.Snapshot();
      for (size_t col = 0; col < 3; ++col) {
        for (int probe = 0; probe < 15; ++probe) {
          Value key = col == 1
                          ? Value("s" + std::to_string(rng.Index(12)))
                          : Value(static_cast<int64_t>(rng.Index(30)));
          std::vector<size_t> expected;
          for (size_t i = 0; i < snap->size(); ++i) {
            if (snap->row(i)[col] == key) expected.push_back(i);
          }
          EXPECT_EQ(snap->LookupIndices(col, key), expected)
              << "round " << round << " step " << step << " col " << col
              << " key " << key.ToString();
        }
      }
      switch (rng.Index(3)) {
        case 0:
          ASSERT_TRUE(t.Insert(random_row()).ok());
          break;
        case 1:
          if (snap->size() > 0) {
            ASSERT_TRUE(t.Delete(snap->row(rng.Index(snap->size()))).ok());
          }
          break;
        default:
          t.DeleteWhere(2, Value(static_cast<int64_t>(rng.Index(5))));
          break;
      }
    }
  }
}

// ISSUE 5 satellite, re-aimed by ISSUE 10: delete, look up (the new
// version builds its columnar snapshot lazily on first probe),
// reinsert, look up again — through two columns, for LookupIndices and
// DeleteWhere.
TEST(TableTest, LookupIndicesStaleAfterDeleteThenReinsert) {
  auto t_owner = MakeCourses();
  Table& t = *t_owner;
  EXPECT_EQ(t.LookupIndices(2, Value("CSE")).size(), 2u);

  ASSERT_TRUE(
      t.Delete({Value(1), Value("Databases"), Value("CSE"), Value(120)})
          .ok());
  // First post-delete probe builds the new version's snapshot.
  auto after_delete = t.Snapshot();
  std::vector<size_t> cse = after_delete->LookupIndices(2, Value("CSE"));
  ASSERT_EQ(cse.size(), 1u);
  EXPECT_EQ(after_delete->row(cse[0])[1], Value("Compilers"));

  ASSERT_TRUE(
      t.Insert({Value(5), Value("Networks"), Value("CSE"), Value(80)}).ok());
  // Reinsert publishes yet another version, found by lookup.
  auto after_insert = t.Snapshot();
  cse = after_insert->LookupIndices(2, Value("CSE"));
  ASSERT_EQ(cse.size(), 2u);
  EXPECT_EQ(after_insert->row(cse[1])[1], Value("Networks"));

  // Another column must see the same post-delete rows.
  EXPECT_EQ(t.LookupIndices(1, Value("Databases")).size(), 0u);
  EXPECT_EQ(t.LookupIndices(1, Value("Networks")).size(), 1u);
}

TEST(TableTest, LookupStaleAfterDeleteWhereThenReinsert) {
  auto t_owner = MakeCourses();
  Table& t = *t_owner;
  EXPECT_EQ(LookupRows(t, 2, Value("HIST")).size(), 2u);
  EXPECT_EQ(t.DeleteWhere(2, Value("HIST")), 2u);
  EXPECT_EQ(LookupRows(t, 2, Value("HIST")).size(), 0u);
  EXPECT_EQ(LookupRows(t, 2, Value("CSE")).size(), 2u);

  ASSERT_TRUE(t.Insert({Value(6), Value("Modern History"), Value("HIST"),
                        Value(25)})
                  .ok());
  std::vector<Row> hist = LookupRows(t, 2, Value("HIST"));
  ASSERT_EQ(hist.size(), 1u);
  EXPECT_EQ(hist[0][1], Value("Modern History"));
  // Column 1 lookups agree after the same churn.
  EXPECT_EQ(LookupRows(t, 1, Value("Ancient History")).size(), 0u);
  EXPECT_EQ(LookupRows(t, 1, Value("Modern History")).size(), 1u);
  EXPECT_EQ(t.size(), 3u);
}

// ISSUE 10: the move contract (and its "quiescence required" caveat)
// is gone — tables are pinned by address. A snapshot pinned before a
// mutation keeps answering from its own frozen state.
TEST(TableTest, PinnedSnapshotSurvivesMutations) {
  auto t_owner = MakeCourses();
  Table& t = *t_owner;
  auto before = t.Snapshot();
  EXPECT_EQ(LookupRows(t, 2, Value("CSE")).size(), 2u);

  ASSERT_TRUE(
      t.Delete({Value(1), Value("Databases"), Value("CSE"), Value(120)})
          .ok());
  // The live table answers from the post-delete version...
  EXPECT_EQ(LookupRows(t, 2, Value("CSE")).size(), 1u);
  EXPECT_EQ(t.size(), 3u);
  // ...while the pinned snapshot still sees the pre-delete state, with
  // its own (lazily built, per-version) snapshot of the old rows.
  EXPECT_EQ(before->size(), 4u);
  EXPECT_EQ(before->LookupIndices(2, Value("CSE")).size(), 2u);
  EXPECT_EQ(before->row(0)[1], Value("Databases"));
}

// ---------------------------------------------------------------------
// ColumnTable (ISSUE 7): dictionary-encoded columnar snapshots.
// ---------------------------------------------------------------------

TEST(ColumnTableTest, DictionaryRoundTripsEveryCell) {
  Table t(TableSchema::AllStrings("s", {"a", "b"}));
  // Duplicates and the empty string are the encoding edge cases: dups
  // must share one code, "" must be a legitimate dictionary entry.
  ASSERT_TRUE(t.InsertAll({{Value("x"), Value("")},
                           {Value("y"), Value("x")},
                           {Value("x"), Value("")},
                           {Value(""), Value("y")}})
                  .ok());
  auto snap = t.EnsureColumnar();
  ASSERT_EQ(snap->row_count(), 4u);
  ASSERT_EQ(snap->column_count(), 2u);
  // Every cell decodes back to the stored value.
  auto rows = t.Snapshot();
  for (size_t r = 0; r < rows->size(); ++r) {
    for (size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(snap->ValueAt(c, r), rows->row(r)[c]) << r << "," << c;
    }
  }
  // Column 0 holds three distinct values; the duplicate shares a code.
  EXPECT_EQ(snap->column(0).dict.size(), 3u);
  EXPECT_EQ(snap->column(0).codes[0], snap->column(0).codes[2]);
  // First-appearance code assignment is deterministic.
  EXPECT_EQ(snap->CodeOf(0, Value("x")), 0u);
  EXPECT_EQ(snap->CodeOf(0, Value("y")), 1u);
  EXPECT_EQ(snap->CodeOf(0, Value("")), 2u);
  EXPECT_EQ(snap->CodeOf(0, Value("absent")), ColumnTable::kNoCode);
  // Codes are per-column: "" exists in both columns with its own code.
  EXPECT_EQ(snap->CodeOf(1, Value("")), 0u);
  EXPECT_EQ(snap->dict_entries(), 3u + 3u);

  // A null cell beside "" in one column: distinct values, distinct
  // codes, each found by CodeOf.
  ASSERT_TRUE(t.InsertAll({{Value(), Value("")}}).ok());
  auto with_null = t.EnsureColumnar();
  EXPECT_EQ(with_null->CodeOf(0, Value()), 3u);
  EXPECT_EQ(with_null->CodeOf(0, Value("")), 2u);
  EXPECT_EQ(with_null->ValueAt(0, 4), Value());

  // 10,000 distinct strings: the code table grows many times, and
  // every value still finds its own code; absent strings find none.
  std::vector<Row> many;
  for (int i = 0; i < 10000; ++i) {
    many.push_back({Value("v" + std::to_string(i))});
  }
  auto big = ColumnTable::Build(many, 1, 0);
  ASSERT_EQ(big->column(0).dict.size(), 10000u);
  for (uint32_t i = 0; i < 10000; ++i) {
    ASSERT_EQ(big->CodeOf(0, many[i][0]), i) << i;
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(big->CodeOf(0, Value("absent" + std::to_string(i))),
              ColumnTable::kNoCode);
  }

  // An empty table has no codes at all.
  Table empty(TableSchema::AllStrings("e", {"a"}));
  EXPECT_EQ(empty.EnsureColumnar()->CodeOf(0, Value("x")),
            ColumnTable::kNoCode);
}

TEST(ColumnTableTest, GroupedIndexListsRowsAscending) {
  Table t(TableSchema::AllStrings("s", {"a"}));
  ASSERT_TRUE(t.InsertAll({{Value("p")},
                           {Value("q")},
                           {Value("p")},
                           {Value("r")},
                           {Value("p")}})
                  .ok());
  auto snap = t.EnsureColumnar();
  const auto& col = snap->column(0);
  uint32_t p = snap->CodeOf(0, Value("p"));
  std::vector<uint32_t> group(
      col.group_rows.begin() + col.group_offsets[p],
      col.group_rows.begin() + col.group_offsets[p + 1]);
  // Ascending row order; LookupIndices returns exactly this range.
  EXPECT_EQ(group, (std::vector<uint32_t>{0, 2, 4}));
  auto via_index = t.LookupIndices(0, Value("p"));
  ASSERT_EQ(via_index.size(), group.size());
  for (size_t i = 0; i < group.size(); ++i) {
    EXPECT_EQ(static_cast<size_t>(group[i]), via_index[i]);
  }
}

TEST(ColumnTableTest, ExactSizesAndValueHashes) {
  Table t(TableSchema::AllStrings("s", {"a", "b"}));
  ASSERT_TRUE(t.InsertAll({{Value("x"), Value("u")},
                           {Value("y"), Value("u")},
                           {Value("x"), Value("v")}})
                  .ok());
  auto snap = t.EnsureColumnar();
  for (size_t c = 0; c < 2; ++c) {
    const auto& col = snap->column(c);
    // One entry per row / per distinct value: no tail past the data.
    ASSERT_EQ(col.codes.size(), snap->row_count());
    ASSERT_EQ(col.group_rows.size(), snap->row_count());
    ASSERT_EQ(col.dict_hashes.size(), col.dict.size());
    // dict_hashes[code] is exactly the dictionary value's hash — the
    // table the code-domain row hashing gathers through.
    for (size_t code = 0; code < col.dict.size(); ++code) {
      EXPECT_EQ(col.dict_hashes[code], col.dict[code].Hash());
    }
  }
}

TEST(ColumnTableTest, GenerationDisciplineAndImmutability) {
  auto t_owner = MakeCourses();
  Table& t = *t_owner;
  auto snap = t.EnsureColumnar();
  // Memoized: a second call returns the identical snapshot.
  EXPECT_EQ(t.EnsureColumnar().get(), snap.get());
  EXPECT_EQ(snap->generation(), t.generation());

  // Every mutation invalidates; the next call rebuilds fresh.
  ASSERT_TRUE(
      t.Delete({Value(1), Value("Databases"), Value("CSE"), Value(120)})
          .ok());
  auto rebuilt = t.EnsureColumnar();
  EXPECT_NE(rebuilt.get(), snap.get());
  EXPECT_EQ(rebuilt->generation(), t.generation());
  EXPECT_EQ(rebuilt->row_count(), 3u);
  // The old snapshot is frozen at its generation: still 4 rows, still
  // decoding the deleted row — safe for readers that grabbed it before
  // the mutation.
  EXPECT_EQ(snap->row_count(), 4u);
  EXPECT_EQ(snap->ValueAt(1, 0), Value("Databases"));

  // DeleteWhere, Insert, InsertAll, and Clear all bump the generation.
  uint64_t g = t.generation();
  EXPECT_EQ(t.DeleteWhere(2, Value("HIST")), 2u);
  EXPECT_EQ(t.generation(), g + 1);
  EXPECT_EQ(t.DeleteWhere(2, Value("HIST")), 0u);  // no-op: no bump
  EXPECT_EQ(t.generation(), g + 1);
  ASSERT_TRUE(
      t.Insert({Value(7), Value("Logic"), Value("PHIL"), Value(25)}).ok());
  EXPECT_EQ(t.generation(), g + 2);
  t.Clear();
  EXPECT_EQ(t.generation(), g + 3);
  EXPECT_EQ(t.EnsureColumnar()->row_count(), 0u);
}

TEST(CatalogTest, CreateGetDrop) {
  Catalog c;
  auto created = c.CreateTable(TableSchema::AllStrings("t1", {"a"}));
  ASSERT_TRUE(created.ok());
  EXPECT_TRUE(c.HasTable("t1"));
  EXPECT_FALSE(c.CreateTable(TableSchema::AllStrings("t1", {"a"})).ok());
  EXPECT_TRUE(c.GetTable("t1").ok());
  EXPECT_FALSE(c.GetTable("missing").ok());
  EXPECT_TRUE(c.DropTable("t1").ok());
  EXPECT_FALSE(c.DropTable("t1").ok());
  EXPECT_EQ(c.table_count(), 0u);
}

}  // namespace
}  // namespace revere::storage
