// Tests for ISSUE 10: MVCC copy-on-write versioned snapshots.
//
// Three layers of coverage:
//   1. Structural units — chunk path-copying and structure sharing
//      (observable through row *addresses*: an untouched chunk is the
//      same RowChunk object in both versions), snapshot immutability,
//      the version chain, per-version columnar memoization, and
//      SnapshotSet's first-pin-wins contract.
//   2. Concurrency regressions for the unguarded rows() race sites
//      the MVCC refactor fixed for real: view maintenance (views.cc
//      read live rows twice with no lock) and network_config::Save
//      (serialized rows unlocked). These are the TSan workload — the
//      CI thread-sanitizer leg runs this binary; pre-fix, each one was
//      a detectable data race.
//   3. The C4-under-load differential: a writer thread applies
//      insert-only updategram batches while answers stream; every
//      answer must equal some prefix-consistent version of the data,
//      and the matched prefixes advance monotonically.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/piazza/network_config.h"
#include "src/piazza/pdms.h"
#include "src/piazza/views.h"
#include "src/query/cq.h"
#include "src/storage/catalog.h"
#include "src/storage/table.h"
#include "src/storage/table_version.h"

namespace revere {
namespace {

using piazza::PdmsNetwork;
using piazza::Updategram;
using query::ConjunctiveQuery;
using storage::Catalog;
using storage::kChunkRows;
using storage::Row;
using storage::SnapshotSet;
using storage::Table;
using storage::TableSchema;
using storage::TableVersion;
using storage::Value;

Row IntRow(int64_t a, int64_t b) { return {Value(a), Value(b)}; }

/// A two-int-column table with rows {i, i} for i in [0, n): equal
/// columns make row tearing detectable in the concurrent tests.
std::unique_ptr<Table> MakePairs(size_t n) {
  auto t = std::make_unique<Table>(
      TableSchema("pairs", {{"a", storage::ValueType::kInt},
                            {"b", storage::ValueType::kInt}}));
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(IntRow(static_cast<int64_t>(i), static_cast<int64_t>(i)));
  }
  EXPECT_TRUE(t->InsertAll(rows).ok());
  return t;
}

// ------------------------------------------------- structure sharing

TEST(SnapshotTest, AppendPathCopiesOnlyTheTailChunk) {
  // One full chunk plus a partial tail.
  auto t = MakePairs(kChunkRows + 40);
  auto before = t->Snapshot();
  ASSERT_TRUE(t->Insert(IntRow(9999, 9999)).ok());
  auto after = t->Snapshot();

  EXPECT_EQ(before->size(), kChunkRows + 40);
  EXPECT_EQ(after->size(), kChunkRows + 41);
  // Chunk 0 was untouched: both versions alias the SAME RowChunk, so
  // row 0 is literally the same object in memory.
  EXPECT_EQ(&before->row(0), &after->row(0));
  EXPECT_EQ(&before->row(kChunkRows - 1), &after->row(kChunkRows - 1));
  // The tail chunk was path-copied: same value, different object.
  EXPECT_NE(&before->row(kChunkRows + 39), &after->row(kChunkRows + 39));
  EXPECT_EQ(before->row(kChunkRows + 39), after->row(kChunkRows + 39));
}

TEST(SnapshotTest, BatchInsertCopiesTheSharedTailAtMostOnce) {
  auto t = MakePairs(10);
  auto before = t->Snapshot();
  // A batch spanning several chunks still leaves `before` untouched and
  // lands in one published version.
  std::vector<Row> batch;
  for (int i = 0; i < 600; ++i) batch.push_back(IntRow(1000 + i, 1000 + i));
  ASSERT_TRUE(t->InsertAll(batch).ok());
  auto after = t->Snapshot();
  EXPECT_EQ(before->size(), 10u);
  EXPECT_EQ(after->size(), 610u);
  EXPECT_EQ(after->version(), before->version() + 1);
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(after->row(i), before->row(i));
}

TEST(SnapshotTest, DeleteSharesEveryChunkBeforeTheVictim) {
  // Three full chunks; delete a row in the middle chunk.
  auto t = MakePairs(3 * kChunkRows);
  auto before = t->Snapshot();
  size_t victim = kChunkRows + 7;
  ASSERT_TRUE(t->Delete(IntRow(static_cast<int64_t>(victim),
                               static_cast<int64_t>(victim)))
                  .ok());
  auto after = t->Snapshot();

  EXPECT_EQ(after->size(), 3 * kChunkRows - 1);
  // Chunk 0 precedes the victim's chunk: shared by reference.
  EXPECT_EQ(&before->row(0), &after->row(0));
  // From the victim's chunk on, rows are re-packed (suffix rebuilt).
  for (size_t i = 0; i < after->size(); ++i) {
    size_t src = i < victim ? i : i + 1;
    EXPECT_EQ(after->row(i), before->row(src)) << "row " << i;
  }
  // The pinned pre-delete version still holds every original row.
  EXPECT_EQ(before->size(), 3 * kChunkRows);
  EXPECT_EQ(before->row(victim)[0].as_int(),
            static_cast<int64_t>(victim));
}

TEST(SnapshotTest, PinnedVersionIsImmutableUnderEveryMutation) {
  auto t = MakePairs(20);
  auto pinned = t->Snapshot();
  std::vector<Row> original = pinned->CopyRows();

  ASSERT_TRUE(t->Insert(IntRow(100, 100)).ok());
  ASSERT_TRUE(t->Delete(IntRow(3, 3)).ok());
  EXPECT_EQ(t->DeleteWhere(0, Value(int64_t{5})), 1u);
  t->Clear();

  EXPECT_EQ(t->size(), 0u);
  EXPECT_EQ(pinned->size(), 20u);
  EXPECT_EQ(pinned->CopyRows(), original);
}

TEST(SnapshotTest, VersionChainCountsPublishedMutationsOnly) {
  auto t = MakePairs(0);
  EXPECT_EQ(t->Snapshot()->version(), 0u);
  ASSERT_TRUE(t->Insert(IntRow(1, 1)).ok());
  EXPECT_EQ(t->Snapshot()->version(), 1u);
  // Failed and empty operations publish nothing.
  EXPECT_FALSE(t->Insert({Value(int64_t{1})}).ok());  // arity mismatch
  EXPECT_TRUE(t->InsertAll({}).ok());
  EXPECT_FALSE(t->Delete(IntRow(42, 42)).ok());
  EXPECT_EQ(t->DeleteWhere(0, Value(int64_t{42})), 0u);
  EXPECT_EQ(t->Snapshot()->version(), 1u);
  // Lookups and the columnar build they trigger are not data mutations.
  EXPECT_EQ(t->LookupIndices(0, Value(int64_t{1})).size(), 1u);
  EXPECT_EQ(t->Snapshot()->version(), 1u);
  t->Clear();
  EXPECT_EQ(t->Snapshot()->version(), 2u);
}

// ------------------------------------------- per-version memoization

TEST(SnapshotTest, LookupIndicesAnswerFromEachPinnedVersion) {
  auto t = MakePairs(50);
  auto old_version = t->Snapshot();
  // The first probe builds the old version's columnar snapshot.
  EXPECT_EQ(old_version->LookupIndices(0, Value(int64_t{7})),
            (std::vector<size_t>{7}));

  ASSERT_TRUE(t->Insert(IntRow(7, 70)).ok());
  auto new_version = t->Snapshot();
  EXPECT_EQ(new_version->LookupIndices(0, Value(int64_t{7})),
            (std::vector<size_t>{7, 50}));
  EXPECT_NE(new_version->EnsureColumnar().get(),
            old_version->EnsureColumnar().get());
  // The old version's memoized snapshot did not move.
  EXPECT_EQ(old_version->LookupIndices(0, Value(int64_t{7})),
            (std::vector<size_t>{7}));
}

TEST(SnapshotTest, ColumnarSnapshotMemoizedPerVersion) {
  auto t = MakePairs(30);
  auto v1 = t->Snapshot();
  auto col_a = v1->EnsureColumnar();
  auto col_b = v1->EnsureColumnar();
  EXPECT_EQ(col_a.get(), col_b.get());  // built once per version

  ASSERT_TRUE(t->Insert(IntRow(30, 30)).ok());
  auto col_c = t->Snapshot()->EnsureColumnar();
  EXPECT_NE(col_a.get(), col_c.get());
  EXPECT_EQ(col_a->row_count(), 30u);
  EXPECT_EQ(col_c->row_count(), 31u);
  // The old version keeps serving its own columnar snapshot.
  EXPECT_EQ(v1->EnsureColumnar().get(), col_a.get());
}

TEST(SnapshotTest, SnapshotSetFirstPinWins) {
  auto t = MakePairs(5);
  auto u = MakePairs(3);
  SnapshotSet pins;
  EXPECT_EQ(pins.Get(*t), nullptr);
  auto first = pins.Pin(*t);
  EXPECT_EQ(first->size(), 5u);

  ASSERT_TRUE(t->Insert(IntRow(5, 5)).ok());
  // Re-pinning after a mutation returns the version pinned first…
  EXPECT_EQ(pins.Pin(*t).get(), first.get());
  EXPECT_EQ(pins.Get(*t).get(), first.get());
  // …while a fresh pin of a different table sees that table's head.
  EXPECT_EQ(pins.Pin(*u)->size(), 3u);
  EXPECT_EQ(pins.size(), 2u);
  EXPECT_EQ(t->Snapshot()->size(), 6u);
}

// ------------------------------------------------ concurrency (TSan)

/// Churns `t` with insert-then-delete pairs until `done`.
void ChurnTable(Table* t, const std::atomic<bool>* done) {
  int64_t i = 1 << 20;
  while (!done->load(std::memory_order_acquire)) {
    Row row = IntRow(i, i);
    (void)t->Insert(row);
    (void)t->Delete(row);
    ++i;
  }
}

TEST(SnapshotConcurrencyTest, ReadersNeverSeeTornOrShiftingRows) {
  auto t = MakePairs(kChunkRows + 10);
  std::atomic<bool> done{false};
  std::thread writer(ChurnTable, t.get(), &done);

  for (int iter = 0; iter < 200; ++iter) {
    auto snap = t->Snapshot();
    size_t n = snap->size();
    EXPECT_GE(n, kChunkRows + 10);
    for (size_t i = 0; i < n; ++i) {
      const Row& row = snap->row(i);
      ASSERT_EQ(row.size(), 2u);
      EXPECT_EQ(row[0], row[1]) << "torn row at " << i;
    }
    // Index probes against the same pinned version agree with rows.
    for (size_t idx : snap->LookupIndices(0, Value(int64_t{3}))) {
      EXPECT_EQ(snap->row(idx)[0].as_int(), 3);
    }
  }
  done.store(true, std::memory_order_release);
  writer.join();
}

// Satellite 1 regression: views.cc copied live->rows() with no lock
// (and read it twice, so the copy and the R#old reconstruction could
// disagree). Incremental maintenance now pins one SnapshotSet for the
// whole delta computation.
TEST(SnapshotConcurrencyTest, ViewMaintenanceUnderConcurrentWriter) {
  Catalog catalog;
  auto r = catalog.CreateTable(
      TableSchema("r", {{"x", storage::ValueType::kInt},
                        {"y", storage::ValueType::kInt}}));
  auto s = catalog.CreateTable(
      TableSchema("s", {{"y", storage::ValueType::kInt},
                        {"z", storage::ValueType::kInt}}));
  ASSERT_TRUE(r.ok() && s.ok());
  for (int64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(r.value()->Insert(IntRow(i, i % 8)).ok());
    ASSERT_TRUE(s.value()->Insert(IntRow(i % 8, i)).ok());
  }
  auto view_q = ConjunctiveQuery::Parse("v(X, Z) :- r(X, Y), s(Y, Z)");
  ASSERT_TRUE(view_q.ok());
  piazza::MaterializedView view(std::move(view_q).value());
  ASSERT_TRUE(view.Recompute(catalog).ok());

  // Writer churns the *aliased* relation s while updategrams against r
  // drive the delta joins that read s through the pinned snapshot.
  std::atomic<bool> done{false};
  std::thread writer(ChurnTable, s.value(), &done);
  for (int64_t i = 0; i < 30; ++i) {
    Updategram u;
    u.relation = "r";
    u.inserts.push_back(IntRow(1000 + i, i % 8));
    ASSERT_TRUE(piazza::ApplyToBase(&catalog, u).ok());
    ASSERT_TRUE(view.ApplyUpdategram(catalog, u).ok());
  }
  done.store(true, std::memory_order_release);
  writer.join();

  // Quiesced: the incrementally maintained view equals a recompute.
  std::vector<Row> incremental = view.Contents();
  ASSERT_TRUE(view.Recompute(catalog).ok());
  EXPECT_EQ(incremental, view.Contents());
}

// Satellite 3 regression: SaveNetworkConfig iterated rows() unlocked.
// Every save emitted while a writer inserts must be a complete
// point-in-time version — it parses back cleanly and holds some
// prefix-consistent row count.
TEST(SnapshotConcurrencyTest, SaveUnderConcurrentInsertParsesBack) {
  PdmsNetwork net;
  ASSERT_TRUE(net.AddPeer("p").ok());
  auto table = net.AddStoredRelation(
      "p", TableSchema::AllStrings("course", {"id", "dept"}));
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(table.value()
                    ->Insert({Value("c" + std::to_string(i)), Value("CSE")})
                    .ok());
  }

  constexpr size_t kWriterRows = 300;
  std::thread writer([&] {
    for (size_t i = 0; i < kWriterRows; ++i) {
      (void)table.value()->Insert(
          {Value("w" + std::to_string(i)), Value("HIST")});
    }
  });

  size_t last_seen = 0;
  for (int iter = 0; iter < 40; ++iter) {
    std::string saved = piazza::SaveNetworkConfig(net, nullptr);
    PdmsNetwork parsed;
    ASSERT_TRUE(piazza::LoadNetworkConfig(saved, &parsed, nullptr).ok())
        << saved.substr(0, 200);
    auto copy = parsed.mutable_storage()->GetTable("p:course");
    ASSERT_TRUE(copy.ok());
    size_t n = copy.value()->size();
    // Complete version: initial rows plus some prefix of the writer's,
    // never shrinking across sequential saves.
    EXPECT_GE(n, 20u);
    EXPECT_LE(n, 20u + kWriterRows);
    EXPECT_GE(n, last_seen);
    last_seen = n;
  }
  writer.join();
  EXPECT_EQ(table.value()->size(), 20u + kWriterRows);
}

// -------------------------------------- C4 differential (under load)

// A writer thread applies insert-only updategram batches (each batch
// one atomic InsertAll publish) while answers stream through
// AnswerBatch. Every answer must equal the quiesced answer over some
// prefix of applied batches, and the matched prefixes advance
// monotonically — answers are prefix-consistent versions, never a
// blend of two batches.
TEST(SnapshotConcurrencyTest, UpdategramAnswersArePrefixConsistent) {
  PdmsNetwork net;
  ASSERT_TRUE(net.AddPeer("p").ok());
  auto table = net.AddStoredRelation(
      "p", TableSchema::AllStrings("course", {"id", "dept"}));
  ASSERT_TRUE(table.ok());
  Updategram seedgram;
  seedgram.relation = "p:course";
  for (int i = 0; i < 16; ++i) {
    seedgram.inserts.push_back({Value("c" + std::to_string(i)),
                                Value(i % 2 == 0 ? "CSE" : "HIST")});
  }
  ASSERT_TRUE(piazza::ApplyToBase(net.mutable_storage(), seedgram).ok());

  constexpr size_t kBatches = 60;
  std::vector<Updategram> batches;
  for (size_t b = 0; b < kBatches; ++b) {
    Updategram u;
    u.relation = "p:course";
    for (int j = 0; j < 4; ++j) {
      u.inserts.push_back(
          {Value("b" + std::to_string(b) + "_" + std::to_string(j)),
           Value("CSE")});
    }
    batches.push_back(std::move(u));
  }

  // Expected answers per prefix, as sorted row sets keyed for lookup.
  auto q = ConjunctiveQuery::Parse("q(Id) :- p:course(Id, \"CSE\")");
  ASSERT_TRUE(q.ok());
  const ConjunctiveQuery query = std::move(q).value();
  std::map<std::vector<Row>, size_t> prefix_answers;
  {
    std::vector<Row> acc;
    for (int i = 0; i < 16; i += 2) acc.push_back({Value("c" + std::to_string(i))});
    std::sort(acc.begin(), acc.end());
    prefix_answers[acc] = 0;
    for (size_t b = 0; b < kBatches; ++b) {
      for (const Row& ins : batches[b].inserts) acc.push_back({ins[0]});
      std::sort(acc.begin(), acc.end());
      prefix_answers[acc] = b + 1;
    }
  }

  std::thread writer([&] {
    for (const Updategram& u : batches) {
      ASSERT_TRUE(piazza::ApplyToBase(net.mutable_storage(), u).ok());
    }
  });

  size_t last_prefix = 0;
  for (int iter = 0; iter < 30; ++iter) {
    std::vector<ConjunctiveQuery> queries(3, query);
    auto results = net.AnswerBatch(queries);
    for (auto& r : results) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      std::vector<Row> rows = std::move(r).value();
      std::sort(rows.begin(), rows.end());
      auto it = prefix_answers.find(rows);
      ASSERT_NE(it, prefix_answers.end())
          << "answer with " << rows.size()
          << " rows matches no prefix-consistent version";
      EXPECT_GE(it->second, last_prefix) << "answers went back in time";
      last_prefix = std::max(last_prefix, it->second);
    }
  }
  writer.join();

  // Quiesced: the final answer is exactly the full prefix.
  auto final_answer = net.Answer(query);
  ASSERT_TRUE(final_answer.ok());
  std::vector<Row> rows = std::move(final_answer).value();
  std::sort(rows.begin(), rows.end());
  auto it = prefix_answers.find(rows);
  ASSERT_NE(it, prefix_answers.end());
  EXPECT_EQ(it->second, kBatches);
}

}  // namespace
}  // namespace revere
