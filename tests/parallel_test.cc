// Tests for ISSUE 2: the common/ thread pool, the parallel union
// evaluator, and parallel rewriting evaluation inside PdmsNetwork.
// The central property is the determinism contract — for ANY worker
// count the answers (and all fault/cost accounting) are byte-identical
// to the serial evaluator. These tests are also the TSan workload:
// build with -DREVERE_SANITIZE=thread and run parallel_test to check
// the pool, the lazily built columnar snapshots, and concurrent readers.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/strings.h"
#include "src/common/thread_pool.h"
#include "src/datagen/topology.h"
#include "src/obs/metrics.h"
#include "src/piazza/fault.h"
#include "src/piazza/pdms.h"
#include "src/query/cq.h"
#include "src/query/evaluate.h"
#include "src/storage/table.h"

namespace revere {
namespace {

using datagen::AllCoursesQuery;
using datagen::BuildUniversityPdms;
using datagen::PdmsGenOptions;
using datagen::PdmsGenReport;
using datagen::Topology;
using piazza::FailurePolicy;
using piazza::FaultInjector;
using piazza::NetworkCostModel;
using piazza::PdmsNetwork;
using query::ConjunctiveQuery;
using query::EvalOptions;
using storage::ColumnTable;
using storage::Row;
using storage::Table;
using storage::TableSchema;
using storage::Value;

// ---------------------------------------------------------------- pool

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&sum, i] { sum += i; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPoolTest, ZeroWorkersClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 1u);
  bool ran = false;
  pool.Submit([&ran] { ran = true; }).get();
  EXPECT_TRUE(ran);
}

TEST(ThreadPoolTest, ThrowingTaskNeverKillsAWorker) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  auto thrower = pool.Submit([] { throw std::runtime_error("task failed"); });
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.Submit([&ran] { ran += 1; }));
  }
  // The exception surfaces only through the future; the worker survives
  // and the pool keeps draining every task queued behind the throw.
  EXPECT_THROW(thrower.get(), std::runtime_error);
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&ran] { ran += 1; });
    }
    // No explicit waits: ~ThreadPool must finish every queued task
    // before joining (futures never dangle).
  }
  EXPECT_EQ(ran.load(), 50);
}

// --------------------------------------------- deterministic parallel

PdmsGenReport BuildFig2(PdmsNetwork* net, size_t rows_per_peer = 40) {
  PdmsGenOptions options;
  options.topology = Topology::kFigure2;
  options.rows_per_peer = rows_per_peer;
  options.seed = 99;
  auto report = BuildUniversityPdms(net, options);
  EXPECT_TRUE(report.ok());
  return report.value();
}

TEST(ParallelEvalTest, UnionByteIdenticalForAnyWorkerCount) {
  PdmsNetwork net;
  PdmsGenReport report = BuildFig2(&net);
  auto rewritings = net.Reformulate(AllCoursesQuery(report, 0));
  ASSERT_TRUE(rewritings.ok());
  ASSERT_GT(rewritings.value().size(), 1u);
  std::set<std::string> distinct;
  for (const auto& rw : rewritings.value()) distinct.insert(rw.ToString());
  // Serial and pooled unions evaluate every distinct member the same
  // way, one EvaluateCQ-equivalent each.
  obs::Counter* queries =
      obs::MetricsRegistry::Default().GetCounter("eval.queries");

  uint64_t before = queries->Value();
  auto serial =
      query::EvaluateUnion(net.storage(), rewritings.value());
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial.value().size(), report.total_rows);
  EXPECT_EQ(queries->Value() - before, distinct.size());

  for (size_t workers : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(workers);
    EvalOptions options;
    options.pool = &pool;
    before = queries->Value();
    auto parallel =
        query::EvaluateUnion(net.storage(), rewritings.value(), options);
    ASSERT_TRUE(parallel.ok()) << workers << " workers";
    EXPECT_EQ(serial.value(), parallel.value()) << workers << " workers";
    EXPECT_EQ(queries->Value() - before, distinct.size())
        << workers << " workers";
  }
}

/// UnionMembers' fallback: when the stop predicate fires before any
/// worker starts a member, every worker skips it, and Take still
/// returns each member's rows by evaluating it on the calling thread.
TEST(ParallelEvalTest, UnionMembersEvaluateInlineWhenWorkersStop) {
  PdmsNetwork net;
  PdmsGenReport report = BuildFig2(&net);
  auto rewritings = net.Reformulate(AllCoursesQuery(report, 0));
  ASSERT_TRUE(rewritings.ok());
  ASSERT_GT(rewritings.value().size(), 1u);
  std::vector<query::UnionMember> members;
  for (const auto& rw : rewritings.value()) members.push_back({&rw});

  for (size_t workers : {1u, 2u, 4u}) {
    ThreadPool pool(workers);
    EvalOptions options;
    options.pool = &pool;
    std::atomic<size_t> stopped{0};
    query::UnionMembers evaluated(net.storage(), members, options,
                                  [&stopped] {
                                    stopped += 1;
                                    return true;
                                  });
    // Every worker has skipped its member before anything is taken.
    while (stopped.load() < members.size()) std::this_thread::yield();
    for (size_t i = 0; i < members.size(); ++i) {
      auto serial = query::EvaluateCQ(net.storage(), *members[i].query);
      ASSERT_TRUE(serial.ok());
      auto taken = evaluated.Take(i);
      ASSERT_TRUE(taken.ok()) << workers << " workers, member " << i;
      const query::MemberRows& member = taken.value();
      EXPECT_EQ(member.rows, serial.value())
          << workers << " workers, member " << i;
      ASSERT_EQ(member.hashes.size(), member.rows.size());
      for (size_t r = 0; r < member.rows.size(); ++r) {
        EXPECT_EQ(member.hashes[r], storage::HashRow(member.rows[r]));
      }
    }
  }
}

/// Engine-differential determinism (ISSUE 7): the columnar vectorized
/// engine must reproduce the serial map reference's answer byte for
/// byte — same rows, same duplicate multiplicity, same order — at any
/// worker count, because answer digests and the fuzz oracles pin exact
/// bytes.
TEST(ParallelEvalTest, ColumnarUnionByteIdenticalAcrossEnginesAndWorkers) {
  PdmsNetwork net;
  PdmsGenReport report = BuildFig2(&net);
  auto rewritings = net.Reformulate(AllCoursesQuery(report, 0));
  ASSERT_TRUE(rewritings.ok());
  ASSERT_GT(rewritings.value().size(), 1u);

  EvalOptions reference;
  reference.engine = query::EvalEngine::kMap;
  auto serial =
      query::EvaluateUnion(net.storage(), rewritings.value(), reference);
  ASSERT_TRUE(serial.ok());

  auto serial_col = query::EvaluateUnion(net.storage(), rewritings.value());
  ASSERT_TRUE(serial_col.ok());
  EXPECT_EQ(serial.value(), serial_col.value());

  for (size_t workers : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(workers);
    EvalOptions options;  // the columnar engine
    options.pool = &pool;
    auto parallel =
        query::EvaluateUnion(net.storage(), rewritings.value(), options);
    ASSERT_TRUE(parallel.ok()) << workers << " workers";
    EXPECT_EQ(serial.value(), parallel.value()) << workers << " workers";
  }
}

TEST(ParallelEvalTest, UnionErrorSurfacesFromAnyMember) {
  PdmsNetwork net;
  PdmsGenReport report = BuildFig2(&net, 10);
  auto rewritings = net.Reformulate(AllCoursesQuery(report, 0));
  ASSERT_TRUE(rewritings.ok());
  auto queries = rewritings.value();
  auto bad = ConjunctiveQuery::Parse("q(X) :- no_such_relation(X)");
  ASSERT_TRUE(bad.ok());
  queries.push_back(bad.value());

  ThreadPool pool(4);
  EvalOptions options;
  options.pool = &pool;
  EXPECT_FALSE(query::EvaluateUnion(net.storage(), queries, options).ok());
}

TEST(ParallelEvalTest, AnswerByteIdenticalWithPool) {
  PdmsNetwork net;
  PdmsGenReport report = BuildFig2(&net);
  auto query = AllCoursesQuery(report, 2);

  piazza::ExecutionStats serial_stats;
  auto serial = net.Answer(query, {}, &serial_stats);
  ASSERT_TRUE(serial.ok());

  for (size_t workers : {1u, 8u}) {
    ThreadPool pool(workers);
    NetworkCostModel cost;
    cost.eval.pool = &pool;
    piazza::ExecutionStats stats;
    auto parallel = net.Answer(query, {}, &stats, cost);
    ASSERT_TRUE(parallel.ok()) << workers << " workers";
    EXPECT_EQ(serial.value(), parallel.value()) << workers << " workers";
    EXPECT_EQ(stats.rewritings_evaluated, serial_stats.rewritings_evaluated);
    EXPECT_EQ(stats.rows_shipped, serial_stats.rows_shipped);
    EXPECT_EQ(stats.peers_contacted, serial_stats.peers_contacted);
  }
}

TEST(ParallelEvalTest, AnswerWithProvenanceByteIdenticalWithPool) {
  PdmsNetwork net;
  PdmsGenReport report = BuildFig2(&net);
  auto query = AllCoursesQuery(report, 0);

  auto serial = net.AnswerWithProvenance(query);
  ASSERT_TRUE(serial.ok());

  ThreadPool pool(8);
  NetworkCostModel cost;
  cost.eval.pool = &pool;
  auto parallel = net.AnswerWithProvenance(query, {}, nullptr, cost);
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(serial.value().size(), parallel.value().size());
  for (size_t i = 0; i < serial.value().size(); ++i) {
    EXPECT_EQ(serial.value()[i].row, parallel.value()[i].row);
    EXPECT_EQ(serial.value()[i].peers, parallel.value()[i].peers);
  }
}

/// Fault accounting draws from the injector's seeded RNG in rewriting
/// order; parallel evaluation must not perturb the stream, so two runs
/// with equal seeds — one serial, one pooled — must match failure for
/// failure.
TEST(ParallelEvalTest, FaultAccountingIdenticalWithPool) {
  PdmsNetwork net;
  PdmsGenReport report = BuildFig2(&net);
  auto query = AllCoursesQuery(report, 0);

  auto run = [&](ThreadPool* pool, piazza::ExecutionStats* stats) {
    FaultInjector faults(1234);
    faults.SetDown(report.peer_names[3]);
    faults.SetFlaky(report.peer_names[1], 0.5);
    NetworkCostModel cost;
    cost.faults = &faults;
    cost.failure_policy = FailurePolicy::kBestEffort;
    cost.retry.max_attempts = 3;
    if (pool != nullptr) cost.eval.pool = pool;
    return net.Answer(query, {}, stats, cost);
  };

  piazza::ExecutionStats serial_stats;
  auto serial = run(nullptr, &serial_stats);
  ASSERT_TRUE(serial.ok());

  ThreadPool pool(8);
  piazza::ExecutionStats parallel_stats;
  auto parallel = run(&pool, &parallel_stats);
  ASSERT_TRUE(parallel.ok());

  EXPECT_EQ(serial.value(), parallel.value());
  EXPECT_EQ(serial_stats.completeness.rewritings_skipped,
            parallel_stats.completeness.rewritings_skipped);
  EXPECT_EQ(serial_stats.completeness.contacts_failed,
            parallel_stats.completeness.contacts_failed);
  EXPECT_EQ(serial_stats.completeness.retries_attempted,
            parallel_stats.completeness.retries_attempted);
  EXPECT_EQ(serial_stats.completeness.unreachable_peers,
            parallel_stats.completeness.unreachable_peers);
  EXPECT_DOUBLE_EQ(serial_stats.simulated_network_ms,
                   parallel_stats.simulated_network_ms);
}

// ------------------------------------------------ concurrent storage

// The first LookupIndices calls on a fresh version race to build its
// columnar snapshot: every caller must get the same rows, and the
// version must end up with exactly one snapshot.
TEST(ConcurrentIndexTest, FirstLookupsRaceBuildExactlyOneSnapshot) {
  Table t(TableSchema::AllStrings("r", {"a", "b"}));
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(t.Insert({Value(Numbered("k", i % 17)),
                          Value(Numbered("v", i))})
                    .ok());
  }
  auto version = t.Snapshot();
  std::vector<size_t> expected;
  for (size_t i = 0; i < version->size(); ++i) {
    if (version->row(i)[0] == Value("k3")) expected.push_back(i);
  }
  ASSERT_EQ(expected.size(), 30u);
  std::vector<std::thread> threads;
  std::vector<const ColumnTable*> built(8, nullptr);
  std::atomic<int> mismatches{0};
  for (int w = 0; w < 8; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < 50; ++i) {
        if (version->LookupIndices(0, Value("k3")) != expected) {
          mismatches += 1;
        }
      }
      built[w] = version->EnsureColumnar().get();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  for (const ColumnTable* snap : built) {
    EXPECT_EQ(snap, version->EnsureColumnar().get());
  }
}

TEST(ConcurrentIndexTest, ConcurrentEvaluationsShareColumnarSnapshots) {
  PdmsNetwork net;
  PdmsGenReport report = BuildFig2(&net);
  auto rewritings = net.Reformulate(AllCoursesQuery(report, 0));
  ASSERT_TRUE(rewritings.ok());

  EvalOptions options;
  auto expected = query::EvaluateUnion(net.storage(), rewritings.value(),
                                       options);
  ASSERT_TRUE(expected.ok());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 6; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10; ++i) {
        auto got = query::EvaluateUnion(net.storage(), rewritings.value(),
                                        options);
        if (!got.ok() || got.value() != expected.value()) mismatches += 1;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ISSUE 5 satellite: regression for the Insert publication race. The
// pre-fix Insert published the index entry for rows_.size() *before*
// the push_back, and LookupIndices read rows_ with no lock — a probing
// reader could chase a row index past the end of rows_ (and the
// push_back itself could reallocate under a concurrent scan). Under
// TSan (-DREVERE_SANITIZE=thread) the pre-fix table reports the race
// on this exact workload; post-fix it is silent and every invariant
// below holds.
TEST(ConcurrentIndexTest, InsertRacingLookupIndicesIsSafe) {
  Table t(TableSchema::AllStrings("r", {"k", "v"}));
  constexpr int kWriters = 2;
  constexpr int kReaders = 4;
  constexpr int kRowsPerWriter = 400;
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&t, &violations, w] {
      for (int i = 0; i < kRowsPerWriter; ++i) {
        if (!t.Insert({Value(Numbered("k", i % 7)),
                       Value(Numbered("w", w) + "-" +
                             std::to_string(i))})
                 .ok()) {
          violations += 1;
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&t, &done, &violations] {
      uint64_t probes = 0;
      while (!done.load(std::memory_order_acquire) || probes < 100) {
        ++probes;
        Value key(Numbered("k", probes % 7));
        size_t snapshot = t.size();
        // Lookups against whatever version is the head: ascending row
        // ids, and the table never shrinks.
        std::vector<size_t> hits = t.LookupIndices(0, key);
        for (size_t i = 1; i < hits.size(); ++i) {
          if (hits[i - 1] >= hits[i]) violations += 1;  // ascending
        }
        if (t.size() < snapshot) violations += 1;  // append-only
        // Columnar snapshots build lazily from const tables; even while
        // writers append, the snapshot a reader gets must be internally
        // consistent — every grouped row decodes back to its key
        // (ISSUE 7: this is also the concurrent EnsureColumnar TSan
        // workload).
        auto snap = t.EnsureColumnar();
        uint32_t code = snap->CodeOf(0, key);
        if (code != ColumnTable::kNoCode) {
          const auto& col = snap->column(0);
          for (uint32_t o = col.group_offsets[code];
               o < col.group_offsets[code + 1]; ++o) {
            if (snap->ValueAt(0, col.group_rows[o]) != key) violations += 1;
          }
        }
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  done.store(true, std::memory_order_release);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(t.size(), size_t{kWriters * kRowsPerWriter});
  // Quiescent: lookups agree with a full scan for every key.
  auto quiesced = t.Snapshot();
  for (int k = 0; k < 7; ++k) {
    Value key(Numbered("k", k));
    std::vector<size_t> expected;
    for (size_t i = 0; i < quiesced->size(); ++i) {
      if (quiesced->row(i)[0] == key) expected.push_back(i);
    }
    EXPECT_EQ(quiesced->LookupIndices(0, key), expected) << "key " << k;
  }
}

// Deletions and reinserts publish version after version; concurrent
// readers race each fresh version's first columnar build. Mixed
// Insert/Delete/Lookup traffic must stay internally consistent
// (TSan-checked like the test above).
TEST(ConcurrentIndexTest, DirtyRebuildRacingReadersIsSafe) {
  Table t(TableSchema::AllStrings("r", {"k", "v"}));
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(t.Insert({Value(Numbered("k", i % 5)),
                          Value(Numbered("v", i))})
                    .ok());
  }
  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&t] {
    for (int i = 0; i < 60; ++i) {
      t.DeleteWhere(0, Value(Numbered("k", i % 5)));
      for (int j = 0; j < 10; ++j) {
        (void)t.Insert({Value(Numbered("k", (i + j) % 5)),
                        Value(Numbered("re", i * 10 + j))});
      }
    }
  });
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&t, &violations] {
      for (int i = 0; i < 300; ++i) {
        Value key(Numbered("k", i % 5));
        // Snapshots taken while the writer churns stay self-consistent
        // (each version builds its own, lazily).
        auto snap = t.EnsureColumnar();
        uint32_t code = snap->CodeOf(0, key);
        if (code != ColumnTable::kNoCode) {
          const auto& col = snap->column(0);
          for (uint32_t o = col.group_offsets[code];
               o < col.group_offsets[code + 1]; ++o) {
            if (snap->ValueAt(0, col.group_rows[o]) != key) violations += 1;
          }
        }
        (void)t.LookupIndices(0, key);
        (void)t.size();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(violations.load(), 0);
  // Quiescent consistency after the churn: lookups, a scan, and the
  // final columnar snapshot all agree on every key's multiplicity.
  auto snap = t.EnsureColumnar();
  EXPECT_EQ(snap->generation(), t.generation());
  EXPECT_EQ(snap->row_count(), t.size());
  auto quiesced = t.Snapshot();
  for (int k = 0; k < 5; ++k) {
    Value key(Numbered("k", k));
    size_t scanned = 0;
    for (size_t i = 0; i < quiesced->size(); ++i) {
      if (quiesced->row(i)[0] == key) ++scanned;
    }
    EXPECT_EQ(quiesced->LookupIndices(0, key).size(), scanned) << "key " << k;
    uint32_t code = snap->CodeOf(0, key);
    size_t grouped = code == ColumnTable::kNoCode
                         ? 0
                         : snap->column(0).group_offsets[code + 1] -
                               snap->column(0).group_offsets[code];
    EXPECT_EQ(grouped, scanned) << "key " << k;
  }
}

}  // namespace
}  // namespace revere
