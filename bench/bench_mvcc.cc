// Experiment C4-under-load (ISSUE 10): MVCC snapshot storage — readers
// never block while updategrams land.
//
// The pre-MVCC Table demanded quiescence: every unguarded rows() read
// raced concurrent writers, so C4's "updategrams vs recompute" numbers
// could only be measured with the writer stopped. This bench measures
// the claim the snapshot refactor makes instead:
//
//  - SnapshotPin: the cost of pinning one immutable version — a
//    shared-lock pointer copy, O(1) in table size, the whole price a
//    reader pays for isolation.
//  - ReaderQuiesced: the P1 title-self-join union with no writer — the
//    baseline reader latency distribution (p50/p99 counters).
//  - ReaderUnderWriter: the same union while a writer thread applies
//    updategram batches (insert batch i, delete batch i-1 — one
//    publish each) to every peer's relation. arg0 paces the writer:
//    the microseconds it sleeps between updategrams (0 = saturation —
//    a flat-out busy loop that also measures how hard per-version
//    index rebuilds can possibly get). Acceptance reads the paced arm
//    (a sustained ~1k updategrams/sec stream): reader p99 within 2x of
//    the quiesced baseline with writer throughput > 0 — readers never
//    block writers, writers never stall readers.
//  - WriterUnderReaders: the inverse arm — measured updategram
//    application throughput while reader threads continuously pin
//    snapshots and run the join union against them.
//
// Counters: p50_ms / p99_ms (per-iteration reader latency quantiles),
// updategrams_per_sec (writer progress during the measured window),
// rows (result size sanity), versions (head version advance — proof
// the writer actually published during the run).
//
// REVERE_BENCH_SMOKE=1 shrinks the universe so CI smoke-runs every arm
// in milliseconds.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/strings.h"
#include "src/datagen/topology.h"
#include "src/piazza/pdms.h"
#include "src/piazza/peer.h"
#include "src/piazza/views.h"
#include "src/query/cq.h"
#include "src/query/evaluate.h"
#include "src/storage/table.h"

namespace {

using revere::datagen::BuildUniversityPdms;
using revere::datagen::PdmsGenOptions;
using revere::datagen::PdmsGenReport;
using revere::datagen::Topology;
using revere::piazza::ApplyToBase;
using revere::piazza::PdmsNetwork;
using revere::piazza::QualifiedName;
using revere::piazza::Updategram;
using revere::query::Atom;
using revere::query::ConjunctiveQuery;
using revere::query::QTerm;
using revere::storage::Row;
using revere::storage::Table;
using revere::storage::Value;

bool SmokeRun() { return std::getenv("REVERE_BENCH_SMOKE") != nullptr; }

/// The P1 reader workload: all pairs of same-title courses at peer `i`.
ConjunctiveQuery TitleSelfJoin(const PdmsGenReport& report, size_t i) {
  std::string rel =
      QualifiedName(report.peer_names[i], report.relation_names[i]);
  Atom first{rel, {QTerm::Var("X"), QTerm::Var("T"), QTerm::Var("A")}};
  Atom second{rel, {QTerm::Var("Y"), QTerm::Var("T"), QTerm::Var("B")}};
  return ConjunctiveQuery(revere::Numbered("samet", i),
                          {QTerm::Var("X"), QTerm::Var("Y")},
                          {first, second});
}

struct MvccFixture {
  MvccFixture() {
    PdmsGenOptions options;
    options.topology = Topology::kRandom;
    options.peers = SmokeRun() ? 4 : 12;
    options.rows_per_peer = SmokeRun() ? 40 : 400;
    options.seed = 2010;
    auto r = BuildUniversityPdms(&net, options);
    if (r.ok()) report = r.value();
    for (size_t i = 0; i < report.peer_names.size(); ++i) {
      joins.push_back(TitleSelfJoin(report, i));
      relations.push_back(
          QualifiedName(report.peer_names[i], report.relation_names[i]));
    }
  }

  uint64_t TotalVersions() const {
    uint64_t v = 0;
    for (const auto& rel : relations) {
      auto t = net.storage().GetTable(rel);
      if (t.ok()) v += t.value()->generation();
    }
    return v;
  }

  PdmsNetwork net;
  PdmsGenReport report;
  std::vector<ConjunctiveQuery> joins;
  std::vector<std::string> relations;
};

MvccFixture& Fixture() {
  static MvccFixture* fixture = new MvccFixture();
  return *fixture;
}

/// One updategram for `rel`, round `round`: inserts a fresh 3-row batch
/// and deletes round-1's batch, so tables stay bounded while every
/// application publishes exactly one new version per ApplyToBase step.
Updategram ChurnGram(const std::string& rel, uint64_t round) {
  Updategram u;
  u.relation = rel;
  for (int j = 0; j < 3; ++j) {
    std::string id = revere::Numbered("w", round) + revere::Numbered("_", j);
    u.inserts.push_back({Value(id), Value("Churn Title"), Value("writer")});
    if (round > 0) {
      std::string old =
          revere::Numbered("w", round - 1) + revere::Numbered("_", j);
      u.deletes.push_back({Value(old), Value("Churn Title"), Value("writer")});
    }
  }
  return u;
}

/// Latency quantile over per-iteration samples (nearest-rank).
double QuantileMs(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(samples.size()));
  return samples[std::min(rank, samples.size() - 1)];
}

// --------------------------------------------------------------------
// Snapshot pinning is O(1): the same pointer-copy cost at any size.
// arg0: rows in the table.
// --------------------------------------------------------------------
void BM_MVCC_SnapshotPin(benchmark::State& state) {
  Table table(revere::storage::TableSchema::AllStrings(
      "pin", {"id", "title", "instructor"}));
  std::vector<Row> rows;
  for (int64_t i = 0; i < state.range(0); ++i) {
    rows.push_back({Value(revere::Numbered("r", i)), Value("t"), Value("x")});
  }
  if (!table.InsertAll(rows).ok()) {
    state.SkipWithError("fixture insert failed");
    return;
  }
  for (auto _ : state) {
    auto snap = table.Snapshot();
    benchmark::DoNotOptimize(snap);
  }
  state.counters["rows"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_MVCC_SnapshotPin)->Arg(256)->Arg(16384)
    ->Unit(benchmark::kNanosecond);

// --------------------------------------------------------------------
// Reader baseline: the P1 join union, quiesced.
// --------------------------------------------------------------------
void BM_MVCC_ReaderQuiesced(benchmark::State& state) {
  MvccFixture& f = Fixture();
  std::vector<double> latencies_ms;
  std::vector<Row> rows;
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    auto result = revere::query::EvaluateUnion(f.net.storage(), f.joins);
    auto end = std::chrono::steady_clock::now();
    rows = result.ok() ? std::move(result).value() : std::vector<Row>{};
    benchmark::DoNotOptimize(rows);
    latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
  }
  state.counters["rows"] = static_cast<double>(rows.size());
  state.counters["p50_ms"] = QuantileMs(latencies_ms, 0.50);
  state.counters["p99_ms"] = QuantileMs(latencies_ms, 0.99);
}
BENCHMARK(BM_MVCC_ReaderQuiesced)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --------------------------------------------------------------------
// The headline arm: the same reader while a writer thread applies
// updategram batches to every relation, round-robin, flat out.
// --------------------------------------------------------------------
void BM_MVCC_ReaderUnderWriter(benchmark::State& state) {
  MvccFixture& f = Fixture();
  const auto pace = std::chrono::microseconds(state.range(0));
  std::atomic<bool> done{false};
  std::atomic<uint64_t> applied{0};
  uint64_t versions_before = f.TotalVersions();
  std::thread writer([&] {
    uint64_t round = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::string& rel = f.relations[round % f.relations.size()];
      if (ApplyToBase(f.net.mutable_storage(),
                      ChurnGram(rel, round / f.relations.size()))
              .ok()) {
        applied.fetch_add(1, std::memory_order_relaxed);
      }
      ++round;
      if (pace.count() > 0) std::this_thread::sleep_for(pace);
    }
  });

  std::vector<double> latencies_ms;
  std::vector<Row> rows;
  auto window_start = std::chrono::steady_clock::now();
  uint64_t applied_start = applied.load();
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    auto result = revere::query::EvaluateUnion(f.net.storage(), f.joins);
    auto end = std::chrono::steady_clock::now();
    rows = result.ok() ? std::move(result).value() : std::vector<Row>{};
    benchmark::DoNotOptimize(rows);
    latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
  }
  double window_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - window_start)
                        .count();
  uint64_t applied_in_window = applied.load() - applied_start;
  done.store(true, std::memory_order_release);
  writer.join();

  state.counters["rows"] = static_cast<double>(rows.size());
  state.counters["p50_ms"] = QuantileMs(latencies_ms, 0.50);
  state.counters["p99_ms"] = QuantileMs(latencies_ms, 0.99);
  state.counters["updategrams_per_sec"] =
      window_s > 0 ? static_cast<double>(applied_in_window) / window_s : 0;
  state.counters["versions"] =
      static_cast<double>(f.TotalVersions() - versions_before);
}
BENCHMARK(BM_MVCC_ReaderUnderWriter)->Arg(1000)->Arg(0)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// --------------------------------------------------------------------
// Inverse arm: measured writer throughput while reader threads pin and
// join continuously. arg0: concurrent reader threads.
// --------------------------------------------------------------------
void BM_MVCC_WriterUnderReaders(benchmark::State& state) {
  MvccFixture& f = Fixture();
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int64_t r = 0; r < state.range(0); ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        auto result = revere::query::EvaluateUnion(f.net.storage(), f.joins);
        benchmark::DoNotOptimize(result);
      }
    });
  }

  uint64_t round = 0;
  uint64_t applied = 0;
  for (auto _ : state) {
    const std::string& rel = f.relations[round % f.relations.size()];
    if (ApplyToBase(f.net.mutable_storage(),
                    ChurnGram(rel, round / f.relations.size()))
            .ok()) {
      ++applied;
    }
    ++round;
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  state.counters["updategrams_applied"] = static_cast<double>(applied);
  state.counters["readers"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_MVCC_WriterUnderReaders)->Arg(0)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();

}  // namespace
