// Experiments P1 (parallel query answering) and P3 (columnar vectorized
// execution).
//
// P1 sweeps the thread-pool worker count (1/2/4/8) for the parallel
// union evaluator and the parallel rewriting evaluation inside
// PdmsNetwork::Answer. Workloads: the Figure-2 six-university network
// and a scaled random-topology universe (datagen), with a per-peer
// title-self-join union whose inner atom gets its title position bound
// by the outer atom.
//
// Determinism contract under test: every parallel configuration must
// produce byte-identical rows to the serial evaluator (merge happens
// in rewriting order through one dedup set); the `identical` counter
// is 1.0 when the last measured run matched the serial reference.
//
// P3 compares the columnar engine with the map reference over the same
// title-self-join union P1 measures, one isolated fixture per engine.
// The benchmark names carry an `engine_<name>` suffix so the runner's
// --engine flag (and the smoke_engine_sweep CI target) can select one
// engine per process.
//
// REVERE_BENCH_SMOKE=1 in the environment shrinks the scaled universe
// so the REVERE_BENCH_SMOKE CMake target stays fast.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/datagen/topology.h"
#include "src/piazza/pdms.h"
#include "src/piazza/peer.h"
#include "src/query/cq.h"
#include "src/query/evaluate.h"
#include "src/storage/column_table.h"

namespace {

using revere::ThreadPool;
using revere::datagen::AllCoursesQuery;
using revere::datagen::BuildUniversityPdms;
using revere::datagen::PdmsGenOptions;
using revere::datagen::PdmsGenReport;
using revere::datagen::Topology;
using revere::piazza::NetworkCostModel;
using revere::piazza::PdmsNetwork;
using revere::piazza::QualifiedName;
using revere::query::Atom;
using revere::query::ConjunctiveQuery;
using revere::query::EvalEngine;
using revere::query::EvalOptions;
using revere::query::QTerm;
using revere::storage::Row;

bool SmokeRun() { return std::getenv("REVERE_BENCH_SMOKE") != nullptr; }

/// All pairs of same-title courses at peer `i` — a two-atom join whose
/// second atom gets its title position bound by the first, so the
/// columnar engine probes its grouped title index.
ConjunctiveQuery TitleSelfJoin(const PdmsGenReport& report, size_t i) {
  std::string rel =
      QualifiedName(report.peer_names[i], report.relation_names[i]);
  Atom first{rel, {QTerm::Var("X"), QTerm::Var("T"), QTerm::Var("A")}};
  Atom second{rel, {QTerm::Var("Y"), QTerm::Var("T"), QTerm::Var("B")}};
  return ConjunctiveQuery("samet" + std::to_string(i),
                          {QTerm::Var("X"), QTerm::Var("Y")},
                          {first, second});
}

/// One scaled-universe instance. The P3 engines each get their own copy
/// so one engine's memoized columnar snapshots cannot subsidize
/// another's measurement; the worker sweeps intentionally share one.
struct EvalFixture {
  EvalFixture() {
    PdmsGenOptions options;
    options.topology = Topology::kRandom;
    options.peers = SmokeRun() ? 6 : 12;
    options.rows_per_peer = SmokeRun() ? 50 : 400;
    options.seed = 2003;
    auto r = BuildUniversityPdms(&net, options);
    if (r.ok()) report = r.value();
    for (size_t i = 0; i < report.peer_names.size(); ++i) {
      joins.push_back(TitleSelfJoin(report, i));
    }
  }

  PdmsNetwork net;
  PdmsGenReport report;
  std::vector<ConjunctiveQuery> joins;  // one title self-join per peer
};

/// Shared fixture for the worker sweeps (the columnar engine; the first
/// run pays the snapshot builds, every run after probes).
EvalFixture& WorkerFixture() {
  static EvalFixture* fixture = new EvalFixture();
  return *fixture;
}

// --------------------------------------------------------------------
// Thread-pool scaling. arg0: worker count.
// --------------------------------------------------------------------

void BM_P1_UnionWorkers(benchmark::State& state) {
  EvalFixture& f = WorkerFixture();
  EvalOptions serial;  // the columnar engine (defaults)
  auto reference = revere::query::EvaluateUnion(f.net.storage(), f.joins,
                                                serial);
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  EvalOptions options;
  options.pool = &pool;
  std::vector<Row> rows;
  for (auto _ : state) {
    auto result =
        revere::query::EvaluateUnion(f.net.storage(), f.joins, options);
    rows = result.ok() ? std::move(result).value() : std::vector<Row>{};
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows.size());
  state.counters["identical"] =
      reference.ok() && rows == reference.value() ? 1.0 : 0.0;
}
BENCHMARK(BM_P1_UnionWorkers)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_P1_AnswerWorkers(benchmark::State& state) {
  EvalFixture& f = WorkerFixture();
  auto query = AllCoursesQuery(f.report, 0);
  auto reference = f.net.Answer(query);
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  NetworkCostModel cost;
  cost.eval.pool = &pool;
  std::vector<Row> rows;
  for (auto _ : state) {
    auto result = f.net.Answer(query, {}, nullptr, cost);
    rows = result.ok() ? std::move(result).value() : std::vector<Row>{};
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows.size());
  state.counters["identical"] =
      reference.ok() && rows == reference.value() ? 1.0 : 0.0;
}
BENCHMARK(BM_P1_AnswerWorkers)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Figure-2 network, full Answer path with parallel rewriting
/// evaluation — the paper topology the rest of EXPERIMENTS.md uses.
void BM_P1_Fig2AnswerWorkers(benchmark::State& state) {
  static PdmsNetwork* net = nullptr;
  static PdmsGenReport* report = nullptr;
  if (net == nullptr) {
    net = new PdmsNetwork();
    report = new PdmsGenReport();
    PdmsGenOptions options;
    options.topology = Topology::kFigure2;
    options.rows_per_peer = SmokeRun() ? 50 : 200;
    options.seed = 2003;
    auto r = BuildUniversityPdms(net, options);
    if (r.ok()) *report = r.value();
  }
  auto query = AllCoursesQuery(*report, 0);
  auto reference = net->Answer(query);
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  NetworkCostModel cost;
  cost.eval.pool = &pool;
  std::vector<Row> rows;
  for (auto _ : state) {
    auto result = net->Answer(query, {}, nullptr, cost);
    rows = result.ok() ? std::move(result).value() : std::vector<Row>{};
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows.size());
  state.counters["identical"] =
      reference.ok() && rows == reference.value() ? 1.0 : 0.0;
}
BENCHMARK(BM_P1_Fig2AnswerWorkers)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// --------------------------------------------------------------------
// Experiment P3: the columnar engine vs the map reference
// over the P1 title-self-join union. One isolated fixture per engine,
// and one shared reference fixture whose map-engine answer pins
// correctness.
// --------------------------------------------------------------------

/// engine_id: 0 = the map reference, 1 = the columnar engine.
EvalOptions EngineOptions(int engine_id) {
  EvalOptions options;
  options.engine = engine_id == 0 ? EvalEngine::kMap : EvalEngine::kColumnar;
  return options;
}

EvalFixture& P3Fixture(int engine_id) {
  static EvalFixture* fixtures[2] = {nullptr, nullptr};
  if (fixtures[engine_id] == nullptr) fixtures[engine_id] = new EvalFixture();
  return *fixtures[engine_id];
}

/// Map-reference rows computed once on a dedicated fixture: comparing
/// against it never builds a snapshot inside a measured fixture.
const std::vector<Row>& P3Reference() {
  static std::vector<Row>* reference = [] {
    static EvalFixture fixture;
    EvalOptions options = EngineOptions(0);
    auto result =
        revere::query::EvaluateUnion(fixture.net.storage(), fixture.joins,
                                     options);
    return new std::vector<Row>(result.ok() ? std::move(result).value()
                                            : std::vector<Row>{});
  }();
  return *reference;
}

void BM_P3_EngineJoin(benchmark::State& state, int engine_id) {
  EvalFixture& f = P3Fixture(engine_id);
  EvalOptions options = EngineOptions(engine_id);
  std::vector<Row> rows;
  for (auto _ : state) {
    auto result =
        revere::query::EvaluateUnion(f.net.storage(), f.joins, options);
    rows = result.ok() ? std::move(result).value() : std::vector<Row>{};
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows.size());
  state.counters["identical"] = rows == P3Reference() ? 1.0 : 0.0;
}
BENCHMARK_CAPTURE(BM_P3_EngineJoin, engine_map, 0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_P3_EngineJoin, engine_columnar, 1)
    ->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------
// Experiment P4 (ISSUE 8): decomposing the columnar runtime into join
// pipeline vs output boundary. The join-only probe runs the identical
// pipeline but a constant head, so the boundary neither gathers codes
// nor decodes dictionaries; subtracting it from the full
// BM_P3_EngineJoin time isolates the boundary.
// --------------------------------------------------------------------

/// Title self-join with a constant head: same candidate streams, same
/// joins, near-free boundary (every surviving tuple dedups to one row).
ConjunctiveQuery TitleSelfJoinMarker(const PdmsGenReport& report, size_t i) {
  std::string rel =
      QualifiedName(report.peer_names[i], report.relation_names[i]);
  Atom first{rel, {QTerm::Var("X"), QTerm::Var("T"), QTerm::Var("A")}};
  Atom second{rel, {QTerm::Var("Y"), QTerm::Var("T"), QTerm::Var("B")}};
  return ConjunctiveQuery("marker" + std::to_string(i),
                          {QTerm::Const(revere::storage::Value("hit"))},
                          {first, second});
}

void BM_P4_JoinPipeline(benchmark::State& state, int engine_id) {
  EvalFixture& f = P3Fixture(engine_id);
  std::vector<ConjunctiveQuery> markers;
  for (size_t i = 0; i < f.report.peer_names.size(); ++i) {
    markers.push_back(TitleSelfJoinMarker(f.report, i));
  }
  EvalOptions options = EngineOptions(engine_id);
  std::vector<Row> rows;
  for (auto _ : state) {
    auto result =
        revere::query::EvaluateUnion(f.net.storage(), markers, options);
    rows = result.ok() ? std::move(result).value() : std::vector<Row>{};
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows.size());
}
BENCHMARK_CAPTURE(BM_P4_JoinPipeline, engine_columnar, 1)
    ->Unit(benchmark::kMillisecond);

/// Cold-start cost the columnar engine pays once per table generation:
/// dictionary-encode + counting-sort every table in the fixture.
void BM_P3_ColumnarBuild(benchmark::State& state) {
  EvalFixture& f = P3Fixture(1);
  size_t rows = 0, dicts = 0;
  for (auto _ : state) {
    rows = dicts = 0;
    for (const auto& name : f.net.storage().TableNames()) {
      const auto* table = f.net.storage().GetTable(name).value();
      auto pinned = table->Snapshot();
      auto snap = revere::storage::ColumnTable::Build(
          pinned->size(),
          [&pinned](size_t i) -> const revere::storage::Row& {
            return pinned->row(i);
          },
          table->schema().arity(), 0);
      rows += snap->row_count();
      dicts += snap->dict_entries();
      benchmark::DoNotOptimize(snap);
    }
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["dict_entries"] = static_cast<double>(dicts);
}
BENCHMARK(BM_P3_ColumnarBuild)->Unit(benchmark::kMillisecond);

/// Columnar engine under the parallel union evaluator: rewritings fan
/// out across the pool, results merge in rewriting order — output must
/// stay byte-identical to the map reference at any worker count.
void BM_P3_ColumnarWorkers(benchmark::State& state) {
  EvalFixture& f = P3Fixture(1);
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  EvalOptions options = EngineOptions(1);
  options.pool = &pool;
  std::vector<Row> rows;
  for (auto _ : state) {
    auto result =
        revere::query::EvaluateUnion(f.net.storage(), f.joins, options);
    rows = result.ok() ? std::move(result).value() : std::vector<Row>{};
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows.size());
  state.counters["identical"] = rows == P3Reference() ? 1.0 : 0.0;
}
BENCHMARK(BM_P3_ColumnarWorkers)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
