// Experiments P1 (parallel, allocation-lean query answering, ISSUE 2)
// and P3 (columnar vectorized execution, ISSUE 7).
//
// Sweeps (a) the binding representation — legacy string-keyed map
// copies vs slot-compiled vector<Value> bindings — and the on-demand
// hash-index path, single-threaded; and (b) the thread-pool worker
// count (1/2/4/8) for the parallel union evaluator and the parallel
// rewriting evaluation inside PdmsNetwork::Answer. Workloads: the
// Figure-2 six-university network and a scaled random-topology
// universe (datagen), with a full-sweep union, and a per-peer
// title-self-join union whose inner atom has a bound-but-unindexed
// position — the case the on-demand index builder exists for.
//
// Determinism contract under test: every parallel configuration must
// produce byte-identical rows to the serial evaluator (merge happens
// in rewriting order through one dedup set); the `identical` counter
// is 1.0 when the last measured run matched the serial reference.
//
// Counters: rows (result size), identical (determinism check),
// indexes (total indexed columns after the run — shows memoization).
//
// P3 sweeps the evaluation engine itself — map vs slots vs columnar —
// over the same title-self-join union P1 measures, one isolated
// fixture per engine. The benchmark names carry an `engine_<name>`
// suffix so the runner's --engine flag (and the smoke_engine_sweep CI
// target) can select one engine per process.
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
/// second atom gets its title position bound by the first, exercising
/// the probe-vs-scan (and on-demand index) decision.
ConjunctiveQuery TitleSelfJoin(const PdmsGenReport& report, size_t i) {
  std::string rel =
      QualifiedName(report.peer_names[i], report.relation_names[i]);
  Atom first{rel, {QTerm::Var("X"), QTerm::Var("T"), QTerm::Var("A")}};
  Atom second{rel, {QTerm::Var("Y"), QTerm::Var("T"), QTerm::Var("B")}};
  return ConjunctiveQuery("samet" + std::to_string(i),
                          {QTerm::Var("X"), QTerm::Var("Y")},
                          {first, second});
}

/// One scaled-universe instance. Benchmarks that must not share
/// memoized on-demand indexes (the binding-representation sweep) each
/// get their own copy; the worker sweeps intentionally share one.
struct EvalFixture {
  EvalFixture() {
    PdmsGenOptions options;
    options.topology = Topology::kRandom;
    options.peers = SmokeRun() ? 6 : 12;
    options.rows_per_peer = SmokeRun() ? 50 : 400;
    options.seed = 2003;
    auto r = BuildUniversityPdms(&net, options);
    if (r.ok()) report = r.value();
    auto rewritings = net.Reformulate(AllCoursesQuery(report, 0));
    if (rewritings.ok()) sweep = rewritings.value();
    for (size_t i = 0; i < report.peer_names.size(); ++i) {
      joins.push_back(TitleSelfJoin(report, i));
    }
  }

  size_t TotalIndexes() const {
    size_t n = 0;
    for (const auto& name : net.storage().TableNames()) {
      n += net.storage().GetTable(name).value()->index_count();
    }
    return n;
  }

  PdmsNetwork net;
  PdmsGenReport report;
  std::vector<ConjunctiveQuery> sweep;  // all-courses rewritings
  std::vector<ConjunctiveQuery> joins;  // one title self-join per peer
};

/// repr argument decoding for the binding sweeps.
EvalOptions ReprOptions(int repr) {
  EvalOptions options;
  options.engine = repr >= 1 ? EvalEngine::kSlots : EvalEngine::kMap;
  options.on_demand_indexes = repr >= 2;
  return options;
}

/// Fixtures isolated per repr so one configuration's memoized indexes
/// cannot speed up another's measurement.
EvalFixture& ReprFixture(int repr) {
  static EvalFixture* fixtures[3] = {nullptr, nullptr, nullptr};
  if (fixtures[repr] == nullptr) fixtures[repr] = new EvalFixture();
  return *fixtures[repr];
}

/// Shared fixture for the worker sweeps (slots + on-demand indexes;
/// the first run pays the index build, every run after probes).
EvalFixture& WorkerFixture() {
  static EvalFixture* fixture = new EvalFixture();
  return *fixture;
}

// --------------------------------------------------------------------
// (a) Binding representation, single-threaded.
//     arg0: 0 = legacy map bindings, 1 = slot bindings,
//           2 = slot bindings + on-demand indexes.
// --------------------------------------------------------------------

/// Full-sweep union: every rewriting scans one base table — isolates
/// the per-row binding cost with no join or index in sight.
void BM_P1_SweepBinding(benchmark::State& state) {
  int repr = static_cast<int>(state.range(0));
  EvalFixture& f = ReprFixture(repr);
  EvalOptions options = ReprOptions(repr);
  size_t rows = 0;
  for (auto _ : state) {
    auto result = revere::query::EvaluateUnion(f.net.storage(), f.sweep,
                                               options);
    rows = result.ok() ? result.value().size() : 0;
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["rewritings"] = static_cast<double>(f.sweep.size());
}
BENCHMARK(BM_P1_SweepBinding)->DenseRange(0, 1, 1)
    ->Unit(benchmark::kMillisecond);

/// Join union: the second atom's title position is bound but not
/// indexed — repr 2 builds the index on demand and probes, repr 0/1
/// rescan the table for every outer row.
void BM_P1_JoinBinding(benchmark::State& state) {
  int repr = static_cast<int>(state.range(0));
  EvalFixture& f = ReprFixture(repr);
  EvalOptions options = ReprOptions(repr);
  size_t rows = 0;
  for (auto _ : state) {
    auto result = revere::query::EvaluateUnion(f.net.storage(), f.joins,
                                               options);
    rows = result.ok() ? result.value().size() : 0;
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["indexes"] = static_cast<double>(f.TotalIndexes());
}
BENCHMARK(BM_P1_JoinBinding)->DenseRange(0, 2, 1)
    ->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------
// (b) Thread-pool scaling. arg0: worker count.
// --------------------------------------------------------------------

void BM_P1_UnionWorkers(benchmark::State& state) {
  EvalFixture& f = WorkerFixture();
  EvalOptions serial;  // slots + on-demand (defaults)
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
// Experiment P3 (ISSUE 7): the evaluation engine sweep over the P1
// title-self-join union. One isolated fixture per engine so the slot
// engine's memoized on-demand indexes (or the columnar engine's
// snapshots) cannot subsidize another engine's measurement, and one
// shared reference fixture whose slot-engine answer pins correctness.
// --------------------------------------------------------------------

EvalOptions EngineOptions(int engine_id) {
  EvalOptions options;
  switch (engine_id) {
    case 0:
      options.engine = EvalEngine::kMap;
      options.on_demand_indexes = false;
      break;
    case 1:
      options.engine = EvalEngine::kSlots;
      options.on_demand_index_min_rows = 0;
      break;
    default:
      options.engine = EvalEngine::kColumnar;
      break;
  }
  return options;
}

EvalFixture& P3Fixture(int engine_id) {
  static EvalFixture* fixtures[3] = {nullptr, nullptr, nullptr};
  if (fixtures[engine_id] == nullptr) fixtures[engine_id] = new EvalFixture();
  return *fixtures[engine_id];
}

/// Slot-engine rows computed once on a dedicated fixture: comparing
/// against it never builds indexes inside a measured fixture.
const std::vector<Row>& P3Reference() {
  static std::vector<Row>* reference = [] {
    static EvalFixture fixture;
    EvalOptions options = EngineOptions(1);
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
BENCHMARK_CAPTURE(BM_P3_EngineJoin, engine_slots, 1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_P3_EngineJoin, engine_columnar, 2)
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
BENCHMARK_CAPTURE(BM_P4_JoinPipeline, engine_columnar, 2)
    ->Unit(benchmark::kMillisecond);

/// Cold-start cost the columnar engine pays once per table generation:
/// dictionary-encode + counting-sort every table in the fixture.
void BM_P3_ColumnarBuild(benchmark::State& state) {
  EvalFixture& f = P3Fixture(2);
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
/// stay byte-identical to the serial slot engine at any worker count.
void BM_P3_ColumnarWorkers(benchmark::State& state) {
  EvalFixture& f = P3Fixture(2);
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  EvalOptions options = EngineOptions(2);
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
