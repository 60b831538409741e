// Experiment F2 (paper Figure 2): the six-university PDMS.
//
// Measures, for a query posed at each peer, the end-to-end answering
// cost over the transitive closure of mappings, plus answer
// completeness (fraction of the global course inventory reached).
// Paper-predicted shape: every peer sees 100% of the data with only a
// linear number of mappings, with cost growing with the peer's mapping
// distance from the rest of the network.

#include <benchmark/benchmark.h>

#include "src/datagen/topology.h"
#include "src/piazza/pdms.h"
#include "src/piazza/peer.h"
#include "src/query/cq.h"

namespace {

using revere::datagen::AllCoursesQuery;
using revere::datagen::BuildUniversityPdms;
using revere::datagen::PdmsGenOptions;
using revere::datagen::PdmsGenReport;
using revere::datagen::Topology;
using revere::piazza::ExecutionStats;
using revere::piazza::PdmsNetwork;

struct Fig2Fixture {
  Fig2Fixture() {
    PdmsGenOptions options;
    options.topology = Topology::kFigure2;
    options.rows_per_peer = 200;
    options.seed = 2003;
    auto r = BuildUniversityPdms(&net, options);
    if (r.ok()) report = r.value();
  }
  PdmsNetwork net;
  PdmsGenReport report;
};

Fig2Fixture& Fixture() {
  static Fig2Fixture* fixture = new Fig2Fixture();
  return *fixture;
}

void BM_Fig2_AnswerAtPeer(benchmark::State& state) {
  Fig2Fixture& f = Fixture();
  size_t peer = static_cast<size_t>(state.range(0));
  auto query = AllCoursesQuery(f.report, peer);
  size_t answers = 0;
  ExecutionStats stats;
  for (auto _ : state) {
    auto rows = f.net.Answer(query, {}, &stats);
    answers = rows.ok() ? rows.value().size() : 0;
    benchmark::DoNotOptimize(answers);
  }
  state.SetLabel(f.report.peer_names[peer]);
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["completeness"] =
      static_cast<double>(answers) /
      static_cast<double>(f.report.total_rows);
  state.counters["rewritings"] =
      static_cast<double>(stats.rewritings_evaluated);
  state.counters["peers_contacted"] =
      static_cast<double>(stats.peers_contacted);
  state.counters["simulated_net_ms"] = stats.simulated_network_ms;
  state.counters["mappings_total"] =
      static_cast<double>(f.report.mapping_count);
}
BENCHMARK(BM_Fig2_AnswerAtPeer)->DenseRange(0, 5, 1);

// Reformulation cost alone (no evaluation) at each peer.
void BM_Fig2_ReformulateAtPeer(benchmark::State& state) {
  Fig2Fixture& f = Fixture();
  size_t peer = static_cast<size_t>(state.range(0));
  auto query = AllCoursesQuery(f.report, peer);
  revere::piazza::ReformulationOptions opts;
  opts.use_plan_cache = false;  // time the search, not cache hits
  revere::piazza::ReformulationStats stats;
  for (auto _ : state) {
    auto r = f.net.Reformulate(query, opts, &stats);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(f.report.peer_names[peer]);
  state.counters["nodes_expanded"] =
      static_cast<double>(stats.nodes_expanded);
  state.counters["rewritings"] = static_cast<double>(stats.rewritings);
}
BENCHMARK(BM_Fig2_ReformulateAtPeer)->DenseRange(0, 5, 1);

// Ablation A2: ship-query vs ship-data execution (§3.1.2 "distribute
// each query in the PDMS to the peer that will provide the best
// performance"). arg0: 0 = ship-query, 1 = ship-data; arg1: 0 =
// selective query, 1 = full sweep.
void BM_Fig2_ExecutionStrategy(benchmark::State& state) {
  Fig2Fixture& f = Fixture();
  revere::piazza::NetworkCostModel cost;
  cost.strategy = state.range(0) == 0
                      ? revere::piazza::ExecutionStrategy::kShipQuery
                      : revere::piazza::ExecutionStrategy::kShipData;
  cost.per_row_ms = 0.1;
  std::string rel = revere::piazza::QualifiedName(
      f.report.peer_names[0], f.report.relation_names[0]);
  auto query =
      state.range(1) == 0
          ? revere::query::ConjunctiveQuery::Parse(
                "q(I, P) :- " + rel + "(I, \"Mechanics\", P)")
                .value()
          : AllCoursesQuery(f.report, 0);
  ExecutionStats stats;
  for (auto _ : state) {
    auto rows = f.net.Answer(query, {}, &stats, cost);
    benchmark::DoNotOptimize(rows);
  }
  state.SetLabel(std::string(state.range(0) == 0 ? "ship-query"
                                                 : "ship-data") +
                 (state.range(1) == 0 ? "/selective" : "/full-sweep"));
  state.counters["rows_shipped"] = static_cast<double>(stats.rows_shipped);
  state.counters["simulated_net_ms"] = stats.simulated_network_ms;
}
BENCHMARK(BM_Fig2_ExecutionStrategy)->ArgsProduct({{0, 1}, {0, 1}});

// A selective query (one specific course title) from the most remote
// peer — constants must push through the mapping chain.
void BM_Fig2_SelectiveQuery(benchmark::State& state) {
  Fig2Fixture& f = Fixture();
  std::string rel = revere::piazza::QualifiedName(
      f.report.peer_names[3], f.report.relation_names[3]);
  auto q = revere::query::ConjunctiveQuery::Parse(
      "q(I, P) :- " + rel + "(I, \"Mechanics\", P)");
  size_t answers = 0;
  for (auto _ : state) {
    auto rows = f.net.Answer(q.value());
    answers = rows.ok() ? rows.value().size() : 0;
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_Fig2_SelectiveQuery);

}  // namespace
