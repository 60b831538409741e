// Experiment C3: transitive-closure reformulation cost and the value of
// the pruning heuristics (§3.1.1: "our query answering algorithm is
// aided by heuristics that prune redundant and irrelevant paths through
// the space of mappings").
//
// Sweeps network size and topology with pruning on/off. Paper-predicted
// shape: without pruning the explored node count explodes on cyclic /
// redundant topologies (equality mappings make every edge two rules);
// with pruning it stays near-linear in the number of peers.

#include <benchmark/benchmark.h>

#include "src/datagen/topology.h"
#include "src/piazza/pdms.h"

namespace {

using revere::datagen::AllCoursesQuery;
using revere::datagen::BuildUniversityPdms;
using revere::datagen::PdmsGenOptions;
using revere::datagen::PdmsGenReport;
using revere::datagen::Topology;
using revere::piazza::PdmsNetwork;
using revere::piazza::ReformulationOptions;
using revere::piazza::ReformulationStats;

const char* TopologyName(int t) {
  switch (t) {
    case 0:
      return "chain";
    case 1:
      return "star";
    default:
      return "random";
  }
}

Topology TopologyOf(int t) {
  switch (t) {
    case 0:
      return Topology::kChain;
    case 1:
      return Topology::kStar;
    default:
      return Topology::kRandom;
  }
}

// arg0: topology, arg1: peers, arg2: pruning on/off.
void BM_Reformulate(benchmark::State& state) {
  PdmsNetwork net;
  PdmsGenOptions options;
  options.topology = TopologyOf(static_cast<int>(state.range(0)));
  options.peers = static_cast<size_t>(state.range(1));
  options.rows_per_peer = 1;  // reformulation cost only
  options.seed = 5;
  auto report = BuildUniversityPdms(&net, options);
  if (!report.ok()) {
    state.SkipWithError("build failed");
    return;
  }
  auto query = AllCoursesQuery(report.value(), 0);
  ReformulationOptions opts;
  opts.use_plan_cache = false;  // time the search, not cache hits
  opts.prune_duplicates = state.range(2) != 0;
  opts.max_depth = static_cast<int>(options.peers) + 2;
  opts.max_rewritings = 4096;
  ReformulationStats stats;
  for (auto _ : state) {
    auto r = net.Reformulate(query, opts, &stats);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(std::string(TopologyName(static_cast<int>(state.range(0)))) +
                 (opts.prune_duplicates ? "/pruned" : "/unpruned"));
  state.counters["peers"] = static_cast<double>(options.peers);
  state.counters["nodes_expanded"] =
      static_cast<double>(stats.nodes_expanded);
  state.counters["rewritings"] = static_cast<double>(stats.rewritings);
  state.counters["pruned_duplicates"] =
      static_cast<double>(stats.pruned_duplicates);
}
BENCHMARK(BM_Reformulate)
    ->ArgsProduct({{0, 1, 2}, {4, 8, 16, 32}, {1}})
    ->ArgsProduct({{0, 1, 2}, {4, 8}, {0}})  // unpruned blows up: keep small
    ->Unit(benchmark::kMillisecond);

// Irrelevant-path pruning: queries over unmapped relations should be
// rejected in O(1) instead of crawling the mapping graph.
void BM_IrrelevantQuery(benchmark::State& state) {
  PdmsNetwork net;
  PdmsGenOptions options;
  options.topology = Topology::kChain;
  options.peers = static_cast<size_t>(state.range(0));
  options.rows_per_peer = 1;
  auto report = BuildUniversityPdms(&net, options);
  if (!report.ok()) {
    state.SkipWithError("build failed");
    return;
  }
  auto query = revere::query::ConjunctiveQuery::Parse(
      "q(X) :- peer0:professor(X)");
  ReformulationOptions opts;
  opts.use_plan_cache = false;  // time the search, not cache hits
  opts.prune_unreachable = state.range(1) != 0;
  ReformulationStats stats;
  for (auto _ : state) {
    auto r = net.Reformulate(query.value(), opts, &stats);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(opts.prune_unreachable ? "reachability-pruned"
                                        : "no-reachability-pruning");
  state.counters["nodes_expanded"] =
      static_cast<double>(stats.nodes_expanded);
}
BENCHMARK(BM_IrrelevantQuery)
    ->ArgsProduct({{16, 64}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
