// Substrate micro-benchmarks: the triple store underlying the RDF
// layer. Not tied to a paper claim; they bound what the higher layers
// can possibly achieve and catch substrate regressions.

#include <benchmark/benchmark.h>

#include <optional>
#include <string>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/rdf/triple_store.h"

namespace {

using revere::Rng;

void BM_TripleStoreInsert(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    revere::rdf::TripleStore store;
    for (int i = 0; i < state.range(0); ++i) {
      (void)store.Add(revere::Numbered("s", rng.Uniform(1000)), "p",
                      revere::Numbered("o", i), "src");
    }
    benchmark::DoNotOptimize(store.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TripleStoreInsert)->Arg(1000)->Arg(10000);

void BM_TripleStoreMatch(benchmark::State& state) {
  revere::rdf::TripleStore store;
  Rng rng(8);
  size_t n = static_cast<size_t>(state.range(0));
  for (size_t i = 0; i < n; ++i) {
    (void)store.Add(revere::Numbered("s", rng.Uniform(n / 10 + 1)),
                    revere::Numbered("p", rng.Uniform(8)),
                    revere::Numbered("o", rng.Uniform(100)), "src");
  }
  for (auto _ : state) {
    auto hits = store.Match({"s7", "p1", std::nullopt});
    benchmark::DoNotOptimize(hits);
  }
  state.counters["triples"] = static_cast<double>(store.size());
}
BENCHMARK(BM_TripleStoreMatch)->Arg(10000)->Arg(100000);

}  // namespace
