// Experiment C4: updategram-based incremental view maintenance versus
// recompute (§3.1.2: "we would prefer to make incremental updates
// versus simply invalidating views and re-reading data ... the query
// optimizer decides which updategrams to use in a cost-based fashion").
//
// Sweeps base-table size and delta size for a two-way join view.
// Paper-predicted shape: incremental wins for small deltas and loses to
// recompute as the delta approaches the base size — a crossover the
// cost model must land on the right side of.

#include <benchmark/benchmark.h>

#include <string>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/piazza/views.h"
#include "src/query/cq.h"
#include "src/storage/catalog.h"

namespace {

using revere::Rng;
using revere::piazza::ApplyToBase;
using revere::piazza::EstimateRefreshCost;
using revere::piazza::MaterializedView;
using revere::piazza::RefreshChoice;
using revere::piazza::Updategram;
using revere::query::ConjunctiveQuery;
using revere::storage::Catalog;
using revere::storage::Row;
using revere::storage::TableSchema;
using revere::storage::Value;

ConjunctiveQuery ViewDef() {
  return ConjunctiveQuery::Parse("v(A, C) :- r(A, B), s(B, C)").value();
}

void FillBase(Catalog* catalog, size_t rows, Rng* rng) {
  auto r = catalog->CreateTable(TableSchema::AllStrings("r", {"a", "b"}));
  auto s = catalog->CreateTable(TableSchema::AllStrings("s", {"b", "c"}));
  size_t join_keys = rows / 4 + 1;
  for (size_t i = 0; i < rows; ++i) {
    (void)(*r)->Insert({Value(revere::Numbered("a", i)),
                        Value(revere::Numbered("k", rng->Index(join_keys)))});
    (void)(*s)->Insert({Value(revere::Numbered("k", rng->Index(join_keys))),
                        Value(revere::Numbered("c", i))});
  }
}

Updategram MakeDelta(size_t inserts, size_t base, Rng* rng) {
  Updategram u;
  u.relation = "r";
  size_t join_keys = base / 4 + 1;
  for (size_t i = 0; i < inserts; ++i) {
    u.inserts.push_back(
        {Value(revere::Numbered("new", i)),
         Value(revere::Numbered("k", rng->Index(join_keys)))});
  }
  return u;
}

// arg0: base rows, arg1: delta rows.
void BM_IncrementalMaintain(benchmark::State& state) {
  size_t base = static_cast<size_t>(state.range(0));
  size_t delta_size = static_cast<size_t>(state.range(1));
  Rng rng(7);
  Catalog catalog;
  FillBase(&catalog, base, &rng);
  MaterializedView view(ViewDef());
  if (!view.Recompute(catalog).ok()) {
    state.SkipWithError("recompute failed");
    return;
  }
  Updategram delta = MakeDelta(delta_size, base, &rng);
  if (!ApplyToBase(&catalog, delta).ok()) {
    state.SkipWithError("apply failed");
    return;
  }
  for (auto _ : state) {
    MaterializedView working = view;  // copy: same pre-delta state
    auto status = working.ApplyUpdategram(catalog, delta);
    benchmark::DoNotOptimize(status);
  }
  auto estimate = EstimateRefreshCost(catalog, ViewDef(), delta);
  state.counters["view_rows"] = static_cast<double>(view.size());
  state.counters["cost_model_says_incremental"] =
      estimate.choice == RefreshChoice::kIncremental ? 1.0 : 0.0;
}
BENCHMARK(BM_IncrementalMaintain)
    ->ArgsProduct({{1000, 10000}, {1, 10, 100, 1000}})
    ->Unit(benchmark::kMicrosecond);

void BM_FullRecompute(benchmark::State& state) {
  size_t base = static_cast<size_t>(state.range(0));
  Rng rng(7);
  Catalog catalog;
  FillBase(&catalog, base, &rng);
  MaterializedView view(ViewDef());
  for (auto _ : state) {
    auto status = view.Recompute(catalog);
    benchmark::DoNotOptimize(status);
  }
  state.counters["view_rows"] = static_cast<double>(view.size());
}
BENCHMARK(BM_FullRecompute)->Arg(1000)->Arg(10000)->Unit(
    benchmark::kMicrosecond);

// Updategram propagation to a downstream peer: derive the view-level
// delta instead of shipping the whole view (§3.1.2: "Updategrams on
// base data can be combined to create updategrams for views").
void BM_DeriveViewDelta(benchmark::State& state) {
  size_t base = static_cast<size_t>(state.range(0));
  Rng rng(9);
  Catalog catalog;
  FillBase(&catalog, base, &rng);
  MaterializedView view(ViewDef());
  if (!view.Recompute(catalog).ok()) {
    state.SkipWithError("recompute failed");
    return;
  }
  Updategram delta = MakeDelta(10, base, &rng);
  if (!ApplyToBase(&catalog, delta).ok()) {
    state.SkipWithError("apply failed");
    return;
  }
  size_t forwarded = 0;
  for (auto _ : state) {
    auto view_delta = view.DeriveViewDelta(catalog, delta);
    forwarded = view_delta.ok() ? view_delta.value().size() : 0;
    benchmark::DoNotOptimize(view_delta);
  }
  state.counters["forwarded_rows"] = static_cast<double>(forwarded);
  state.counters["full_view_rows"] = static_cast<double>(view.size());
}
BENCHMARK(BM_DeriveViewDelta)->Arg(1000)->Arg(10000)->Unit(
    benchmark::kMicrosecond);

}  // namespace
