// Experiment C9: the two halves of GLAV reformulation (§3.1.1: "our
// query answering algorithm has aspects of both global-as-view and
// local-as-view: it performs query unfolding and query reformulation
// using views").
//
// Measures GAV unfolding versus LAV answering-queries-using-views as
// the number of views grows, plus the Chandra-Merlin machinery they
// lean on (containment check, minimization). Paper-predicted shape: GAV
// unfolding is cheap (polynomial); LAV rewriting with MiniCon covers
// grows with the cover combinations that partition the query, one
// rewriting each: BM_LavRewrite's n views (a quarter each over r, over
// s and over their join) give (n/4)^2 + n/4; containment is exponential
// only in query size, which stays small.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "src/common/strings.h"
#include "src/query/containment.h"
#include "src/query/cq.h"
#include "src/query/rewrite.h"
#include "src/query/unfold.h"

namespace {

using revere::query::ConjunctiveQuery;
using revere::query::RewriteOptions;
using revere::query::RewriteStats;
using revere::query::ViewRegistry;

ConjunctiveQuery Parse(const std::string& s) {
  return ConjunctiveQuery::Parse(s).value();
}

// n views over relations r0..r(n-1), forming a chain of definitions for
// GAV unfolding depth tests.
void BM_GavUnfold(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  ViewRegistry views;
  for (int i = 0; i < depth; ++i) {
    views.Add(Parse(revere::Numbered("lvl", i) + "(X, Y) :- lvl" +
                    std::to_string(i + 1) + "(X, Z), lvl" +
                    std::to_string(i + 1) + "(Z, Y)"));
  }
  ConjunctiveQuery q = Parse("q(X, Y) :- lvl0(X, Y)");
  size_t atoms = 0;
  // Each unfolding round substitutes one atom; a chain of depth d
  // produces 2^d leaf atoms, so the round budget must cover that.
  int max_rounds = (1 << depth) + 2;
  for (auto _ : state) {
    auto result = revere::query::UnfoldQueryUnique(q, views, max_rounds);
    atoms = result.ok() ? result.value().body().size() : 0;
    benchmark::DoNotOptimize(result);
  }
  state.counters["unfold_depth"] = static_cast<double>(depth);
  state.counters["result_atoms"] = static_cast<double>(atoms);
}
BENCHMARK(BM_GavUnfold)->Arg(2)->Arg(4)->Arg(8)->Unit(
    benchmark::kMicrosecond);

// LAV: rewrite a 2-join query using v views, a fraction of which are
// useful. arg0: number of views.
void BM_LavRewrite(benchmark::State& state) {
  int nviews = static_cast<int>(state.range(0));
  std::vector<ConjunctiveQuery> views;
  for (int i = 0; i < nviews; ++i) {
    switch (i % 4) {
      case 0:
        views.push_back(Parse(revere::Numbered("v", i) +
                              "(X, Y) :- r(X, Y)"));
        break;
      case 1:
        views.push_back(Parse(revere::Numbered("v", i) +
                              "(Y, Z) :- s(Y, Z)"));
        break;
      case 2:
        views.push_back(Parse(revere::Numbered("v", i) +
                              "(X, Z) :- r(X, Y), s(Y, Z)"));
        break;
      default:  // irrelevant view
        views.push_back(Parse(revere::Numbered("v", i) +
                              "(A, B) :- t(A, B)"));
    }
  }
  ConjunctiveQuery q = Parse("q(X, Z) :- r(X, Y), s(Y, Z)");
  RewriteStats stats;
  size_t rewritings = 0;
  for (auto _ : state) {
    auto result =
        revere::query::RewriteUsingViews(q, views, RewriteOptions{}, &stats);
    rewritings = result.ok() ? result.value().size() : 0;
    benchmark::DoNotOptimize(result);
  }
  state.counters["views"] = static_cast<double>(nviews);
  state.counters["covers"] = static_cast<double>(stats.covers);
  state.counters["combinations"] = static_cast<double>(stats.combinations);
  state.counters["rewritings"] = static_cast<double>(rewritings);
}
BENCHMARK(BM_LavRewrite)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Unit(
    benchmark::kMillisecond);

void BM_Containment(benchmark::State& state) {
  int size = static_cast<int>(state.range(0));
  // Chain queries: q1 is a path of length n, q2 a cycle of length n.
  std::string body1, body2;
  for (int i = 0; i < size; ++i) {
    if (i > 0) {
      body1 += ", ";
      body2 += ", ";
    }
    body1 += "e(X" + std::to_string(i) + ", X" + std::to_string(i + 1) + ")";
    body2 += "e(Y" + std::to_string(i) + ", Y" +
             std::to_string((i + 1) % size) + ")";
  }
  ConjunctiveQuery path = Parse("q(X0) :- " + body1);
  ConjunctiveQuery cycle = Parse("q(Y0) :- " + body2);
  bool contains = false;
  for (auto _ : state) {
    contains = revere::query::Contains(path, cycle);
    benchmark::DoNotOptimize(contains);
  }
  state.counters["query_size"] = static_cast<double>(size);
  state.counters["path_contains_cycle"] = contains ? 1.0 : 0.0;
}
BENCHMARK(BM_Containment)->Arg(3)->Arg(5)->Arg(7)->Unit(
    benchmark::kMicrosecond);

void BM_Minimization(benchmark::State& state) {
  // A query with heavy redundancy: the same atom pattern repeated with
  // fresh existentials minimizes to one atom.
  int copies = static_cast<int>(state.range(0));
  std::string body;
  for (int i = 0; i < copies; ++i) {
    if (i > 0) body += ", ";
    body += "r(X, Y" + std::to_string(i) + ")";
  }
  ConjunctiveQuery q = Parse("q(X) :- " + body);
  size_t atoms = 0;
  for (auto _ : state) {
    auto m = revere::query::Minimize(q);
    atoms = m.body().size();
    benchmark::DoNotOptimize(m);
  }
  state.counters["input_atoms"] = static_cast<double>(copies);
  state.counters["minimized_atoms"] = static_cast<double>(atoms);
}
BENCHMARK(BM_Minimization)->Arg(2)->Arg(4)->Arg(8)->Unit(
    benchmark::kMicrosecond);

}  // namespace
