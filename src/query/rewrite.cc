#include "src/query/rewrite.h"

#include <algorithm>
#include <optional>
#include <string>

#include "src/query/containment.h"
#include "src/query/cover.h"

namespace revere::query {

namespace {

/// A MiniCon description: a cover of query atoms by one view.
struct Description {
  const ConjunctiveQuery* view;
  Cover cover;
};

/// The rewriting one partition of the query body yields: one view atom
/// per description, under the union of the descriptions' bindings, or
/// nullopt when two of them bind a variable to distinct constants.
std::optional<ConjunctiveQuery> Combine(
    const ConjunctiveQuery& query,
    const std::vector<const Description*>& chosen) {
  // A union-find over the bindings: each variable points at the term its
  // class was merged into, and a class holds at most one constant.
  Substitution parent;
  auto find = [&parent](QTerm t) {
    while (t.is_var()) {
      auto it = parent.find(t.var());
      if (it == parent.end()) break;
      t = it->second;
    }
    return t;
  };
  for (const Description* d : chosen) {
    for (const auto& [var, term] : d->cover.binding) {
      const QTerm a = find(QTerm::Var(var));
      const QTerm b = find(term);
      if (a == b) continue;
      if (!a.is_var() && !b.is_var()) return std::nullopt;
      parent[a.is_var() ? a.var() : b.var()] = a.is_var() ? b : a;
    }
  }
  Substitution merged;
  for (const auto& [var, term] : parent) merged[var] = find(term);
  std::vector<Atom> body;
  int fresh = 0;
  for (const Description* d : chosen) {
    Atom atom{d->view->name(), {}};
    for (const std::optional<QTerm>& t : d->cover.exported) {
      atom.args.push_back(t.has_value()
                              ? Apply(merged, *t)
                              : QTerm::Var("_f" + std::to_string(fresh++)));
    }
    if (std::find(body.begin(), body.end(), atom) == body.end()) {
      body.push_back(std::move(atom));
    }
  }
  std::vector<QTerm> head;
  head.reserve(query.head().size());
  for (const QTerm& t : query.head()) head.push_back(Apply(merged, t));
  return ConjunctiveQuery(query.name(), std::move(head), std::move(body));
}

}  // namespace

Result<ConjunctiveQuery> ExpandRewriting(
    const ConjunctiveQuery& rewriting,
    const std::vector<ConjunctiveQuery>& views) {
  ViewRegistry registry;
  for (const auto& v : views) registry.Add(v);
  // View names are unique per rewriting atom here; if a name has several
  // definitions the union unfolding would apply, which is not meaningful
  // for an expansion check, so require uniqueness.
  return UnfoldQueryUnique(rewriting, registry);
}

Result<std::vector<ConjunctiveQuery>> RewriteUsingViews(
    const ConjunctiveQuery& query, const std::vector<ConjunctiveQuery>& views,
    const RewriteOptions& options, RewriteStats* stats) {
  RewriteStats local;
  const size_t n = query.body().size();
  // The descriptions, grouped by their first atom.
  std::vector<std::vector<Description>> starting_at(n);
  for (size_t a = 0; a < n; ++a) {
    for (const ConjunctiveQuery& view : views) {
      for (Cover& cover : FindCovers(query, a, view)) {
        starting_at[a].push_back(Description{&view, std::move(cover)});
      }
    }
    local.covers += starting_at[a].size();
  }

  // Depth first over the partitions: the first uncovered atom takes a
  // description that starts there and overlaps no chosen one, so each
  // partition is reached once.
  std::vector<ConjunctiveQuery> kept;
  std::vector<const Description*> chosen;
  std::vector<bool> covered(n, false);
  auto combine = [&](auto& self) -> void {
    size_t first = 0;
    while (first < n && covered[first]) ++first;
    if (first == n) {
      ++local.combinations;
      std::optional<ConjunctiveQuery> rewriting = Combine(query, chosen);
      if (!rewriting.has_value()) return;
      if (options.prune_contained) {
        for (const ConjunctiveQuery& prior : kept) {
          ++local.containment_checks;
          if (Contains(prior, *rewriting)) return;
        }
      }
      kept.push_back(std::move(*rewriting));
      return;
    }
    for (const Description& d : starting_at[first]) {
      if (local.combinations >= options.max_candidates) return;
      const std::vector<size_t>& atoms = d.cover.atoms;
      if (std::any_of(atoms.begin(), atoms.end(),
                      [&](size_t a) { return covered[a]; })) {
        continue;
      }
      for (size_t a : atoms) covered[a] = true;
      chosen.push_back(&d);
      self(self);
      chosen.pop_back();
      for (size_t a : atoms) covered[a] = false;
    }
  };
  if (n > 0) combine(combine);
  if (stats != nullptr) *stats = local;
  return kept;
}

}  // namespace revere::query
