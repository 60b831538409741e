#ifndef REVERE_PIAZZA_REFORMULATION_H_
#define REVERE_PIAZZA_REFORMULATION_H_

#include <cstddef>

namespace revere::piazza {

/// Knobs for transitive-closure query reformulation (§3.1.1). Every
/// field participates in the plan-cache key (two calls with different
/// options never share a cached plan) except `use_plan_cache` itself.
struct ReformulationOptions {
  /// Maximum mapping-application depth along any path.
  int max_depth = 12;
  /// Cap on emitted rewritings.
  size_t max_rewritings = 512;
  /// Heuristic: drop reformulations syntactically identical (up to
  /// variable renaming) to ones already seen — "prune redundant paths".
  bool prune_duplicates = true;
  /// Heuristic: drop reformulations containing a relation that cannot
  /// reach stored data through any mapping chain — "prune irrelevant
  /// paths".
  bool prune_unreachable = true;
  /// Stronger (and costlier) redundancy pruning: drop an emitted
  /// rewriting when it is *semantically contained* in one already
  /// emitted (Chandra-Merlin check per pair) — evaluating it cannot add
  /// answers. Off by default; syntactic dedup usually suffices.
  bool prune_contained = false;
  /// Consult (and fill) the network's reformulation plan cache. The
  /// cache is exact — answers are byte-identical either way — so this
  /// exists for differential tests and cold-path benchmarks.
  bool use_plan_cache = true;

  // ---- Search at scale ---------------------------------------------

  /// Where the search finds the mappings that can rewrite a goal atom:
  /// the network's relation→mapping index (the default), or, when
  /// false, a scan of every mapping in registration order, forward
  /// before backward. The scan is the naive reference that tests and
  /// the `pruned_vs_exhaustive` fuzz oracle compare the index against;
  /// both yield the same rewritings and counters, and every other knob
  /// applies to either.
  bool use_route_search = true;
  /// Hop budget: a mapping application that would take a path past
  /// this many hops is not made (counted in `pruned_cost`), so a
  /// fractional budget prunes like its floor. 0 means unlimited.
  double max_path_cost = 0.0;
  /// Redundant-path elimination beyond syntactic dedup: skip mapping
  /// applications that re-enter a peer already on the path (cycle
  /// elimination) and drop emitted rewritings whose canonical
  /// fingerprint was already kept (counted in `pruned_redundant`).
  bool prune_redundant_paths = false;
};

/// Instrumentation from one reformulation (drives bench C3 and P2).
/// On a plan-cache hit the search counters (`nodes_expanded`,
/// `pruned_*`, `rewritings`) report the *cached run's* work — what it
/// cost to build the plan being reused — never zeros; only the
/// `plan_cache_*` flags tell the two apart.
struct ReformulationStats {
  size_t nodes_expanded = 0;
  size_t pruned_duplicates = 0;
  size_t pruned_unreachable = 0;
  size_t pruned_depth = 0;
  size_t pruned_contained = 0;
  /// Mapping applications not made because they would exceed the hop
  /// budget `max_path_cost` — the honest completeness ledger for
  /// budgeted search (a nonzero value means the rewriting set may be a
  /// subset of the exhaustive one). Reported as
  /// `rewritings_pruned_cost` in docs/benches.
  size_t pruned_cost = 0;
  /// Mapping applications and emissions dropped by redundant-path
  /// elimination (peer-path cycles, subsumed canonical fingerprints).
  /// Reported as `rewritings_pruned_redundant` in docs/benches.
  size_t pruned_redundant = 0;
  size_t rewritings = 0;
  /// 1 when this reformulation was served from the plan cache.
  size_t plan_cache_hits = 0;
  /// 1 when the cache was consulted and missed (computed + inserted).
  /// Both zero means the cache was disabled or bypassed.
  size_t plan_cache_misses = 0;
};

}  // namespace revere::piazza

#endif  // REVERE_PIAZZA_REFORMULATION_H_
