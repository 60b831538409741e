#ifndef REVERE_QUERY_REWRITE_H_
#define REVERE_QUERY_REWRITE_H_

#include <vector>

#include "src/common/status.h"
#include "src/query/cq.h"
#include "src/query/unfold.h"

namespace revere::query {

/// Controls for answering-queries-using-views.
struct RewriteOptions {
  /// Cap on the cover combinations examined.
  size_t max_candidates = 20000;
  /// Drop a rewriting contained in an already-kept one, the two compared
  /// as queries over the view relations.
  bool prune_contained = true;
};

/// Statistics from one rewriting run (used by the C9 benchmark).
struct RewriteStats {
  /// MiniCon descriptions formed: covers of query atoms by views.
  size_t covers = 0;
  /// Cover combinations that partition the query body, one rewriting
  /// each before `prune_contained`.
  size_t combinations = 0;
  /// Chandra–Merlin checks `prune_contained` ran.
  size_t containment_checks = 0;
};

/// Answering queries using views (local-as-view) with MiniCon
/// (Pottinger & Halevy, VLDB Journal 2001): given `query` over a
/// "mediated" vocabulary and `views` (each a CQ over that vocabulary,
/// named by its view relation), forms every cover of the query's atoms
/// by a view (query::FindCovers, a MiniCon description) and returns one
/// conjunctive rewriting over the view relations per combination of
/// covers that partitions the query body. Their union is the maximally
/// contained rewriting.
Result<std::vector<ConjunctiveQuery>> RewriteUsingViews(
    const ConjunctiveQuery& query, const std::vector<ConjunctiveQuery>& views,
    const RewriteOptions& options = {}, RewriteStats* stats = nullptr);

/// Expands a rewriting over view heads back into the base vocabulary by
/// unfolding each view atom with its definition.
Result<ConjunctiveQuery> ExpandRewriting(
    const ConjunctiveQuery& rewriting,
    const std::vector<ConjunctiveQuery>& views);

}  // namespace revere::query

#endif  // REVERE_QUERY_REWRITE_H_
