#ifndef REVERE_QUERY_COVER_H_
#define REVERE_QUERY_COVER_H_

#include <optional>
#include <vector>

#include "src/query/cq.h"

namespace revere::query {

/// A MiniCon cover (Pottinger & Halevy, VLDB Journal 2001): query atoms
/// that one use of a view can replace. A "view" is any CQ read as a head
/// over a body: a LAV view, or the side of a GLAV mapping a
/// reformulation step unifies with.
struct Cover {
  /// The covered query atoms, ascending.
  std::vector<size_t> atoms;
  /// Per view head position, the query term exported there: a query
  /// variable or a constant, or nullopt when no covered atom constrains
  /// the position.
  std::vector<std::optional<QTerm>> exported;
  /// What the cover imposes on the query's variables: each key is bound
  /// to a constant, or to the variable it is equated with because both
  /// land on one view variable.
  Substitution binding;
};

/// Every minimal cover of query atom `seed` by `view`: a set of query
/// atoms that contains `seed` and unifies, atom by atom, onto `view`'s
/// body atoms, such that
///  - every query head variable, query constant, and variable shared
///    with an atom outside the set lands on an exported (head) view
///    variable or on an equal constant;
///  - every variable that lands on an existential view variable has
///    all its atoms in the set; and
///  - such a variable lands on that one view variable at every
///    occurrence.
/// Minimal: an atom other than `seed` is in the set only because the
/// second rule pulls it in. A cover holding an atom before `seed` is
/// left out, because the call seeded at its first atom returns it, so
/// calling this for every atom yields each cover once. Covers come in
/// the order of the view atom `seed` maps to. `view` may share variable
/// names with `query`.
std::vector<Cover> FindCovers(const ConjunctiveQuery& query, size_t seed,
                              const ConjunctiveQuery& view);

}  // namespace revere::query

#endif  // REVERE_QUERY_COVER_H_
