#ifndef REVERE_RDF_TRIPLE_STORE_H_
#define REVERE_RDF_TRIPLE_STORE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/rdf/triple.h"
#include "src/storage/table.h"

namespace revere::rdf {

/// A triple pattern: each position is either a constant or a wildcard
/// (nullopt). Used by Match() and by graph queries.
struct TriplePattern {
  std::optional<std::string> subject;
  std::optional<std::string> predicate;
  std::optional<std::string> object;
};

/// The MANGROVE annotation repository (§2.2): triples stored "in a
/// relational database using a simple graph representation". Backed by a
/// storage::Table with hash indexes on subject, predicate, and object —
/// our stand-in for the paper's Jena-over-RDBMS stack.
class TripleStore {
 public:
  TripleStore();

  /// Adds one statement (duplicates allowed — dirty data is legal, §2.3).
  Status Add(const Triple& triple);
  Status Add(const std::string& subject, const std::string& predicate,
             const std::string& object, const std::string& source = "");

  /// Removes every triple published from `source`; returns count removed.
  /// This is how republishing a page replaces its previous annotations.
  size_t RemoveSource(const std::string& source);

  /// All triples matching `pattern` (wildcards match anything). Uses the
  /// most selective available index.
  std::vector<Triple> Match(const TriplePattern& pattern) const;

  /// All distinct subjects having `predicate` (convenience for apps).
  std::vector<std::string> SubjectsWithPredicate(
      const std::string& predicate) const;

  /// First object of (subject, predicate, ?), if any.
  std::optional<std::string> ObjectOf(const std::string& subject,
                                      const std::string& predicate) const;

  /// All objects of (subject, predicate, ?).
  std::vector<std::string> ObjectsOf(const std::string& subject,
                                     const std::string& predicate) const;

  size_t size() const { return table_->size(); }

 private:
  /// By pointer so TripleStore stays movable: Table itself is pinned by
  /// address (MVCC snapshots key on it) and neither copies nor moves.
  std::unique_ptr<storage::Table> table_;
};

}  // namespace revere::rdf

#endif  // REVERE_RDF_TRIPLE_STORE_H_
