#include "src/rdf/triple_store.h"

#include <unordered_set>

namespace revere::rdf {

namespace {
constexpr size_t kSubject = 0;
constexpr size_t kPredicate = 1;
constexpr size_t kObject = 2;
constexpr size_t kSource = 3;

Triple RowToTriple(const storage::Row& row) {
  return Triple{row[kSubject].as_string(), row[kPredicate].as_string(),
                row[kObject].as_string(), row[kSource].as_string()};
}
}  // namespace

TripleStore::TripleStore()
    : table_(std::make_unique<storage::Table>(storage::TableSchema::AllStrings(
          "triples", {"subject", "predicate", "object", "source"}))) {}

Status TripleStore::Add(const Triple& triple) {
  return table_->Insert({storage::Value(triple.subject),
                        storage::Value(triple.predicate),
                        storage::Value(triple.object),
                        storage::Value(triple.source)});
}

Status TripleStore::Add(const std::string& subject,
                        const std::string& predicate,
                        const std::string& object,
                        const std::string& source) {
  return Add(Triple{subject, predicate, object, source});
}

size_t TripleStore::RemoveSource(const std::string& source) {
  return table_->DeleteWhere(kSource, storage::Value(source));
}

std::vector<Triple> TripleStore::Match(const TriplePattern& pattern) const {
  std::vector<Triple> out;
  // Pick the first bound position as the grouped-index probe (subject
  // tends to be most selective, then object, then predicate); every
  // column of the pinned version's columnar snapshot is indexed.
  std::optional<size_t> probe_col;
  std::string probe_key;
  if (pattern.subject) {
    probe_col = kSubject;
    probe_key = *pattern.subject;
  } else if (pattern.object) {
    probe_col = kObject;
    probe_key = *pattern.object;
  } else if (pattern.predicate) {
    probe_col = kPredicate;
    probe_key = *pattern.predicate;
  }

  auto matches = [&](const storage::Row& row) {
    if (pattern.subject && row[kSubject].as_string() != *pattern.subject)
      return false;
    if (pattern.predicate &&
        row[kPredicate].as_string() != *pattern.predicate)
      return false;
    if (pattern.object && row[kObject].as_string() != *pattern.object)
      return false;
    return true;
  };

  // One pinned snapshot per Match call: probe indices and row reads
  // come from the same immutable version even while triples are added
  // or a source is retracted concurrently.
  auto snap = table_->Snapshot();
  if (probe_col) {
    for (size_t idx :
         snap->LookupIndices(*probe_col, storage::Value(probe_key))) {
      const storage::Row& row = snap->row(idx);
      if (matches(row)) out.push_back(RowToTriple(row));
    }
  } else {
    for (size_t r = 0; r < snap->size(); ++r) {
      const storage::Row& row = snap->row(r);
      if (matches(row)) out.push_back(RowToTriple(row));
    }
  }
  return out;
}

std::vector<std::string> TripleStore::SubjectsWithPredicate(
    const std::string& predicate) const {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  for (const auto& t : Match({std::nullopt, predicate, std::nullopt})) {
    if (seen.insert(t.subject).second) out.push_back(t.subject);
  }
  return out;
}

std::optional<std::string> TripleStore::ObjectOf(
    const std::string& subject, const std::string& predicate) const {
  auto matches = Match({subject, predicate, std::nullopt});
  if (matches.empty()) return std::nullopt;
  return matches.front().object;
}

std::vector<std::string> TripleStore::ObjectsOf(
    const std::string& subject, const std::string& predicate) const {
  std::vector<std::string> out;
  for (const auto& t : Match({subject, predicate, std::nullopt})) {
    out.push_back(t.object);
  }
  return out;
}

}  // namespace revere::rdf
