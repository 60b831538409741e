#ifndef REVERE_PIAZZA_PEER_H_
#define REVERE_PIAZZA_PEER_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/query/glav.h"
#include "src/storage/schema.h"
#include "src/xml/dtd.h"

namespace revere::piazza {

/// Qualifies a peer-local relation name: ("mit", "course") -> "mit:course".
std::string QualifiedName(const std::string& peer,
                          const std::string& relation);
/// Splits "mit:course" into ("mit", "course"); peer is empty when the
/// name is unqualified.
std::pair<std::string, std::string> SplitQualifiedName(
    const std::string& name);
/// The peer part of a qualified name, without copying it: empty when
/// the name is unqualified.
inline std::string_view PeerOf(std::string_view name) {
  const size_t colon = name.find(':');
  return colon == std::string_view::npos ? std::string_view()
                                         : name.substr(0, colon);
}

/// One participant in the PDMS (§3.1). A peer contributes any of:
/// stored relations (materialized data), a peer schema (logical
/// relations others may query or map to), and mappings. This object is
/// the peer's *metadata*; the data itself lives in the network's
/// storage catalog under qualified names.
class Peer {
 public:
  explicit Peer(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Declares a logical peer relation (arity only — the XML/relational
  /// duality is resolved by the mapping language).
  void DeclarePeerRelation(const std::string& relation, size_t arity);
  /// All declared logical relations (unqualified names).
  const std::vector<std::pair<std::string, size_t>>& peer_relations() const {
    return peer_relations_;
  }
  bool HasPeerRelation(const std::string& relation) const;

  /// Names (unqualified) of this peer's stored relations.
  void NoteStoredRelation(const std::string& relation);
  const std::vector<std::string>& stored_relations() const {
    return stored_relations_;
  }

  /// Optional XML-side schema (Figure 3 DTD form).
  void SetXmlSchema(xml::Dtd dtd) { xml_schema_ = std::move(dtd); }
  const xml::Dtd& xml_schema() const { return xml_schema_; }

 private:
  std::string name_;
  std::vector<std::pair<std::string, size_t>> peer_relations_;
  std::vector<std::string> stored_relations_;
  xml::Dtd xml_schema_;
};

/// A semantic mapping between two peers: a GLAV inclusion (or equality)
/// whose source side ranges over `source_peer`'s relations and target
/// side over `target_peer`'s. Relation names inside the GLAV queries are
/// fully qualified ("berkeley:course").
struct PeerMapping {
  query::GlavMapping glav;
  std::string source_peer;
  std::string target_peer;
  /// Equality mappings may be used in both directions during
  /// reformulation ("forward or backward", §3.1.1); inclusions only
  /// rewrite target-side atoms into source-side queries.
  bool bidirectional = false;
};

}  // namespace revere::piazza

#endif  // REVERE_PIAZZA_PEER_H_
