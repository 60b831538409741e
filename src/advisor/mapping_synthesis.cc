#include "src/advisor/mapping_synthesis.h"
#include "src/common/strings.h"

#include <map>

namespace revere::advisor {

namespace {

using query::Atom;
using query::ConjunctiveQuery;
using query::QTerm;

std::pair<std::string, std::string> SplitElement(const std::string& e) {
  size_t dot = e.find('.');
  if (dot == std::string::npos) return {e, ""};
  return {e.substr(0, dot), e.substr(dot + 1)};
}

int AttributeIndex(const corpus::RelationDecl& rel,
                   const std::string& attr) {
  for (size_t i = 0; i < rel.attributes.size(); ++i) {
    if (rel.attributes[i] == attr) return static_cast<int>(i);
  }
  return -1;
}

std::string Qualify(const std::string& peer, const std::string& relation) {
  return peer.empty() ? relation : peer + ":" + relation;
}

}  // namespace

std::vector<query::GlavMapping> SynthesizeGlavMappings(
    const corpus::SchemaEntry& schema_a, const corpus::SchemaEntry& schema_b,
    const std::vector<MatchCorrespondence>& correspondences,
    const std::string& peer_a, const std::string& peer_b,
    size_t min_correspondences) {
  // Group matched attribute pairs by relation pair.
  std::map<std::pair<std::string, std::string>,
           std::vector<std::pair<int, int>>>
      groups;
  for (const auto& c : correspondences) {
    auto [rel_a, attr_a] = SplitElement(c.a);
    auto [rel_b, attr_b] = SplitElement(c.b);
    const corpus::RelationDecl* da = schema_a.FindRelation(rel_a);
    const corpus::RelationDecl* db = schema_b.FindRelation(rel_b);
    if (da == nullptr || db == nullptr) continue;
    int ia = AttributeIndex(*da, attr_a);
    int ib = AttributeIndex(*db, attr_b);
    if (ia < 0 || ib < 0) continue;
    groups[{rel_a, rel_b}].emplace_back(ia, ib);
  }

  std::vector<query::GlavMapping> out;
  for (const auto& [rels, pairs] : groups) {
    if (pairs.size() < min_correspondences) continue;
    const corpus::RelationDecl* da = schema_a.FindRelation(rels.first);
    const corpus::RelationDecl* db = schema_b.FindRelation(rels.second);

    // Head: one exported variable per matched pair.
    std::vector<QTerm> head;
    std::vector<QTerm> args_a(da->attributes.size());
    std::vector<QTerm> args_b(db->attributes.size());
    int next_var = 0;
    for (const auto& [ia, ib] : pairs) {
      QTerm v = QTerm::Var(Numbered("X", next_var++));
      head.push_back(v);
      args_a[static_cast<size_t>(ia)] = v;
      args_b[static_cast<size_t>(ib)] = v;
    }
    // Unmatched positions: fresh existentials per side.
    int fresh = 0;
    for (auto& t : args_a) {
      if (t.is_var() && t.var().empty()) {
        t = QTerm::Var(Numbered("A", fresh++));
      } else if (!t.is_var() && t.value().is_null()) {
        t = QTerm::Var(Numbered("A", fresh++));
      }
    }
    for (auto& t : args_b) {
      if (t.is_var() && t.var().empty()) {
        t = QTerm::Var(Numbered("B", fresh++));
      } else if (!t.is_var() && t.value().is_null()) {
        t = QTerm::Var(Numbered("B", fresh++));
      }
    }
    std::string name = rels.first + "-" + rels.second;
    ConjunctiveQuery source(
        "m", head,
        {Atom{Qualify(peer_a, rels.first), args_a}});
    ConjunctiveQuery target(
        "m", head,
        {Atom{Qualify(peer_b, rels.second), args_b}});
    query::GlavMapping mapping{name, std::move(source), std::move(target)};
    if (mapping.Validate().ok()) out.push_back(std::move(mapping));
  }
  return out;
}

}  // namespace revere::advisor
