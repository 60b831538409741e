#include "src/piazza/pdms.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <deque>
#include <set>
#include <utility>

#include "src/common/hash.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/query/containment.h"
#include "src/query/cover.h"

namespace revere::piazza {

namespace {

using query::Atom;
using query::ConjunctiveQuery;
using query::QTerm;
using query::Substitution;

/// Canonical form of a CQ for duplicate pruning: α-renamed via
/// query::Canonicalize, then body atoms sorted (reformulation dedup
/// wants atom order ignored, unlike the order-preserving plan-cache
/// key).
std::string CanonicalKey(const ConjunctiveQuery& q) {
  ConjunctiveQuery n = query::Canonicalize(q).query;
  std::vector<std::string> atoms;
  atoms.reserve(n.body().size());
  for (const auto& a : n.body()) atoms.push_back(a.ToString());
  std::sort(atoms.begin(), atoms.end());
  std::string key = n.HeadAtom().ToString() + "|";
  for (const auto& a : atoms) {
    key += a;
    key += ";";
  }
  return key;
}

/// True when `v` compares equal exactly to the values identical to it,
/// so a parameter can stand for it: every value but a double zero
/// (0.0 == -0.0) or NaN (equal to nothing).
bool Liftable(const storage::Value& v) {
  if (v.type() != storage::ValueType::kDouble) return true;
  const double d = v.as_double();
  return d != 0.0 && !std::isnan(d);
}

/// Appends `v` as type tag, length and exact text, so distinct values
/// never append alike (Value::ToString rounds doubles).
void AppendConstant(const storage::Value& v, std::string* out) {
  std::string text;
  if (v.type() == storage::ValueType::kDouble) {
    char buf[32];
    text.assign(buf,
                std::to_chars(buf, buf + sizeof(buf), v.as_double()).ptr);
  } else {
    text = v.ToString();
  }
  *out += "nbids"[static_cast<int>(v.type())];
  *out += std::to_string(text.size());
  *out += ':';
  *out += text;
}

/// Plan-cache key: the query's template plus every option that shapes
/// the rewriting set. The template renames variables to V0, V1, … and
/// lifts constants to parameters $0, $1, … by first occurrence (head
/// left to right, then body atoms in order), so a repeated constant
/// repeats its parameter; `constants` receives the parameters' values.
/// Queries that differ only in variable names or in the values of their
/// distinct constants share a key; anything else never collides (the
/// full text is compared, not just the fingerprint).
std::string PlanKeyText(const ConjunctiveQuery& query,
                        const ReformulationOptions& options,
                        std::vector<storage::Value>* constants) {
  std::vector<const std::string*> vars;
  std::string key;
  auto append_term = [&](const QTerm& t) {
    if (t.is_var()) {
      size_t i = 0;
      while (i < vars.size() && *vars[i] != t.var()) ++i;
      if (i == vars.size()) vars.push_back(&t.var());
      key += 'V';
      key += std::to_string(i);
    } else if (Liftable(t.value())) {
      size_t i = 0;
      while (i < constants->size() && (*constants)[i] != t.value()) ++i;
      if (i == constants->size()) constants->push_back(t.value());
      key += '$';
      key += std::to_string(i);
    } else {
      AppendConstant(t.value(), &key);
    }
  };
  auto append_atom = [&](const std::string& relation,
                         const std::vector<QTerm>& args) {
    key += relation;
    key += '(';
    for (size_t i = 0; i < args.size(); ++i) {
      if (i > 0) key += ", ";
      append_term(args[i]);
    }
    key += ')';
  };
  append_atom(query.name(), query.head());
  key += " :- ";
  for (size_t i = 0; i < query.body().size(); ++i) {
    if (i > 0) key += ", ";
    append_atom(query.body()[i].relation, query.body()[i].args);
  }
  key += "|d";
  key += std::to_string(options.max_depth);
  key += "|r";
  key += std::to_string(options.max_rewritings);
  key += "|f";
  key += options.prune_duplicates ? '1' : '0';
  key += options.prune_unreachable ? '1' : '0';
  key += options.prune_contained ? '1' : '0';
  key += options.use_route_search ? '1' : '0';
  key += options.prune_redundant_paths ? '1' : '0';
  key += "|b";
  // Shortest round-trip form: distinct budgets never share a key
  // (std::to_string would round to six decimals).
  char budget[32];
  key.append(budget, std::to_chars(budget, budget + sizeof(budget),
                                   options.max_path_cost)
                         .ptr);
  return key;
}

/// The key of a value-sensitive plan: its template key plus the
/// parameters' values.
std::string ValueKeyText(const std::string& key,
                         const std::vector<storage::Value>& constants) {
  std::string out = key + "|v";
  for (const storage::Value& v : constants) AppendConstant(v, &out);
  return out;
}

/// Fills a freshly searched plan's programs, with `plan->constants` as
/// parameters, and, per rewriting, the remote peers it contacts: every
/// peer its atoms name but `query`'s own, the peer of its first atom.
/// Returns whether the parameters cover every liftable constant of the
/// rewritings; only a mapping can put another there.
bool PreparePlan(const ConjunctiveQuery& query, CachedPlan* plan) {
  const std::string_view query_peer =
      query.body().empty() ? std::string_view()
                           : PeerOf(query.body().front().relation);
  const std::vector<storage::Value>& params = plan->constants;
  auto covered = [&params](const QTerm& t) {
    return t.is_var() || !Liftable(t.value()) ||
           std::find(params.begin(), params.end(), t.value()) != params.end();
  };
  bool all_covered = true;
  plan->peer_begin.push_back(0);
  for (const ConjunctiveQuery& rw : plan->rewritings) {
    plan->programs.Prepare(rw, params);
    all_covered &= std::all_of(rw.head().begin(), rw.head().end(), covered);
    for (const Atom& a : rw.body()) {
      all_covered &= std::all_of(a.args.begin(), a.args.end(), covered);
      const std::string_view peer = PeerOf(a.relation);
      auto at = std::lower_bound(
          plan->peers.begin() + plan->peer_begin.back(), plan->peers.end(),
          peer);
      if (!peer.empty() && peer != query_peer &&
          (at == plan->peers.end() || *at != peer)) {
        plan->peers.insert(at, peer);
      }
    }
    plan->peer_begin.push_back(static_cast<uint32_t>(plan->peers.size()));
  }
  plan->programs.ShrinkToFit();
  plan->peers.shrink_to_fit();
  return all_covered;
}

/// Reformulation search node: a rewriting-in-progress, the number of
/// mapping applications (hops) taken to reach it, and — under
/// prune_redundant_paths — the peers those hops entered.
struct SearchNode {
  ConjunctiveQuery query;
  int depth = 0;
  std::vector<std::string> peer_path;
};

}  // namespace

Result<Peer*> PdmsNetwork::AddPeer(const std::string& name) {
  if (peers_.count(name) > 0) {
    return Status::AlreadyExists("peer '" + name + "' already in network");
  }
  auto peer = std::make_unique<Peer>(name);
  Peer* ptr = peer.get();
  peers_[name] = std::move(peer);
  // Scoped invalidation: a join moves the new peer's stamp off 0, so
  // only plans that recorded it as unknown (stamp 0) re-plan; every
  // other warm plan survives — the 1k-peer churn win.
  InvalidatePlansTouching({name});
  return ptr;
}

Result<Peer*> PdmsNetwork::GetPeer(const std::string& name) {
  auto it = peers_.find(name);
  if (it == peers_.end()) return Status::NotFound("no peer '" + name + "'");
  return it->second.get();
}

bool PdmsNetwork::HasPeer(const std::string& name) const {
  return peers_.count(name) > 0;
}

std::vector<std::string> PdmsNetwork::PeerNames() const {
  std::vector<std::string> names;
  names.reserve(peers_.size());
  for (const auto& [name, peer] : peers_) names.push_back(name);
  return names;
}

Result<storage::Table*> PdmsNetwork::AddStoredRelation(
    const std::string& peer, storage::TableSchema schema) {
  auto peer_it = peers_.find(peer);
  if (peer_it == peers_.end()) {
    return Status::NotFound("no peer '" + peer + "'");
  }
  std::string unqualified = schema.name();
  storage::TableSchema qualified(QualifiedName(peer, unqualified),
                                 schema.columns());
  REVERE_ASSIGN_OR_RETURN(storage::Table * table,
                          storage_.CreateTable(std::move(qualified)));
  peer_it->second->NoteStoredRelation(unqualified);
  std::set<std::string> touched = ExtendProductive(nullptr);
  touched.insert(peer);
  InvalidatePlansTouching(touched);
  return table;
}

Status PdmsNetwork::AddMapping(PeerMapping mapping) {
  REVERE_RETURN_IF_ERROR(mapping.glav.Validate());
  if (!HasPeer(mapping.source_peer)) {
    return Status::NotFound("no peer '" + mapping.source_peer + "'");
  }
  if (!HasPeer(mapping.target_peer)) {
    return Status::NotFound("no peer '" + mapping.target_peer + "'");
  }
  mappings_.push_back(std::move(mapping));
  const PeerMapping& added = mappings_.back();
  // A mapping that carries a constant can compare it with a query's
  // constants or write it into a rewriting, so a search that applies
  // one yields a value-sensitive plan.
  bool carries_constant = false;
  for (const ConjunctiveQuery* side : {&added.glav.source, &added.glav.target}) {
    for (const QTerm& t : side->head()) carries_constant |= !t.is_var();
    for (const Atom& a : side->body()) {
      for (const QTerm& t : a.args) carries_constant |= !t.is_var();
    }
  }
  carries_constant_.push_back(carries_constant);
  // The search's mapping index: a forward application rewrites an atom
  // matching any target-body relation; a backward application (equality
  // mappings only) rewrites any source-body relation. One entry per
  // distinct relation per direction, appended in mapping order so the
  // index yields candidates in exactly the order the reference scan
  // does.
  size_t idx = mappings_.size() - 1;
  std::set<std::string> fwd_rels;
  for (const auto& a : added.glav.target.body()) {
    if (fwd_rels.insert(a.relation).second) {
      mapping_index_[a.relation].push_back(MappingUse{idx, true});
    }
  }
  if (added.bidirectional) {
    std::set<std::string> bwd_rels;
    for (const auto& a : added.glav.source.body()) {
      if (bwd_rels.insert(a.relation).second) {
        mapping_index_[a.relation].push_back(MappingUse{idx, false});
      }
    }
  }
  std::set<std::string> touched = ExtendProductive(&added);
  touched.insert(added.source_peer);
  touched.insert(added.target_peer);
  InvalidatePlansTouching(touched);
  return Status::Ok();
}

void PdmsNetwork::InvalidatePlansTouching(const std::set<std::string>& peers) {
  {
    std::unique_lock<std::shared_mutex> lock(gen_mu_);
    for (const auto& p : peers) ++peer_generations_[p];
  }
  InvalidatePlans();  // the mutation clock always moves
}

uint64_t PdmsNetwork::peer_generation(const std::string& peer) const {
  std::shared_lock<std::shared_mutex> lock(gen_mu_);
  auto it = peer_generations_.find(peer);
  return it == peer_generations_.end() ? 0 : it->second;
}

std::set<std::string> PdmsNetwork::ExtendProductive(
    const PeerMapping* added) {
  std::set<std::string> peers;
  bool grew = false;
  auto note = [&](const std::string& relation) {
    grew = true;
    auto [peer, rel] = SplitQualifiedName(relation);
    if (!peer.empty()) peers.insert(peer);
  };
  auto mark = [&](const std::string& relation) {
    if (productive_.insert(relation).second) note(relation);
  };
  // Tables created through mutable_storage() count from the next
  // structural change on. Both name sequences are sorted, so one merge
  // pass finds the tables the set lacks.
  auto it = productive_.begin();
  for (const auto& name : storage_.TableNames()) {
    while (it != productive_.end() && *it < name) ++it;
    if (it == productive_.end() || *it != name) {
      it = productive_.emplace_hint(it, name);
      note(name);
    }
  }
  // A relation is productive when some mapping can rewrite an atom of
  // it into a body whose relations are all productive.
  auto body_productive = [this](const ConjunctiveQuery& q) {
    for (const auto& a : q.body()) {
      if (productive_.count(a.relation) == 0) return false;
    }
    return true;
  };
  auto apply = [&](const PeerMapping& m) {
    // Forward use: target atoms rewrite into the source body.
    if (body_productive(m.glav.source)) {
      for (const auto& a : m.glav.target.body()) mark(a.relation);
    }
    // Backward use for equality mappings.
    if (m.bidirectional && body_productive(m.glav.target)) {
      for (const auto& a : m.glav.source.body()) mark(a.relation);
    }
  };
  if (added != nullptr) apply(*added);
  // The set was a fixpoint before this change, so only a relation that
  // became productive can enable another mapping.
  while (grew) {
    grew = false;
    for (const auto& m : mappings_) apply(m);
  }
  return peers;
}

namespace {

/// The rewriting of `q` that replaces `cover`'s atoms, at the first
/// one's place, with `other`'s body: `other` is the side of the mapping
/// the cover's view is not, and view head position j exports into
/// `other`'s head position j. `other`'s existential variables and the
/// view head positions no covered atom constrains become fresh
/// variables named from `prefix`. Returns false when the head
/// correspondence equates two distinct constants.
bool ApplyCover(const ConjunctiveQuery& q, const query::Cover& cover,
                const ConjunctiveQuery& other, const std::string& prefix,
                ConjunctiveQuery* out) {
  Substitution other_binding;  // other's head variable -> query term
  Substitution binding = cover.binding;
  int fresh_counter = 0;
  for (size_t j = 0; j < cover.exported.size(); ++j) {
    QTerm exported = cover.exported[j].has_value()
                         ? *cover.exported[j]
                         : QTerm::Var(prefix + "f" +
                                      std::to_string(fresh_counter++));
    const QTerm& head = other.head()[j];
    if (head.is_var()) {
      auto [it, inserted] = other_binding.emplace(head.var(), exported);
      if (inserted || it->second == exported) continue;
      // A repeated head variable exports one value: equate the terms.
      if (exported.is_var()) {
        binding[exported.var()] = it->second;
      } else if (it->second.is_var()) {
        binding[it->second.var()] = exported;
      } else {
        return false;
      }
    } else if (exported.is_var()) {
      binding[exported.var()] = head;  // a head constant specializes
    } else if (exported != head) {
      return false;
    }
  }

  for (const std::string& v : other.AllVars()) {
    other_binding.emplace(v, QTerm::Var(prefix + "s_" + v));  // existentials
  }
  std::vector<Atom> body;
  body.reserve(q.body().size() + other.body().size());
  for (size_t i = 0, c = 0; i < q.body().size(); ++i) {
    if (c == cover.atoms.size() || cover.atoms[c] != i) {
      body.push_back(q.body()[i]);
    } else if (c++ == 0) {
      for (const Atom& a : other.body()) body.push_back(Apply(other_binding, a));
    }
  }
  ConjunctiveQuery rewritten(q.name(), q.head(), std::move(body));
  if (!binding.empty()) rewritten = rewritten.Substitute(binding);
  // Dedupe atoms introduced twice.
  std::vector<Atom> dedup;
  for (const auto& a : rewritten.body()) {
    if (std::find(dedup.begin(), dedup.end(), a) == dedup.end()) {
      dedup.push_back(a);
    }
  }
  *out = ConjunctiveQuery(rewritten.name(), rewritten.head(), std::move(dedup));
  return true;
}

}  // namespace

Result<size_t> PdmsNetwork::RegisterView(const std::string& peer,
                                         query::ConjunctiveQuery definition) {
  if (!HasPeer(peer)) return Status::NotFound("no peer '" + peer + "'");
  RegisteredView entry{peer, MaterializedView(std::move(definition))};
  REVERE_RETURN_IF_ERROR(entry.view.Recompute(storage_));
  views_.push_back(std::move(entry));
  InvalidatePlansTouching({peer});
  return views_.size() - 1;
}

Result<const MaterializedView*> PdmsNetwork::GetView(size_t index) const {
  if (index >= views_.size()) {
    return Status::OutOfRange("no view #" + std::to_string(index));
  }
  return &views_[index].view;
}

Result<PdmsNetwork::PropagationStats> PdmsNetwork::PropagateUpdategram(
    const Updategram& update) {
  PropagationStats stats;
  REVERE_RETURN_IF_ERROR(ApplyToBase(&storage_, update));
  for (auto& entry : views_) {
    if (!entry.view.DependsOn(update.relation)) continue;
    ++stats.views_touched;
    RefreshCostEstimate estimate =
        EstimateRefreshCost(storage_, entry.view.definition(), update);
    if (estimate.choice == RefreshChoice::kIncremental) {
      REVERE_RETURN_IF_ERROR(entry.view.ApplyUpdategram(storage_, update));
      ++stats.incremental_refreshes;
    } else {
      REVERE_RETURN_IF_ERROR(entry.view.Recompute(storage_));
      ++stats.full_recomputes;
    }
  }
  return stats;
}

Status PdmsNetwork::AddXmlMapping(const std::string& source_peer,
                                  const std::string& target_peer,
                                  XmlMapping mapping,
                                  std::string source_doc_name) {
  if (!HasPeer(source_peer)) {
    return Status::NotFound("no peer '" + source_peer + "'");
  }
  if (!HasPeer(target_peer)) {
    return Status::NotFound("no peer '" + target_peer + "'");
  }
  xml_edges_.push_back(XmlEdge{source_peer, target_peer, std::move(mapping),
                               std::move(source_doc_name)});
  InvalidatePlansTouching({source_peer, target_peer});
  return Status::Ok();
}

Result<std::unique_ptr<xml::XmlNode>> PdmsNetwork::TranslateDocument(
    const std::string& source_peer, const std::string& target_peer,
    const xml::XmlNode& input) const {
  if (source_peer == target_peer) return input.Clone();
  // BFS over directed XML mapping edges for the shortest hop path.
  std::map<std::string, size_t> via_edge;  // peer -> incoming edge index
  std::deque<std::string> frontier{source_peer};
  std::set<std::string> visited{source_peer};
  while (!frontier.empty() && visited.count(target_peer) == 0) {
    std::string current = frontier.front();
    frontier.pop_front();
    for (size_t i = 0; i < xml_edges_.size(); ++i) {
      if (xml_edges_[i].source_peer != current) continue;
      const std::string& next = xml_edges_[i].target_peer;
      if (visited.insert(next).second) {
        via_edge[next] = i;
        frontier.push_back(next);
      }
    }
  }
  if (visited.count(target_peer) == 0) {
    return Status::NotFound("no XML mapping path from '" + source_peer +
                            "' to '" + target_peer + "'");
  }
  // Reconstruct the path backwards, then run the chain.
  std::vector<size_t> path;
  for (std::string at = target_peer; at != source_peer;
       at = xml_edges_[via_edge[at]].source_peer) {
    path.push_back(via_edge[at]);
  }
  std::reverse(path.begin(), path.end());
  XmlMappingChain chain;
  for (size_t edge : path) {
    // Re-parse the template to copy the move-only mapping.
    chain.AddHop(xml_edges_[edge].mapping.CloneMapping(),
                 xml_edges_[edge].source_doc_name);
  }
  REVERE_ASSIGN_OR_RETURN(std::unique_ptr<xml::XmlNode> result,
                          chain.Translate(input));
  // When the target peer declares an XML schema (Figure 3 DTD), the
  // translated document must conform to it.
  auto peer_it = peers_.find(target_peer);
  if (peer_it != peers_.end() &&
      !peer_it->second->xml_schema().root().empty()) {
    REVERE_RETURN_IF_ERROR(peer_it->second->xml_schema().Validate(*result));
  }
  return result;
}

void PdmsNetwork::SetPlanCacheCapacity(size_t capacity) {
  plan_cache_ = std::make_unique<PlanCache>(capacity);
}

/// The uncached transitive-closure search, plus the cache consultation
/// wrapped around it. The plan depends only on (query template,
/// options, mappings/topology) — and on the constants' values too once
/// the search applies a mapping that carries a constant — so a hit is
/// exact: the same rewriting vector the search would produce, in the
/// same order, with this query's constants bound — and the stats of the
/// run that produced it, so instrumentation never reads zeros on the
/// warm path.
///
/// The search is one breadth-first (FIFO) expansion of the rewriting
/// tree. At each node, each candidate mapping application on each goal
/// atom replaces every cover (query::FindCovers) that goal seeds — so
/// each cover once per node — with the mapping's other side; the
/// candidates come from `mapping_index_`, or,
/// with `use_route_search` off, from a scan of every mapping in
/// registration order, forward before backward — the reference the
/// `pruned_vs_exhaustive` fuzz oracle and `route_test` compare the
/// index against. Both sources yield the same candidates in the same
/// order, so every other knob — the hop budget (`max_path_cost` →
/// pruned_cost) and redundant-path elimination
/// (`prune_redundant_paths` → pruned_redundant) included — applies
/// identically to either.
///
/// Scoped invalidation: plans record every peer their search touched
/// with that peer's stamp; Lookup revalidates through a scope check, so
/// structural changes at untouched peers leave warm plans servable.
/// Structural mutations are externally synchronized with queries (the
/// repo-wide contract — the mapping list itself is not locked);
/// concurrent *answers* are fine.
std::shared_ptr<const CachedPlan> PdmsNetwork::ReformulateCached(
    const ConjunctiveQuery& query, const ReformulationOptions& options,
    ReformulationStats* stats, std::vector<storage::Value>* constants_out,
    obs::Tracer* tracer, uint64_t parent_span) const {
  obs::Span reformulate_span =
      obs::StartSpan(tracer, "reformulate", parent_span);
  const bool use_cache =
      options.use_plan_cache && plan_cache_->capacity() > 0;
  std::string key;
  uint64_t fingerprint = 0;
  std::vector<storage::Value> constants;
  // Whether the template entry holds a servable value-sensitive plan,
  // which then marks the template as keyed by value.
  bool template_by_value = false;
  if (use_cache) {
    obs::Span cache_span =
        obs::StartSpan(tracer, "plan_cache", reformulate_span.id());
    key = PlanKeyText(query, options, &constants);
    fingerprint = Fnv1a64(key);
    // Scope check, O(1) warm: the mutation clock hasn't moved past the
    // last validation → still good. Otherwise compare each touched
    // peer's recorded stamp; all equal → advance the memo.
    auto validator = [this](const CachedPlan& plan) {
      uint64_t now = generation_.load(std::memory_order_acquire);
      if (plan.valid_through.load(std::memory_order_relaxed) >= now) {
        return true;
      }
      {
        std::shared_lock<std::shared_mutex> lock(gen_mu_);
        for (const auto& [peer, stamp] : plan.touched) {
          auto it = peer_generations_.find(peer);
          uint64_t current = it == peer_generations_.end() ? 0 : it->second;
          if (current != stamp) return false;
        }
      }
      uint64_t prev = plan.valid_through.load(std::memory_order_relaxed);
      while (prev < now && !plan.valid_through.compare_exchange_weak(
                               prev, now, std::memory_order_relaxed)) {
      }
      return true;
    };
    std::shared_ptr<const CachedPlan> plan =
        plan_cache_->Find(fingerprint, key, validator);
    if (plan != nullptr && plan->value_sensitive &&
        plan->constants != constants) {
      // A value-sensitive template: its plans are keyed by value too.
      template_by_value = true;
      std::string value_key = ValueKeyText(key, constants);
      plan = plan_cache_->Find(Fnv1a64(value_key), value_key, validator);
    }
    plan_cache_->CountLookup(plan != nullptr);
    if (plan != nullptr) {
      cache_span.AddAttr("hit", 1);
      reformulate_span.AddAttr("rewritings", plan->rewritings.size());
      if (stats != nullptr) {
        *stats = plan->stats;
        stats->plan_cache_hits = 1;
      }
      *constants_out = std::move(constants);
      return plan;
    }
    cache_span.AddAttr("hit", 0);
  }
  // Peers this search reads, for the plan's invalidation scope.
  std::set<std::string> touched_peers;
  auto touch = [&](const ConjunctiveQuery& q) {
    if (!use_cache) return;
    for (const auto& a : q.body()) {
      auto [peer, rel] = SplitQualifiedName(a.relation);
      if (!peer.empty()) touched_peers.insert(peer);
    }
  };

  ReformulationStats local;
  std::vector<ConjunctiveQuery> results;
  std::set<std::string> seen;
  seen.insert(CanonicalKey(query));
  // Emitted-rewriting fingerprints for redundant-path elimination (only
  // observable with prune_duplicates off — the seen set already
  // guarantees distinct search nodes).
  std::set<std::string> kept_keys;
  int fresh_id = 0;
  // Set once the search applies a mapping that carries a constant.
  // Until then it treats the query's constants as opaque terms that
  // differ from each other, so its rewritings hold for any values.
  bool value_sensitive = false;

  // The candidate mapping applications for a goal atom of `relation`.
  // The scan reads each mapping's bodies instead of the index: a forward
  // application can rewrite the goal when the target body mentions the
  // relation, a backward one (equality mappings) when the source body
  // does — the rule AddMapping indexes by.
  static const std::vector<MappingUse> kNoCandidates;
  std::vector<MappingUse> scanned;
  auto candidates =
      [&](const std::string& relation) -> const std::vector<MappingUse>& {
    if (options.use_route_search) {
      auto it = mapping_index_.find(relation);
      return it == mapping_index_.end() ? kNoCandidates : it->second;
    }
    auto mentions = [&relation](const ConjunctiveQuery& side) {
      for (const auto& a : side.body()) {
        if (a.relation == relation) return true;
      }
      return false;
    };
    scanned.clear();
    for (size_t i = 0; i < mappings_.size(); ++i) {
      const PeerMapping& m = mappings_[i];
      if (mentions(m.glav.target)) scanned.push_back(MappingUse{i, true});
      if (m.bidirectional && mentions(m.glav.source)) {
        scanned.push_back(MappingUse{i, false});
      }
    }
    return scanned;
  };

  auto prune_unreachable_node = [&](const ConjunctiveQuery& q) {
    if (!options.prune_unreachable) return false;
    for (const auto& a : q.body()) {
      if (IsStored(a.relation)) continue;  // live storage is productive
      if (productive_.count(a.relation) == 0) return true;
    }
    return false;
  };
  auto is_all_stored = [&](const ConjunctiveQuery& q) {
    for (const auto& a : q.body()) {
      if (!IsStored(a.relation)) return false;
    }
    return true;
  };
  auto contained_in_results = [&](const ConjunctiveQuery& q) {
    if (!options.prune_contained) return false;
    for (const auto& prior : results) {
      if (query::Contains(prior, q)) {
        ++local.pruned_contained;
        return true;
      }
    }
    return false;
  };

  std::deque<SearchNode> queue;
  SearchNode root{query, 0, {}};
  // Seed the cycle-elimination path with the root's own peers, so a
  // path that detours and returns to the origin counts as a cycle.
  if (options.prune_redundant_paths) {
    std::set<std::string> root_peers;
    for (const auto& a : query.body()) {
      auto [peer, rel] = SplitQualifiedName(a.relation);
      if (!peer.empty() && root_peers.insert(peer).second) {
        root.peer_path.push_back(peer);
      }
    }
  }
  queue.push_back(std::move(root));

  while (!queue.empty() && results.size() < options.max_rewritings) {
    SearchNode node = std::move(queue.front());
    queue.pop_front();
    ++local.nodes_expanded;
    touch(node.query);

    // Irrelevant-path pruning: some atom can never reach stored data.
    if (prune_unreachable_node(node.query)) {
      ++local.pruned_unreachable;
      continue;
    }

    // A query fully grounded in stored relations is an answerable
    // rewriting — emit it. A peer relation may be stored *and* mapped
    // (every peer in the paper's example both holds courses and imports
    // them), so we keep expanding either way.
    bool all_stored = is_all_stored(node.query);
    if (all_stored && !contained_in_results(node.query)) {
      if (options.prune_redundant_paths &&
          !kept_keys.insert(CanonicalKey(node.query)).second) {
        ++local.pruned_redundant;
      } else {
        results.push_back(node.query);
        if (results.size() >= options.max_rewritings) break;
      }
    }
    if (node.depth >= options.max_depth) {
      if (!all_stored) ++local.pruned_depth;
      continue;
    }

    for (size_t goal_idx = 0; goal_idx < node.query.body().size();
         ++goal_idx) {
      for (const MappingUse& use :
           candidates(node.query.body()[goal_idx].relation)) {
        const PeerMapping& m = mappings_[use.index];
        const std::string& entered =
            use.forward ? m.source_peer : m.target_peer;
        if (options.prune_redundant_paths &&
            std::find(node.peer_path.begin(), node.peer_path.end(),
                      entered) != node.peer_path.end()) {
          // Cycle elimination: this application re-enters a peer already
          // on the path.
          ++local.pruned_redundant;
          continue;
        }
        if (options.max_path_cost > 0.0 &&
            node.depth + 1 > options.max_path_cost) {
          ++local.pruned_cost;  // one hop past the budget
          continue;
        }
        value_sensitive |= carries_constant_[use.index];
        // A forward application replaces target atoms with the source
        // body; a backward one the reverse.
        const std::vector<query::Cover> covers = query::FindCovers(
            node.query, goal_idx, use.forward ? m.glav.target : m.glav.source);
        const std::string prefix = "_m" + std::to_string(fresh_id++) + "_";
        for (const query::Cover& cover : covers) {
          ConjunctiveQuery e;
          if (!ApplyCover(node.query, cover,
                          use.forward ? m.glav.source : m.glav.target, prefix,
                          &e)) {
            continue;
          }
          if (options.prune_duplicates &&
              !seen.insert(CanonicalKey(e)).second) {
            ++local.pruned_duplicates;
            continue;
          }
          SearchNode child{std::move(e), node.depth + 1, node.peer_path};
          if (options.prune_redundant_paths) {
            child.peer_path.push_back(entered);
          }
          queue.push_back(std::move(child));
        }
      }
    }
  }
  local.rewritings = results.size();
  auto built = std::make_shared<CachedPlan>();
  built->rewritings = std::move(results);
  built->stats = local;
  built->constants = std::move(constants);  // none when the cache is off
  // A value-sensitive plan serves only its own constants, so its
  // programs' parameter slots always hold the values they stand for.
  const bool covered = PreparePlan(query, built.get());
  built->value_sensitive = value_sensitive || !covered;
  *constants_out = built->constants;
  if (use_cache) {
    built->valid_through.store(generation_.load(std::memory_order_relaxed),
                               std::memory_order_relaxed);
    std::shared_lock<std::shared_mutex> lock(gen_mu_);
    built->touched.reserve(touched_peers.size());
    for (const auto& peer : touched_peers) {
      auto it = peer_generations_.find(peer);
      built->touched.emplace_back(
          peer, it == peer_generations_.end() ? 0 : it->second);
    }
  }
  std::shared_ptr<const CachedPlan> plan = std::move(built);
  if (use_cache) {
    // Scope-stale entries are replaced here on re-insert or LRU-evicted.
    // A value-sensitive plan goes under its value key, and under the
    // template key unless that already holds one, which marks the
    // template as keyed by value.
    if (plan->value_sensitive) {
      std::string value_key = ValueKeyText(key, plan->constants);
      const uint64_t value_fingerprint = Fnv1a64(value_key);
      plan_cache_->Insert(value_fingerprint, std::move(value_key), plan);
    }
    if (!template_by_value) {
      plan_cache_->Insert(fingerprint, std::move(key), plan);
    }
    local.plan_cache_misses = 1;
  }
  // Mirror the search counters into the process-wide registry — only
  // when the search actually ran. Hits return above with a *copy* of
  // the original run's stats; re-mirroring those would double-count.
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
  static obs::Counter* searches = metrics.GetCounter("reformulate.searches");
  static obs::Counter* nodes = metrics.GetCounter("reformulate.nodes_expanded");
  static obs::Counter* rewritings =
      metrics.GetCounter("reformulate.rewritings");
  static obs::Counter* pruned = metrics.GetCounter("reformulate.pruned");
  searches->Increment();
  nodes->Increment(local.nodes_expanded);
  rewritings->Increment(local.rewritings);
  pruned->Increment(local.pruned_duplicates + local.pruned_unreachable +
                    local.pruned_contained + local.pruned_depth +
                    local.pruned_cost + local.pruned_redundant);
  reformulate_span.AddAttr("rewritings", local.rewritings);
  reformulate_span.AddAttr("nodes_expanded", local.nodes_expanded);
  if (stats != nullptr) *stats = local;
  return plan;
}

Result<std::vector<ConjunctiveQuery>> PdmsNetwork::Reformulate(
    const ConjunctiveQuery& query, const ReformulationOptions& options,
    ReformulationStats* stats) const {
  std::vector<storage::Value> constants;
  auto plan = ReformulateCached(query, options, stats, &constants);
  std::vector<ConjunctiveQuery> rewritings;
  for (size_t i = 0; i < plan->rewritings.size(); ++i) {
    rewritings.push_back(BindParameters(*plan, i, constants));
  }
  return rewritings;
}

}  // namespace revere::piazza
