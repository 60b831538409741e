#include "src/fuzz/fuzzer.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/common/thread_pool.h"
#include "src/datagen/topology.h"
#include "src/datagen/university.h"
#include "src/obs/trace.h"
#include "src/piazza/network_config.h"
#include "src/query/containment.h"
#include "src/query/evaluate.h"
#include "src/serve/server.h"
#include "src/storage/schema.h"
#include "src/storage/table_version.h"

namespace revere::fuzz {

namespace {

using piazza::ExecutionStats;
using piazza::FailurePolicy;
using piazza::FaultInjector;
using piazza::FaultMode;
using piazza::NetworkCostModel;
using piazza::PdmsNetwork;
using piazza::PeerFault;
using piazza::PeerMapping;
using piazza::QualifiedName;
using piazza::ReformulationOptions;
using query::Atom;
using query::ConjunctiveQuery;
using query::QTerm;
using storage::Row;
using storage::Value;

// ---------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------

// Case shape. Small cases keep a full CheckCase (a dozen network
// builds) cheap, so a CI pass checks thousands of them.
constexpr size_t kMinPeers = 2;
constexpr size_t kMaxPeers = 5;
constexpr size_t kMaxRowsPerPeer = 8;
constexpr size_t kMaxQueries = 3;
constexpr size_t kMaxExtraAtoms = 2;  // join atoms beyond each query's first
constexpr double kConstantProb = 0.25;  // per atom argument
constexpr double kDuplicateRowProb = 0.15;  // bag-semantics pressure
constexpr double kFaultCaseProb = 0.5;  // chance a case has any faults
constexpr double kFaultPeerProb = 0.4;  // per peer, within a faulty case
constexpr double kBidirectionalProb = 0.75;  // per mapping edge
/// Chance a case draws its own hop budget (max_path_cost) and
/// redundant-path knob; the rest run the search unbudgeted.
constexpr double kRouteCaseProb = 0.3;

/// Share of cases that redraw mappings with multi-atom sides, drawn with
/// everything about those sides from a stream of its own, so a case
/// without them is drawn exactly as before they existed.
constexpr double kMultiAtomCaseProb = 0.25;
constexpr uint64_t kMultiAtomStream = 0x6d756c7469617421ULL;
/// Draws of one mapping before it keeps its one-atom sides.
constexpr size_t kMaxMultiAtomDraws = 8;

/// Strings that survive the seed-file quoting and the datalog parser
/// unchanged: no quotes, backslashes, or newlines (generated values
/// never contain them, but constants sampled from rows are re-checked).
bool SerializableString(const std::string& s) {
  return s.find('"') == std::string::npos &&
         s.find('\\') == std::string::npos &&
         s.find('\n') == std::string::npos;
}

PeerMapping MakeMapping(const FuzzCase& c, size_t a, size_t b,
                        const std::vector<std::string>& id_pool, Rng* rng,
                        size_t index) {
  const FuzzTable& ta = c.tables[a];
  const FuzzTable& tb = c.tables[b];
  size_t shared = std::min(ta.arity, tb.arity);
  // Occasionally project away one shared column, so mappings that lose
  // information (and the export checks around them) get exercised.
  if (shared > 1 && rng->Bernoulli(0.2)) --shared;

  std::vector<QTerm> head;
  head.reserve(shared);
  for (size_t i = 0; i < shared; ++i) {
    head.push_back(QTerm::Var("H" + std::to_string(i)));
  }
  auto make_side = [&](const FuzzTable& t, const char* fresh_prefix) {
    Atom atom;
    atom.relation = QualifiedName(t.peer, t.relation);
    atom.args = head;
    for (size_t i = shared; i < t.arity; ++i) {
      // Extra positions are existential; rarely a constant, which makes
      // the mapping selective on that side.
      if (rng->Bernoulli(0.1)) {
        atom.args.push_back(QTerm::Const(id_pool[rng->Index(id_pool.size())]));
      } else {
        atom.args.push_back(
            QTerm::Var(fresh_prefix + std::to_string(i - shared)));
      }
    }
    return ConjunctiveQuery("m", head, {atom});
  };

  PeerMapping m;
  m.source_peer = ta.peer;
  m.target_peer = tb.peer;
  m.bidirectional = rng->Bernoulli(kBidirectionalProb);
  m.glav.name = "m" + std::to_string(index);
  m.glav.source = make_side(ta, "S");
  m.glav.target = make_side(tb, "T");
  return m;
}

/// A 2-3-atom side over `t` joined on the existential J: atom 0 holds
/// every head variable at its position and J at the next; each later
/// atom holds J at a drawn position and each head variable at its
/// position half the time. The other positions are existentials, rarely
/// a constant.
ConjunctiveQuery MultiAtomSide(const FuzzTable& t,
                               const std::vector<QTerm>& head,
                               const std::vector<std::string>& id_pool,
                               const std::string& prefix, Rng* rng) {
  const size_t atoms = 2 + rng->Index(2);
  int fresh = 0;
  std::vector<Atom> body;
  for (size_t k = 0; k < atoms; ++k) {
    Atom atom{QualifiedName(t.peer, t.relation), {}};
    const size_t join = k == 0 ? head.size() : rng->Index(t.arity);
    for (size_t p = 0; p < t.arity; ++p) {
      if (p == join) {
        atom.args.push_back(QTerm::Var(prefix + "J"));
      } else if (p < head.size() && (k == 0 || rng->Bernoulli(0.5))) {
        atom.args.push_back(head[p]);
      } else if (rng->Bernoulli(0.1)) {
        atom.args.push_back(QTerm::Const(id_pool[rng->Index(id_pool.size())]));
      } else {
        atom.args.push_back(QTerm::Var(prefix + std::to_string(fresh++)));
      }
    }
    body.push_back(std::move(atom));
  }
  return ConjunctiveQuery("m", head, std::move(body));
}

/// `m` redrawn between the same peers, with a head one column short of
/// the narrower table and multi-atom sides: the source's, the target's
/// or both.
PeerMapping MultiAtomMapping(const FuzzCase& c, const PeerMapping& m,
                             const std::vector<std::string>& id_pool,
                             Rng* rng) {
  auto table_of = [&c](const std::string& peer) -> const FuzzTable& {
    return *std::find_if(c.tables.begin(), c.tables.end(),
                         [&](const FuzzTable& t) { return t.peer == peer; });
  };
  const FuzzTable& source = table_of(m.source_peer);
  const FuzzTable& target = table_of(m.target_peer);
  std::vector<QTerm> head;
  for (size_t i = 0; i + 1 < std::min(source.arity, target.arity); ++i) {
    head.push_back(QTerm::Var("H" + std::to_string(i)));
  }
  auto side = [&](const FuzzTable& t, bool multi, const std::string& prefix) {
    if (multi) return MultiAtomSide(t, head, id_pool, prefix, rng);
    Atom atom{QualifiedName(t.peer, t.relation), head};
    for (size_t i = head.size(); i < t.arity; ++i) {
      atom.args.push_back(QTerm::Var(prefix + std::to_string(i - head.size())));
    }
    return ConjunctiveQuery("m", head, {atom});
  };
  const size_t sides = 1 + rng->Index(3);  // bit 0: source, bit 1: target
  PeerMapping out = m;
  out.glav.source = side(source, (sides & 1) != 0, "S");
  out.glav.target = side(target, (sides & 2) != 0, "T");
  return out;
}

ConjunctiveQuery GenQuery(const FuzzCase& c,
                          const std::vector<std::string>& value_pool,
                          Rng* rng) {
  size_t natoms = 1 + rng->Index(kMaxExtraAtoms + 1);
  std::vector<std::string> vars;
  std::vector<Atom> body;
  int fresh = 0;
  for (size_t a = 0; a < natoms; ++a) {
    const FuzzTable& t = c.tables[rng->Index(c.tables.size())];
    Atom atom;
    atom.relation = QualifiedName(t.peer, t.relation);
    atom.args.reserve(t.arity);
    for (size_t pos = 0; pos < t.arity; ++pos) {
      double r = rng->UniformDouble();
      if (r < kConstantProb) {
        atom.args.push_back(
            QTerm::Const(value_pool[rng->Index(value_pool.size())]));
      } else if (!vars.empty() && r < kConstantProb + 0.45) {
        // Repeating a variable creates joins (across atoms) and
        // equality constraints (within one atom).
        atom.args.push_back(QTerm::Var(vars[rng->Index(vars.size())]));
      } else {
        std::string v = "V" + std::to_string(fresh++);
        vars.push_back(v);
        atom.args.push_back(QTerm::Var(v));
      }
    }
    body.push_back(std::move(atom));
  }
  if (vars.empty()) {
    // All-constant body: force one variable so the head stays safe.
    vars.push_back("V0");
    body[0].args[0] = QTerm::Var("V0");
  }
  std::vector<std::string> head_vars = vars;
  rng->Shuffle(&head_vars);
  size_t k = 1 + rng->Index(std::min<size_t>(3, head_vars.size()));
  std::vector<QTerm> head;
  head.reserve(k);
  for (size_t j = 0; j < k; ++j) head.push_back(QTerm::Var(head_vars[j]));
  return ConjunctiveQuery("q", head, body);
}

void ApplyFaults(const FuzzCase& c, FaultInjector* inj) {
  for (const FuzzFault& f : c.faults) {
    switch (f.fault.mode) {
      case FaultMode::kDown:
        inj->SetDown(f.peer);
        break;
      case FaultMode::kFlaky:
        inj->SetFlaky(f.peer, f.fault.failure_probability);
        break;
      case FaultMode::kSlow:
        inj->SetSlow(f.peer, f.fault.extra_latency_ms);
        break;
      case FaultMode::kHealthy:
        break;
    }
  }
}

}  // namespace

FuzzCase GenerateCase(uint64_t seed) {
  FuzzCase c;
  c.seed = seed;
  Rng rng(seed);

  size_t n = kMinPeers + rng.Index(kMaxPeers - kMinPeers + 1);

  // Small shared id pool: cross-peer joins hit often enough to matter.
  std::vector<std::string> id_pool;
  for (int k = 0; k < 10; ++k) id_pool.push_back("c" + std::to_string(k));

  const auto& relation_pool = datagen::RelationNamePool();
  for (size_t i = 0; i < n; ++i) {
    FuzzTable t;
    t.peer = "p" + std::to_string(i);
    t.relation = relation_pool[i % relation_pool.size()];
    t.arity = 2 + rng.Index(3);
    size_t rows = rng.Index(kMaxRowsPerPeer + 1);
    Rng data_rng = rng.Fork();
    std::vector<datagen::CourseRecord> courses =
        datagen::GenerateCourses(rows, &data_rng);
    for (size_t r = 0; r < rows; ++r) {
      Row row;
      row.reserve(t.arity);
      row.emplace_back(id_pool[rng.Index(id_pool.size())]);
      const std::string fields[3] = {courses[r].title, courses[r].instructor,
                                     courses[r].room};
      for (size_t j = 1; j < t.arity; ++j) row.emplace_back(fields[j - 1]);
      t.rows.push_back(std::move(row));
      // Bag-semantics pressure: duplicates must vanish exactly once in
      // every engine.
      if (rng.Bernoulli(kDuplicateRowProb)) {
        t.rows.push_back(t.rows[rng.Index(t.rows.size())]);
      }
    }
    c.tables.push_back(std::move(t));
  }

  // Mapping overlay along a datagen topology shape — including the
  // thousand-peer shapes (ISSUE 9), which must hold up at fuzz scale
  // (2-5 peers) too.
  datagen::PdmsGenOptions topo;
  switch (rng.Index(5)) {
    case 0: topo.topology = datagen::Topology::kChain; break;
    case 1: topo.topology = datagen::Topology::kStar; break;
    case 2: topo.topology = datagen::Topology::kSmallWorld; break;
    case 3: topo.topology = datagen::Topology::kScaleFree; break;
    default: topo.topology = datagen::Topology::kRandom; break;
  }
  topo.peers = n;
  topo.extra_edge_prob = datagen::kDefaultExtraEdgeProb;
  size_t midx = 0;
  for (const auto& [a, b] : datagen::TopologyEdges(topo, n, &rng)) {
    c.mappings.push_back(MakeMapping(c, a, b, id_pool, &rng, midx++));
  }

  // Constant pool: shared ids (join hits), sampled stored values
  // (selective constants that match), and junk (constants that miss).
  std::vector<std::string> value_pool = id_pool;
  for (const FuzzTable& t : c.tables) {
    if (t.rows.empty()) continue;
    const Row& row = t.rows[rng.Index(t.rows.size())];
    const Value& v = row[rng.Index(row.size())];
    if (SerializableString(v.as_string())) value_pool.push_back(v.as_string());
  }
  for (int k = 0; k < 3; ++k) value_pool.push_back("zz" + std::to_string(k));

  size_t nq = 1 + rng.Index(kMaxQueries);
  for (size_t qi = 0; qi < nq; ++qi) {
    c.queries.push_back(GenQuery(c, value_pool, &rng));
  }

  if (rng.Bernoulli(kFaultCaseProb)) {
    for (const FuzzTable& t : c.tables) {
      if (!rng.Bernoulli(kFaultPeerProb)) continue;
      FuzzFault f;
      f.peer = t.peer;
      switch (rng.Index(3)) {
        case 0:
          f.fault.mode = FaultMode::kDown;
          break;
        case 1:
          f.fault.mode = FaultMode::kFlaky;
          f.fault.failure_probability = 0.1 + 0.8 * rng.UniformDouble();
          break;
        default:
          f.fault.mode = FaultMode::kSlow;
          f.fault.extra_latency_ms = 1.0 + rng.Index(50);
          break;
      }
      c.faults.push_back(std::move(f));
    }
  }

  c.workers = 2 + rng.Index(3);
  c.reform.max_depth = 2 + static_cast<int>(rng.Index(4));
  c.reform.max_rewritings = size_t{32} << rng.Index(3);
  c.reform.prune_duplicates = true;
  c.reform.prune_unreachable = rng.Bernoulli(0.85);
  c.reform.prune_contained = rng.Bernoulli(0.15);
  if (rng.Bernoulli(kRouteCaseProb)) {
    // Search knobs: unlimited budget half the time (the byte-identical
    // regime the whole oracle battery then runs in), a biting hop
    // budget otherwise, and redundant-path elimination on or off. The
    // candidate source stays the default (the mapping index); only
    // pruned_vs_exhaustive runs the scan.
    c.reform.max_path_cost =
        rng.Bernoulli(0.5) ? 0.0 : 1.0 + static_cast<double>(rng.Index(3));
    c.reform.prune_redundant_paths = rng.Bernoulli(0.5);
  }
  c.retry.max_attempts = 1 + static_cast<int>(rng.Index(3));
  c.retry.base_backoff_ms = 0.5;
  c.retry.deadline_ms = rng.Bernoulli(0.5) ? 6.0 : 0.0;
  c.policy = rng.Bernoulli(0.3) ? FailurePolicy::kFailFast
                                : FailurePolicy::kBestEffort;

  // Nothing above read the mappings, so redrawing them last leaves the
  // rest of the case as it was.
  Rng shape(seed ^ kMultiAtomStream);
  if (shape.Bernoulli(kMultiAtomCaseProb)) {
    for (PeerMapping& m : c.mappings) {
      if (!shape.Bernoulli(0.5)) continue;
      const PeerMapping one_atom = m;
      for (size_t draw = 0; draw < kMaxMultiAtomDraws; ++draw) {
        m = MultiAtomMapping(c, one_atom, id_pool, &shape);
        if (WeaklyAcyclic(c.mappings)) break;
        m = one_atom;
      }
    }
  }
  return c;
}

bool WeaklyAcyclic(const std::vector<PeerMapping>& mappings) {
  std::map<std::pair<std::string, size_t>, size_t> node;  // position -> id
  std::vector<std::vector<size_t>> edges;
  std::vector<std::pair<size_t, size_t>> special;
  auto id = [&](const std::string& relation, size_t pos) {
    auto [it, added] =
        node.emplace(std::make_pair(relation, pos), edges.size());
    if (added) edges.emplace_back();
    return it->second;
  };
  auto add = [&](const ConjunctiveQuery& lhs, const ConjunctiveQuery& rhs) {
    const std::set<std::string> exported = rhs.HeadVars();
    for (size_t j = 0; j < lhs.head().size(); ++j) {
      if (!lhs.head()[j].is_var()) continue;
      for (const Atom& from : lhs.body()) {
        for (size_t i = 0; i < from.args.size(); ++i) {
          if (from.args[i] != lhs.head()[j]) continue;
          const size_t u = id(from.relation, i);
          for (const Atom& to : rhs.body()) {
            for (size_t k = 0; k < to.args.size(); ++k) {
              const QTerm& t = to.args[k];
              if (!t.is_var()) continue;
              const size_t v = id(to.relation, k);  // may grow `edges`
              if (t == rhs.head()[j]) {
                edges[u].push_back(v);
              } else if (exported.count(t.var()) == 0) {
                special.emplace_back(u, v);
              }
            }
          }
        }
      }
    }
  };
  for (const PeerMapping& m : mappings) {
    add(m.glav.source, m.glav.target);
    if (m.bidirectional) add(m.glav.target, m.glav.source);
  }
  // A special edge u -> v lies on a cycle when v reaches u.
  for (const auto& [u, v] : special) {
    std::vector<bool> seen(edges.size(), false);
    std::vector<size_t> stack = {v};
    while (!stack.empty()) {
      const size_t at = stack.back();
      stack.pop_back();
      if (at == u) return false;
      if (seen[at]) continue;
      seen[at] = true;
      for (size_t next : edges[at]) stack.push_back(next);
      for (const auto& [from, to] : special) {
        if (from == at) stack.push_back(to);
      }
    }
  }
  return true;
}

Status BuildNetwork(const FuzzCase& c, PdmsNetwork* net) {
  for (const FuzzTable& t : c.tables) {
    if (!net->HasPeer(t.peer)) {
      REVERE_RETURN_IF_ERROR(net->AddPeer(t.peer).status());
    }
    std::vector<std::string> columns;
    columns.reserve(t.arity);
    for (size_t i = 0; i < t.arity; ++i) {
      columns.push_back("c" + std::to_string(i));
    }
    REVERE_ASSIGN_OR_RETURN(
        storage::Table * table,
        net->AddStoredRelation(
            t.peer, storage::TableSchema::AllStrings(t.relation, columns)));
    for (const Row& row : t.rows) {
      REVERE_RETURN_IF_ERROR(table->Insert(row));
    }
  }
  for (const PeerMapping& m : c.mappings) {
    REVERE_RETURN_IF_ERROR(net->AddMapping(m));
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------
// Certain answers
// ---------------------------------------------------------------------

CertainAnswers::CertainAnswers(const PdmsNetwork& net) {
  for (const std::string& name : net.storage().TableNames()) {
    Result<const storage::Table*> table = net.storage().GetTable(name);
    if (!table.ok()) continue;
    auto snapshot = table.value()->Snapshot();
    std::set<Fact>& facts = facts_[name];
    for (size_t i = 0; i < snapshot->size(); ++i) {
      Fact fact;
      for (const Value& v : snapshot->row(i)) fact.push_back(Intern(v));
      facts.insert(std::move(fact));
    }
  }
  // One dependency per direction: the left side's body implies the
  // right side's, head position j of one filling head position j of the
  // other.
  std::vector<std::pair<const ConjunctiveQuery*, const ConjunctiveQuery*>>
      dependencies;
  for (const PeerMapping& m : net.mappings()) {
    dependencies.emplace_back(&m.glav.source, &m.glav.target);
    if (m.bidirectional) {
      dependencies.emplace_back(&m.glav.target, &m.glav.source);
    }
  }
  int64_t next_null = -1;
  for (size_t round = 0; round < kMaxRounds && !fixpoint_; ++round) {
    fixpoint_ = true;
    for (const auto& [lhs, rhs] : dependencies) {
      std::vector<Binding> triggers;
      Binding binding;
      Match(lhs->body(), 0, &binding, [&] { triggers.push_back(binding); });
      for (const Binding& trigger : triggers) {
        Binding frontier;
        bool consistent = true;
        for (size_t j = 0; j < lhs->head().size() && consistent; ++j) {
          const QTerm& from = lhs->head()[j];
          const QTerm& to = rhs->head()[j];
          const int64_t v =
              from.is_var() ? trigger.at(from.var()) : Intern(from.value());
          if (to.is_var()) {
            consistent = frontier.emplace(to.var(), v).first->second == v;
          } else {
            consistent = Intern(to.value()) == v;
          }
        }
        if (!consistent) continue;
        // A restricted chase fires only triggers the facts do not
        // already satisfy.
        bool satisfied = false;
        Match(rhs->body(), 0, &frontier, [&] { satisfied = true; });
        if (satisfied) continue;
        for (const Atom& atom : rhs->body()) {
          Fact fact;
          for (const QTerm& t : atom.args) {
            // An existential takes the next null at its first occurrence.
            fact.push_back(
                t.is_var() ? frontier.emplace(t.var(), next_null).first->second
                           : Intern(t.value()));
            if (fact.back() == next_null) --next_null;
          }
          fixpoint_ &= !facts_[atom.relation].insert(std::move(fact)).second;
        }
      }
    }
  }
}

std::vector<Row> CertainAnswers::Of(const ConjunctiveQuery& query) const {
  std::set<Row> rows;
  Binding binding;
  Match(query.body(), 0, &binding, [&] {
    Row row;
    for (const QTerm& t : query.head()) {
      if (!t.is_var()) {
        row.push_back(t.value());
      } else if (const int64_t v = binding.at(t.var()); v >= 0) {
        row.push_back(values_[v]);
      } else {
        return;  // a null: not certain
      }
    }
    rows.insert(std::move(row));
  });
  return std::vector<Row>(rows.begin(), rows.end());
}

void CertainAnswers::Match(const std::vector<Atom>& body, size_t i,
                           Binding* binding,
                           const std::function<void()>& emit) const {
  if (i == body.size()) return emit();
  auto it = facts_.find(body[i].relation);
  if (it == facts_.end()) return;
  const std::vector<QTerm>& args = body[i].args;
  for (const Fact& fact : it->second) {
    if (fact.size() != args.size()) continue;
    std::vector<std::string> bound;  // this atom's new bindings
    bool match = true;
    for (size_t p = 0; p < args.size() && match; ++p) {
      if (!args[p].is_var()) {
        bool known = false;
        match = IdOf(args[p].value(), &known) == fact[p] && known;
        continue;
      }
      auto [b, added] = binding->emplace(args[p].var(), fact[p]);
      if (added) bound.push_back(args[p].var());
      match = b->second == fact[p];
    }
    if (match) Match(body, i + 1, binding, emit);
    for (const std::string& v : bound) binding->erase(v);
  }
}

int64_t CertainAnswers::IdOf(const Value& v, bool* known) const {
  auto it = ids_.find(v);
  *known = it != ids_.end();
  return *known ? it->second : 0;
}

int64_t CertainAnswers::Intern(const Value& v) {
  auto [it, added] = ids_.emplace(v, static_cast<int64_t>(values_.size()));
  if (added) values_.push_back(v);
  return it->second;
}

// ---------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------

namespace {

/// Which evaluation fast paths one differential run enables (the
/// reformulation knobs are Run's own argument).
struct EngineConfig {
  query::EvalEngine engine = query::EvalEngine::kColumnar;
  size_t workers = 0;  // 0 = no thread pool
  bool with_faults = false;
  bool double_run = false;  // answer everything twice (cold then warm)
  obs::Tracer* tracer = nullptr;
};

struct QueryOutcome {
  Status status;
  std::vector<Row> rows;
  ExecutionStats stats;
};

struct EngineRun {
  std::vector<QueryOutcome> outcomes;  // warm pass when double_run
  std::vector<QueryOutcome> cold;      // only when double_run
};

/// The case's reformulation knobs with the plan cache on or off.
ReformulationOptions CaseReform(const FuzzCase& c, bool use_plan_cache) {
  ReformulationOptions reform = c.reform;
  reform.use_plan_cache = use_plan_cache;
  return reform;
}

/// One query's answer, as the oracles compare it.
QueryOutcome AnswerQuery(const PdmsNetwork& net, const ConjunctiveQuery& q,
                         const ReformulationOptions& reform,
                         const NetworkCostModel& cost = {}) {
  QueryOutcome o;
  Result<std::vector<Row>> r = net.Answer(q, reform, &o.stats, cost);
  if (r.ok()) {
    o.rows = std::move(r).value();
  } else {
    o.status = r.status();
  }
  return o;
}

EngineRun Run(const FuzzCase& c, const ReformulationOptions& reform,
              const EngineConfig& cfg) {
  EngineRun run;
  PdmsNetwork net;
  Status built = BuildNetwork(c, &net);
  if (!built.ok()) {
    // Degenerate (usually mid-shrink) case: every config fails the same
    // way, so differentials still line up.
    QueryOutcome failed;
    failed.status = built;
    run.outcomes.assign(c.queries.size(), failed);
    if (cfg.double_run) run.cold = run.outcomes;
    return run;
  }

  std::optional<FaultInjector> injector;
  if (cfg.with_faults) {
    injector.emplace(c.seed);
    ApplyFaults(c, &*injector);
  }
  std::optional<ThreadPool> pool;
  if (cfg.workers > 0) pool.emplace(cfg.workers);

  NetworkCostModel cost;
  cost.faults = injector ? &*injector : nullptr;
  cost.failure_policy = c.policy;
  cost.retry = c.retry;
  cost.eval.engine = cfg.engine;
  cost.eval.pool = pool ? &*pool : nullptr;
  cost.tracer = cfg.tracer;

  auto answer_all = [&](std::vector<QueryOutcome>* out) {
    for (const ConjunctiveQuery& q : c.queries) {
      out->push_back(AnswerQuery(net, q, reform, cost));
    }
  };

  if (cfg.double_run) answer_all(&run.cold);
  answer_all(&run.outcomes);
  return run;
}

std::string DescribeRows(const std::vector<Row>& rows, size_t limit = 3) {
  std::string out = std::to_string(rows.size()) + " rows";
  for (size_t i = 0; i < rows.size() && i < limit; ++i) {
    out += i == 0 ? ": [" : " [";
    for (size_t j = 0; j < rows[i].size(); ++j) {
      if (j > 0) out += ", ";
      out += rows[i][j].ToString();
    }
    out += "]";
  }
  return out;
}

/// Everything in ExecutionStats except the plan-cache hit/miss flags,
/// field by field (the flags legitimately differ between cache-on and
/// cache-off configurations; everything else never may).
bool StatsEqualExceptCacheFlags(const ExecutionStats& a,
                                const ExecutionStats& b, std::string* diff) {
  auto check = [&](const char* name, auto va, auto vb) {
    if (va == vb) return true;
    *diff = std::string(name) + ": " + std::to_string(va) + " vs " +
            std::to_string(vb);
    return false;
  };
  const auto& ra = a.reformulation;
  const auto& rb = b.reformulation;
  return check("nodes_expanded", ra.nodes_expanded, rb.nodes_expanded) &&
         check("pruned_duplicates", ra.pruned_duplicates,
               rb.pruned_duplicates) &&
         check("pruned_unreachable", ra.pruned_unreachable,
               rb.pruned_unreachable) &&
         check("pruned_depth", ra.pruned_depth, rb.pruned_depth) &&
         check("pruned_contained", ra.pruned_contained, rb.pruned_contained) &&
         check("pruned_cost", ra.pruned_cost, rb.pruned_cost) &&
         check("pruned_redundant", ra.pruned_redundant,
               rb.pruned_redundant) &&
         check("rewritings", ra.rewritings, rb.rewritings) &&
         check("rewritings_evaluated", a.rewritings_evaluated,
               b.rewritings_evaluated) &&
         check("peers_contacted", a.peers_contacted, b.peers_contacted) &&
         check("rows_shipped", a.rows_shipped, b.rows_shipped) &&
         check("simulated_network_ms", a.simulated_network_ms,
               b.simulated_network_ms) &&
         check("rewritings_total", a.completeness.rewritings_total,
               b.completeness.rewritings_total) &&
         check("rewritings_skipped", a.completeness.rewritings_skipped,
               b.completeness.rewritings_skipped) &&
         check("contacts_failed", a.completeness.contacts_failed,
               b.completeness.contacts_failed) &&
         check("retries_attempted", a.completeness.retries_attempted,
               b.completeness.retries_attempted) &&
         check("backoff_ms", a.completeness.backoff_ms,
               b.completeness.backoff_ms) &&
         check("rewritings_deadline_skipped",
               a.completeness.rewritings_deadline_skipped,
               b.completeness.rewritings_deadline_skipped) &&
         check("breaker_skips", a.completeness.breaker_skips,
               b.completeness.breaker_skips) &&
         check("retries_denied", a.completeness.retries_denied,
               b.completeness.retries_denied) &&
         check("unreachable_peers",
               a.completeness.unreachable_peers.size(),
               b.completeness.unreachable_peers.size()) &&
         (a.completeness.unreachable_peers ==
              b.completeness.unreachable_peers ||
          (*diff = "unreachable_peers: different sets", false));
}

struct OracleContext {
  explicit OracleContext(CaseReport* r) : report(r) {}

  CaseReport* report;
  /// The case's certain answers; null when its chase reached no
  /// fixpoint, which turns the certain_answers checks off.
  const CertainAnswers* chase = nullptr;
  std::map<std::string, std::vector<Row>> certain;  // per query text

  void Fail(const std::string& oracle, const std::string& detail) {
    report->failures.push_back(OracleFailure{oracle, detail});
  }
  void Check(bool ok, const std::string& oracle, const std::string& detail) {
    ++report->oracle_checks;
    if (!ok) Fail(oracle, detail);
  }

  const std::vector<Row>& Certain(const ConjunctiveQuery& q) {
    auto [it, added] = certain.try_emplace(q.ToString());
    if (added) it->second = chase->Of(q);
    return it->second;
  }

  /// Soundness: every row `q` answered with is a certain answer.
  void CheckSound(const ConjunctiveQuery& q, const Status& status,
                  const std::vector<Row>& rows, const std::string& where) {
    if (chase == nullptr || !status.ok()) return;
    const std::vector<Row>& want = Certain(q);
    auto extra = std::find_if(rows.begin(), rows.end(), [&](const Row& r) {
      return !std::binary_search(want.begin(), want.end(), r);
    });
    ++report->soundness_checks;
    ++report->oracle_checks;
    if (extra != rows.end()) {
      Fail("certain_answers", where + " " + q.ToString() + " answered " +
                                  DescribeRows({*extra}) +
                                  ", which is no certain answer");
    }
  }
  void CheckSound(const FuzzCase& c, const std::vector<QueryOutcome>& run,
                  const std::string& name) {
    for (size_t i = 0; i < run.size() && i < c.queries.size(); ++i) {
      CheckSound(c.queries[i], run[i].status, run[i].rows,
                 name + " query " + std::to_string(i));
    }
  }
};

/// Expected vs actual, query by query: status, rows, and (optionally)
/// stats must be byte-identical. `compare_cache_flags` additionally
/// requires the plan-cache hit/miss flags to line up (only meaningful
/// when both runs use the same cache configuration).
void CompareRuns(OracleContext* ctx, const std::string& oracle,
                 const std::vector<QueryOutcome>& expected,
                 const std::vector<QueryOutcome>& actual,
                 bool compare_stats = true, bool compare_cache_flags = false) {
  ctx->Check(expected.size() == actual.size(), oracle,
             "outcome count " + std::to_string(actual.size()) + " vs " +
                 std::to_string(expected.size()));
  size_t n = std::min(expected.size(), actual.size());
  for (size_t i = 0; i < n; ++i) {
    const QueryOutcome& e = expected[i];
    const QueryOutcome& a = actual[i];
    std::string where = "query " + std::to_string(i);
    ctx->Check(e.status.code() == a.status.code() &&
                   e.status.message() == a.status.message(),
               oracle,
               where + " status: " + a.status.ToString() + " vs " +
                   e.status.ToString());
    if (e.status.ok() && a.status.ok()) {
      ctx->Check(e.rows == a.rows, oracle,
                 where + " rows differ: got " + DescribeRows(a.rows) +
                     " want " + DescribeRows(e.rows));
    }
    if (compare_stats) {
      // Compare first: the message must read `diff` after it is set.
      std::string diff;
      const bool same = StatsEqualExceptCacheFlags(e.stats, a.stats, &diff);
      ctx->Check(same, oracle, where + " stats differ: " + diff);
      if (compare_cache_flags) {
        ctx->Check(e.stats.plan_cache_hits == a.stats.plan_cache_hits &&
                       e.stats.plan_cache_misses == a.stats.plan_cache_misses,
                   oracle, where + " plan-cache flags differ");
      }
    }
  }
}

/// Per-run sanity arithmetic on ExecutionStats.
void CheckStatsInvariants(OracleContext* ctx, const FuzzCase& c,
                          const EngineRun& run, bool with_faults) {
  for (size_t i = 0; i < run.outcomes.size(); ++i) {
    const QueryOutcome& o = run.outcomes[i];
    const ExecutionStats& s = o.stats;
    std::string where = "query " + std::to_string(i) + ": ";
    ctx->Check(s.rewritings_evaluated <= s.reformulation.rewritings,
               "stats_invariants",
               where + "rewritings_evaluated > reformulation.rewritings");
    ctx->Check(s.peers_contacted <= c.tables.size(), "stats_invariants",
               where + "peers_contacted exceeds peer count");
    ctx->Check(s.completeness.rewritings_skipped <=
                   s.completeness.rewritings_total,
               "stats_invariants", where + "skipped > total");
    // Every rewriting of an answer that came back is either evaluated or
    // counted as skipped; an error may stop the loop part-way.
    if (o.status.ok()) {
      ctx->Check(s.rewritings_evaluated + s.completeness.rewritings_skipped ==
                     s.completeness.rewritings_total,
                 "stats_invariants", where + "evaluated + skipped != total");
    } else {
      ctx->Check(s.rewritings_evaluated + s.completeness.rewritings_skipped <=
                     s.completeness.rewritings_total,
                 "stats_invariants", where + "evaluated + skipped > total");
    }
    ctx->Check(s.simulated_network_ms >= 0.0, "stats_invariants",
               where + "negative simulated clock");
    ctx->Check(s.plan_cache_hits + s.plan_cache_misses <= 1,
               "stats_invariants", where + "plan cache hit AND miss");
    if (!with_faults) {
      ctx->Check(s.completeness.complete() &&
                     s.completeness.contacts_failed == 0 &&
                     s.completeness.retries_attempted == 0 &&
                     s.completeness.backoff_ms == 0.0 &&
                     s.completeness.unreachable_peers.empty(),
                 "stats_invariants",
                 where + "fault accounting nonzero without an injector");
    }
  }
}

/// The peers whose stored data `rw` reads.
std::set<std::string> PeersOf(const ConjunctiveQuery& rw) {
  std::set<std::string> peers;
  for (const Atom& a : rw.body()) {
    std::string peer = piazza::SplitQualifiedName(a.relation).first;
    if (!peer.empty()) peers.insert(std::move(peer));
  }
  return peers;
}

/// EvaluateUnion over each query's rewritings: the pool-merge path must
/// equal the serial path, and both must equal what Answer assembled.
/// Since both merge members taken from query::UnionMembers, Answer must
/// also equal the naive union, which shares none of that machinery.
/// AnswerWithProvenance must return Answer's rows, each carrying the
/// peers of every rewriting whose own evaluation yields it.
void CheckUnionOracle(OracleContext* ctx, const FuzzCase& c,
                      const EngineRun& base) {
  PdmsNetwork net;
  if (!BuildNetwork(c, &net).ok()) return;
  const ReformulationOptions reform =
      CaseReform(c, /*use_plan_cache=*/false);
  ThreadPool pool(c.workers);
  for (size_t i = 0; i < c.queries.size(); ++i) {
    Result<std::vector<ConjunctiveQuery>> rewritings =
        net.Reformulate(c.queries[i], reform);
    if (!rewritings.ok()) continue;
    query::EvalOptions serial;
    Result<std::vector<Row>> sequential =
        query::EvaluateUnion(net.storage(), rewritings.value(), serial);
    query::EvalOptions parallel = serial;
    parallel.pool = &pool;
    Result<std::vector<Row>> pooled =
        query::EvaluateUnion(net.storage(), rewritings.value(), parallel);
    std::string where = "query " + std::to_string(i);
    if (sequential.ok()) {
      ctx->CheckSound(c.queries[i], Status::Ok(), sequential.value(),
                      "union " + where);
    }
    ctx->Check(sequential.ok() == pooled.ok(), "workers",
               where + " union ok-ness diverges");
    if (sequential.ok() && pooled.ok()) {
      ctx->Check(sequential.value() == pooled.value(), "workers",
                 where + " pooled union differs: got " +
                     DescribeRows(pooled.value()) + " want " +
                     DescribeRows(sequential.value()));
    }
    // Answer's merge loop and EvaluateUnion dedup independently; both
    // must land on the same first-occurrence row order.
    if (sequential.ok() && i < base.outcomes.size() &&
        base.outcomes[i].status.ok()) {
      ctx->Check(sequential.value() == base.outcomes[i].rows,
                 "answer_vs_union",
                 where + " union differs from Answer: got " +
                     DescribeRows(sequential.value()) + " want " +
                     DescribeRows(base.outcomes[i].rows));
    }
    if (i >= base.outcomes.size()) continue;
    // The naive union: each rewriting's map-engine rows in order, first
    // occurrence kept through a std::set (fuzz values are all strings,
    // so Row's operator< is strict) — no RowDedup merge, no hashes.
    std::vector<Row> naive;
    std::set<Row> seen;
    std::unordered_map<Row, std::set<std::string>, storage::RowHash> derived_by;
    query::EvalOptions reference;
    reference.engine = query::EvalEngine::kMap;
    for (const ConjunctiveQuery& rw : rewritings.value()) {
      Result<std::vector<Row>> rw_rows =
          query::EvaluateCQ(net.storage(), rw, reference);
      if (!rw_rows.ok()) continue;
      std::set<std::string> peers = PeersOf(rw);
      for (const Row& r : rw_rows.value()) {
        if (seen.insert(r).second) naive.push_back(r);
        derived_by[r].insert(peers.begin(), peers.end());
      }
    }
    if (base.outcomes[i].status.ok()) {
      ctx->Check(naive == base.outcomes[i].rows, "answer_vs_union",
                 where + " Answer differs from the naive union: got " +
                     DescribeRows(base.outcomes[i].rows) + " want " +
                     DescribeRows(naive));
    }
    NetworkCostModel cost;
    cost.failure_policy = c.policy;
    cost.eval.pool = &pool;
    Result<std::vector<PdmsNetwork::ProvenancedRow>> provenanced =
        net.AnswerWithProvenance(c.queries[i], reform, nullptr, cost);
    ctx->Check(provenanced.ok() == base.outcomes[i].status.ok(),
               "answer_vs_union",
               where + " AnswerWithProvenance ok-ness differs from Answer");
    if (!provenanced.ok() || !base.outcomes[i].status.ok()) continue;
    std::vector<Row> rows;
    rows.reserve(provenanced.value().size());
    for (const auto& p : provenanced.value()) rows.push_back(p.row);
    ctx->CheckSound(c.queries[i], Status::Ok(), rows, "provenance " + where);
    ctx->Check(rows == base.outcomes[i].rows, "answer_vs_union",
               where + " AnswerWithProvenance rows differ from Answer: got " +
                   DescribeRows(rows) + " want " +
                   DescribeRows(base.outcomes[i].rows));
    for (const auto& p : provenanced.value()) {
      auto it = derived_by.find(p.row);
      ctx->Check(it != derived_by.end() && it->second == p.peers,
                 "answer_vs_union",
                 where + " provenance of " + DescribeRows({p.row}) +
                     " differs from the peers of its deriving rewritings");
    }
  }
}

/// Variants answered per query by CheckParameterizedPlans.
constexpr size_t kPlanVariantsPerQuery = 4;

/// The values a variant draws its constants from: every stored value
/// (ids included) and every constant of the case's mappings and
/// queries, in sorted order so a seed always draws the same variants.
std::vector<Value> ConstantPool(const FuzzCase& c) {
  std::set<Value> pool;
  for (const FuzzTable& t : c.tables) {
    for (const Row& row : t.rows) pool.insert(row.begin(), row.end());
  }
  auto add_constants = [&pool](const ConjunctiveQuery& q) {
    for (const QTerm& t : q.head()) {
      if (!t.is_var()) pool.insert(t.value());
    }
    for (const Atom& a : q.body()) {
      for (const QTerm& t : a.args) {
        if (!t.is_var()) pool.insert(t.value());
      }
    }
  };
  for (const PeerMapping& m : c.mappings) {
    add_constants(m.glav.source);
    add_constants(m.glav.target);
  }
  for (const ConjunctiveQuery& q : c.queries) add_constants(q);
  return std::vector<Value>(pool.begin(), pool.end());
}

/// `q` with every distinct constant replaced by a draw from `pool`
/// (each occurrence of one constant gets the same draw). Returns false
/// when `q` has no constant.
bool RedrawConstants(const ConjunctiveQuery& q, const std::vector<Value>& pool,
                     Rng* rng, ConjunctiveQuery* variant) {
  std::vector<std::pair<Value, Value>> drawn;
  auto redraw = [&](const QTerm& t) {
    if (t.is_var()) return t;
    for (const auto& [from, to] : drawn) {
      if (from == t.value()) return QTerm::Const(to);
    }
    drawn.emplace_back(t.value(), pool[rng->Index(pool.size())]);
    return QTerm::Const(drawn.back().second);
  };
  std::vector<QTerm> head;
  for (const QTerm& t : q.head()) head.push_back(redraw(t));
  std::vector<Atom> body;
  for (const Atom& a : q.body()) {
    Atom atom{a.relation, {}};
    for (const QTerm& t : a.args) atom.args.push_back(redraw(t));
    body.push_back(std::move(atom));
  }
  *variant = ConjunctiveQuery(q.name(), std::move(head), std::move(body));
  return !drawn.empty();
}

/// Drops the first stored table of `c` that a rewriting of `q` reads
/// (none: the first table) and re-creates it, through the catalog, with
/// all of its rows but the last. No peer stamp moves, so `q`'s warm
/// plan stays cached over a table that is no longer the one it saw.
void RecreateWithoutLastRow(PdmsNetwork* net, const FuzzCase& c,
                            const ConjunctiveQuery& q,
                            const ReformulationOptions& reform) {
  if (c.tables.empty()) return;
  std::set<std::string> read;
  Result<std::vector<ConjunctiveQuery>> rewritings = net->Reformulate(q, reform);
  if (rewritings.ok()) {
    for (const ConjunctiveQuery& rw : rewritings.value()) {
      for (const Atom& a : rw.body()) read.insert(a.relation);
    }
  }
  const FuzzTable* table = &c.tables[0];
  for (const FuzzTable& t : c.tables) {
    if (read.count(QualifiedName(t.peer, t.relation)) > 0) {
      table = &t;
      break;
    }
  }
  const std::string name = QualifiedName(table->peer, table->relation);
  std::vector<std::string> columns;
  for (size_t i = 0; i < table->arity; ++i) {
    columns.push_back("c" + std::to_string(i));
  }
  storage::Catalog* catalog = net->mutable_storage();
  if (!catalog->DropTable(name).ok()) return;
  Result<storage::Table*> created =
      catalog->CreateTable(storage::TableSchema::AllStrings(name, columns));
  if (!created.ok() || table->rows.empty()) return;
  (void)created.value()->InsertAll(
      std::vector<Row>(table->rows.begin(), table->rows.end() - 1));
}

/// Parameterized plans: after each query's cold and warm run, variants
/// that redraw every distinct constant must reformulate and answer
/// through the plan cache exactly as the cache-off search does —
/// rewriting text, rows, statuses and stats — whether they hit the
/// query's template with other constants, hit a value-sensitive plan,
/// or miss. The cache starts empty for each query, so every hit comes
/// from a plan computed with that query's own variable names. Between
/// the warm run and the variants, a table the plan reads is dropped and
/// re-created with one row fewer, so hits must re-resolve it.
void CheckParameterizedPlans(OracleContext* ctx, const FuzzCase& c) {
  PdmsNetwork net;
  if (!BuildNetwork(c, &net).ok()) return;
  const std::vector<Value> pool = ConstantPool(c);
  if (pool.empty()) return;
  Rng rng(c.seed ^ 0x70a4a3e7c0f1d2b5ULL);
  const ReformulationOptions cached = CaseReform(c, true);
  const ReformulationOptions uncached = CaseReform(c, false);
  for (size_t i = 0; i < c.queries.size(); ++i) {
    net.ClearPlanCache();
    AnswerQuery(net, c.queries[i], cached);  // cold
    AnswerQuery(net, c.queries[i], cached);  // warm
    RecreateWithoutLastRow(&net, c, c.queries[i], cached);
    for (size_t v = 0; v < kPlanVariantsPerQuery; ++v) {
      ConjunctiveQuery variant;
      if (!RedrawConstants(c.queries[i], pool, &rng, &variant)) break;
      std::string where =
          "query " + std::to_string(i) + " variant " + variant.ToString();
      QueryOutcome got = AnswerQuery(net, variant, cached);
      QueryOutcome want = AnswerQuery(net, variant, uncached);
      ctx->CheckSound(variant, got.status, got.rows, "plan variant");
      ctx->CheckSound(variant, want.status, want.rows, "plan variant");
      CompareRuns(ctx, "plan_cache", {want}, {got});
      ctx->Check(got.stats.plan_cache_hits + got.stats.plan_cache_misses == 1,
                 "plan_cache", where + " never consulted the cache");
      Result<std::vector<ConjunctiveQuery>> want_rw =
          net.Reformulate(variant, uncached);
      Result<std::vector<ConjunctiveQuery>> got_rw =
          net.Reformulate(variant, cached);
      ctx->Check(want_rw.ok() == got_rw.ok(), "plan_cache",
                 where + " reformulation ok-ness differs");
      if (!want_rw.ok() || !got_rw.ok()) continue;
      std::string want_text, got_text;
      for (const ConjunctiveQuery& rw : want_rw.value()) {
        want_text += rw.ToString() + "\n";
      }
      for (const ConjunctiveQuery& rw : got_rw.value()) {
        got_text += rw.ToString() + "\n";
      }
      ctx->Check(want_text == got_text, "plan_cache",
                 where + " rewritings differ: got\n" + got_text + "want\n" +
                     want_text);
    }
  }
}

/// Span-tree well-formedness for one traced run of Answer calls. The
/// per-span rules give one verdict for the whole tree: how many
/// `evaluate` spans a pooled fail-fast answer opens depends on how far
/// its workers got before it returned, and a check count that varied
/// with that would make a seeded campaign's report nondeterministic.
void CheckSpanTree(OracleContext* ctx, const std::vector<obs::SpanRecord>& rs,
                   size_t n_queries) {
  std::map<uint64_t, const obs::SpanRecord*> by_id;
  for (const auto& r : rs) by_id[r.id] = &r;
  ctx->Check(by_id.size() == rs.size(), "trace", "duplicate span ids");

  // Every known span name, and the span name it must nest under ("" =
  // top level).
  static const std::map<std::string, std::string>* kParentOf =
      new std::map<std::string, std::string>{
          {"answer", ""},           {"reformulate", "answer"},
          {"plan_cache", "reformulate"}, {"evaluate", "answer"},
          {"contact", "evaluate"},  {"retry", "contact"}};
  std::string problem;  // the first broken rule, if any
  size_t answers = 0, reformulates = 0;
  for (const auto& r : rs) {
    answers += r.name == "answer";
    reformulates += r.name == "reformulate";
    if (!problem.empty()) continue;
    auto rule = kParentOf->find(r.name);
    auto parent = by_id.find(r.parent);
    if (r.id == 0) {
      problem = "span with id 0";
    } else if (rule == kParentOf->end()) {
      problem = "unknown span name '" + r.name + "'";
    } else if (r.parent != 0 && parent == by_id.end()) {
      problem = "span '" + r.name + "' has unfinished/unknown parent";
    } else if ((r.parent == 0 ? std::string() : parent->second->name) !=
               rule->second) {
      problem = r.name + " span not under " +
                (rule->second.empty() ? "the top level" : rule->second);
    }
  }
  ctx->Check(problem.empty(), "trace", problem);
  ctx->Check(answers == n_queries, "trace",
             std::to_string(answers) + " answer spans (want " +
                 std::to_string(n_queries) + ")");
  ctx->Check(reformulates == n_queries, "trace",
             std::to_string(reformulates) + " reformulate spans (want " +
                 std::to_string(n_queries) + ")");
}

/// RevereServer with an infinite deadline, no shedding headroom, no
/// breakers, and an inexhaustible retry budget must be a transparent
/// wrapper: statuses, rows, and every accounting counter byte-identical
/// to calling Answer directly. The overload machinery may only change
/// behavior when it is actually configured to (ISSUE 6's "no safety
/// tax" guarantee).
void CheckServeOracle(OracleContext* ctx, const FuzzCase& c,
                      const EngineRun& base, const EngineRun& faulted) {
  PdmsNetwork net;
  if (!BuildNetwork(c, &net).ok()) return;

  auto run_server = [&](bool with_faults, size_t workers,
                        std::vector<QueryOutcome>* out) {
    std::optional<FaultInjector> injector;
    if (with_faults) {
      injector.emplace(c.seed);
      ApplyFaults(c, &*injector);
    }
    serve::ServeOptions opts;
    opts.workers = workers;
    opts.queue_capacity = std::max<size_t>(4, c.queries.size());
    opts.default_deadline_ms = 0.0;     // no deadline
    opts.use_breakers = false;
    opts.retry_budget_capacity = 1e18;  // never depletes
    opts.reform = CaseReform(c, /*use_plan_cache=*/false);
    opts.cost.faults = injector ? &*injector : nullptr;
    opts.cost.failure_policy = c.policy;
    opts.cost.retry = c.retry;
    serve::RevereServer server(&net, opts);
    for (const ConjunctiveQuery& q : c.queries) {
      serve::ServeRequest req;
      req.query = q;
      // Sequential SubmitAndWait: with faults, the injector's RNG draw
      // order must match the per-query Answer sequence exactly.
      serve::ServeResult r = server.SubmitAndWait(std::move(req));
      QueryOutcome o;
      o.status = r.status;
      o.rows = std::move(r.rows);
      o.stats = std::move(r.stats);
      out->push_back(std::move(o));
    }
    serve::ServerStats ss = server.Snapshot();
    ctx->Check(
        ss.submitted == c.queries.size() && ss.admitted == ss.submitted,
        "serve_vs_answer",
        "server shed despite infinite deadline and sequential submission");
  };

  std::vector<QueryOutcome> served_faulted;
  run_server(/*with_faults=*/true, /*workers=*/1, &served_faulted);
  ctx->CheckSound(c, served_faulted, "served faulted");
  CompareRuns(ctx, "serve_vs_answer", faulted.outcomes, served_faulted,
              /*compare_stats=*/true, /*compare_cache_flags=*/true);

  std::vector<QueryOutcome> served;
  run_server(/*with_faults=*/false, std::max<size_t>(2, c.workers), &served);
  ctx->CheckSound(c, served, "served");
  CompareRuns(ctx, "serve_vs_answer", base.outcomes, served,
              /*compare_stats=*/true, /*compare_cache_flags=*/true);
}

/// Every rewriting the bounded route search keeps must be contained in
/// some rewriting the exhaustive search keeps (the bounded search only
/// explores a subset of the paths; containment pruning may pick other
/// representatives, never other answers).
void CheckBoundedRewritingsContained(
    OracleContext* ctx, const std::string& where,
    const Result<std::vector<ConjunctiveQuery>>& bounded,
    const Result<std::vector<ConjunctiveQuery>>& exhaustive) {
  if (!bounded.ok() || !exhaustive.ok()) return;
  for (const ConjunctiveQuery& rw : bounded.value()) {
    bool contained = false;
    for (size_t j = 0; !contained && j < exhaustive.value().size(); ++j) {
      contained = query::Contains(exhaustive.value()[j], rw);
    }
    ctx->Check(contained, "pruned_vs_exhaustive",
               where + " bounded rewriting " + rw.ToString() +
                   " is contained in no exhaustive rewriting");
  }
}

/// The indexed search vs the scan reference. The index and the scan
/// must yield the same candidate mapping applications in the same
/// order, so with no budget and no redundant-path elimination the index
/// must reproduce the scan byte for byte — rows, statuses, stats, and
/// zero pruning counters. A bounded budget may only *remove* answers,
/// never invent them, and must replay bit-identically under faults.
void CheckRouteOracle(OracleContext* ctx, const FuzzCase& c) {
  // The knobs apply to the scan too: the reference runs without them.
  ReformulationOptions scan = CaseReform(c, /*use_plan_cache=*/false);
  scan.use_route_search = false;
  scan.max_path_cost = 0.0;
  scan.prune_redundant_paths = false;
  ReformulationOptions index = scan;
  index.use_route_search = true;
  const EngineConfig serial;  // the columnar engine
  EngineConfig faulted;
  faulted.with_faults = true;

  EngineRun exhaustive = Run(c, scan, serial);
  EngineRun unlimited = Run(c, index, serial);
  ctx->CheckSound(c, exhaustive.outcomes, "scan");
  ctx->CheckSound(c, unlimited.outcomes, "index");
  CompareRuns(ctx, "pruned_vs_exhaustive", exhaustive.outcomes,
              unlimited.outcomes);
  for (size_t i = 0; i < unlimited.outcomes.size(); ++i) {
    const auto& r = unlimited.outcomes[i].stats.reformulation;
    ctx->Check(r.pruned_cost == 0 && r.pruned_redundant == 0,
               "pruned_vs_exhaustive",
               "query " + std::to_string(i) +
                   " pruned with an unlimited budget (cost=" +
                   std::to_string(r.pruned_cost) + " redundant=" +
                   std::to_string(r.pruned_redundant) + ")");
  }

  // Faulted arm: identical rewritings in identical order mean identical
  // injector draws, so the degraded runs must match byte for byte too.
  EngineRun scan_faulted = Run(c, scan, faulted);
  EngineRun index_faulted = Run(c, index, faulted);
  ctx->CheckSound(c, scan_faulted.outcomes, "scan faulted");
  ctx->CheckSound(c, index_faulted.outcomes, "index faulted");
  CompareRuns(ctx, "pruned_vs_exhaustive", scan_faulted.outcomes,
              index_faulted.outcomes,
              /*compare_stats=*/true, /*compare_cache_flags=*/true);

  // Bounded budget (1-3 uniform-cost hops, seed-derived so replays are
  // exact): answers shrink monotonically. The bounded search explores a
  // subset of the paths, but with prune_contained on it may keep MORE
  // rewritings: the exhaustive search can drop two rewritings as
  // contained in a third that the bounded search never generates, and
  // the bounded search then keeps both. So the count bound is checked
  // only with prune_contained off; what always holds is that every
  // bounded rewriting is contained in some exhaustive rewriting, and so
  // every bounded row is in the exhaustive answer. Both claims need the
  // exhaustive search to have been exhaustive — if it stopped at
  // max_rewritings, pruning can surface rewritings the truncated run
  // never emitted, so they are skipped for that query.
  ReformulationOptions budget = index;
  budget.max_path_cost = 1.0 + static_cast<double>(c.seed % 3);
  budget.prune_redundant_paths = true;
  EngineRun bounded = Run(c, budget, serial);
  ctx->CheckSound(c, bounded.outcomes, "budgeted");
  CheckStatsInvariants(ctx, c, bounded, /*with_faults=*/false);
  PdmsNetwork net;
  const bool built = BuildNetwork(c, &net).ok();
  size_t n = std::min(bounded.outcomes.size(), exhaustive.outcomes.size());
  for (size_t i = 0; i < n; ++i) {
    const QueryOutcome& b = bounded.outcomes[i];
    const QueryOutcome& e = exhaustive.outcomes[i];
    if (!b.status.ok() || !e.status.ok()) continue;
    std::string where = "query " + std::to_string(i);
    if (!c.reform.prune_contained) {
      ctx->Check(b.stats.reformulation.rewritings <=
                     e.stats.reformulation.rewritings,
                 "pruned_vs_exhaustive",
                 where + " bounded budget found more rewritings than the "
                         "exhaustive search");
    }
    if (e.stats.reformulation.rewritings >= c.reform.max_rewritings) {
      continue;  // exhaustive run was truncated; both claims are void
    }
    if (built) {
      CheckBoundedRewritingsContained(ctx, where,
                                      net.Reformulate(c.queries[i], budget),
                                      net.Reformulate(c.queries[i], scan));
    }
    std::unordered_set<Row, storage::RowHash> full(e.rows.begin(),
                                                   e.rows.end());
    bool subset = true;
    for (const Row& r : b.rows) {
      if (full.count(r) == 0) subset = false;
    }
    ctx->Check(subset, "pruned_vs_exhaustive",
               where + " bounded budget invented rows absent from the "
                       "exhaustive answer: got " +
                   DescribeRows(b.rows) + " domain " + DescribeRows(e.rows));
  }

  // Bounded + faults: a fresh injector from the same seed replays the
  // degraded pruned run bit-identically.
  EngineRun budget_faulted = Run(c, budget, faulted);
  ctx->CheckSound(c, budget_faulted.outcomes, "budgeted faulted");
  CompareRuns(ctx, "pruned_vs_exhaustive", budget_faulted.outcomes,
              Run(c, budget, faulted).outcomes,
              /*compare_stats=*/true, /*compare_cache_flags=*/true);
}

/// Completeness: the baseline answer holds every certain answer
/// wherever its search claims to be complete — nothing pruned by cost,
/// depth or redundancy, not stopped at max_rewritings, and (because
/// pruned_depth counts only nodes dropped unemitted) a search one level
/// deeper expanding no more nodes, with nothing pruned either. The
/// baseline runs fault-free, so no peer is unreachable.
void CheckCompleteness(OracleContext* ctx, const FuzzCase& c,
                       const EngineRun& base) {
  PdmsNetwork net;
  if (ctx->chase == nullptr || !BuildNetwork(c, &net).ok()) return;
  ReformulationOptions deeper = CaseReform(c, /*use_plan_cache=*/false);
  ++deeper.max_depth;
  for (size_t i = 0; i < base.outcomes.size() && i < c.queries.size(); ++i) {
    const QueryOutcome& o = base.outcomes[i];
    const piazza::ReformulationStats& r = o.stats.reformulation;
    if (!o.status.ok() || r.pruned_cost > 0 || r.pruned_depth > 0 ||
        r.pruned_redundant > 0 || r.rewritings >= c.reform.max_rewritings) {
      continue;
    }
    // One level deeper, the hop budget may cut where the depth did.
    piazza::ReformulationStats d;
    if (!net.Reformulate(c.queries[i], deeper, &d).ok() ||
        d.nodes_expanded != r.nodes_expanded || d.pruned_cost > 0 ||
        d.pruned_redundant > 0) {
      continue;
    }
    std::unordered_set<Row, storage::RowHash> got(o.rows.begin(), o.rows.end());
    const std::vector<Row>& want = ctx->Certain(c.queries[i]);
    auto missing = std::find_if(want.begin(), want.end(), [&](const Row& r) {
      return got.count(r) == 0;
    });
    ++ctx->report->completeness_checks;
    ++ctx->report->oracle_checks;
    if (missing != want.end()) {
      ctx->Fail("certain_answers",
                "query " + std::to_string(i) + " " + c.queries[i].ToString() +
                    " misses the certain answer " + DescribeRows({*missing}) +
                    ": got " + DescribeRows(o.rows) + " want " +
                    DescribeRows(want));
    }
  }
}


uint64_t DigestRun(const std::vector<QueryOutcome>& outcomes) {
  uint64_t h = Fnv1a64("fuzz-digest-v1");
  for (const QueryOutcome& o : outcomes) {
    h = Fnv1a64(StatusCodeToString(o.status.code()), h);
    h = Fnv1a64(o.status.message(), h);
    for (const Row& row : o.rows) {
      for (const Value& v : row) {
        h = Fnv1a64(ValueTypeToString(v.type()), h);
        h = Fnv1a64(v.ToString(), h);
      }
      h = Fnv1a64("|", h);
    }
    h = Fnv1a64(";", h);
  }
  return h;
}

/// MVCC snapshots under load (ISSUE 10): answers computed while a
/// writer thread churns every stored relation must equal the same
/// queries re-run over the SAME pinned versions after the writer
/// quiesces — byte-identical rows, statuses, stats, and digest. The
/// comparison is reader-vs-its-own-pins (SnapshotSet is first-pin-wins,
/// so the quiesced pass reads exactly the versions the loaded pass
/// read), which makes the oracle deterministic regardless of thread
/// timing — and, under TSan, a race detector over the whole
/// Snapshot/Publish protocol.
void CheckSnapshotOracle(OracleContext* ctx, const FuzzCase& c) {
  PdmsNetwork net;
  if (!BuildNetwork(c, &net).ok() || c.tables.empty()) return;

  // Qualified name + arity of every stored relation, for the writer.
  std::vector<std::pair<std::string, size_t>> targets;
  for (const FuzzTable& t : c.tables) {
    targets.emplace_back(QualifiedName(t.peer, t.relation), t.arity);
  }

  std::atomic<bool> done{false};
  std::thread writer([&] {
    uint64_t i = c.seed;
    while (!done.load(std::memory_order_acquire)) {
      const auto& [name, arity] = targets[i % targets.size()];
      auto table = net.mutable_storage()->GetTable(name);
      if (table.ok()) {
        Row row;
        for (size_t a = 0; a < arity; ++a) {
          row.emplace_back("w" + std::to_string(i));
        }
        // Insert-then-delete churn: every iteration publishes two new
        // versions; net table contents return to the pre-churn state,
        // but nothing below depends on that.
        (void)table.value()->Insert(row);
        (void)table.value()->Delete(row);
      }
      ++i;
    }
  });

  const ReformulationOptions reform =
      CaseReform(c, /*use_plan_cache=*/false);
  storage::SnapshotSet pins;
  NetworkCostModel cost;
  cost.failure_policy = c.policy;
  cost.retry = c.retry;
  cost.eval.snapshots = &pins;  // pins outlive the Answer calls

  std::vector<QueryOutcome> loaded;
  for (const ConjunctiveQuery& q : c.queries) {
    loaded.push_back(AnswerQuery(net, q, reform, cost));
  }
  done.store(true, std::memory_order_release);
  writer.join();

  std::vector<QueryOutcome> quiesced;
  for (const ConjunctiveQuery& q : c.queries) {
    quiesced.push_back(AnswerQuery(net, q, reform, cost));
  }
  CompareRuns(ctx, "snapshot_vs_quiesced", quiesced, loaded,
              /*compare_stats=*/true, /*compare_cache_flags=*/true);
  ctx->Check(DigestRun(loaded) == DigestRun(quiesced),
             "snapshot_vs_quiesced",
             "under-load answer digest diverges from the quiesced re-run "
             "over the same pinned versions");
}

}  // namespace

CaseReport CheckCase(const FuzzCase& c) {
  CaseReport report;
  OracleContext ctx(&report);
  PdmsNetwork chased;
  std::optional<CertainAnswers> chase;
  if (BuildNetwork(c, &chased).ok()) {
    chase.emplace(chased);
    report.chase_fixpoint = chase->fixpoint();
    if (chase->fixpoint()) ctx.chase = &*chase;
  }

  // The reference everything is measured against: the map engine (a
  // full scan per atom), no cache, no pool — fault-free, and under the
  // case's faults for the faulted comparisons.
  const ReformulationOptions uncached = CaseReform(c, false);
  const ReformulationOptions cached = CaseReform(c, true);
  EngineConfig base_cfg;
  base_cfg.engine = query::EvalEngine::kMap;
  EngineRun base = Run(c, uncached, base_cfg);
  report.answer_digest = DigestRun(base.outcomes);
  EngineConfig base_fault_cfg = base_cfg;
  base_fault_cfg.with_faults = true;
  EngineRun base_faulted = Run(c, uncached, base_fault_cfg);
  ctx.CheckSound(c, base.outcomes, "baseline");
  ctx.CheckSound(c, base_faulted.outcomes, "baseline faulted");
  CheckCompleteness(&ctx, c, base);

  // 1. The columnar engine vs the map reference: byte-identical
  //    statuses, rows, and stats, serial and pooled, fault-free and
  //    faulted. Every later configuration runs the columnar engine.
  EngineConfig engine_cfg;  // defaults: the columnar engine
  EngineRun evaluated = Run(c, uncached, engine_cfg);
  ctx.CheckSound(c, evaluated.outcomes, "columnar");
  CompareRuns(&ctx, "engine_vs_reference", base.outcomes, evaluated.outcomes);
  CheckStatsInvariants(&ctx, c, evaluated, /*with_faults=*/false);
  EngineConfig pool_cfg = engine_cfg;
  pool_cfg.workers = c.workers;
  EngineRun pooled = Run(c, uncached, pool_cfg);
  ctx.CheckSound(c, pooled.outcomes, "pooled");
  CompareRuns(&ctx, "engine_vs_reference", base.outcomes, pooled.outcomes);
  EngineConfig fault_cfg = engine_cfg;
  fault_cfg.with_faults = true;
  EngineRun faulted = Run(c, uncached, fault_cfg);
  ctx.CheckSound(c, faulted.outcomes, "faulted");
  CompareRuns(&ctx, "engine_vs_reference", base_faulted.outcomes,
              faulted.outcomes, /*compare_stats=*/true,
              /*compare_cache_flags=*/true);
  EngineConfig fault_pool_cfg = fault_cfg;
  fault_pool_cfg.workers = c.workers;
  EngineRun faulted_pooled = Run(c, uncached, fault_pool_cfg);
  ctx.CheckSound(c, faulted_pooled.outcomes, "faulted pooled");
  CompareRuns(&ctx, "engine_vs_reference", base_faulted.outcomes,
              faulted_pooled.outcomes, /*compare_stats=*/true,
              /*compare_cache_flags=*/true);

  // 2. Plan cache: off == cold miss == warm hit, hit/miss flags sane.
  EngineConfig cache_cfg = engine_cfg;
  cache_cfg.double_run = true;
  EngineRun cache_run = Run(c, cached, cache_cfg);
  ctx.CheckSound(c, cache_run.cold, "cold cache");
  ctx.CheckSound(c, cache_run.outcomes, "warm cache");
  CompareRuns(&ctx, "plan_cache", base.outcomes, cache_run.cold);
  CompareRuns(&ctx, "plan_cache", base.outcomes, cache_run.outcomes);
  for (size_t i = 0; i < cache_run.outcomes.size(); ++i) {
    const ExecutionStats& warm = cache_run.outcomes[i].stats;
    const ExecutionStats& cold = cache_run.cold[i].stats;
    std::string where = "query " + std::to_string(i);
    ctx.Check(cold.plan_cache_hits + cold.plan_cache_misses == 1,
              "plan_cache", where + " cold run never consulted the cache");
    ctx.Check(warm.plan_cache_hits == 1 && warm.plan_cache_misses == 0,
              "plan_cache", where + " warm run missed the plan cache");
  }

  // 2b. Parameterized plans: variants with redrawn constants answer
  //     through the cache exactly as the cache-off search does.
  CheckParameterizedPlans(&ctx, c);

  // 3. Pool-parallel EvaluateUnion vs serial, and both vs Answer.
  CheckUnionOracle(&ctx, c, base);

  // 4. Faults: two fresh injectors from the same seed must replay the
  //    run bit-identically; degraded answers obey subset/completeness.
  EngineRun replay = Run(c, uncached, fault_cfg);
  ctx.CheckSound(c, replay.outcomes, "replay");
  CompareRuns(&ctx, "fault_replay", faulted.outcomes, replay.outcomes,
              /*compare_stats=*/true, /*compare_cache_flags=*/true);
  CheckStatsInvariants(&ctx, c, faulted, /*with_faults=*/true);
  for (size_t i = 0; i < faulted.outcomes.size(); ++i) {
    const QueryOutcome& f = faulted.outcomes[i];
    if (!f.status.ok() || i >= base.outcomes.size()) continue;
    const QueryOutcome& b = base.outcomes[i];
    if (!b.status.ok()) continue;
    std::string where = "query " + std::to_string(i);
    std::unordered_set<Row, storage::RowHash> fault_free(b.rows.begin(),
                                                         b.rows.end());
    bool subset = true;
    for (const Row& r : f.rows) {
      if (fault_free.count(r) == 0) subset = false;
    }
    ctx.Check(subset, "fault_replay",
              where + " degraded answer contains rows absent fault-free");
    if (f.stats.completeness.complete() &&
        f.stats.completeness.unreachable_peers.empty()) {
      ctx.Check(f.rows == b.rows, "fault_replay",
                where + " complete()==true but answers differ from "
                        "fault-free run");
    }
  }

  // 5. Tracing must not perturb anything, and the span tree must be
  //    well-formed (full pipeline: cache + pool + faults).
  obs::Tracer tracer(obs::TraceMode::kFull);
  EngineConfig trace_cfg = fault_cfg;
  trace_cfg.workers = c.workers;
  trace_cfg.tracer = &tracer;
  EngineRun traced = Run(c, cached, trace_cfg);  // cached: plan_cache spans
  ctx.CheckSound(c, traced.outcomes, "traced");
  CompareRuns(&ctx, "trace", faulted.outcomes, traced.outcomes,
              /*compare_stats=*/true, /*compare_cache_flags=*/false);
  CheckSpanTree(&ctx, tracer.Records(), c.queries.size());

  // 6. The serving front end in transparent mode (no deadline, no
  //    breakers, unlimited retry budget) vs direct Answer calls.
  CheckServeOracle(&ctx, c, base, faulted);

  // 7. The indexed search vs the scan reference: unlimited budget
  //    byte-identical, bounded budget contained and subset-only, with
  //    and without faults.
  CheckRouteOracle(&ctx, c);

  // 8. MVCC snapshots under a concurrent writer: answers under load
  //    == answers over the same pinned versions quiesced.
  CheckSnapshotOracle(&ctx, c);

  return report;
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

namespace {

/// Removes body atom `atom_idx`, re-projecting the head onto surviving
/// variables (a constant placeholder keeps the head non-empty). Returns
/// false when the query has a single atom (nothing left to evaluate).
bool RemoveAtom(ConjunctiveQuery* q, size_t atom_idx) {
  if (q->body().size() <= 1) return false;
  std::vector<Atom> body = q->body();
  body.erase(body.begin() + static_cast<long>(atom_idx));
  std::set<std::string> vars;
  for (const Atom& a : body) {
    for (const QTerm& t : a.args) {
      if (t.is_var()) vars.insert(t.var());
    }
  }
  std::vector<QTerm> head;
  for (const QTerm& t : q->head()) {
    if (!t.is_var() || vars.count(t.var()) > 0) head.push_back(t);
  }
  if (head.empty()) head.push_back(QTerm::Const(std::string("x")));
  *q = ConjunctiveQuery(q->name(), std::move(head), std::move(body));
  return true;
}

}  // namespace

FuzzCase ShrinkCase(FuzzCase c, const FailurePredicate& still_fails,
                    size_t max_probes) {
  size_t probes = 0;
  auto accept = [&](FuzzCase& candidate) {
    if (probes >= max_probes) return false;
    ++probes;
    if (!still_fails(candidate)) return false;
    c = std::move(candidate);
    return true;
  };

  bool changed = true;
  while (changed && probes < max_probes) {
    changed = false;
    for (size_t i = c.queries.size(); i-- > 0;) {
      if (c.queries.size() <= 1) break;
      FuzzCase cand = c;
      cand.queries.erase(cand.queries.begin() + static_cast<long>(i));
      if (accept(cand)) changed = true;
    }
    for (size_t i = c.faults.size(); i-- > 0;) {
      FuzzCase cand = c;
      cand.faults.erase(cand.faults.begin() + static_cast<long>(i));
      if (accept(cand)) changed = true;
    }
    for (size_t i = c.mappings.size(); i-- > 0;) {
      FuzzCase cand = c;
      cand.mappings.erase(cand.mappings.begin() + static_cast<long>(i));
      if (accept(cand)) changed = true;
    }
    for (size_t qi = 0; qi < c.queries.size(); ++qi) {
      for (size_t ai = c.queries[qi].body().size(); ai-- > 0;) {
        FuzzCase cand = c;
        if (!RemoveAtom(&cand.queries[qi], ai)) continue;
        if (accept(cand)) changed = true;
      }
    }
    for (size_t ti = 0; ti < c.tables.size(); ++ti) {
      for (size_t ri = c.tables[ti].rows.size(); ri-- > 0;) {
        FuzzCase cand = c;
        cand.tables[ti].rows.erase(cand.tables[ti].rows.begin() +
                                   static_cast<long>(ri));
        if (accept(cand)) changed = true;
      }
    }
  }
  return c;
}

// ---------------------------------------------------------------------
// Seed-file serialization
// ---------------------------------------------------------------------

namespace {

constexpr std::string_view kSeedFileHeader = "revere-fuzz-case v2";

/// Every oracle run of a case starts a pool of `workers` threads, so a
/// seed file may not ask for more than this.
constexpr uint64_t kMaxWorkers = 64;

Result<uint64_t> ParseU64(const std::string& tok) {
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
  // strtoull would wrap "-1" to the largest value.
  if (errno != 0 || !std::isdigit(static_cast<unsigned char>(tok[0])) ||
      *end != '\0') {
    return Status::ParseError("bad integer '" + tok + "'");
  }
  return static_cast<uint64_t>(v);
}

Result<double> ParseF64(const std::string& tok) {
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(tok.c_str(), &end);
  if (errno != 0 || end == tok.c_str() || *end != '\0') {
    return Status::ParseError("bad number '" + tok + "'");
  }
  return v;
}

/// Appends `fields` to `out` as one space-separated line.
void AppendLine(std::string* out,
                std::initializer_list<std::string_view> fields) {
  const char* separator = "";
  for (std::string_view field : fields) {
    *out += separator;
    *out += field;
    separator = " ";
  }
  *out += '\n';
}

/// Reads one case line (anything before the `network` line) into `c`.
Status ParseCaseLine(std::string_view line, FuzzCase* c) {
  std::vector<std::string> f = SplitAny(line, " \t");
  const std::string& kind = f[0];
  auto need = [&](size_t n) {
    return f.size() == n + 1
               ? Status::Ok()
               : Status::ParseError("'" + kind + "' needs " +
                                    std::to_string(n) + " fields");
  };
  if (kind == "query") {
    REVERE_ASSIGN_OR_RETURN(
        ConjunctiveQuery q,
        ConjunctiveQuery::Parse(Trim(line.substr(kind.size()))));
    c->queries.push_back(std::move(q));
  } else if (kind == "seed") {
    REVERE_RETURN_IF_ERROR(need(1));
    REVERE_ASSIGN_OR_RETURN(c->seed, ParseU64(f[1]));
  } else if (kind == "workers") {
    REVERE_RETURN_IF_ERROR(need(1));
    REVERE_ASSIGN_OR_RETURN(uint64_t workers, ParseU64(f[1]));
    if (workers > kMaxWorkers) {
      return Status::OutOfRange("'workers' above " +
                                std::to_string(kMaxWorkers));
    }
    c->workers = static_cast<size_t>(workers);
  } else if (kind == "reform") {
    REVERE_RETURN_IF_ERROR(need(8));
    ReformulationOptions& r = c->reform;
    REVERE_ASSIGN_OR_RETURN(uint64_t depth, ParseU64(f[1]));
    REVERE_ASSIGN_OR_RETURN(uint64_t max_rewritings, ParseU64(f[2]));
    r.max_depth = static_cast<int>(depth);
    r.max_rewritings = static_cast<size_t>(max_rewritings);
    r.prune_duplicates = f[3] == "1";
    r.prune_unreachable = f[4] == "1";
    r.prune_contained = f[5] == "1";
    r.use_route_search = f[6] == "1";
    REVERE_ASSIGN_OR_RETURN(r.max_path_cost, ParseF64(f[7]));
    r.prune_redundant_paths = f[8] == "1";
  } else if (kind == "retry") {
    REVERE_RETURN_IF_ERROR(need(3));
    REVERE_ASSIGN_OR_RETURN(uint64_t attempts, ParseU64(f[1]));
    c->retry.max_attempts = static_cast<int>(attempts);
    REVERE_ASSIGN_OR_RETURN(c->retry.base_backoff_ms, ParseF64(f[2]));
    REVERE_ASSIGN_OR_RETURN(c->retry.deadline_ms, ParseF64(f[3]));
  } else if (kind == "policy") {
    REVERE_RETURN_IF_ERROR(need(1));
    if (f[1] == "failfast") {
      c->policy = FailurePolicy::kFailFast;
    } else if (f[1] == "besteffort") {
      c->policy = FailurePolicy::kBestEffort;
    } else {
      return Status::ParseError("unknown policy '" + f[1] + "'");
    }
  } else {
    return Status::ParseError("unknown case line '" + kind + "'");
  }
  return Status::Ok();
}

}  // namespace

std::string SerializeCase(const FuzzCase& c) {
  const ReformulationOptions& r = c.reform;
  auto bit = [](bool b) { return b ? "1" : "0"; };
  std::string out;
  AppendLine(&out, {kSeedFileHeader});
  AppendLine(&out, {"seed", std::to_string(c.seed)});
  AppendLine(&out, {"workers", std::to_string(c.workers)});
  AppendLine(&out, {"reform", std::to_string(r.max_depth),
                    std::to_string(r.max_rewritings), bit(r.prune_duplicates),
                    bit(r.prune_unreachable), bit(r.prune_contained),
                    bit(r.use_route_search), FormatDoubleExact(r.max_path_cost),
                    bit(r.prune_redundant_paths)});
  AppendLine(&out, {"retry", std::to_string(c.retry.max_attempts),
                    FormatDoubleExact(c.retry.base_backoff_ms),
                    FormatDoubleExact(c.retry.deadline_ms)});
  AppendLine(&out, {"policy", c.policy == FailurePolicy::kFailFast
                                  ? "failfast"
                                  : "besteffort"});
  for (const ConjunctiveQuery& q : c.queries) {
    AppendLine(&out, {"query", q.ToString()});
  }
  out += "network\n";
  PdmsNetwork net;
  if (!BuildNetwork(c, &net).ok()) {
    out += "# incomplete: the case's network failed to build\n";
  }
  FaultInjector faults(c.seed);
  ApplyFaults(c, &faults);
  out += piazza::SaveNetworkConfig(net, &faults);
  return out;
}

Result<FuzzCase> ParseCase(std::string_view text) {
  FuzzCase c;
  std::vector<std::string> lines = Split(text, '\n');
  if (Trim(lines[0]) != kSeedFileHeader) {
    return Status::ParseError("seed file line 1: want the header '" +
                              std::string(kSeedFileHeader) + "'");
  }
  size_t n = 1;
  for (; n < lines.size(); ++n) {
    std::string_view line = Trim(lines[n]);
    if (line == "network") break;
    if (line.empty() || line[0] == '#') continue;
    Status status = ParseCaseLine(line, &c);
    if (!status.ok()) {
      return Status(status.code(), "seed file line " + std::to_string(n + 1) +
                                       ": " + status.message());
    }
  }
  if (n == lines.size()) return Status::ParseError("no 'network' line");

  // One blank line per line above the network part keeps the loader's
  // error messages counting lines from the top of the seed file.
  std::string config(n + 1, '\n');
  config += Join(std::vector<std::string>(lines.begin() + n + 1, lines.end()),
                 "\n");
  PdmsNetwork net;
  FaultInjector faults(c.seed);
  REVERE_RETURN_IF_ERROR(piazza::LoadNetworkConfig(config, &net, &faults));
  // A case's peers are its tables' peers, and its plan-cache size is
  // each oracle's own: refuse what the case cannot hold.
  std::set<std::string> peers;
  for (const std::string& name : net.storage().TableNames()) {
    REVERE_ASSIGN_OR_RETURN(const storage::Table* table,
                            net.storage().GetTable(name));
    auto [peer, relation] = piazza::SplitQualifiedName(name);
    FuzzTable t{peer, relation, table->schema().columns().size(), {}};
    auto snapshot = table->Snapshot();
    for (size_t i = 0; i < snapshot->size(); ++i) {
      t.rows.push_back(snapshot->row(i));
    }
    peers.insert(peer);
    c.tables.push_back(std::move(t));
  }
  if (peers.size() != net.peer_count()) {
    return Status::ParseError("a peer of the network part has no table");
  }
  if (net.plan_cache_capacity() != piazza::kDefaultPlanCacheCapacity) {
    return Status::ParseError("a seed file takes no plan_cache directive");
  }
  c.mappings = net.mappings();
  for (const std::string& peer : faults.FaultyPeers()) {
    c.faults.push_back(FuzzFault{peer, faults.GetFault(peer)});
  }
  return c;
}

Status SaveCase(const FuzzCase& c, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::Internal("cannot open '" + path + "' for write");
  out << SerializeCase(c);
  out.flush();
  if (!out) return Status::Internal("short write to '" + path + "'");
  return Status::Ok();
}

Result<FuzzCase> LoadCase(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open seed file '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseCase(buffer.str());
}

// ---------------------------------------------------------------------
// Campaign driver
// ---------------------------------------------------------------------

FuzzRunReport RunFuzz(const FuzzRunOptions& options) {
  FuzzRunReport report;
  Rng seq(options.seed);
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < options.cases; ++i) {
    if (options.max_seconds > 0) {
      double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (elapsed >= options.max_seconds) {
        report.time_boxed = true;
        break;
      }
    }
    uint64_t case_seed = seq.Next();
    FuzzCase c = GenerateCase(case_seed);
    CaseReport cr = CheckCase(c);
    ++report.cases_run;
    report.oracle_checks += cr.oracle_checks;
    report.soundness_checks += cr.soundness_checks;
    report.completeness_checks += cr.completeness_checks;
    report.no_fixpoint_cases += cr.chase_fixpoint ? 0 : 1;
    if (cr.ok()) continue;
    ++report.mismatches;
    FuzzCase shrunk = ShrinkCase(
        c, [](const FuzzCase& s) { return !CheckCase(s).ok(); });
    if (report.mismatches == 1) {
      report.first_failure = shrunk;
      report.first_failure_details = CheckCase(shrunk).failures;
    }
    if (!options.failure_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(options.failure_dir, ec);
      std::string path = options.failure_dir + "/fuzz_case_" +
                         std::to_string(case_seed) + ".txt";
      if (SaveCase(shrunk, path).ok()) report.failure_files.push_back(path);
    }
  }
  return report;
}

}  // namespace revere::fuzz
