#include "src/fuzz/fuzzer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
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
#include "src/common/thread_pool.h"
#include "src/datagen/topology.h"
#include "src/datagen/university.h"
#include "src/obs/trace.h"
#include "src/piazza/peer.h"
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

/// Strings that survive the seed-file quoting and the datalog parser
/// unchanged: no quotes, backslashes, or newlines (generated values
/// never contain them, but constants sampled from rows are re-checked).
bool SerializableString(const std::string& s) {
  return s.find('"') == std::string::npos &&
         s.find('\\') == std::string::npos &&
         s.find('\n') == std::string::npos;
}

FuzzMapping MakeMapping(const FuzzCase& c, size_t a, size_t b,
                        const std::vector<std::string>& id_pool, Rng* rng,
                        size_t index, double bidirectional_prob) {
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

  FuzzMapping m;
  m.source_peer = ta.peer;
  m.target_peer = tb.peer;
  m.bidirectional = rng->Bernoulli(bidirectional_prob);
  m.glav.name = "m" + std::to_string(index);
  m.glav.source = make_side(ta, "S");
  m.glav.target = make_side(tb, "T");
  return m;
}

ConjunctiveQuery GenQuery(const FuzzCase& c,
                          const std::vector<std::string>& value_pool,
                          Rng* rng, const FuzzCaseOptions& opt) {
  size_t natoms = 1 + rng->Index(opt.max_extra_atoms + 1);
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
      if (r < opt.constant_prob) {
        atom.args.push_back(
            QTerm::Const(value_pool[rng->Index(value_pool.size())]));
      } else if (!vars.empty() && r < opt.constant_prob + 0.45) {
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

}  // namespace

FuzzCase GenerateCase(uint64_t seed, const FuzzCaseOptions& opt) {
  FuzzCase c;
  c.seed = seed;
  Rng rng(seed);

  size_t span = opt.max_peers >= opt.min_peers
                    ? opt.max_peers - opt.min_peers + 1
                    : 1;
  size_t n = opt.min_peers + rng.Index(span);
  if (n == 0) n = 1;

  // Small shared id pool: cross-peer joins hit often enough to matter.
  std::vector<std::string> id_pool;
  for (int k = 0; k < 10; ++k) id_pool.push_back("c" + std::to_string(k));

  const auto& relation_pool = datagen::RelationNamePool();
  for (size_t i = 0; i < n; ++i) {
    FuzzTable t;
    t.peer = "p" + std::to_string(i);
    t.relation = relation_pool[i % relation_pool.size()];
    t.arity = 2 + rng.Index(3);
    size_t rows = rng.Index(opt.max_rows_per_peer + 1);
    Rng data_rng = rng.Fork();
    std::vector<datagen::CourseRecord> courses =
        datagen::GenerateCourses(rows, &data_rng);
    for (size_t r = 0; r < rows; ++r) {
      Row row;
      row.reserve(t.arity);
      row.push_back(Value(id_pool[rng.Index(id_pool.size())]));
      const std::string fields[3] = {courses[r].title, courses[r].instructor,
                                     courses[r].room};
      for (size_t j = 1; j < t.arity; ++j) row.push_back(Value(fields[j - 1]));
      t.rows.push_back(std::move(row));
      // Bag-semantics pressure: duplicates must vanish exactly once in
      // every engine.
      if (rng.Bernoulli(opt.duplicate_row_prob)) {
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
  topo.extra_edge_prob = opt.extra_edge_prob;
  size_t midx = 0;
  for (const auto& [a, b] : datagen::TopologyEdges(topo, n, &rng)) {
    c.mappings.push_back(MakeMapping(c, a, b, id_pool, &rng, midx++,
                                     opt.bidirectional_prob));
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

  size_t nq = 1 + rng.Index(opt.max_queries);
  for (size_t qi = 0; qi < nq; ++qi) {
    c.queries.push_back(GenQuery(c, value_pool, &rng, opt));
  }

  if (rng.Bernoulli(opt.fault_case_prob)) {
    for (const FuzzTable& t : c.tables) {
      if (!rng.Bernoulli(opt.fault_peer_prob)) continue;
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
  if (rng.Bernoulli(opt.route_case_prob)) {
    // Route-mode search (ISSUE 9): unlimited budget half the time (the
    // byte-identical regime the whole oracle battery then runs in), a
    // biting hop budget otherwise. Costs stay uniform (no feedback), so
    // every configuration prunes identically.
    c.reform.use_route_search = true;
    c.reform.max_path_cost =
        rng.Bernoulli(0.5) ? 0.0 : 1.0 + static_cast<double>(rng.Index(3));
    c.reform.prune_redundant_paths = rng.Bernoulli(0.5);
  }
  c.retry.max_attempts = 1 + static_cast<int>(rng.Index(3));
  c.retry.base_backoff_ms = 0.5;
  c.retry.deadline_ms = rng.Bernoulli(0.5) ? 6.0 : 0.0;
  c.policy = rng.Bernoulli(0.3) ? FailurePolicy::kFailFast
                                : FailurePolicy::kBestEffort;
  return c;
}

Status BuildNetwork(const FuzzCase& c, PdmsNetwork* net) {
  // The fuzzer runs thousands of networks per pass; keep their events
  // out of the process-wide metrics registry.
  net->set_metrics_enabled(false);
  for (const FuzzTable& t : c.tables) {
    if (!net->HasPeer(t.peer)) {
      REVERE_RETURN_IF_ERROR(net->AddPeer(t.peer).status());
    }
    REVERE_ASSIGN_OR_RETURN(piazza::Peer * peer, net->GetPeer(t.peer));
    peer->DeclarePeerRelation(t.relation, t.arity);
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
  for (const FuzzMapping& m : c.mappings) {
    REVERE_RETURN_IF_ERROR(net->AddMapping(
        PeerMapping{m.glav, m.source_peer, m.target_peer, m.bidirectional}));
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------

namespace {

/// Which fast paths one differential run enables.
struct EngineConfig {
  query::EvalEngine engine = query::EvalEngine::kColumnar;
  bool use_plan_cache = false;
  size_t workers = 0;  // 0 = no thread pool
  bool with_faults = false;
  bool batch = false;       // AnswerBatch instead of per-query Answer
  bool double_run = false;  // answer everything twice (cold then warm)
  obs::Tracer* tracer = nullptr;
  // Route-search overrides for the pruned_vs_exhaustive oracle; -1
  // leaves the case's own reform knobs in charge.
  int route_mode = -1;             // 0 = force legacy BFS, 1 = force route
  double route_budget = -1.0;      // >= 0 overrides reform.max_path_cost
  int route_prune_redundant = -1;  // 0/1 overrides prune_redundant_paths
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

/// The reformulation knobs one differential run uses: the case's own,
/// with the plan cache and any route overrides from `cfg`.
ReformulationOptions ReformOptions(const FuzzCase& c,
                                   const EngineConfig& cfg) {
  ReformulationOptions reform = c.reform;
  reform.use_plan_cache = cfg.use_plan_cache;
  if (cfg.route_mode >= 0) reform.use_route_search = cfg.route_mode == 1;
  if (cfg.route_budget >= 0.0) reform.max_path_cost = cfg.route_budget;
  if (cfg.route_prune_redundant >= 0) {
    reform.prune_redundant_paths = cfg.route_prune_redundant == 1;
  }
  return reform;
}

EngineRun Run(const FuzzCase& c, const EngineConfig& cfg) {
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

  const ReformulationOptions reform = ReformOptions(c, cfg);

  NetworkCostModel cost;
  cost.faults = injector ? &*injector : nullptr;
  cost.failure_policy = c.policy;
  cost.retry = c.retry;
  cost.eval.engine = cfg.engine;
  cost.eval.pool = pool ? &*pool : nullptr;
  cost.tracer = cfg.tracer;

  auto answer_all = [&](std::vector<QueryOutcome>* out) {
    if (cfg.batch) {
      std::vector<ExecutionStats> stats;
      std::vector<Result<std::vector<Row>>> results =
          net.AnswerBatch(c.queries, reform, &stats, cost);
      for (size_t i = 0; i < results.size(); ++i) {
        QueryOutcome o;
        o.stats = stats[i];
        if (results[i].ok()) {
          o.rows = std::move(results[i]).value();
        } else {
          o.status = results[i].status();
        }
        out->push_back(std::move(o));
      }
      return;
    }
    for (const ConjunctiveQuery& q : c.queries) {
      QueryOutcome o;
      Result<std::vector<Row>> r = net.Answer(q, reform, &o.stats, cost);
      if (r.ok()) {
        o.rows = std::move(r).value();
      } else {
        o.status = r.status();
      }
      out->push_back(std::move(o));
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
  CaseReport* report;
  void Fail(const std::string& oracle, const std::string& detail) {
    report->failures.push_back(OracleFailure{oracle, detail});
  }
  void Check(bool ok, const std::string& oracle, const std::string& detail) {
    ++report->oracle_checks;
    if (!ok) Fail(oracle, detail);
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
/// AnswerWithProvenance must return Answer's rows, each carrying the
/// peers of every rewriting whose own evaluation yields it.
void CheckUnionOracle(OracleContext* ctx, const FuzzCase& c,
                      const EngineRun& base) {
  PdmsNetwork net;
  if (!BuildNetwork(c, &net).ok()) return;
  ReformulationOptions reform = c.reform;
  reform.use_plan_cache = false;
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
    ctx->Check(rows == base.outcomes[i].rows, "answer_vs_union",
               where + " AnswerWithProvenance rows differ from Answer: got " +
                   DescribeRows(rows) + " want " +
                   DescribeRows(base.outcomes[i].rows));
    std::unordered_map<Row, std::set<std::string>, storage::RowHash> derived_by;
    query::EvalOptions reference;
    reference.engine = query::EvalEngine::kMap;
    for (const ConjunctiveQuery& rw : rewritings.value()) {
      Result<std::vector<Row>> rw_rows =
          query::EvaluateCQ(net.storage(), rw, reference);
      if (!rw_rows.ok()) continue;
      std::set<std::string> peers = PeersOf(rw);
      for (const Row& r : rw_rows.value()) {
        derived_by[r].insert(peers.begin(), peers.end());
      }
    }
    for (const auto& p : provenanced.value()) {
      auto it = derived_by.find(p.row);
      ctx->Check(it != derived_by.end() && it->second == p.peers,
                 "answer_vs_union",
                 where + " provenance of " + DescribeRows({p.row}) +
                     " differs from the peers of its deriving rewritings");
    }
  }
}

/// Span-tree well-formedness for one traced AnswerBatch run.
void CheckSpanTree(OracleContext* ctx, const std::vector<obs::SpanRecord>& rs,
                   size_t n_queries) {
  std::map<uint64_t, const obs::SpanRecord*> by_id;
  for (const auto& r : rs) by_id[r.id] = &r;
  ctx->Check(by_id.size() == rs.size(), "trace", "duplicate span ids");

  auto parent_name = [&](const obs::SpanRecord& r) -> std::string {
    auto it = by_id.find(r.parent);
    return it == by_id.end() ? "" : it->second->name;
  };
  static const std::set<std::string>* kKnown = new std::set<std::string>{
      "batch", "answer", "reformulate", "plan_cache", "evaluate", "contact",
      "retry"};
  size_t batches = 0, answers = 0, reformulates = 0;
  for (const auto& r : rs) {
    ctx->Check(r.id != 0, "trace", "span with id 0");
    ctx->Check(kKnown->count(r.name) > 0, "trace",
               "unknown span name '" + r.name + "'");
    ctx->Check(r.parent == 0 || by_id.count(r.parent) > 0, "trace",
               "span '" + r.name + "' has unfinished/unknown parent");
    if (r.name == "batch") {
      ++batches;
      ctx->Check(r.parent == 0, "trace", "batch span not at top level");
    } else if (r.name == "answer") {
      ++answers;
      ctx->Check(parent_name(r) == "batch", "trace",
                 "answer span not under batch");
    } else if (r.name == "reformulate") {
      ++reformulates;
      ctx->Check(parent_name(r) == "answer", "trace",
                 "reformulate span not under answer");
    } else if (r.name == "plan_cache") {
      ctx->Check(parent_name(r) == "reformulate", "trace",
                 "plan_cache span not under reformulate");
    } else if (r.name == "evaluate") {
      ctx->Check(parent_name(r) == "answer", "trace",
                 "evaluate span not under answer");
    } else if (r.name == "contact") {
      ctx->Check(parent_name(r) == "evaluate", "trace",
                 "contact span not under evaluate");
    } else if (r.name == "retry") {
      ctx->Check(parent_name(r) == "contact", "trace",
                 "retry span not under contact");
    }
  }
  ctx->Check(batches == 1, "trace",
             std::to_string(batches) + " batch spans (want 1)");
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
    opts.metrics = false;
    opts.reform = c.reform;
    opts.reform.use_plan_cache = false;
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
  CompareRuns(ctx, "serve_vs_answer", faulted.outcomes, served_faulted,
              /*compare_stats=*/true, /*compare_cache_flags=*/true);

  std::vector<QueryOutcome> served;
  run_server(/*with_faults=*/false, std::max<size_t>(2, c.workers), &served);
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

/// Route-mode best-first search vs the exhaustive legacy BFS (ISSUE 9).
/// With no contact feedback every hop costs the same, so the best-first
/// queue pops in BFS order and an unlimited budget must reproduce the
/// legacy path byte for byte — rows, statuses, stats, and zero pruning
/// counters. A bounded budget may only *remove* answers, never invent
/// them, and must replay bit-identically under faults.
void CheckRouteOracle(OracleContext* ctx, const FuzzCase& c) {
  EngineConfig exhaustive_cfg;  // the columnar engine
  exhaustive_cfg.route_mode = 0;
  EngineRun exhaustive = Run(c, exhaustive_cfg);

  EngineConfig unlimited_cfg = exhaustive_cfg;
  unlimited_cfg.route_mode = 1;
  unlimited_cfg.route_budget = 0.0;
  unlimited_cfg.route_prune_redundant = 0;
  EngineRun unlimited = Run(c, unlimited_cfg);
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
  EngineConfig exhaustive_fault_cfg = exhaustive_cfg;
  exhaustive_fault_cfg.with_faults = true;
  EngineConfig unlimited_fault_cfg = unlimited_cfg;
  unlimited_fault_cfg.with_faults = true;
  CompareRuns(ctx, "pruned_vs_exhaustive",
              Run(c, exhaustive_fault_cfg).outcomes,
              Run(c, unlimited_fault_cfg).outcomes,
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
  EngineConfig bounded_cfg = unlimited_cfg;
  bounded_cfg.route_budget = 1.0 + static_cast<double>(c.seed % 3);
  bounded_cfg.route_prune_redundant = 1;
  EngineRun bounded = Run(c, bounded_cfg);
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
      CheckBoundedRewritingsContained(
          ctx, where,
          net.Reformulate(c.queries[i], ReformOptions(c, bounded_cfg)),
          net.Reformulate(c.queries[i], ReformOptions(c, exhaustive_cfg)));
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
  EngineConfig bounded_fault_cfg = bounded_cfg;
  bounded_fault_cfg.with_faults = true;
  CompareRuns(ctx, "pruned_vs_exhaustive", Run(c, bounded_fault_cfg).outcomes,
              Run(c, bounded_fault_cfg).outcomes,
              /*compare_stats=*/true, /*compare_cache_flags=*/true);
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
          row.push_back(Value("w" + std::to_string(i)));
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

  ReformulationOptions reform = c.reform;
  reform.use_plan_cache = false;
  storage::SnapshotSet pins;
  NetworkCostModel cost;
  cost.failure_policy = c.policy;
  cost.retry = c.retry;
  cost.eval.snapshots = &pins;  // pins outlive the Answer calls

  auto answer_all = [&](std::vector<QueryOutcome>* out) {
    for (const ConjunctiveQuery& q : c.queries) {
      QueryOutcome o;
      Result<std::vector<Row>> r = net.Answer(q, reform, &o.stats, cost);
      if (r.ok()) {
        o.rows = std::move(r).value();
      } else {
        o.status = r.status();
      }
      out->push_back(std::move(o));
    }
  };

  std::vector<QueryOutcome> loaded;
  answer_all(&loaded);
  done.store(true, std::memory_order_release);
  writer.join();

  std::vector<QueryOutcome> quiesced;
  answer_all(&quiesced);
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
  OracleContext ctx{&report};

  // The reference everything is measured against: the map engine (a
  // full scan per atom), no cache, no pool — fault-free, and under the
  // case's faults for the faulted comparisons.
  EngineConfig base_cfg;
  base_cfg.engine = query::EvalEngine::kMap;
  EngineRun base = Run(c, base_cfg);
  report.answer_digest = DigestRun(base.outcomes);
  EngineConfig base_fault_cfg = base_cfg;
  base_fault_cfg.with_faults = true;
  EngineRun base_faulted = Run(c, base_fault_cfg);

  // 1. The columnar engine vs the map reference: byte-identical
  //    statuses, rows, and stats, serial and pooled, fault-free and
  //    faulted. Every later configuration runs the columnar engine.
  EngineConfig engine_cfg;  // defaults: the columnar engine
  EngineRun evaluated = Run(c, engine_cfg);
  CompareRuns(&ctx, "engine_vs_reference", base.outcomes, evaluated.outcomes);
  CheckStatsInvariants(&ctx, c, evaluated, /*with_faults=*/false);
  EngineConfig pool_cfg = engine_cfg;
  pool_cfg.workers = c.workers;
  CompareRuns(&ctx, "engine_vs_reference", base.outcomes,
              Run(c, pool_cfg).outcomes);
  EngineConfig fault_cfg = engine_cfg;
  fault_cfg.with_faults = true;
  EngineRun faulted = Run(c, fault_cfg);
  CompareRuns(&ctx, "engine_vs_reference", base_faulted.outcomes,
              faulted.outcomes, /*compare_stats=*/true,
              /*compare_cache_flags=*/true);
  EngineConfig fault_pool_cfg = fault_cfg;
  fault_pool_cfg.workers = c.workers;
  CompareRuns(&ctx, "engine_vs_reference", base_faulted.outcomes,
              Run(c, fault_pool_cfg).outcomes, /*compare_stats=*/true,
              /*compare_cache_flags=*/true);

  // 2. Plan cache: off == cold miss == warm hit, hit/miss flags sane.
  EngineConfig cache_cfg = engine_cfg;
  cache_cfg.use_plan_cache = true;
  cache_cfg.double_run = true;
  EngineRun cached = Run(c, cache_cfg);
  CompareRuns(&ctx, "plan_cache", base.outcomes, cached.cold);
  CompareRuns(&ctx, "plan_cache", base.outcomes, cached.outcomes);
  for (size_t i = 0; i < cached.outcomes.size(); ++i) {
    const ExecutionStats& warm = cached.outcomes[i].stats;
    const ExecutionStats& cold = cached.cold[i].stats;
    std::string where = "query " + std::to_string(i);
    ctx.Check(cold.plan_cache_hits + cold.plan_cache_misses == 1,
              "plan_cache", where + " cold run never consulted the cache");
    ctx.Check(warm.plan_cache_hits == 1 && warm.plan_cache_misses == 0,
              "plan_cache", where + " warm run missed the plan cache");
  }

  // 3. Pool-parallel EvaluateUnion vs serial, and both vs Answer.
  CheckUnionOracle(&ctx, c, base);

  // 4. Faults: two fresh injectors from the same seed must replay the
  //    run bit-identically; degraded answers obey subset/completeness.
  EngineRun replay = Run(c, fault_cfg);
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

  // 5. AnswerBatch vs standalone Answer, with and without faults.
  EngineConfig batch_cfg = engine_cfg;
  batch_cfg.batch = true;
  batch_cfg.workers = c.workers;
  CompareRuns(&ctx, "batch_vs_answer", base.outcomes,
              Run(c, batch_cfg).outcomes);
  EngineConfig batch_fault_cfg = fault_cfg;
  batch_fault_cfg.batch = true;
  EngineRun batch_faulted = Run(c, batch_fault_cfg);
  CompareRuns(&ctx, "batch_vs_answer", faulted.outcomes,
              batch_faulted.outcomes, /*compare_stats=*/true,
              /*compare_cache_flags=*/true);

  // 6. Tracing must not perturb anything, and the span tree must be
  //    well-formed (full pipeline: cache + pool + faults + batch).
  obs::Tracer tracer(obs::TraceMode::kFull);
  EngineConfig trace_cfg = batch_fault_cfg;
  trace_cfg.use_plan_cache = true;  // exercise plan_cache spans
  trace_cfg.workers = c.workers;
  trace_cfg.tracer = &tracer;
  EngineRun traced = Run(c, trace_cfg);
  CompareRuns(&ctx, "trace", batch_faulted.outcomes, traced.outcomes,
              /*compare_stats=*/true, /*compare_cache_flags=*/false);
  CheckSpanTree(&ctx, tracer.Records(), c.queries.size());

  // 7. The serving front end in transparent mode (no deadline, no
  //    breakers, unlimited retry budget) vs direct Answer calls.
  CheckServeOracle(&ctx, c, base, faulted);

  // 8. Cost-bounded route search vs the exhaustive legacy BFS:
  //    unlimited budget byte-identical, bounded budget contained and
  //    subset-only, with and without faults.
  CheckRouteOracle(&ctx, c);

  // 9. MVCC snapshots under a concurrent writer: answers under load
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

std::string FormatDouble(double d) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

std::string QuoteValue(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  out += '"';
  return out;
}

const char* FaultModeName(FaultMode mode) {
  switch (mode) {
    case FaultMode::kDown: return "down";
    case FaultMode::kFlaky: return "flaky";
    case FaultMode::kSlow: return "slow";
    case FaultMode::kHealthy: break;
  }
  return "healthy";
}

/// Splits one line into whitespace-separated tokens, honoring quoted
/// strings with backslash escapes (only `row` lines carry them).
Result<std::vector<std::string>> Tokenize(const std::string& line) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    if (i >= line.size()) break;
    if (line[i] == '"') {
      std::string tok;
      ++i;
      bool closed = false;
      while (i < line.size()) {
        char ch = line[i++];
        if (ch == '\\' && i < line.size()) {
          tok += line[i++];
        } else if (ch == '"') {
          closed = true;
          break;
        } else {
          tok += ch;
        }
      }
      if (!closed) return Status::ParseError("unterminated quoted value");
      out.push_back(std::move(tok));
    } else {
      size_t start = i;
      while (i < line.size() && line[i] != ' ') ++i;
      out.push_back(line.substr(start, i - start));
    }
  }
  return out;
}

Result<uint64_t> ParseU64(const std::string& tok) {
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
  if (errno != 0 || end == tok.c_str() || *end != '\0') {
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

}  // namespace

std::string SerializeCase(const FuzzCase& c) {
  std::string out = "revere-fuzz-case v1\n";
  out += "seed " + std::to_string(c.seed) + "\n";
  out += "workers " + std::to_string(c.workers) + "\n";
  out += "reform " + std::to_string(c.reform.max_depth) + " " +
         std::to_string(c.reform.max_rewritings) + " " +
         (c.reform.prune_duplicates ? "1" : "0") + " " +
         (c.reform.prune_unreachable ? "1" : "0") + " " +
         (c.reform.prune_contained ? "1" : "0") + " " +
         (c.reform.use_route_search ? "1" : "0") + " " +
         FormatDouble(c.reform.max_path_cost) + " " +
         (c.reform.prune_redundant_paths ? "1" : "0") + "\n";
  out += "retry " + std::to_string(c.retry.max_attempts) + " " +
         FormatDouble(c.retry.base_backoff_ms) + " " +
         FormatDouble(c.retry.deadline_ms) + "\n";
  out += std::string("policy ") +
         (c.policy == FailurePolicy::kFailFast ? "failfast" : "besteffort") +
         "\n";
  for (size_t t = 0; t < c.tables.size(); ++t) {
    const FuzzTable& table = c.tables[t];
    out += "table " + table.peer + " " + table.relation + " " +
           std::to_string(table.arity) + "\n";
    for (const Row& row : table.rows) {
      out += "row " + std::to_string(t);
      for (const Value& v : row) out += " " + QuoteValue(v.ToString());
      out += "\n";
    }
  }
  for (const FuzzMapping& m : c.mappings) {
    out += "mapping " + m.source_peer + " " + m.target_peer + " " +
           (m.bidirectional ? "1" : "0") + " " + m.glav.name + " " +
           m.glav.source.ToString() + "  =>  " + m.glav.target.ToString() +
           "\n";
  }
  for (const ConjunctiveQuery& q : c.queries) {
    out += "query " + q.ToString() + "\n";
  }
  for (const FuzzFault& f : c.faults) {
    out += std::string("fault ") + f.peer + " " + FaultModeName(f.fault.mode) +
           " " + FormatDouble(f.fault.failure_probability) + " " +
           FormatDouble(f.fault.extra_latency_ms) + "\n";
  }
  out += "end\n";
  return out;
}

Result<FuzzCase> ParseCase(std::string_view text) {
  FuzzCase c;
  std::istringstream in{std::string(text)};
  std::string line;
  if (!std::getline(in, line) || line != "revere-fuzz-case v1") {
    return Status::ParseError("missing 'revere-fuzz-case v1' header");
  }
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line == "end") break;
    REVERE_ASSIGN_OR_RETURN(std::vector<std::string> tok, Tokenize(line));
    if (tok.empty()) continue;
    const std::string& kind = tok[0];
    auto need = [&](size_t n) {
      return tok.size() >= n + 1
                 ? Status::Ok()
                 : Status::ParseError("'" + kind + "' needs " +
                                      std::to_string(n) + " fields: " + line);
    };
    if (kind == "seed") {
      REVERE_RETURN_IF_ERROR(need(1));
      REVERE_ASSIGN_OR_RETURN(c.seed, ParseU64(tok[1]));
    } else if (kind == "workers") {
      REVERE_RETURN_IF_ERROR(need(1));
      REVERE_ASSIGN_OR_RETURN(uint64_t w, ParseU64(tok[1]));
      c.workers = static_cast<size_t>(w);
    } else if (kind == "reform") {
      REVERE_RETURN_IF_ERROR(need(5));
      REVERE_ASSIGN_OR_RETURN(uint64_t depth, ParseU64(tok[1]));
      REVERE_ASSIGN_OR_RETURN(uint64_t max_rw, ParseU64(tok[2]));
      c.reform.max_depth = static_cast<int>(depth);
      c.reform.max_rewritings = static_cast<size_t>(max_rw);
      c.reform.prune_duplicates = tok[3] == "1";
      c.reform.prune_unreachable = tok[4] == "1";
      c.reform.prune_contained = tok[5] == "1";
      // Route knobs (ISSUE 9) — optional, so pre-route seed files and
      // shrunken cases from older binaries still load.
      if (tok.size() >= 9) {
        c.reform.use_route_search = tok[6] == "1";
        REVERE_ASSIGN_OR_RETURN(c.reform.max_path_cost, ParseF64(tok[7]));
        c.reform.prune_redundant_paths = tok[8] == "1";
      }
    } else if (kind == "retry") {
      REVERE_RETURN_IF_ERROR(need(3));
      REVERE_ASSIGN_OR_RETURN(uint64_t attempts, ParseU64(tok[1]));
      c.retry.max_attempts = static_cast<int>(attempts);
      REVERE_ASSIGN_OR_RETURN(c.retry.base_backoff_ms, ParseF64(tok[2]));
      REVERE_ASSIGN_OR_RETURN(c.retry.deadline_ms, ParseF64(tok[3]));
    } else if (kind == "policy") {
      REVERE_RETURN_IF_ERROR(need(1));
      if (tok[1] == "failfast") {
        c.policy = FailurePolicy::kFailFast;
      } else if (tok[1] == "besteffort") {
        c.policy = FailurePolicy::kBestEffort;
      } else {
        return Status::ParseError("unknown policy '" + tok[1] + "'");
      }
    } else if (kind == "table") {
      REVERE_RETURN_IF_ERROR(need(3));
      FuzzTable t;
      t.peer = tok[1];
      t.relation = tok[2];
      REVERE_ASSIGN_OR_RETURN(uint64_t arity, ParseU64(tok[3]));
      t.arity = static_cast<size_t>(arity);
      c.tables.push_back(std::move(t));
    } else if (kind == "row") {
      REVERE_RETURN_IF_ERROR(need(1));
      REVERE_ASSIGN_OR_RETURN(uint64_t ti, ParseU64(tok[1]));
      if (ti >= c.tables.size()) {
        return Status::ParseError("row line references missing table");
      }
      Row row;
      for (size_t i = 2; i < tok.size(); ++i) row.push_back(Value(tok[i]));
      if (row.size() != c.tables[ti].arity) {
        return Status::ParseError("row arity mismatch: " + line);
      }
      c.tables[ti].rows.push_back(std::move(row));
    } else if (kind == "mapping") {
      REVERE_RETURN_IF_ERROR(need(4));
      FuzzMapping m;
      m.source_peer = tok[1];
      m.target_peer = tok[2];
      m.bidirectional = tok[3] == "1";
      std::string name = tok[4];
      // Everything after the fifth field is the "source => target" text
      // (fields 0-4 are unquoted, so skipping on spaces is exact).
      size_t pos = 0;
      for (int field = 0; field < 5; ++field) {
        while (pos < line.size() && line[pos] == ' ') ++pos;
        while (pos < line.size() && line[pos] != ' ') ++pos;
      }
      if (pos >= line.size()) {
        return Status::ParseError("mapping line missing GLAV text: " + line);
      }
      REVERE_ASSIGN_OR_RETURN(
          m.glav, query::GlavMapping::Parse(
                      std::string_view(line).substr(pos + 1), name));
      c.mappings.push_back(std::move(m));
    } else if (kind == "query") {
      REVERE_ASSIGN_OR_RETURN(
          ConjunctiveQuery q,
          ConjunctiveQuery::Parse(std::string_view(line).substr(6)));
      c.queries.push_back(std::move(q));
    } else if (kind == "fault") {
      REVERE_RETURN_IF_ERROR(need(4));
      FuzzFault f;
      f.peer = tok[1];
      if (tok[2] == "down") {
        f.fault.mode = FaultMode::kDown;
      } else if (tok[2] == "flaky") {
        f.fault.mode = FaultMode::kFlaky;
      } else if (tok[2] == "slow") {
        f.fault.mode = FaultMode::kSlow;
      } else {
        return Status::ParseError("unknown fault mode '" + tok[2] + "'");
      }
      REVERE_ASSIGN_OR_RETURN(f.fault.failure_probability, ParseF64(tok[3]));
      REVERE_ASSIGN_OR_RETURN(f.fault.extra_latency_ms, ParseF64(tok[4]));
      c.faults.push_back(std::move(f));
    } else {
      return Status::ParseError("unknown seed-file line: " + line);
    }
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
    FuzzCase c = GenerateCase(case_seed, options.gen);
    CaseReport cr = CheckCase(c);
    ++report.cases_run;
    report.oracle_checks += cr.oracle_checks;
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
