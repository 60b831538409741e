#ifndef REVERE_PIAZZA_PDMS_H_
#define REVERE_PIAZZA_PDMS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/obs/trace.h"
#include "src/piazza/breaker.h"
#include "src/piazza/fault.h"
#include "src/piazza/peer.h"
#include "src/piazza/plan_cache.h"
#include "src/piazza/reformulation.h"
#include "src/piazza/views.h"
#include "src/piazza/xml_mapping.h"
#include "src/query/cq.h"
#include "src/query/evaluate.h"
#include "src/route/route_table.h"
#include "src/storage/catalog.h"
#include "src/xml/node.h"

namespace revere::piazza {

/// How a rewriting executes across peers (§3.1.2: "distribute each
/// query in the PDMS to the peer that will provide the best
/// performance").
enum class ExecutionStrategy {
  /// Ship the (sub)query to each remote peer; only result rows cross
  /// the wire.
  kShipQuery,
  /// Ship every referenced remote base table to the querying peer and
  /// evaluate locally — the naive baseline.
  kShipData,
};

/// Simple network cost model for the simulated distributed execution:
/// contacting a peer costs a round trip; shipping a row costs transfer
/// time.
struct NetworkCostModel {
  double per_peer_round_trip_ms = 5.0;
  double per_row_ms = 0.01;
  ExecutionStrategy strategy = ExecutionStrategy::kShipQuery;

  // ---- Fault tolerance (peers "join and leave at will", §3.1.2) ----

  /// Optional failure simulator; nullptr models a perfect network.
  /// Non-owning — the injector outlives the Answer() call and is
  /// mutated by it (contacts draw from its seeded RNG).
  FaultInjector* faults = nullptr;
  /// What to do when a peer stays unreachable after retries.
  FailurePolicy failure_policy = FailurePolicy::kFailFast;
  /// Per-peer-contact timeout / bounded retry / backoff knobs.
  RetryPolicy retry;

  // ---- Overload safety (ISSUE 6) ----

  /// Absolute wall-clock deadline for the whole Answer* call;
  /// time_point::max() (the default) disables every check. When set,
  /// the deadline is honored *end to end*: before reformulation, before
  /// each rewriting's evaluation, and before each peer contact. Under
  /// kBestEffort an expired deadline degrades to the partial answer
  /// accumulated so far, with the dropped rewritings itemized in
  /// `completeness` (rewritings_deadline_skipped); under kFailFast it
  /// returns kDeadlineExceeded. RevereServer fills this from each
  /// request's deadline budget.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Per-peer circuit breakers. Non-owning; nullptr (default) disables
  /// breaking. When a peer's breaker is open, contacts to it are
  /// skipped without touching the injector (no RNG draw, no simulated
  /// time) and the rewriting is dropped like an unreachable peer, with
  /// the skip counted in `completeness.breaker_skips`.
  BreakerSet* breakers = nullptr;
  /// Global retry-amplification valve. Non-owning; nullptr (default)
  /// allows every retry the RetryPolicy permits. When exhausted,
  /// further retries are skipped (completeness.retries_denied).
  RetryBudget* retry_budget = nullptr;

  // ---- Scale-aware routing (ISSUE 9) --------------------------------

  /// When set, every real peer-contact outcome (elapsed simulated time
  /// + success/failure) feeds this route table's EWMA estimates, so the
  /// cost-bounded reformulation search learns from live traffic.
  /// Non-owning; nullptr (the default) keeps contacts feedback-free —
  /// point it at PdmsNetwork::route_table() to close the loop.
  /// Breaker-suppressed contacts are NOT fed (they carry no new signal;
  /// the breaker state itself seeds reachability via
  /// route::SeedFromBreakers).
  route::RouteTable* route_feedback = nullptr;

  // ---- Local evaluation (ISSUE 2: parallel, allocation-lean) ----

  /// How each rewriting is evaluated against local storage. Setting
  /// `eval.pool` evaluates rewritings in parallel; results (and all
  /// fault-injection contact accounting, which stays sequential in
  /// rewriting order) are byte-identical for any worker count. Under
  /// kFailFast with a pool, rewritings past the failing one may have
  /// been evaluated speculatively — wasted work, never wrong answers.
  query::EvalOptions eval;

  // ---- Observability (ISSUE 4) ----

  /// When set, every Answer*/AnswerBatch call builds a span tree under
  /// this tracer: `answer` → `reformulate` (→ `plan_cache`) +
  /// per-rewriting `evaluate` → per-peer `contact` (→ `retry`).
  /// Non-owning; nullptr (the default) costs one branch per site.
  /// Answers never depend on the tracer.
  obs::Tracer* tracer = nullptr;
  /// Span id the per-query `answer` span attaches under (0 = top
  /// level); AnswerBatch parents its queries' spans to its own `batch`
  /// span through this.
  uint64_t parent_span = 0;
};

/// Instrumentation from answering a query end to end — the per-call
/// thin view (ISSUE 4): the same events also stream into the
/// process-wide obs::MetricsRegistry as `pdms.*` counters/histograms
/// (gated by PdmsNetwork::set_metrics_enabled, the `metrics on|off`
/// config directive), so deployments read one registry while callers
/// keep this exact per-answer accounting.
struct ExecutionStats {
  ReformulationStats reformulation;
  size_t rewritings_evaluated = 0;
  /// Distinct remote peers successfully contacted by *evaluated*
  /// rewritings (skipped or unanswerable rewritings charge nothing
  /// here; their peers show up in `completeness` instead).
  size_t peers_contacted = 0;
  size_t rows_shipped = 0;
  /// Simulated wall clock: round trips + row transfer + failed-contact
  /// timeouts + retry backoff. Never real time.
  double simulated_network_ms = 0.0;
  /// Degradation accounting when a FaultInjector is present.
  CompletenessReport completeness;
  /// Plan-cache outcome of this answer's reformulation (mirrors
  /// `reformulation.plan_cache_*`; both zero when the cache was off).
  size_t plan_cache_hits = 0;
  size_t plan_cache_misses = 0;
};

/// The Piazza peer data management system (§3): an overlay of peers
/// connected by local GLAV mappings. "The PDMS will find all data
/// sources related through this schema via the transitive closure of
/// mappings, and it will use these sources to answer the query in the
/// user's schema."
///
/// Data model note: stored relations live in one storage::Catalog under
/// qualified names ("mit:course"); this models each peer's local store
/// while letting the reformulation engine speak one vocabulary.
class PdmsNetwork {
 public:
  PdmsNetwork() = default;
  PdmsNetwork(const PdmsNetwork&) = delete;
  PdmsNetwork& operator=(const PdmsNetwork&) = delete;

  /// Adds a peer; AlreadyExists on duplicate names.
  Result<Peer*> AddPeer(const std::string& name);
  Result<Peer*> GetPeer(const std::string& name);
  bool HasPeer(const std::string& name) const;
  size_t peer_count() const { return peers_.size(); }
  /// All peer names, sorted.
  std::vector<std::string> PeerNames() const;

  /// Creates a stored relation at `peer`; the schema's name must be the
  /// unqualified relation name.
  Result<storage::Table*> AddStoredRelation(const std::string& peer,
                                            storage::TableSchema schema);

  /// Registers a mapping; validates both sides and peer existence.
  Status AddMapping(PeerMapping mapping);
  const std::vector<PeerMapping>& mappings() const { return mappings_; }

  /// Rewrites `query` (posed in some peer's vocabulary, atoms use
  /// qualified names) into a union of conjunctive queries over *stored*
  /// relations only, chasing mappings transitively.
  Result<std::vector<query::ConjunctiveQuery>> Reformulate(
      const query::ConjunctiveQuery& query,
      const ReformulationOptions& options = {},
      ReformulationStats* stats = nullptr) const;

  /// Reformulates, evaluates every rewriting, unions the answers, and
  /// charges the simulated network cost model. When `cost.faults` is
  /// set, every remote peer named in a rewriting must be contacted
  /// first (with `cost.retry` timeout/retry/backoff, all in simulated
  /// time); an unreachable peer either aborts the whole answer
  /// (kFailFast) or drops just the rewritings touching it
  /// (kBestEffort), with the loss itemized in `stats->completeness`.
  /// A rewriting whose evaluation fails (say, over a table dropped
  /// since its plan was cached) is treated the same way: kFailFast
  /// returns its status, kBestEffort drops it as skipped. On a
  /// fail-fast error `stats` is still populated, so callers can see the
  /// retries and backoff spent before giving up.
  Result<std::vector<storage::Row>> Answer(
      const query::ConjunctiveQuery& query,
      const ReformulationOptions& options = {},
      ExecutionStats* stats = nullptr,
      const NetworkCostModel& cost = {}) const;

  /// An answer row together with the peers whose data derived it — the
  /// PDMS analogue of MANGROVE's per-triple source URL (§2.3):
  /// applications can scope trust by origin.
  struct ProvenancedRow {
    storage::Row row;
    std::set<std::string> peers;
  };

  /// Like Answer, but each row carries the set of peers that contribute
  /// it (union across the rewritings that derive it).
  Result<std::vector<ProvenancedRow>> AnswerWithProvenance(
      const query::ConjunctiveQuery& query,
      const ReformulationOptions& options = {},
      ExecutionStats* stats = nullptr,
      const NetworkCostModel& cost = {}) const;

  /// Sustained-throughput serving path: answers a mixed query stream,
  /// sharing the plan cache (and each pinned version's columnar
  /// snapshot) across the whole batch. Results (and `stats` entries, when non-null) line up with
  /// `queries` by index; a per-query failure is that slot's Status and
  /// never aborts the rest of the batch. With `cost.eval.pool` set and
  /// no fault injector, queries fan out across the pool's workers (each
  /// evaluated single-threaded — parallelism comes from the stream);
  /// each query's answer is byte-identical to a standalone `Answer`
  /// call. With `cost.faults` set the batch runs sequentially in input
  /// order, because the injector's seeded RNG draw sequence — and so
  /// every completeness counter — is defined by that order.
  std::vector<Result<std::vector<storage::Row>>> AnswerBatch(
      const std::vector<query::ConjunctiveQuery>& queries,
      const ReformulationOptions& options = {},
      std::vector<ExecutionStats>* stats = nullptr,
      const NetworkCostModel& cost = {}) const;

  // ---- Reformulation plan cache (ISSUE 3) ----------------------------

  /// Resizes the plan cache (0 disables it), dropping every entry.
  /// Deployments size it via the `plan_cache <capacity>` config
  /// directive.
  void SetPlanCacheCapacity(size_t capacity);
  size_t plan_cache_capacity() const { return plan_cache_->capacity(); }
  /// Drops all cached plans (capacity and counters unchanged).
  void ClearPlanCache() { plan_cache_->Clear(); }
  /// Hit/miss/eviction counters for benches and tests.
  PlanCache::Stats PlanCacheStats() const { return plan_cache_->GetStats(); }
  /// The mutation clock: bumped whenever mappings, stored relations,
  /// views, or topology change. Cached plans memoize their last scope
  /// validation against it, so warm hits skip the per-peer check while
  /// it stands still.
  uint64_t plan_generation() const {
    return generation_.load(std::memory_order_relaxed);
  }

  // ---- Scoped plan invalidation (ISSUE 9) ---------------------------

  // A structural change invalidates only the cached plans whose search
  // touched a changed peer, so an `AddPeer` on a 1k-peer network leaves
  // the other 999 peers' warm plans servable.

  /// The per-peer invalidation stamp (0 until the peer's first
  /// structural change — including its own join). For tests.
  uint64_t peer_generation(const std::string& peer) const;

  // ---- Scale-aware routing (ISSUE 9) --------------------------------

  /// This network's route table: per-peer cost estimates driving the
  /// cost-bounded reformulation search
  /// (ReformulationOptions::use_route_search). Seed it via
  /// route::SeedFrom* or SetStaticCost, or wire live feedback with
  /// NetworkCostModel::route_feedback. With no estimates every peer
  /// costs RouteTable::kDefaultCost, making route-mode search order
  /// identical to the legacy breadth-first expansion.
  route::RouteTable* route_table() const { return route_table_.get(); }

  /// Declarative overlay-shape metadata from the `topology` config
  /// directive ("small_world", "scale_free", …) plus the declared peer
  /// count (0 = unspecified). Carried for tooling and benches —
  /// regenerating a deployment at scale — never interpreted by the
  /// engine, so it round-trips through Save/Load without constraining
  /// the explicit peer/mapping lines.
  void set_topology_hint(std::string shape, size_t declared_peers) {
    topology_hint_ = std::move(shape);
    declared_peers_ = declared_peers;
  }
  const std::string& topology_hint() const { return topology_hint_; }
  size_t declared_peers() const { return declared_peers_; }

  // ---- Observability (ISSUE 4) ----------------------------------------

  /// Gates this network's reporting into the process-wide
  /// obs::MetricsRegistry (`pdms.*`, `reformulate.*`, and the plan
  /// cache's `plan_cache.*`). On by default; the `metrics off` config
  /// directive disables it for deployments that want zero registry
  /// traffic. Tracing (NetworkCostModel::tracer) is independent.
  void set_metrics_enabled(bool enabled) {
    metrics_enabled_.store(enabled, std::memory_order_relaxed);
    plan_cache_->SetMetricsEnabled(enabled);
  }
  bool metrics_enabled() const {
    return metrics_enabled_.load(std::memory_order_relaxed);
  }

  const storage::Catalog& storage() const { return storage_; }
  storage::Catalog* mutable_storage() { return &storage_; }

  // ---- XML document side (§3.1: "Piazza assumes an XML data model") --

  /// Registers a Figure-4-style template mapping that translates
  /// documents in `source_peer`'s schema into `target_peer`'s. The
  /// template reads its input as document(`source_doc_name`).
  Status AddXmlMapping(const std::string& source_peer,
                       const std::string& target_peer, XmlMapping mapping,
                       std::string source_doc_name);

  /// Translates `input` (a document in `source_peer`'s XML schema) into
  /// `target_peer`'s schema by composing registered XML mappings along
  /// the shortest mapping path (BFS) — the transitive-reuse story of
  /// Example 3.1. NotFound when no path exists.
  Result<std::unique_ptr<xml::XmlNode>> TranslateDocument(
      const std::string& source_peer, const std::string& target_peer,
      const xml::XmlNode& input) const;

  /// True when a qualified relation is materialized somewhere.
  bool IsStored(const std::string& qualified_relation) const {
    return storage_.HasTable(qualified_relation);
  }

  // ---- Materialized views and updategram propagation (§3.1.2) ----

  /// Materializes `definition` (over qualified stored relations) at
  /// `peer` and registers it for updategram-driven maintenance.
  /// Returns the view's registry index.
  Result<size_t> RegisterView(const std::string& peer,
                              query::ConjunctiveQuery definition);

  /// Registered view by index.
  Result<const MaterializedView*> GetView(size_t index) const;
  size_t view_count() const { return views_.size(); }

  /// Outcome of one propagation (drives tests and benches).
  struct PropagationStats {
    size_t views_touched = 0;
    size_t incremental_refreshes = 0;
    size_t full_recomputes = 0;
  };

  /// Applies `update` to its base relation, then refreshes every
  /// registered view that depends on it, choosing incrementally-vs-
  /// recompute per view via the cost model ("the query optimizer
  /// decides which updategrams to use in a cost-based fashion").
  Result<PropagationStats> PropagateUpdategram(const Updategram& update);

 private:
  /// Relations from which stored data is reachable via mapping chains
  /// (fixpoint; recomputed when mappings change).
  void RecomputeProductive();

  /// Marks a change to mappings/topology/views: bumps the mutation
  /// clock so every previously cached plan gets its scope re-validated
  /// on its next lookup.
  void InvalidatePlans() {
    generation_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Scoped invalidation: bumps the mutation clock AND the per-peer
  /// stamp of every peer in `peers`, so only plans whose search touched
  /// one of them fail scope validation. Callers pass the peers a
  /// mutation structurally affects (endpoints of a new mapping, the
  /// peer gaining storage, plus every peer whose relations changed
  /// productivity — see ProductivityDiffPeers).
  void InvalidatePlansTouching(const std::set<std::string>& peers);

  /// Peers owning a relation whose `productive_` status differs from
  /// `before` — the ripple a storage/mapping change sends through the
  /// reachability fixpoint. A plan pruned by prune_unreachable at a
  /// node mentioning such a relation records that node's peers in its
  /// touched set, so bumping these peers keeps scoped invalidation
  /// sound for dead-path-pruned plans too.
  std::set<std::string> ProductivityDiffPeers(
      const std::map<std::string, bool>& before) const;

  /// Which rewritings derived each answer row (defined in pdms.cc).
  struct RowOrigins;

  /// The one answer path behind Answer and AnswerWithProvenance: every
  /// rewriting's rows merge, in rewriting order, through one
  /// query::RowDedup over the returned vector, so each row appears once,
  /// at its first derivation. When `origins` is set, it also records
  /// which rewritings derived each row.
  Result<std::vector<storage::Row>> AnswerRows(
      const query::ConjunctiveQuery& query,
      const ReformulationOptions& options, ExecutionStats* stats,
      const NetworkCostModel& cost, RowOrigins* origins) const;

  /// Reformulate through the plan cache. The returned plan is shared
  /// with the cache (never mutated); `stats` reports the computing
  /// run's counters plus the hit/miss flag. When `tracer` is set, a
  /// `reformulate` span (with a `plan_cache` child when the cache is
  /// consulted) opens under `parent_span`.
  Result<std::shared_ptr<const CachedPlan>> ReformulateCached(
      const query::ConjunctiveQuery& query,
      const ReformulationOptions& options, ReformulationStats* stats,
      obs::Tracer* tracer = nullptr, uint64_t parent_span = 0) const;

  struct XmlEdge {
    std::string source_peer;
    std::string target_peer;
    XmlMapping mapping;
    std::string source_doc_name;
  };

  struct RegisteredView {
    std::string peer;
    MaterializedView view;
  };

  std::map<std::string, std::unique_ptr<Peer>> peers_;
  std::vector<PeerMapping> mappings_;
  /// Route-mode expansion index: qualified relation name → the mappings
  /// (and application direction) that can rewrite an atom of that
  /// relation. Rebuilt alongside `mappings_`; lets the best-first
  /// search touch only the mappings incident to a node's atoms instead
  /// of scanning all of them — the O(edges-at-node) vs O(all-mappings)
  /// difference that makes 1k-peer reformulation interactive.
  struct MappingUse {
    size_t index = 0;   // into mappings_
    bool forward = true;  // target→source application (else backward)
  };
  std::map<std::string, std::vector<MappingUse>> mapping_index_;
  std::vector<XmlEdge> xml_edges_;
  std::vector<RegisteredView> views_;
  storage::Catalog storage_;
  std::map<std::string, bool> productive_;
  /// Plan-cache mutation clock (see plan_generation()).
  std::atomic<uint64_t> generation_{0};
  /// Per-peer invalidation stamps for scoped invalidation; a peer
  /// absent here reads as stamp 0 (matching plans that recorded it as
  /// unknown). Guarded by gen_mu_ — lock order is plan-cache shard lock
  /// first (the validator runs inside Lookup), then gen_mu_; mutators
  /// take gen_mu_ alone.
  mutable std::shared_mutex gen_mu_;
  std::map<std::string, uint64_t> peer_generations_;
  /// See set_topology_hint().
  std::string topology_hint_;
  size_t declared_peers_ = 0;
  /// Per-network route table (see route_table()).
  mutable std::unique_ptr<route::RouteTable> route_table_ =
      std::make_unique<route::RouteTable>();
  /// Registry-reporting gate (see set_metrics_enabled()).
  std::atomic<bool> metrics_enabled_{true};
  /// The reformulation plan cache. `mutable` because Answer/Reformulate
  /// are logically const reads of the network; unique_ptr so
  /// SetPlanCacheCapacity can rebuild the shard array.
  mutable std::unique_ptr<PlanCache> plan_cache_ =
      std::make_unique<PlanCache>();
};

}  // namespace revere::piazza

#endif  // REVERE_PIAZZA_PDMS_H_
