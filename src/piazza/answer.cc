#include "src/piazza/pdms.h"

#include <algorithm>
#include <chrono>
#include <list>
#include <set>
#include <span>
#include <string_view>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/query/evaluate.h"
#include "src/query/row_dedup.h"

namespace revere::piazza {

namespace {

using query::ConjunctiveQuery;

/// True when the caller's end-to-end deadline has already passed. The
/// default (time_point::max()) short-circuits to false without reading
/// the clock, so the no-deadline hot path pays one comparison.
bool DeadlineExpired(const NetworkCostModel& cost) {
  return cost.deadline != std::chrono::steady_clock::time_point::max() &&
         std::chrono::steady_clock::now() >= cost.deadline;
}

/// Contacts `peer` through the fault injector with bounded retries and
/// exponential backoff, charging every attempt, timeout, and backoff
/// wait to the simulated clock in `stats`. Returns the last failure
/// when the peer stays unreachable. With a tracer, each retry (attempt
/// beyond the first) opens a `retry` span under `parent` carrying its
/// backoff and simulated elapsed time; the RNG draw sequence — and so
/// every answer — is identical with tracing on or off.
///
/// Overload safety, all default-off: an open circuit breaker
/// skips the contact entirely (no injector call, no RNG draw — the
/// point is to stop paying for dead peers); the global retry budget
/// gates each retry; the end-to-end deadline stops the retry loop; and
/// every real outcome feeds the peer's breaker window.
Status ContactPeerWithRetry(FaultInjector* faults, const std::string& peer,
                            const NetworkCostModel& cost,
                            ExecutionStats* stats, obs::Tracer* tracer,
                            uint64_t parent) {
  PeerBreaker* breaker =
      cost.breakers != nullptr ? cost.breakers->Get(peer) : nullptr;
  if (breaker != nullptr && !breaker->Allow()) {
    ++stats->completeness.breaker_skips;
    return Status::Unavailable("circuit breaker open for peer '" + peer +
                               "'");
  }
  int max_attempts = std::max(1, cost.retry.max_attempts);
  Status last;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    obs::Span retry_span;
    if (attempt > 0) {
      if (DeadlineExpired(cost)) {
        return Status::DeadlineExceeded("deadline expired retrying peer '" +
                                        peer + "'");
      }
      if (cost.retry_budget != nullptr && !cost.retry_budget->TryAcquire()) {
        ++stats->completeness.retries_denied;
        return last;  // budget exhausted: no retry storm, surface the
                      // last real failure
      }
      double backoff = cost.retry.BackoffMs(peer, attempt);
      stats->completeness.backoff_ms += backoff;
      stats->simulated_network_ms += backoff;
      ++stats->completeness.retries_attempted;
      retry_span = obs::StartSpan(tracer, "retry", parent);
      retry_span.AddAttr("attempt", attempt);
      retry_span.AddAttr("backoff_simulated_ms", backoff);
    }
    ContactOutcome outcome = faults->Contact(peer, cost.per_peer_round_trip_ms,
                                             cost.retry.deadline_ms);
    stats->simulated_network_ms += outcome.elapsed_ms;
    if (retry_span.active()) {
      retry_span.AddAttr("elapsed_simulated_ms", outcome.elapsed_ms);
      retry_span.AddAttr("ok", outcome.status.ok() ? 1 : 0);
    }
    if (outcome.status.ok()) {
      if (breaker != nullptr) breaker->RecordSuccess();
      if (cost.retry_budget != nullptr) cost.retry_budget->RecordSuccess();
      return Status::Ok();
    }
    if (breaker != nullptr) breaker->RecordFailure();
    ++stats->completeness.contacts_failed;
    last = outcome.status;
  }
  return last;
}

}  // namespace

/// Provenance of an answer as rewriting indices, recorded by AnswerRows
/// only when AnswerWithProvenance asks for it and expanded into peer
/// names once, at that boundary.
struct PdmsNetwork::RowOrigins {
  /// first[i]: the rewriting that first derived output row i.
  std::vector<uint32_t> first;
  /// (output row, rewriting) for each later derivation of a row.
  std::vector<std::pair<size_t, uint32_t>> later;
  /// The peers whose data each rewriting reads; filled for the
  /// rewritings that contributed rows.
  std::vector<std::set<std::string>> rewriting_peers;
};

Result<std::vector<storage::Row>> PdmsNetwork::Answer(
    const ConjunctiveQuery& query, const ReformulationOptions& options,
    ExecutionStats* stats, const NetworkCostModel& cost) const {
  return AnswerRows(query, options, stats, cost, /*origins=*/nullptr);
}

Result<std::vector<PdmsNetwork::ProvenancedRow>>
PdmsNetwork::AnswerWithProvenance(const ConjunctiveQuery& query,
                                  const ReformulationOptions& options,
                                  ExecutionStats* stats,
                                  const NetworkCostModel& cost) const {
  RowOrigins origins;
  REVERE_ASSIGN_OR_RETURN(std::vector<storage::Row> rows,
                          AnswerRows(query, options, stats, cost, &origins));
  std::vector<ProvenancedRow> out;
  out.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    out.push_back(ProvenancedRow{std::move(rows[i]),
                                 origins.rewriting_peers[origins.first[i]]});
  }
  for (const auto& [row, rw_index] : origins.later) {
    const std::set<std::string>& peers = origins.rewriting_peers[rw_index];
    out[row].peers.insert(peers.begin(), peers.end());
  }
  return out;
}

Result<std::vector<storage::Row>> PdmsNetwork::AnswerRows(
    const ConjunctiveQuery& query, const ReformulationOptions& options,
    ExecutionStats* stats, const NetworkCostModel& cost,
    RowOrigins* origins) const {
  const auto start_time = std::chrono::steady_clock::now();
  obs::Span answer_span;
  if (cost.tracer != nullptr) {  // guard: don't copy the name when off
    answer_span = cost.tracer->StartSpan("answer", /*parent=*/0, query.name());
  }
  ExecutionStats local;
  // Failed exit: `status` becomes the answer, with the stats spent so
  // far still reported, and pdms.answers_failed counts it.
  auto fail = [&](Status status) {
    static obs::Counter* answers_failed =
        obs::MetricsRegistry::Default().GetCounter("pdms.answers_failed");
    answers_failed->Increment();
    if (stats != nullptr) *stats = local;
    return status;
  };
  // Deadline gate #1: a request that arrives already past its
  // deadline must not start the reformulation search. Nothing partial
  // exists yet, so this is an error under either failure policy.
  if (DeadlineExpired(cost)) {
    return fail(
        Status::DeadlineExceeded("deadline expired before reformulation"));
  }
  std::vector<storage::Value> constants;
  std::shared_ptr<const CachedPlan> plan =
      ReformulateCached(query, options, &local.reformulation, &constants,
                        cost.tracer, answer_span.id());
  const std::vector<ConjunctiveQuery>& rewritings = plan->rewritings;
  local.plan_cache_hits = local.reformulation.plan_cache_hits;
  local.plan_cache_misses = local.reformulation.plan_cache_misses;
  const std::vector<const storage::Table*>& tables = plan->Tables(storage_);

  // Rewritings are independent conjunctive queries; with a pool they
  // evaluate concurrently while the admission loop below takes them in
  // rewriting order. Everything order-sensitive — fault contacts
  // (seeded RNG draws), cost accounting, dedup — happens in that loop,
  // so answers and stats are byte-identical to the serial path. One
  // MVCC pin scope serves every evaluation and the ship-data row
  // accounting, so a query races concurrent updategrams as one
  // consistent point-in-time view. Past the deadline, workers skip
  // rewritings they have not started; the loop's own deadline gate  // does the accounting. A rewriting runs prepared with this query's
  // constants, or, bound to them, by name (map reference; lost table).
  query::EvalOptions eval = cost.eval;
  eval.tracer = cost.tracer;
  eval.parent_span = answer_span.id();
  std::list<ConjunctiveQuery> bound;
  std::vector<query::UnionMember> members(rewritings.size());
  for (size_t i = 0, t = 0; i < rewritings.size();
       t += rewritings[i++].body().size()) {
    const storage::Table* const* rw_tables = tables.data() + t;
    if (eval.engine == query::EvalEngine::kColumnar &&
        std::count(rw_tables, rw_tables + rewritings[i].body().size(),
                   nullptr) == 0) {
      members[i] = {&rewritings[i], &plan->programs, i, rw_tables, &constants};
    } else {
      members[i] = {&bound.emplace_back(BindParameters(*plan, i, constants))};
    }
  }
  query::UnionMembers evaluated(storage_, std::move(members), eval,
                                [&cost] { return DeadlineExpired(cost); });

  std::vector<storage::Row> out;
  query::RowDedup dedup(&out);
  if (origins != nullptr) origins->rewriting_peers.resize(rewritings.size());
  std::set<std::string_view> all_peers;
  local.completeness.rewritings_total = rewritings.size();
  for (size_t rw_index = 0, t = 0; rw_index < rewritings.size();
       t += rewritings[rw_index++].body().size()) {
    // Deadline gate #2: checked before every rewriting's evaluation.
    // Best-effort degrades to the partial answer accumulated so far,
    // with the loss itemized; fail-fast surfaces the deadline.
    if (DeadlineExpired(cost)) {
      size_t remaining = rewritings.size() - rw_index;
      if (cost.failure_policy == FailurePolicy::kFailFast) {
        return fail(Status::DeadlineExceeded(
            "deadline expired with " + std::to_string(remaining) +
            " rewritings unevaluated"));
      }
      local.completeness.rewritings_skipped += remaining;
      local.completeness.rewritings_deadline_skipped += remaining;
      break;
    }
    const ConjunctiveQuery& rw = rewritings[rw_index];
    Result<query::MemberRows> rows = evaluated.Take(rw_index);
    if (!rows.ok()) {
      // E.g. a cached rewriting over a table dropped since it was
      // planned: the answer is incomplete, like an unreachable peer's.
      if (cost.failure_policy == FailurePolicy::kFailFast) {
        return fail(rows.status());
      }
      ++local.completeness.rewritings_skipped;
      continue;
    }
    // Simulated distribution: every remote peer named in the rewriting
    // is contacted once, in name order. What crosses the wire depends on
    // strategy — result rows (ship-query) or each distinct remote base
    // table once, at the version the evaluation read (ship-data).
    const std::span<const std::string_view> peers = plan->Peers(rw_index);
    size_t remote_base_rows = 0;
    for (size_t a = 0;
         cost.strategy == ExecutionStrategy::kShipData && a < rw.body().size();
         ++a) {
      const storage::Table* table = tables[t + a];
      if (table != nullptr &&
          std::count(peers.begin(), peers.end(),
                     PeerOf(rw.body()[a].relation)) > 0 &&
          std::count(&tables[t], &tables[t + a], table) == 0) {
        remote_base_rows += evaluated.snapshots()->Pin(*table)->size();
      }
    }
    if (cost.faults == nullptr) {
      // Perfect network: every contact succeeds at one round trip.
      local.simulated_network_ms +=
          static_cast<double>(peers.size()) * cost.per_peer_round_trip_ms;
      if (cost.tracer != nullptr) {  // guard: detail string allocates
        for (std::string_view peer : peers) {
          obs::Span contact_span = cost.tracer->StartSpan(
              "contact", evaluated.span_id(rw_index), std::string(peer));
          contact_span.AddAttr("ok", 1);
          contact_span.AddAttr("simulated_ms", cost.per_peer_round_trip_ms);
        }
      }
    } else {
      bool unreachable = false;
      bool deadline_hit = false;
      for (std::string_view name : peers) {
        const std::string peer(name);
        // Deadline gate #3: per peer contact.
        if (DeadlineExpired(cost)) {
          deadline_hit = true;
          break;
        }
        obs::Span contact_span =
            obs::StartSpan(cost.tracer, "contact", evaluated.span_id(rw_index));
        if (contact_span.active()) contact_span.SetDetail(peer);
        Status contact = ContactPeerWithRetry(cost.faults, peer, cost, &local,
                                              cost.tracer, contact_span.id());
        if (contact_span.active()) {
          contact_span.AddAttr("ok", contact.ok() ? 1 : 0);
        }
        if (contact.ok()) continue;
        local.completeness.unreachable_peers.insert(peer);
        if (cost.failure_policy == FailurePolicy::kFailFast) {
          return fail(std::move(contact));
        }
        unreachable = true;
        break;  // best-effort: drop this rewriting, spare the remaining
                // contacts' cost
      }
      if (deadline_hit) {
        if (cost.failure_policy == FailurePolicy::kFailFast) {
          return fail(Status::DeadlineExceeded(
              "deadline expired mid-contact for a rewriting"));
        }
        ++local.completeness.rewritings_skipped;
        ++local.completeness.rewritings_deadline_skipped;
        continue;  // the next iteration's gate drops the rest
      }
      if (unreachable) {
        ++local.completeness.rewritings_skipped;
        continue;
      }
    }
    ++local.rewritings_evaluated;
    all_peers.insert(peers.begin(), peers.end());
    size_t shipped = cost.strategy == ExecutionStrategy::kShipQuery
                         ? rows.value().rows.size()
                         : remote_base_rows;
    local.simulated_network_ms +=
        static_cast<double>(shipped) * cost.per_row_ms;
    local.rows_shipped += shipped;
    if (origins != nullptr) {
      // Peers whose data this rewriting reads (including the query
      // peer's own storage when referenced).
      for (const auto& a : rw.body()) {
        auto [peer, r] = SplitQualifiedName(a.relation);
        if (!peer.empty()) origins->rewriting_peers[rw_index].insert(peer);
      }
    }
    query::MemberRows& member = rows.value();
    for (size_t r = 0; r < member.rows.size(); ++r) {
      auto [row, inserted] =
          dedup.Emit(std::move(member.rows[r]), member.hashes[r]);
      if (origins == nullptr) continue;
      if (inserted) {
        origins->first.push_back(static_cast<uint32_t>(rw_index));
      } else {
        origins->later.emplace_back(row, static_cast<uint32_t>(rw_index));
      }
    }
  }
  local.peers_contacted = all_peers.size();
  if (answer_span.active()) {
    answer_span.AddAttr("rows", out.size());
    answer_span.AddAttr("rewritings_evaluated", local.rewritings_evaluated);
  }
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
  static obs::Counter* answers = metrics.GetCounter("pdms.answers");
  static obs::Counter* rewritings_evaluated =
      metrics.GetCounter("pdms.rewritings_evaluated");
  static obs::Counter* rewritings_skipped =
      metrics.GetCounter("pdms.rewritings_skipped");
  static obs::Counter* rows_shipped = metrics.GetCounter("pdms.rows_shipped");
  static obs::Counter* peers_contacted =
      metrics.GetCounter("pdms.peers_contacted");
  static obs::Counter* contacts_failed =
      metrics.GetCounter("pdms.contacts_failed");
  static obs::Counter* retries = metrics.GetCounter("pdms.retries");
  static obs::Histogram* latency =
      metrics.GetHistogram("pdms.answer_latency_us");
  answers->Increment();
  rewritings_evaluated->Increment(local.rewritings_evaluated);
  rewritings_skipped->Increment(local.completeness.rewritings_skipped);
  rows_shipped->Increment(local.rows_shipped);
  peers_contacted->Increment(local.peers_contacted);
  contacts_failed->Increment(local.completeness.contacts_failed);
  retries->Increment(local.completeness.retries_attempted);
  latency->Record(
      std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
          std::chrono::steady_clock::now() - start_time)
          .count());
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace revere::piazza
