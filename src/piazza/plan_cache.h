#ifndef REVERE_PIAZZA_PLAN_CACHE_H_
#define REVERE_PIAZZA_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/piazza/reformulation.h"
#include "src/query/cq.h"
#include "src/query/vectorized.h"
#include "src/storage/catalog.h"
#include "src/storage/value.h"

namespace revere::piazza {

/// Default PdmsNetwork plan-cache capacity (entries); override per
/// deployment with the `plan_cache <capacity>` network-config directive
/// or PdmsNetwork::SetPlanCacheCapacity.
inline constexpr size_t kDefaultPlanCacheCapacity = 1024;

/// One cached reformulation: the full rewriting set `Reformulate`
/// produced for a query template and options, plus the stats of the run
/// that computed it, so cache hits can report real search counters
/// instead of zeros, and the prepared programs answers run. Immutable
/// once published (shared across threads) — except `valid_through`, a
/// monotone validation memo, and the table handles.
struct CachedPlan {
  std::vector<query::ConjunctiveQuery> rewritings;
  ReformulationStats stats;

  // ---- Parameters ---------------------------------------------------

  /// The constants of the query that computed this plan, in parameter
  /// order: `$i` in the plan key, and each constant of `rewritings`
  /// equal to it, stands for constants[i].
  std::vector<storage::Value> constants;
  /// True when the search applied a mapping that carries a constant:
  /// the rewritings may then depend on the constants' values, so the
  /// plan serves only queries with these same constants.
  bool value_sensitive = false;

  // ---- Prepared execution -------------------------------------------

  /// Each rewriting's columnar program; its parameter slots stand for
  /// `constants` (none when value-sensitive).
  query::PreparedQueries programs;
  /// Rewriting i's distinct remote peers, views into `rewritings`, in
  /// name order (the contact order): peers[peer_begin[i] ..
  /// peer_begin[i + 1]).
  std::vector<std::string_view> peers;
  std::vector<uint32_t> peer_begin;
  std::span<const std::string_view> Peers(size_t i) const {
    return {peers.data() + peer_begin[i], peers.data() + peer_begin[i + 1]};
  }

  /// One table handle per body atom of each rewriting, current for
  /// `catalog`'s epoch: re-resolved by name under `tables_mu` when it
  /// moved, and published by a release store of `tables_epoch`. Null
  /// where a name resolves to no table of its atom's arity.
  const std::vector<const storage::Table*>& Tables(
      const storage::Catalog& catalog) const;
  mutable std::mutex tables_mu;
  mutable std::atomic<uint64_t> tables_epoch{0};  // 0: never resolved
  mutable std::vector<const storage::Table*> tables;

  // ---- Scoped invalidation (ISSUE 9) --------------------------------

  /// Every peer this plan's search touched (root query + every expanded
  /// node), with the per-peer generation stamp read when the search
  /// started. A plan is scope-valid while each touched peer still
  /// carries its recorded stamp — mutations at peers outside this set
  /// leave the plan servable. Peers unknown at build time are recorded
  /// at stamp 0, so they invalidate the plan if they later join.
  std::vector<std::pair<std::string, uint64_t>> touched;
  /// Validation memo: the highest global generation at which the
  /// per-peer scope check is known to have passed. When the network's
  /// clock still reads this value the O(|touched|) re-check is skipped
  /// — warm hits on a 1k-peer network stay O(1). Atomic (and mutable
  /// through shared_ptr<const>) because concurrent lookups race to
  /// advance it; monotonicity makes any winner correct.
  mutable std::atomic<uint64_t> valid_through{0};

  CachedPlan() = default;
  CachedPlan(const CachedPlan&) = delete;
  CachedPlan& operator=(const CachedPlan&) = delete;
};

/// Rewriting `i` of `plan` with its parameters set to `constants`: the
/// rewriting the search computes for them, because a value-independent
/// search compares constants only with each other, and distinct
/// parameters never hold equal values.
query::ConjunctiveQuery BindParameters(
    const CachedPlan& plan, size_t i,
    const std::vector<storage::Value>& constants);

/// A bounded, sharded LRU cache for reformulation plans.
///
/// Rewritings depend only on the query, the reformulation options, and
/// the network's mappings/topology — the answering-queries-using-views
/// observation that makes them perfect cache candidates. Freshness is
/// the caller's call: Lookup runs the caller's validator on the stored
/// plan and a rejection reads as a miss, so no stale plan is ever
/// served. PdmsNetwork validates each plan's per-peer scope stamps
/// (see CachedPlan::touched); a rejected entry stays until its key is
/// re-inserted or LRU eviction reaches it.
///
/// Concurrency: shards are independent, each guarded by its own
/// std::shared_mutex. Lookups take the shared lock (many concurrent
/// readers on the hot serving path) and record recency through a
/// per-entry atomic tick; only inserts take the exclusive lock. Plans
/// are handed out as shared_ptr<const CachedPlan>, so a reader keeps a
/// consistent plan even if the entry is evicted mid-use.
///
/// Eviction: least-recently-used within the insert's shard. Capacity
/// is split evenly across shards (per-shard
/// ceil(capacity / shards)), so the bound is approximate by at most
/// shards-1 entries; construct with `shards = 1` for exact LRU
/// semantics (tests do).
class PlanCache {
 public:
  /// Cumulative counters plus a point-in-time size — a thin per-cache
  /// view over the same events the process-wide obs::MetricsRegistry
  /// sees as `plan_cache.hits` / `.misses` / `.evictions` /
  /// `.insertions` (ISSUE 4). The registry aggregates across every
  /// PlanCache in the process; this struct stays per-instance, which is
  /// what tests and per-network benches want.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t insertions = 0;
    size_t entries = 0;
  };

  /// `capacity` = 0 disables the cache (every lookup misses, inserts
  /// are dropped). `shards` is clamped to [1, capacity] when nonzero.
  explicit PlanCache(size_t capacity = kDefaultPlanCacheCapacity,
                     size_t shards = 8);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the plan stored under `key`, or nullptr on a miss
  /// (absent, rejected by `validator`, or cache disabled).
  /// `fingerprint` must be a hash of `key` (it selects the shard, so
  /// the same key must always carry the same fingerprint).
  ///
  /// `validator`, when set, runs under the shard's shared lock on the
  /// stored plan; returning false turns the lookup into a counted miss
  /// and leaves the entry's recency untouched.
  std::shared_ptr<const CachedPlan> Lookup(
      uint64_t fingerprint, const std::string& key,
      const std::function<bool(const CachedPlan&)>& validator = nullptr);

  /// Lookup without the hit/miss count, for a caller that resolves one
  /// request through more than one key (PdmsNetwork: a template entry,
  /// then a value entry) and counts the outcome once with CountLookup.
  std::shared_ptr<const CachedPlan> Find(
      uint64_t fingerprint, const std::string& key,
      const std::function<bool(const CachedPlan&)>& validator = nullptr);
  void CountLookup(bool hit);

  /// Stores `plan` under `key`, evicting least-recently-used entries to
  /// stay within the shard's capacity. Re-inserting an existing key
  /// replaces its plan.
  void Insert(uint64_t fingerprint, std::string key,
              std::shared_ptr<const CachedPlan> plan);

  /// Drops every entry (counters survive).
  void Clear();

  size_t capacity() const { return capacity_; }
  size_t shard_count() const { return shards_.size(); }

  Stats GetStats() const;

 private:
  struct Entry {
    std::shared_ptr<const CachedPlan> plan;
    /// Recency tick; atomic so Lookup can bump it under the shared lock.
    std::atomic<uint64_t> last_used{0};
  };

  struct Shard {
    mutable std::shared_mutex mu;
    /// unique_ptr keeps Entry (with its atomic) stable across rehash.
    std::unordered_map<std::string, std::unique_ptr<Entry>> entries;
  };

  Shard& ShardFor(uint64_t fingerprint) {
    return *shards_[fingerprint % shards_.size()];
  }

  size_t capacity_ = 0;
  size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> tick_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> insertions_{0};
  /// Registry mirror handles (resolved once at construction).
  obs::Counter* registry_hits_ = nullptr;
  obs::Counter* registry_misses_ = nullptr;
  obs::Counter* registry_evictions_ = nullptr;
  obs::Counter* registry_insertions_ = nullptr;
};

}  // namespace revere::piazza

#endif  // REVERE_PIAZZA_PLAN_CACHE_H_
