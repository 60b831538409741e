#include "src/piazza/plan_cache.h"

#include <algorithm>
#include <mutex>
#include <utility>

namespace revere::piazza {

query::ConjunctiveQuery BindParameters(
    const CachedPlan& plan, size_t i,
    const std::vector<storage::Value>& constants) {
  const std::vector<storage::Value>& params = plan.constants;
  auto bind = [&](query::QTerm& t) {
    auto k = t.is_var() ? params.end()
                        : std::find(params.begin(), params.end(), t.value());
    if (k != params.end()) t = query::QTerm::Const(constants[k - params.begin()]);
  };
  const query::ConjunctiveQuery& rw = plan.rewritings[i];
  std::vector<query::QTerm> head = rw.head();
  std::vector<query::Atom> body = rw.body();
  for (query::QTerm& t : head) bind(t);
  for (query::Atom& a : body) std::for_each(a.args.begin(), a.args.end(), bind);
  return query::ConjunctiveQuery(rw.name(), std::move(head), std::move(body));
}

const std::vector<const storage::Table*>& CachedPlan::Tables(
    const storage::Catalog& catalog) const {
  const uint64_t epoch = catalog.epoch();
  if (tables_epoch.load(std::memory_order_acquire) == epoch) return tables;
  std::lock_guard<std::mutex> lock(tables_mu);
  if (tables_epoch.load(std::memory_order_relaxed) == epoch) return tables;
  tables.clear();
  for (const query::ConjunctiveQuery& rw : rewritings) {
    for (const query::Atom& a : rw.body()) {
      auto table = catalog.GetTable(a.relation);
      const bool live =
          table.ok() && table.value()->schema().arity() == a.args.size();
      tables.push_back(live ? table.value() : nullptr);
    }
  }
  tables_epoch.store(epoch, std::memory_order_release);
  return tables;
}

PlanCache::PlanCache(size_t capacity, size_t shards) : capacity_(capacity) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
  registry_hits_ = metrics.GetCounter("plan_cache.hits");
  registry_misses_ = metrics.GetCounter("plan_cache.misses");
  registry_evictions_ = metrics.GetCounter("plan_cache.evictions");
  registry_insertions_ = metrics.GetCounter("plan_cache.insertions");
  size_t shard_count =
      capacity_ == 0 ? 1 : std::max<size_t>(1, std::min(shards, capacity_));
  per_shard_capacity_ =
      capacity_ == 0 ? 0 : (capacity_ + shard_count - 1) / shard_count;
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::shared_ptr<const CachedPlan> PlanCache::Lookup(
    uint64_t fingerprint, const std::string& key,
    const std::function<bool(const CachedPlan&)>& validator) {
  std::shared_ptr<const CachedPlan> plan = Find(fingerprint, key, validator);
  CountLookup(plan != nullptr);
  return plan;
}

std::shared_ptr<const CachedPlan> PlanCache::Find(
    uint64_t fingerprint, const std::string& key,
    const std::function<bool(const CachedPlan&)>& validator) {
  if (capacity_ == 0) return nullptr;
  Shard& shard = ShardFor(fingerprint);
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end() ||
      (validator != nullptr && !validator(*it->second->plan))) {
    // Absent, or rejected by the caller's validator: a stale plan is
    // never served. The stale entry is replaced on re-insert or aged
    // out by LRU (erasing here would need the write lock).
    return nullptr;
  }
  it->second->last_used.store(tick_.fetch_add(1, std::memory_order_relaxed) + 1,
                              std::memory_order_relaxed);
  return it->second->plan;
}

void PlanCache::CountLookup(bool hit) {
  (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  (hit ? registry_hits_ : registry_misses_)->Increment();
}

void PlanCache::Insert(uint64_t fingerprint, std::string key,
                       std::shared_ptr<const CachedPlan> plan) {
  if (capacity_ == 0) return;
  Shard& shard = ShardFor(fingerprint);
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    it->second->plan = std::move(plan);
    it->second->last_used.store(
        tick_.fetch_add(1, std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
    insertions_.fetch_add(1, std::memory_order_relaxed);
    registry_insertions_->Increment();
    return;
  }
  while (shard.entries.size() >= per_shard_capacity_) {
    // Make room: drop the least-recently-used entry.
    auto victim = shard.entries.begin();
    for (auto e = shard.entries.begin(); e != shard.entries.end(); ++e) {
      if (e->second->last_used.load(std::memory_order_relaxed) <
          victim->second->last_used.load(std::memory_order_relaxed)) {
        victim = e;
      }
    }
    shard.entries.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    registry_evictions_->Increment();
  }
  auto entry = std::make_unique<Entry>();
  entry->plan = std::move(plan);
  entry->last_used.store(tick_.fetch_add(1, std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
  shard.entries.emplace(std::move(key), std::move(entry));
  insertions_.fetch_add(1, std::memory_order_relaxed);
  registry_insertions_->Increment();
}

void PlanCache::Clear() {
  for (auto& shard : shards_) {
    std::unique_lock<std::shared_mutex> lock(shard->mu);
    shard->entries.clear();
  }
}

PlanCache::Stats PlanCache::GetStats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.insertions = insertions_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    stats.entries += shard->entries.size();
  }
  return stats;
}

}  // namespace revere::piazza
