#include "serve/query_cache.h"

#include <algorithm>
#include <memory>

#include "util/logging.h"
#include "util/rng.h"

namespace netclus::serve {

size_t QueryKeyHash::operator()(const QueryKey& key) const {
  return static_cast<size_t>(
      util::SplitMix64(util::SplitMix64(key.version) ^ key.plan.Fingerprint()));
}

Engine::QuerySpec CanonicalizeSpec(const Engine::QuerySpec& spec) {
  Engine::QuerySpec canon = spec;
  std::sort(canon.existing_services.begin(), canon.existing_services.end());
  canon.existing_services.erase(
      std::unique(canon.existing_services.begin(),
                  canon.existing_services.end()),
      canon.existing_services.end());
  return canon;
}

QueryKey CanonicalQueryKey(uint64_t version, const Engine::QuerySpec& spec,
                           size_t instance) {
  QueryKey key;
  key.version = version;
  // Derive through the same spec → request mapping the execution path
  // uses, so key and execution cannot diverge on a field.
  key.plan = exec::CanonicalPlanKey(spec.ToRequest(/*threads=*/0), instance);
  return key;
}

QueryCache::QueryCache(Options options) : options_(options) {
  if (options_.shards == 0) options_.shards = 1;
  // A tiny budget spread over many shards would round each shard up to
  // one entry and overshoot the total; shrink the shard count instead so
  // Σ per-shard capacity never exceeds Options::capacity.
  if (options_.capacity > 0 && options_.shards > options_.capacity) {
    options_.shards = options_.capacity;
  }
  shards_.reserve(options_.shards);
  for (size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  per_shard_capacity_ =
      options_.capacity == 0 ? 0 : options_.capacity / options_.shards;
}

QueryCache::Shard& QueryCache::ShardFor(const QueryKey& key) {
  // Shard on the plan fingerprint only, never the version: CarryForward
  // re-keys entries to the next version in place, which must not move
  // them across shards (the map hash still covers the full key).
  return *shards_[static_cast<size_t>(key.plan.Fingerprint()) %
                  shards_.size()];
}

std::optional<index::QueryResult> QueryCache::Lookup(const QueryKey& key) {
  if (!enabled()) return std::nullopt;  // no phantom miss counts
  Shard& shard = ShardFor(key);
  const nc::MutexLock lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->second;
}

std::optional<index::QueryResult> QueryCache::LookupStale(
    const QueryKey& key, uint64_t max_lag, uint64_t* served_version) {
  if (!enabled()) return std::nullopt;
  QueryKey probe = key;
  for (uint64_t lag = 0; lag <= max_lag && probe.version >= 1; ++lag) {
    Shard& shard = ShardFor(probe);
    {
      const nc::MutexLock lock(shard.mu);
      auto it = shard.map.find(probe);
      if (it != shard.map.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        // A find at lag 0 served the FRESH version — it is an ordinary
        // hit, not a stale serve; counting it as stale would inflate
        // netclus_query_cache_stale_hits_total on every backpressure
        // probe that happened to be cache-warm.
        if (lag == 0) {
          hits_.fetch_add(1, std::memory_order_relaxed);
        } else {
          stale_hits_.fetch_add(1, std::memory_order_relaxed);
        }
        if (served_version != nullptr) *served_version = probe.version;
        return it->second->second;
      }
    }
    --probe.version;
  }
  // The whole ladder failed: one miss for the one resolved probe (these
  // used to be invisible, understating miss pressure under backpressure).
  misses_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void QueryCache::Insert(const QueryKey& key, const index::QueryResult& result) {
  if (!enabled()) return;
  Shard& shard = ShardFor(key);
  const nc::MutexLock lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    it->second->second = result;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.emplace_front(key, result);
  shard.map.emplace(key, shard.lru.begin());
  entries_.fetch_add(1, std::memory_order_relaxed);
  while (shard.lru.size() > per_shard_capacity_) {
    shard.map.erase(shard.lru.back().first);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
  }
}

size_t QueryCache::CarryForward(uint64_t old_version, uint64_t new_version,
                                const DeltaSummary& delta) {
  if (!enabled() || new_version <= old_version) return 0;
  size_t carried = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    const nc::MutexLock lock(shard.mu);
    for (auto it = shard.lru.begin(); it != shard.lru.end(); ++it) {
      if (it->first.version != old_version) continue;
      if (delta.IsDirty(static_cast<size_t>(it->first.plan.instance))) {
        continue;
      }
      const QueryKey fresh{new_version, it->first.plan};
      if (shard.map.find(fresh) != shard.map.end()) continue;
      shard.map.erase(it->first);
      it->first.version = new_version;
      shard.map.emplace(fresh, it);
      ++carried;
    }
  }
  carried_.fetch_add(carried, std::memory_order_relaxed);
  return carried;
}

void QueryCache::Clear() {
  for (auto& shard : shards_) {
    const nc::MutexLock lock(shard->mu);
    entries_.fetch_sub(shard->lru.size(), std::memory_order_relaxed);
    shard->map.clear();
    shard->lru.clear();
  }
}

QueryCache::Stats QueryCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.entries = entries_.load(std::memory_order_relaxed);
  s.stale_hits = stale_hits_.load(std::memory_order_relaxed);
  s.carried = carried_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace netclus::serve
