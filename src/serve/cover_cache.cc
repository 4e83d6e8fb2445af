#include "serve/cover_cache.h"

#include "util/rng.h"

namespace netclus::serve {

size_t CoverCache::KeyHash::operator()(const Key& key) const {
  uint64_t h = util::SplitMix64(key.version);
  h = util::SplitMix64(h ^ exec::CoverKeyHash()(key.cover));
  return static_cast<size_t>(h);
}

CoverCache::CoverCache(Options options) : options_(options) {
  if (options_.shards == 0) options_.shards = 1;
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

CoverCache::Shard& CoverCache::ShardFor(const Key& key) {
  // Shard on the cover key only, never the version: CarryForward re-keys
  // entries to the next version in place, which must not move them to a
  // different shard (the map hash still covers the full key).
  return *shards_[exec::CoverKeyHash()(key.cover) % shards_.size()];
}

void CoverCache::EvictLocked(Shard& shard) {
  // Walk from the LRU tail, evicting completed entries only. Evicting an
  // in-flight entry would silently break the build-once rendezvous: the
  // next GetOrBuild for its key would miss and start a duplicate build
  // while the first is still running. When every entry is in flight
  // (capacity smaller than concurrent builds), leave the overshoot in
  // place — completions and later inserts re-run this and shrink it.
  size_t over = shard.lru.size() > per_shard_capacity_
                    ? shard.lru.size() - per_shard_capacity_
                    : 0;
  auto it = shard.lru.end();
  while (over > 0 && it != shard.lru.begin()) {
    --it;
    if (!it->second.completed) continue;
    resident_bytes_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
    shard.map.erase(it->first);
    it = shard.lru.erase(it);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
    --over;
  }
}

exec::CoverPtr CoverCache::GetOrBuild(
    uint64_t version, const exec::CoverKey& cover_key,
    const std::function<exec::CoverPtr()>& build, bool* reused) {
  if (!enabled()) {
    *reused = false;
    return build();
  }
  const Key key{version, cover_key};
  Shard& shard = ShardFor(key);
  std::promise<exec::CoverPtr> promise;
  std::shared_future<exec::CoverPtr> future;
  bool builder = false;
  const uint64_t build_id =
      next_build_id_.fetch_add(1, std::memory_order_relaxed);
  {
    const nc::MutexLock lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      future = it->second->second.future;
      hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      builder = true;
      Entry entry;
      entry.future = promise.get_future().share();
      entry.build_id = build_id;
      future = entry.future;
      shard.lru.emplace_front(key, std::move(entry));
      shard.map.emplace(key, shard.lru.begin());
      entries_.fetch_add(1, std::memory_order_relaxed);
      misses_.fetch_add(1, std::memory_order_relaxed);
      EvictLocked(shard);
    }
  }
  if (!builder) {
    // Rendezvous on the (possibly in-flight) build; a hit on an entry
    // still building blocks here instead of duplicating the work.
    *reused = true;
    return future.get();
  }
  // Build outside the shard lock — other keys stay fully concurrent.
  exec::CoverPtr cover;
  try {
    cover = build();
  } catch (...) {
    // Drop the dead entry so the key is rebuilt next time (a transient
    // failure must not poison (version, instance, τ) until eviction),
    // and hand waiters the exception instead of a broken promise. Only
    // the entry carrying OUR build_id is ours to drop: if this entry was
    // cleared away and another builder re-inserted the key meanwhile,
    // erasing by key alone would kill that healthy in-flight build.
    {
      const nc::MutexLock lock(shard.mu);
      auto it = shard.map.find(key);
      if (it != shard.map.end() && it->second->second.build_id == build_id) {
        shard.lru.erase(it->second);
        shard.map.erase(it);
        entries_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    promise.set_exception(std::current_exception());
    throw;
  }
  promise.set_value(cover);
  {
    const nc::MutexLock lock(shard.mu);
    auto it = shard.map.find(key);
    // Same identity check as the cleanup path: complete only our own
    // entry, never a successor's re-inserted build for the same key.
    if (it != shard.map.end() && it->second->second.build_id == build_id &&
        !it->second->second.completed) {
      it->second->second.bytes = cover->bytes;
      it->second->second.completed = true;
      resident_bytes_.fetch_add(cover->bytes, std::memory_order_relaxed);
      // The shard may be over capacity with nothing evictable from when
      // every resident entry was in flight; now that one completed,
      // shrink back.
      EvictLocked(shard);
    }
  }
  *reused = false;
  return cover;
}

exec::CoverPtr CoverCache::TryGet(uint64_t version,
                                  const exec::CoverKey& cover_key) {
  if (!enabled()) return nullptr;
  const Key key{version, cover_key};
  Shard& shard = ShardFor(key);
  std::shared_future<exec::CoverPtr> future;
  {
    const nc::MutexLock lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) return nullptr;
    // An in-flight entry would make future.get() block, which this probe
    // must never do.
    if (!it->second->second.completed) return nullptr;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    future = it->second->second.future;
    hits_.fetch_add(1, std::memory_order_relaxed);
  }
  return future.get();  // ready: completed builds resolve immediately
}

exec::CoverPtr CoverCache::TryGetStale(uint64_t version,
                                       const exec::CoverKey& cover_key,
                                       uint64_t max_lag,
                                       uint64_t* served_version) {
  for (uint64_t lag = 0; lag <= max_lag && version >= lag + 1; ++lag) {
    exec::CoverPtr cover = TryGet(version - lag, cover_key);
    if (cover != nullptr) {
      if (served_version != nullptr) *served_version = version - lag;
      return cover;
    }
  }
  return nullptr;
}

size_t CoverCache::CarryForward(uint64_t old_version, uint64_t new_version,
                                const DeltaSummary& delta) {
  if (!enabled() || new_version <= old_version) return 0;
  size_t carried = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    const nc::MutexLock lock(shard.mu);
    for (auto it = shard.lru.begin(); it != shard.lru.end(); ++it) {
      if (it->first.version != old_version) continue;
      // In-flight builds stay at the old key: their builder resolves the
      // entry by that key on completion, and a re-keyed in-flight entry
      // would stay "building" forever.
      if (!it->second.completed) continue;
      if (delta.IsDirty(static_cast<size_t>(it->first.cover.instance))) {
        continue;
      }
      const Key fresh{new_version, it->first.cover};
      // Someone already built (or started building) this partition at the
      // new version — their entry wins; ours ages out.
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

void CoverCache::Clear() {
  for (auto& shard : shards_) {
    const nc::MutexLock lock(shard->mu);
    for (const auto& [key, entry] : shard->lru) {
      resident_bytes_.fetch_sub(entry.bytes, std::memory_order_relaxed);
    }
    entries_.fetch_sub(shard->lru.size(), std::memory_order_relaxed);
    shard->map.clear();
    shard->lru.clear();
  }
}

CoverCache::Stats CoverCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.entries = entries_.load(std::memory_order_relaxed);
  s.resident_bytes = resident_bytes_.load(std::memory_order_relaxed);
  s.carried = carried_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace netclus::serve
