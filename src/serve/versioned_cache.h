// One snapshot-versioned, sharded LRU cache with build-once semantics;
// serve/query_cache.h instantiates it for query results and for covers.
//
// Entries are keyed by (snapshot version, key), so a publish implicitly
// invalidates every entry: superseded versions stop being requested and
// age out of the LRU lists. CarryForward re-keys entries whose resolution
// instance a publish provably did not touch (see delta.h), so those
// survive the version bump. GetOrBuild runs `build` at most once per
// (version, key) across concurrent callers, who wait on the first
// caller's std::shared_future; TryGet never waits and never builds.
// Values are immutable once built, so a hit is bit-identical to a
// rebuild. The key's hash, never the version, picks the shard, so a
// re-key never moves an entry to another shard.
//
// Traits supplies `Key` (equality-comparable, with an `instance` field),
// `Value` (default-constructible, copyable), `static uint64_t
// Hash(const Key&)` and `static uint64_t Bytes(const Value&)`.
#ifndef NETCLUS_SERVE_VERSIONED_CACHE_H_
#define NETCLUS_SERVE_VERSIONED_CACHE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <future>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/delta.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace netclus::serve {

struct CacheOptions {
  size_t capacity = 4096;  ///< total entries across shards (0 disables)
  size_t shards = 16;      ///< >= 1; clamped to [1, capacity]
};

/// Counters of one VersionedCache. The counting contract:
///  * hits: a TryGet find at lag 0, or a GetOrBuild that found an entry
///    (completed or in flight) instead of building;
///  * stale_hits: a TryGet find at a lag above 0;
///  * misses: a GetOrBuild that ran `build`.
/// A failed TryGet counts nothing: it neither served nor built. So each
/// cacheable served read moves exactly one of the three.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t stale_hits = 0;
  uint64_t evictions = 0;
  uint64_t entries = 0;         ///< resident entries, in-flight included
  uint64_t resident_bytes = 0;  ///< Σ Traits::Bytes of completed entries
  uint64_t carried = 0;         ///< entries re-keyed by CarryForward
};

template <typename Traits>
class VersionedCache {
 public:
  using Key = typename Traits::Key;
  using Value = typename Traits::Value;
  using Options = CacheOptions;
  using Stats = CacheStats;

  // At most one shard per entry, so Σ per-shard capacity never exceeds
  // Options::capacity (rounding each shard up to one would overshoot).
  explicit VersionedCache(Options options)
      : shards_(std::clamp<size_t>(options.shards, 1,
                                   std::max<size_t>(options.capacity, 1))),
        per_shard_capacity_(options.capacity / shards_.size()) {
    for (auto& shard : shards_) shard = std::make_unique<Shard>();
  }

  VersionedCache(const VersionedCache&) = delete;
  VersionedCache& operator=(const VersionedCache&) = delete;

  /// False when constructed with capacity 0: TryGet always misses and
  /// GetOrBuild just calls `build`, neither counting anything.
  bool enabled() const { return per_shard_capacity_ != 0; }

  /// Non-blocking probe for a completed entry at `version` or, failing
  /// that, at one of the `max_lag` preceding versions, newest first. On
  /// success sets *served_version (when non-null) to the version found.
  /// Thread-safe.
  std::optional<Value> TryGet(uint64_t version, const Key& key,
                              uint64_t max_lag = 0,
                              uint64_t* served_version = nullptr) {
    if (!enabled()) return std::nullopt;
    Shard& shard = ShardFor(key);
    Slot probe{version, key};
    const nc::MutexLock lock(shard.mu);
    for (uint64_t lag = 0; lag <= max_lag && probe.version >= 1;
         ++lag, --probe.version) {
      const auto it = shard.map.find(probe);
      // An in-flight entry would make future.get() block, which this
      // probe must never do.
      if (it == shard.map.end() || !it->second->second.completed) continue;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      (lag == 0 ? hits_ : stale_hits_)
          .fetch_add(1, std::memory_order_relaxed);
      if (served_version != nullptr) *served_version = probe.version;
      return it->second->second.future.get();  // completed: ready
    }
    return std::nullopt;
  }

  /// Returns the value for (version, key), running `build` on a miss, at
  /// most once across all concurrent callers of the key: the others wait
  /// for that one build and share its value. Sets *reused when the value
  /// came from another call. A throwing build drops its entry, so the key
  /// is rebuilt next time, and the exception reaches its caller and every
  /// waiter. Thread-safe.
  template <typename Build>
  Value GetOrBuild(uint64_t version, const Key& key, Build&& build,
                   bool* reused) {
    *reused = false;
    if (!enabled()) return build();
    const Slot slot{version, key};
    Shard& shard = ShardFor(key);
    std::promise<Value> promise;
    std::shared_future<Value> future;
    uint64_t build_id = 0;
    {
      const nc::MutexLock lock(shard.mu);
      const auto it = shard.map.find(slot);
      if (it != shard.map.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        future = it->second->second.future;
        hits_.fetch_add(1, std::memory_order_relaxed);
      } else {
        build_id = next_build_id_.fetch_add(1, std::memory_order_relaxed);
        Entry entry;
        entry.future = promise.get_future().share();
        entry.build_id = build_id;
        shard.lru.emplace_front(slot, std::move(entry));
        shard.map.emplace(slot, shard.lru.begin());
        entries_.fetch_add(1, std::memory_order_relaxed);
        misses_.fetch_add(1, std::memory_order_relaxed);
        EvictLocked(shard);
      }
    }
    if (build_id == 0) {
      // Rendezvous on the (possibly in-flight) build instead of repeating
      // it; a failed build rethrows here.
      *reused = true;
      return future.get();
    }
    // Build outside the shard lock: other keys stay fully concurrent. The
    // completion and failure paths below touch only the entry carrying
    // our build_id: one re-inserted for the key after a Clear belongs to
    // another builder.
    Value value;
    try {
      value = build();
    } catch (...) {
      // Drop the dead entry so a transient failure does not poison the
      // key until eviction, and hand waiters the exception instead of a
      // broken promise.
      {
        const nc::MutexLock lock(shard.mu);
        const auto it = shard.map.find(slot);
        if (it != shard.map.end() && it->second->second.build_id == build_id) {
          shard.lru.erase(it->second);
          shard.map.erase(it);
          entries_.fetch_sub(1, std::memory_order_relaxed);
        }
      }
      promise.set_exception(std::current_exception());
      throw;
    }
    promise.set_value(value);
    {
      const nc::MutexLock lock(shard.mu);
      const auto it = shard.map.find(slot);
      if (it != shard.map.end() && it->second->second.build_id == build_id) {
        Entry& entry = it->second->second;
        entry.bytes = Traits::Bytes(value);
        entry.completed = true;
        resident_bytes_.fetch_add(entry.bytes, std::memory_order_relaxed);
        // The shard may be over capacity with nothing evictable from when
        // every resident entry was in flight; now that one completed,
        // shrink back.
        EvictLocked(shard);
      }
    }
    return value;
  }

  /// Delta-aware carryover: re-keys every completed entry at
  /// `old_version` whose resolution instance the publish left untouched
  /// (see delta.h) to `new_version`; its value is bit-identical at both
  /// versions, so the next snapshot starts warm. Entries of dirty
  /// instances, in-flight entries (their builder completes them by the
  /// old key) and keys already present at `new_version` stay put. Returns
  /// the number carried. Thread-safe.
  size_t CarryForward(uint64_t old_version, uint64_t new_version,
                      const DeltaSummary& delta) {
    if (!enabled() || new_version <= old_version) return 0;
    size_t carried = 0;
    for (const auto& shard_ptr : shards_) {
      Shard& shard = *shard_ptr;
      const nc::MutexLock lock(shard.mu);
      for (auto it = shard.lru.begin(); it != shard.lru.end(); ++it) {
        Slot& slot = it->first;
        if (slot.version != old_version || !it->second.completed ||
            delta.IsDirty(static_cast<size_t>(slot.key.instance))) {
          continue;
        }
        Slot fresh{new_version, slot.key};
        // Someone already built (or is building) this key at the new
        // version: their entry wins and ours ages out.
        if (shard.map.contains(fresh)) continue;
        shard.map.erase(slot);
        slot.version = new_version;
        shard.map.emplace(std::move(fresh), it);
        ++carried;
      }
    }
    carried_.fetch_add(carried, std::memory_order_relaxed);
    return carried;
  }

  /// Drops every entry; counters are kept. In-flight builds complete
  /// normally and their waiters are unaffected.
  void Clear() {
    for (const auto& shard : shards_) {
      const nc::MutexLock lock(shard->mu);
      for (const auto& [slot, entry] : shard->lru) {
        resident_bytes_.fetch_sub(entry.bytes, std::memory_order_relaxed);
      }
      entries_.fetch_sub(shard->lru.size(), std::memory_order_relaxed);
      shard->map.clear();
      shard->lru.clear();
    }
  }

  Stats stats() const {
    Stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.stale_hits = stale_hits_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.entries = entries_.load(std::memory_order_relaxed);
    s.resident_bytes = resident_bytes_.load(std::memory_order_relaxed);
    s.carried = carried_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct Slot {
    uint64_t version = 0;
    Key key;

    bool operator==(const Slot&) const = default;
  };
  struct SlotHash {
    size_t operator()(const Slot& slot) const {
      return static_cast<size_t>(util::SplitMix64(
          util::SplitMix64(slot.version) ^ Traits::Hash(slot.key)));
    }
  };
  struct Entry {
    std::shared_future<Value> future;
    uint64_t bytes = 0;      ///< Traits::Bytes; meaningful once completed
    bool completed = false;  ///< false while the build is in flight
    uint64_t build_id = 0;   ///< the GetOrBuild call that owns the build
  };
  using Lru = std::list<std::pair<Slot, Entry>>;
  struct Shard {
    nc::Mutex mu;
    Lru lru GUARDED_BY(mu);  ///< most-recent first
    std::unordered_map<Slot, typename Lru::iterator, SlotHash> map
        GUARDED_BY(mu);
  };

  Shard& ShardFor(const Key& key) {
    return *shards_[static_cast<size_t>(Traits::Hash(key) % shards_.size())];
  }

  /// Evicts past-capacity *completed* entries from the LRU tail; caller
  /// holds the shard lock. Evicting an in-flight entry would break the
  /// build-once rendezvous (the next caller for its key would start a
  /// duplicate build), so a shard may transiently overshoot capacity
  /// while every resident entry is in flight; the next completion or
  /// insert shrinks it.
  void EvictLocked(Shard& shard) REQUIRES(shard.mu) {
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

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t per_shard_capacity_ = 0;
  std::atomic<uint64_t> next_build_id_{1};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> stale_hits_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> entries_{0};
  std::atomic<uint64_t> resident_bytes_{0};
  std::atomic<uint64_t> carried_{0};
};

}  // namespace netclus::serve

#endif  // NETCLUS_SERVE_VERSIONED_CACHE_H_
