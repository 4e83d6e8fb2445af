// Snapshot-versioned cache of built approximate trajectory covers.
//
// A cover (exec::BuiltCover) depends only on (snapshot version, instance,
// τ) — not on k, ψ, FM, or existing services — so concurrent serving
// traffic whose specs differ in everything *except* (instance, τ) still
// reuses one T̂C build. Because the version is part of the key, a snapshot
// publish implicitly invalidates every cached cover; stale versions age
// out of the LRU lists. Delta-aware carryover (CarryForward) re-keys
// covers whose instance a publish provably did not touch — an untouched
// partition's cover is byte-equal at both versions (see delta.h) — so an
// update stream no longer resets the cache to cold on every batch.
//
// GetOrBuild has build-once semantics: concurrent callers for the same
// key rendezvous on one shared build (a std::shared_future per entry), so
// a thundering herd of identical-τ requests costs a single cover build —
// the property bench_exec_plans measures. Covers are immutable and
// refcounted, so an evicted entry stays valid for every query still
// holding it. Options::capacity = 0 turns the cache off; results are
// bit-identical either way because BuildCover is deterministic.
#ifndef NETCLUS_SERVE_COVER_CACHE_H_
#define NETCLUS_SERVE_COVER_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/cover_build.h"
#include "exec/executor.h"
#include "exec/plan.h"
#include "serve/delta.h"
#include "util/thread_annotations.h"

namespace netclus::serve {

class CoverCache {
 public:
  struct Options {
    /// Total resident covers across shards. 0 disables. Covers are large
    /// (Σ |T̂C| per instance), so the default stays small — distinct
    /// (instance, τ) pairs in live traffic are few.
    size_t capacity = 32;
    size_t shards = 8;
  };

  struct Stats {
    uint64_t hits = 0;    ///< served an existing (possibly in-flight) build
    uint64_t misses = 0;  ///< this call built the cover
    uint64_t evictions = 0;
    uint64_t entries = 0;
    uint64_t resident_bytes = 0;  ///< Σ bytes of completed resident covers
    uint64_t carried = 0;  ///< entries re-keyed across publishes (CarryForward)
  };

  explicit CoverCache(Options options);

  CoverCache(const CoverCache&) = delete;
  CoverCache& operator=(const CoverCache&) = delete;

  /// False when capacity is 0: GetOrBuild degenerates to calling `build`
  /// without counting.
  bool enabled() const { return per_shard_capacity_ != 0; }

  /// Returns the cover for (version, key), building it via `build` (at
  /// most once across all concurrent callers of this key) on a miss.
  /// *reused is set to true when the returned cover was built by another
  /// call. Thread-safe.
  exec::CoverPtr GetOrBuild(uint64_t version, const exec::CoverKey& key,
                            const std::function<exec::CoverPtr()>& build,
                            bool* reused);

  /// Non-blocking probe: the cover for (version, key) if its build has
  /// already completed, else null — never waits on an in-flight build and
  /// never builds. Success counts a hit; failure counts nothing (no build
  /// happened, so it is not a miss). The async serving path uses this to
  /// answer without queueing behind a build.
  exec::CoverPtr TryGet(uint64_t version, const exec::CoverKey& key);

  /// TryGet over `version` and up to `max_lag` preceding versions, newest
  /// first; sets *served_version on success. Non-blocking.
  exec::CoverPtr TryGetStale(uint64_t version, const exec::CoverKey& key,
                             uint64_t max_lag, uint64_t* served_version);

  /// Delta-aware carryover: re-keys every completed entry at
  /// `old_version` whose (instance, τ) partition the publish left
  /// untouched (see delta.h) to `new_version`, so the next snapshot
  /// starts warm instead of rebuilding byte-equal covers. Entries whose
  /// instance is dirty, in-flight builds (their builder resolves the old
  /// key on completion), and keys already present at `new_version` are
  /// left alone. Returns the number of entries carried. Thread-safe;
  /// called by the serving layer from the update pipeline's on_publish
  /// hook.
  size_t CarryForward(uint64_t old_version, uint64_t new_version,
                      const DeltaSummary& delta);

  /// Drops every entry (counters are kept). In-flight builds complete
  /// normally; their waiters are unaffected.
  void Clear();

  Stats stats() const;

 private:
  struct Key {
    uint64_t version = 0;
    exec::CoverKey cover;

    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };
  struct Entry {
    std::shared_future<exec::CoverPtr> future;
    uint64_t bytes = 0;      ///< cover size; meaningful once completed
    bool completed = false;  ///< false while the build is in flight
    /// Which GetOrBuild call owns this entry's build. The builder's
    /// completion / exception cleanup acts only on the entry carrying its
    /// own id — an entry re-inserted for the same key after an eviction
    /// belongs to a different builder and must not be touched.
    uint64_t build_id = 0;
  };
  struct Shard {
    nc::Mutex mu;
    /// Most-recent first; pairs of (key, entry).
    std::list<std::pair<Key, Entry>> lru GUARDED_BY(mu);
    std::unordered_map<Key, std::list<std::pair<Key, Entry>>::iterator,
                       KeyHash>
        map GUARDED_BY(mu);
  };

  Shard& ShardFor(const Key& key);
  /// Evicts past-capacity *completed* tail entries; caller holds the
  /// shard lock. In-flight entries are never evicted (evicting one would
  /// break the build-once rendezvous and duplicate an expensive build),
  /// so a shard may transiently overshoot capacity while every resident
  /// entry is still building; the next completion or insert shrinks it.
  void EvictLocked(Shard& shard) REQUIRES(shard.mu);

  Options options_;
  size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> next_build_id_{1};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> entries_{0};
  std::atomic<uint64_t> resident_bytes_{0};
  std::atomic<uint64_t> carried_{0};
};

}  // namespace netclus::serve

#endif  // NETCLUS_SERVE_COVER_CACHE_H_
