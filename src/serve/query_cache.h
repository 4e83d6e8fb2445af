// Sharded LRU cache for TOPS query results.
//
// Keyed by the snapshot version plus the query plan's canonical
// fingerprint (exec::PlanKey: sorted/deduped existing services,
// normalized ψ, τ by bit pattern, the resolved resolution instance).
// Because queries over one snapshot are deterministic, a hit is
// bit-identical to recomputation; because the version is part of the key,
// a snapshot publish implicitly invalidates every cached entry — stale
// versions simply stop being requested and age out of the LRU lists.
// Delta-aware carryover (CarryForward, driven by the update pipeline's
// per-publish DeltaSummary) re-keys entries whose resolution instance the
// publish provably did not touch, so those survive the version bump
// instead of aging out; see delta.h for the dirtiness argument.
//
// Canonicalization means equivalent specs share one entry: permuted or
// duplicated existing-services lists, and ψ spellings that are bit-exact
// equivalent (e.g. ConvexProbability(1) vs Linear — see
// exec::NormalizePsi), all hit the same slot.
//
// Sharding: the key hash picks a shard; each shard is an independent
// mutex + LRU list + map, so concurrent readers on different shards never
// contend. Counters (hits / misses / evictions) are process-wide atomics.
#ifndef NETCLUS_SERVE_QUERY_CACHE_H_
#define NETCLUS_SERVE_QUERY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "api/engine.h"
#include "exec/plan.h"
#include "netclus/query.h"
#include "serve/delta.h"
#include "tops/site_set.h"
#include "util/thread_annotations.h"

namespace netclus::serve {

/// Canonical cache key: the snapshot version a result was answered at
/// plus the plan fingerprint. Two QuerySpecs that answer identically on
/// the same snapshot produce equal keys; doubles are carried by bit
/// pattern inside the PlanKey, so equality and hashing always agree
/// (0.0 vs -0.0, NaN) as the shard maps require.
struct QueryKey {
  uint64_t version = 0;
  exec::PlanKey plan;

  bool operator==(const QueryKey&) const = default;
};

struct QueryKeyHash {
  size_t operator()(const QueryKey& key) const;
};

/// Returns the spec with existing_services sorted and deduplicated — the
/// form the server both keys on AND executes. Executing the canonical
/// order matters: Inc-Greedy folds existing services in input order, and
/// floating-point addition is non-associative, so permuted inputs could
/// otherwise differ in the last ulp from the cached answer they share a
/// key with.
Engine::QuerySpec CanonicalizeSpec(const Engine::QuerySpec& spec);

/// Builds the canonical key for a query against a snapshot version. Takes
/// the whole spec (not individual fields) and maps it through QuerySpec::
/// ToRequest, the mapping execution plans from, so a new result-affecting
/// spec field cannot reach the plan without reaching the key. `instance`
/// is the resolved resolution instance (the server takes it from the
/// plan; key-only unit tests may pass 0).
QueryKey CanonicalQueryKey(uint64_t version, const Engine::QuerySpec& spec,
                           size_t instance = 0);

class QueryCache {
 public:
  struct Options {
    size_t capacity = 4096;  ///< total entries across shards (0 disables)
    size_t shards = 16;      ///< power of two recommended; >= 1
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t entries = 0;  ///< current resident entries
    /// LookupStale probes that hit at a *lagged* version (lag > 0) — the
    /// answers served stale under backpressure. A LookupStale that finds
    /// the entry at lag 0 served the fresh version and counts as an
    /// ordinary `hits`; a probe whose whole ladder fails counts one
    /// `misses`. So hits + misses == Lookup calls + resolved LookupStale
    /// ladders, and stale_hits is exactly the stale-served count (it used
    /// to also absorb lag-0 fresh hits, inflating the stale-serving
    /// metric).
    uint64_t stale_hits = 0;
    /// Entries re-keyed across publishes by CarryForward.
    uint64_t carried = 0;
  };

  explicit QueryCache(Options options);

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  /// False when constructed with capacity 0: Lookup always misses (without
  /// counting) and Insert is a no-op. Callers skip key construction.
  bool enabled() const { return per_shard_capacity_ != 0; }

  /// Looks the key up, refreshing its LRU position. Thread-safe.
  std::optional<index::QueryResult> Lookup(const QueryKey& key);

  /// Backpressure probe: looks for the same plan at key.version or any of
  /// the `max_lag` preceding versions, newest first. On success sets
  /// *served_version to the version found. Counting: a lag-0 find is a
  /// fresh `hits`, a lagged find is a `stale_hits`, a fully failed ladder
  /// is one `misses` (see Stats::stale_hits). Thread-safe.
  std::optional<index::QueryResult> LookupStale(const QueryKey& key,
                                                uint64_t max_lag,
                                                uint64_t* served_version);

  /// Delta-aware carryover: re-keys entries at `old_version` whose
  /// resolution instance the publish left untouched (see delta.h) to
  /// `new_version` — their answers are bit-identical at both versions, so
  /// the next snapshot starts warm. Keys already present at the new
  /// version win; dirty-instance entries age out. Returns the number
  /// carried. Thread-safe.
  size_t CarryForward(uint64_t old_version, uint64_t new_version,
                      const DeltaSummary& delta);

  /// Inserts (or refreshes) an entry, evicting the shard's LRU tail when
  /// over budget. Thread-safe.
  void Insert(const QueryKey& key, const index::QueryResult& result);

  /// Drops every entry (counters are kept).
  void Clear();

  Stats stats() const;

 private:
  struct Shard {
    nc::Mutex mu;
    /// Most-recent first; pairs of (key, result).
    std::list<std::pair<QueryKey, index::QueryResult>> lru GUARDED_BY(mu);
    std::unordered_map<QueryKey,
                       std::list<std::pair<QueryKey,
                                           index::QueryResult>>::iterator,
                       QueryKeyHash>
        map GUARDED_BY(mu);
  };

  Shard& ShardFor(const QueryKey& key);

  Options options_;
  size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> entries_{0};
  std::atomic<uint64_t> stale_hits_{0};
  std::atomic<uint64_t> carried_{0};
};

}  // namespace netclus::serve

#endif  // NETCLUS_SERVE_QUERY_CACHE_H_
