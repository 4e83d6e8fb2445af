// The serving layer's two snapshot-versioned caches, both instances of
// VersionedCache (versioned_cache.h):
//
//  * QueryCache: a query plan's canonical fingerprint (exec::PlanKey:
//    sorted/deduped existing services, normalized ψ, τ by bit pattern,
//    the resolved resolution instance) → its answer. Queries over one
//    snapshot are deterministic, so a hit is bit-identical to
//    recomputation, and canonicalization means equivalent specs share
//    one entry: permuted or duplicated existing-services lists, and ψ
//    spellings that are bit-exact equivalent (e.g. ConvexProbability(1)
//    vs Linear — see exec::NormalizePsi), all hit the same slot.
//  * CoverCache: a cover's identity (exec::CoverKey: instance, τ) → the
//    built approximate trajectory cover. A cover does not depend on k,
//    ψ, FM or existing services, so traffic whose specs differ in
//    everything except (instance, τ) still shares one T̂C build. Covers
//    are immutable and refcounted, so an evicted entry stays valid for
//    every query still holding it.
//
// Both build once per (version, key) across concurrent callers: a herd
// of identical reads runs one solve, and identical-τ reads one cover
// build.
#ifndef NETCLUS_SERVE_QUERY_CACHE_H_
#define NETCLUS_SERVE_QUERY_CACHE_H_

#include <cstdint>

#include "api/engine.h"
#include "exec/executor.h"
#include "exec/plan.h"
#include "netclus/query.h"
#include "serve/versioned_cache.h"

namespace netclus::serve {

/// Returns the spec with existing_services sorted and deduplicated — the
/// form the server both keys on AND executes. Executing the canonical
/// order matters: Inc-Greedy folds existing services in input order, and
/// floating-point addition is non-associative, so permuted inputs could
/// otherwise differ in the last ulp from the cached answer they share a
/// key with.
Engine::QuerySpec CanonicalizeSpec(const Engine::QuerySpec& spec);

struct QueryCacheTraits {
  using Key = exec::PlanKey;
  using Value = index::QueryResult;
  static uint64_t Hash(const Key& key) { return key.Fingerprint(); }
  static uint64_t Bytes(const Value& result);
};

struct CoverCacheTraits {
  using Key = exec::CoverKey;
  using Value = exec::CoverPtr;
  static uint64_t Hash(const Key& key) { return exec::CoverKeyHash()(key); }
  static uint64_t Bytes(const Value& cover) { return cover->bytes; }
};

using QueryCache = VersionedCache<QueryCacheTraits>;
using CoverCache = VersionedCache<CoverCacheTraits>;

}  // namespace netclus::serve

#endif  // NETCLUS_SERVE_QUERY_CACHE_H_
