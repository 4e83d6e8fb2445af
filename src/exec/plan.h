// The query-plan IR of the unified planning & staged execution layer.
//
// Every online query variant — plain TOPS, TOPS-COST, TOPS-CAPACITY, with
// or without FM sketches or existing services — canonicalizes into one
// QueryPlan: the resolved resolution instance p = ⌊log_{1+γ}(τ/τ_min)⌋,
// the solver the executor will run, the per-plan thread budget, and a
// stable PlanKey fingerprint (sorted/deduped existing services, normalized
// ψ, the instance) that the serving layer's result cache keys on and that
// the executor's cover-sharing stage groups by.
//
// Canonicalization never changes what is executed: the plan keeps the
// caller's existing-services order for execution (Inc-Greedy folds ES in
// input order and floating-point addition is non-associative), while the
// PlanKey carries the sorted/deduped form so equivalent requests share one
// cache identity. ψ normalization (see NormalizePsi) only rewrites a
// preference function into an equivalent one whose scores are bit-exact
// equal, so a cache hit is always bit-identical to recomputation.
#ifndef NETCLUS_EXEC_PLAN_H_
#define NETCLUS_EXEC_PLAN_H_

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "tops/preference.h"
#include "tops/site_set.h"

namespace netclus::exec {

enum class QueryVariant : uint8_t {
  kTops = 0,
  kTopsCost = 1,
  kTopsCapacity = 2,
};

enum class SolverKind : uint8_t {
  kIncGreedy = 0,
  kFmGreedy = 1,
  kCostGreedy = 2,
  kCapacityGreedy = 3,
};

const char* VariantName(QueryVariant variant);
const char* SolverName(SolverKind solver);

/// What a caller asks for, before planning. Engine::QuerySpec::ToRequest
/// is the one mapping from a spec; bare-index callers fill it directly.
struct PlanRequest {
  QueryVariant variant = QueryVariant::kTops;
  uint32_t k = 5;
  double tau_m = 800.0;
  tops::PreferenceFunction psi = tops::PreferenceFunction::Binary();
  bool use_fm = false;
  uint32_t fm_copies = 30;
  std::vector<tops::SiteId> existing_services;
  /// TOPS-COST payload (site-indexed costs + budget). Borrowed, not
  /// copied: the caller's vector must outlive the plan's execution (plans
  /// with payloads are transient and never cached — see
  /// QueryPlan::cacheable).
  std::span<const double> site_costs;
  double budget = 0.0;
  /// TOPS-CAPACITY payload (site-indexed capacities). Borrowed like
  /// site_costs.
  std::span<const double> site_capacities;
  /// Worker threads (0 = NETCLUS_THREADS default), before the planner's
  /// batch-aware allocation.
  uint32_t threads = 0;
};

/// Identity of the cover-build stage: two plans with equal CoverKeys build
/// the exact same approximate trajectory cover T̂C (it depends only on the
/// instance, τ, and the corpus), so the executor builds it once and shares
/// it. τ is carried by bit pattern (-0.0 normalized to 0.0) so hashing and
/// equality agree with the result-cache convention.
struct CoverKey {
  uint64_t instance = 0;
  uint64_t tau_bits = 0;

  bool operator==(const CoverKey&) const = default;

  /// τ in meters, recovered from the bit pattern. The serving layer's
  /// delta-aware carryover reads (instance, τ) off cached keys to decide
  /// whether a publish touched the partition a cover belongs to.
  double tau_m() const { return std::bit_cast<double>(tau_bits); }
};

struct CoverKeyHash {
  size_t operator()(const CoverKey& key) const;
};

/// Stable canonical fingerprint of a plan: what the serving result cache
/// keys on (together with the snapshot version). Two requests that answer
/// identically on the same snapshot produce equal PlanKeys:
///  * existing services are sorted and deduplicated;
///  * ψ is normalized (NormalizePsi) and collapsed to (kind, param bits);
///  * τ and the ψ parameter are carried by bit pattern with -0.0
///    normalized to 0.0, so equality and hashing always agree;
///  * the resolved instance p rides along (it is derived from τ, but makes
///    the key self-describing for stats and debugging);
///  * fm_copies is zeroed when the request does not use FM sketches, so an
///    irrelevant knob cannot split cache entries.
struct PlanKey {
  uint8_t variant = 0;
  uint32_t k = 0;
  uint64_t tau_bits = 0;
  bool use_fm = false;
  uint32_t fm_copies = 0;
  uint8_t psi_kind = 0;
  uint64_t psi_param_bits = 0;
  uint64_t instance = 0;
  std::vector<tops::SiteId> existing;  ///< sorted, deduped

  bool operator==(const PlanKey&) const = default;

  /// 64-bit stable hash over every field (SplitMix64 chain).
  uint64_t Fingerprint() const;

  /// τ in meters, recovered from the bit pattern (see CoverKey::tau_m).
  double tau_m() const { return std::bit_cast<double>(tau_bits); }

  /// The cover-build identity this plan resolves to — the (instance, τ)
  /// partition delta-aware carryover reasons about.
  CoverKey cover_key() const { return CoverKey{instance, tau_bits}; }
};

/// The canonical executable plan. Produced by the Planner; consumed by the
/// Executor's CoverBuild → Solve → Assemble stages.
struct QueryPlan {
  QueryVariant variant = QueryVariant::kTops;
  /// The solver the planner *intends* to run, from the raw request. The
  /// executor never dispatches on this field: FM eligibility is decided
  /// at solve time on the *mapped* clustered-space existing services
  /// (which needs the cover's representative list and can differ from
  /// the raw ES in either direction — ES entries may map to nothing, or
  /// a kIncGreedy fallback plan may end up FM-eligible after all).
  /// Intent metadata for stats/logging only.
  SolverKind solver = SolverKind::kIncGreedy;
  uint32_t k = 5;
  double tau_m = 800.0;
  tops::PreferenceFunction psi = tops::PreferenceFunction::Binary();
  bool use_fm = false;
  uint32_t fm_copies = 30;
  /// Execution-order existing services (the caller's order — see file
  /// comment). The sorted canonical form lives in `key.existing`.
  std::vector<tops::SiteId> existing_services;
  /// Borrowed payloads (see PlanRequest): valid only while the caller's
  /// vectors live, which covers every execution path because cost /
  /// capacity plans are executed synchronously and never cached.
  std::span<const double> site_costs;
  double budget = 0.0;
  std::span<const double> site_capacities;
  /// Resolved resolution instance p.
  size_t instance = 0;
  /// Per-plan worker threads after the planner's batch-aware allocation
  /// (0 = NETCLUS_THREADS default; 1 inside large batches where queries
  /// themselves are the unit of concurrency).
  uint32_t threads = 0;
  /// True when FM sketches were requested but existing services force the
  /// Inc-Greedy fallback (the executor logs this once per engine).
  bool fm_fallback = false;
  /// Plans whose full identity is captured by `key` (plain TOPS). Cost /
  /// capacity plans carry payload vectors the key does not cover, so the
  /// result cache must skip them.
  bool cacheable = false;
  /// Canonical fingerprint (see PlanKey).
  PlanKey key;

  CoverKey cover_key() const { return CoverKey{instance, key.tau_bits}; }
};

/// Rewrites ψ into a canonical equivalent whose Score() is bit-exact equal
/// for every (d_r, τ):
///  * ConvexProbability(1) → Linear (std::pow(x, 1.0) returns x exactly);
///  * a -0.0 parameter → 0.0 (Score never distinguishes them).
/// Anything else is returned unchanged. test_exec pins the bit-exactness.
tops::PreferenceFunction NormalizePsi(const tops::PreferenceFunction& psi);

/// Builds the canonical PlanKey for a request resolved to `instance`.
PlanKey CanonicalPlanKey(const PlanRequest& request, size_t instance);

}  // namespace netclus::exec

#endif  // NETCLUS_EXEC_PLAN_H_
