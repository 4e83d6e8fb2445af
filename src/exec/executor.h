// The Executor: staged execution of QueryPlans.
//
//   CoverBuild  — build (or reuse) the approximate trajectory cover T̂C
//                 for the plan's (instance, τ); shareable across plans
//                 because it does not depend on k, ψ, FM, or ES;
//   Solve       — map existing services into clustered space and run the
//                 plan's solver (Inc-Greedy / FM-greedy / cost /
//                 capacity) on the shared cover;
//   Assemble    — map the clustered-space selection back to real SiteIds
//                 and attribute timings/bytes.
//
// Sharing semantics: ExecuteBatch groups plans by CoverKey and builds
// each distinct cover exactly once; an external cover source (the serving
// layer's snapshot-versioned CoverCache) plugs in through CoverHooks so
// concurrent traffic reuses covers across calls. Every stage is
// deterministic at every thread count and a cover depends only on its
// key, so results are bit-identical to per-query execution — the
// differential suite in tests/test_exec.cc pins this against a replica
// of the pre-refactor pipeline.
//
// Cost attribution when a cover is shared: each of the g sharers reports
// cover_build_seconds = build/g and transient_bytes = bytes/g with
// cover_shared = true; a cover served from an external cache reports
// zero build cost (the query that built it already paid) and
// cover_shared = true.
#ifndef NETCLUS_EXEC_EXECUTOR_H_
#define NETCLUS_EXEC_EXECUTOR_H_

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "exec/cover_build.h"
#include "exec/plan.h"
#include "exec/stats.h"
#include "netclus/multi_index.h"
#include "netclus/query.h"
#include "tops/site_set.h"
#include "traj/trajectory_store.h"

namespace netclus::exec {

using CoverPtr = std::shared_ptr<const BuiltCover>;

/// External cover source (e.g. serve::CoverCache). `acquire` must return
/// a cover equivalent to calling `build` (same key → bit-identical cover,
/// guaranteed by BuildCover's determinism), calling `build` at most once;
/// it sets *reused to true when the returned cover was not built by this
/// call. No hooks = build per call.
struct CoverHooks {
  std::function<CoverPtr(const CoverKey& key,
                         const std::function<CoverPtr()>& build,
                         bool* reused)>
      acquire;
};

class Executor {
 public:
  /// All pointers are borrowed and must outlive the executor. `ctx`
  /// carries the stage instruments and warn-once state of the owning
  /// engine.
  Executor(const index::MultiIndex* index, const traj::TrajectoryStore* store,
           const tops::SiteSet* sites, ExecContext* ctx,
           CoverHooks hooks = {});

  /// Executes one plan through the three stages.
  index::QueryResult Execute(const QueryPlan& plan) const;

  /// Throws std::invalid_argument on malformed payloads: cost / capacity
  /// vectors must be site-indexed, every cost > 0 and the budget not NaN.
  /// Execute/ExecuteBatch call this; the
  /// serving layer calls it eagerly at admission so a bad spec surfaces
  /// as kInvalidSpec instead of a worker-thread exception.
  void ValidatePlan(const QueryPlan& plan) const;

  /// Stage 1 alone: builds (or acquires through the hooks) the plan's
  /// cover. `*reused` is set when the cover was not built by this call.
  /// Lets the async serving layer run CoverBuild as its own scheduler
  /// task, separately from ExecuteOnCover.
  CoverPtr ObtainCover(const QueryPlan& plan, uint32_t build_threads,
                       bool* reused) const;

  /// Stages 2+3 on an already-obtained cover (which must match the plan's
  /// cover key). `cover_reused` selects Execute()'s cost attribution:
  /// reused covers report zero build cost. Execute(plan) is exactly
  /// ObtainCover + ExecuteOnCover; results are bit-identical.
  index::QueryResult ExecuteOnCover(const QueryPlan& plan,
                                    const CoverPtr& cover,
                                    bool cover_reused) const;

  /// Executes a batch: plans are grouped by CoverKey, each distinct cover
  /// is built once (the groups build concurrently under `threads`, the
  /// same two-regime rule as the solve fan-out), then every plan solves
  /// on its group's cover. Results are in input order and — selection by
  /// selection — identical to calling Execute on each plan.
  std::vector<index::QueryResult> ExecuteBatch(std::span<const QueryPlan> plans,
                                               uint32_t threads) const;

 private:
  tops::Selection SolveStage(const QueryPlan& plan, const BuiltCover& cover,
                             double* stage_seconds) const;
  index::QueryResult Assemble(const QueryPlan& plan, const BuiltCover& cover,
                              tops::Selection clustered, double cover_seconds,
                              uint64_t cover_bytes, bool cover_shared) const;

  const index::MultiIndex* index_;
  const traj::TrajectoryStore* store_;
  const tops::SiteSet* sites_;
  ExecContext* ctx_;
  CoverHooks hooks_;
};

}  // namespace netclus::exec

#endif  // NETCLUS_EXEC_EXECUTOR_H_
