// The Planner: one place that turns any online request into a canonical
// QueryPlan.
//
// Centralizes the three decisions the legacy path scattered across
// query.cc, Engine::TopKBatch, and the serving layer:
//  * instance selection — p = ⌊log_{1+γ}(τ/τ_min)⌋ via MultiIndex::
//    InstanceFor, recorded in the plan and its fingerprint;
//  * solver selection — including the FM + existing-services fallback
//    rule (FM-greedy has no ES support, so such plans run Inc-Greedy; the
//    executor logs the fallback once per engine, not per query);
//  * per-plan thread allocation — the batch-aware two-regime rule: with
//    at least one query per worker, queries are the unit of concurrency
//    (each plan gets 1 thread and the batch fans out); with a batch
//    smaller than the thread budget, each plan keeps the full budget for
//    its inner loops. Either way results are bit-identical (every stage
//    is deterministic at any thread count), so allocation is purely a
//    latency decision. The ExecContext's stage latency histograms are
//    exported alongside so operators can see what the allocation costs.
#ifndef NETCLUS_EXEC_PLANNER_H_
#define NETCLUS_EXEC_PLANNER_H_

#include <cstddef>

#include "exec/plan.h"
#include "exec/stats.h"
#include "netclus/multi_index.h"

namespace netclus::exec {

class Planner {
 public:
  /// `ctx` (not owned, must outlive the planner) carries the plan-stage
  /// histogram the planner records into.
  explicit Planner(ExecContext* ctx) : ctx_(ctx) {}

  /// Plans one request against `index`. `batch_size` is the number of
  /// plans the caller will execute together (1 for a lone query); it
  /// drives the thread-allocation regime exactly like the legacy
  /// Engine::TopKBatch rule, so a refactored caller keeps its thread
  /// layout — and its results — unchanged.
  QueryPlan Plan(const PlanRequest& request, const index::MultiIndex& index,
                 size_t batch_size) const;

 private:
  ExecContext* ctx_;
};

}  // namespace netclus::exec

#endif  // NETCLUS_EXEC_PLANNER_H_
