#include "exec/planner.h"

#include "util/logging.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace netclus::exec {

QueryPlan Planner::Plan(const PlanRequest& request,
                        const index::MultiIndex& index,
                        size_t batch_size) const {
  util::WallTimer timer;
  QueryPlan plan;
  plan.variant = request.variant;
  plan.k = request.k;
  plan.tau_m = request.tau_m;
  plan.psi = NormalizePsi(request.psi);
  plan.use_fm = request.use_fm;
  plan.fm_copies = request.fm_copies;
  plan.existing_services = request.existing_services;
  plan.site_costs = request.site_costs;
  plan.budget = request.budget;
  plan.site_capacities = request.site_capacities;
  plan.instance = index.InstanceFor(request.tau_m);

  // Solver selection. The FM path requires a binary ψ and no existing
  // services; ES forces the Inc-Greedy fallback so ES is respected (the
  // executor re-checks against the *mapped* clustered-space ES, which can
  // turn out empty, and logs the fallback once per engine).
  switch (request.variant) {
    case QueryVariant::kTops:
      if (request.use_fm && plan.psi.is_binary()) {
        plan.fm_fallback = !request.existing_services.empty();
        plan.solver = plan.fm_fallback ? SolverKind::kIncGreedy
                                       : SolverKind::kFmGreedy;
      } else {
        plan.solver = SolverKind::kIncGreedy;
      }
      plan.cacheable = true;
      break;
    case QueryVariant::kTopsCost:
      plan.solver = SolverKind::kCostGreedy;
      break;
    case QueryVariant::kTopsCapacity:
      plan.solver = SolverKind::kCapacityGreedy;
      break;
  }

  // Batch-aware thread allocation (the legacy TopKBatch rule): with at
  // least one query per worker the queries themselves are the
  // parallelism; otherwise each plan keeps the caller's full budget.
  const unsigned resolved = util::ResolveThreads(request.threads);
  plan.threads = batch_size >= resolved ? 1 : request.threads;

  plan.key = CanonicalPlanKey(request, plan.instance);
  if (ctx_ != nullptr) ctx_->plan_seconds->Record(timer.Seconds());
  // Level pre-check keeps the hot path free of the message construction
  // (NC_SLOG builds its line unconditionally).
  if (util::GetLogLevel() <= util::LogLevel::kTrace) {
    NC_SLOG_TRACE("plan")
        .Kv("fingerprint", plan.key.Fingerprint())
        .Kv("k", plan.k)
        .Kv("tau_m", plan.tau_m)
        .Kv("instance", plan.instance)
        .Kv("solver", static_cast<int>(plan.solver))
        .Kv("fm_fallback", plan.fm_fallback)
        .Kv("cacheable", plan.cacheable)
        .Kv("threads", plan.threads);
  }
  return plan;
}

}  // namespace netclus::exec
