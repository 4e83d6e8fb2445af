#include "exec/stats.h"

namespace netclus::exec {

namespace {

util::LatencyHistogram* StageHistogram(obs::MetricsRegistry& metrics,
                                       const char* stage) {
  return metrics.GetHistogram("netclus_exec_stage_seconds",
                              {{"stage", stage}},
                              "Executor stage latency by stage");
}

ExecStats::Stage ReadStage(const util::LatencyHistogram& hist) {
  return {hist.count(), hist.total_seconds()};
}

}  // namespace

ExecContext::ExecContext()
    : plan_seconds(StageHistogram(metrics, "plan")),
      queue_wait_seconds(StageHistogram(metrics, "queue_wait")),
      cover_build_seconds(StageHistogram(metrics, "cover_build")),
      solve_seconds(StageHistogram(metrics, "solve")),
      assemble_seconds(StageHistogram(metrics, "assemble")),
      covers_built(metrics.GetCounter("netclus_exec_covers_built_total", {},
                                      "Approximate covering sets constructed")),
      covers_shared(metrics.GetCounter("netclus_exec_covers_shared_total", {},
                                       "Solves served by a reused cover")),
      fm_fallbacks(
          metrics.GetCounter("netclus_exec_fm_fallbacks_total", {},
                             "FM + existing-services exact fallbacks")),
      shed_overload(
          metrics.GetCounter("netclus_serve_shed_overload_total", {},
                             "Requests rejected at admission (queues full)")),
      shed_deadline(
          metrics.GetCounter("netclus_serve_shed_deadline_total", {},
                             "Requests dropped past their soft deadline")),
      stale_served(metrics.GetCounter(
          "netclus_serve_stale_served_total", {},
          "Requests answered from an older snapshot version")) {}

ExecStats ExecContext::Read() const {
  ExecStats out;
  out.plan = ReadStage(*plan_seconds);
  out.queue_wait = ReadStage(*queue_wait_seconds);
  out.cover_build = ReadStage(*cover_build_seconds);
  out.solve = ReadStage(*solve_seconds);
  out.assemble = ReadStage(*assemble_seconds);
  out.covers_built = covers_built->Value();
  out.covers_shared = covers_shared->Value();
  out.fm_fallbacks = fm_fallbacks->Value();
  out.shed_overload = shed_overload->Value();
  out.shed_deadline = shed_deadline->Value();
  out.stale_served = stale_served->Value();
  return out;
}

}  // namespace netclus::exec
