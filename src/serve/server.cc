#include "serve/server.h"

#include <exception>
#include <string>
#include <utility>

#include "exec/executor.h"
#include "exec/planner.h"
#include "util/flags.h"
#include "util/logging.h"

namespace netclus::serve {

namespace {

using Lane = util::StagedScheduler::Lane;

size_t SlotOf(Priority priority) { return static_cast<size_t>(priority); }

// Request stages are cheap (plan + cache probes + solve-on-ready-cover);
// only cover builds are heavy. Interactive traffic gets the front lane.
Lane LaneOf(Priority priority) {
  return priority == Priority::kInteractive ? Lane::kFast : Lane::kNormal;
}

uint8_t LaneIdx(Lane lane) { return static_cast<uint8_t>(lane); }

// Worker threads per served read (PlanRequest::threads). Many clients
// submit concurrently and each read runs as scheduler tasks: the
// concurrent clients are the parallelism, so a read plans on one thread.
constexpr uint32_t kReadThreads = 1;

const char* kLaneNames[] = {"fast", "normal", "heavy"};
const char* kPriorityNames[] = {"interactive", "normal", "best_effort"};

/// Registers a cache's counters as netclus_<name>_cache_* series. The
/// provider reads `cache`, which outlives the registry entry by ownership.
template <typename Cache>
void RegisterCacheMetrics(obs::MetricsRegistry& m, const std::string& name,
                          const std::string& label, const Cache& cache) {
  struct Series {
    const char* suffix;
    const char* help;
    bool counter;
    uint64_t CacheStats::*field;
  };
  static constexpr Series kSeries[] = {
      {"hits_total", "finds at the current version, incl. joined builds",
       true, &CacheStats::hits},
      {"misses_total", "builds run (GetOrBuild calls that built)", true,
       &CacheStats::misses},
      {"stale_hits_total", "finds at a previous version (stale serves)",
       true, &CacheStats::stale_hits},
      {"evictions_total", "LRU evictions", true, &CacheStats::evictions},
      {"entries", "resident entries", false, &CacheStats::entries},
      {"resident_bytes", "bytes of completed resident entries", false,
       &CacheStats::resident_bytes},
      {"carried_total", "entries re-keyed across publishes", true,
       &CacheStats::carried},
  };
  const std::string metric_prefix = "netclus_" + name + "_cache_";
  const std::string help_prefix = label + ": ";
  for (const Series& series : kSeries) {
    m.RegisterProvider(metric_prefix + series.suffix, {},
                       help_prefix + series.help, series.counter,
                       [&cache, field = series.field]() {
                         return static_cast<double>(cache.stats().*field);
                       });
  }
}

}  // namespace

const char* StatusName(StatusCode status) {
  switch (status) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kOverloaded: return "OVERLOADED";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kShutdown: return "SHUTDOWN";
    case StatusCode::kInvalidSpec: return "INVALID_SPEC";
  }
  return "UNKNOWN";
}

/// Everything one async request carries across its stages. The canonical
/// spec is stored here (not just the plan) because cost/capacity plans
/// borrow spans into the spec's vectors — the state outlives execution by
/// construction, since every stage holds the shared_ptr.
struct NetClusServer::AsyncState {
  Request request;
  Engine::QuerySpec canon;
  std::promise<Response> promise;
  std::function<void(Response)> callback;
  util::WallTimer timer;  ///< starts at SubmitAsync
  exec::QueryPlan plan;
  bool holds_slot = false;
  SnapshotPtr snap;  ///< the version current at admission
  Response response;
  /// Span collector for this request. Stages run sequentially (scheduler
  /// hand-offs provide happens-before), so it needs no lock.
  obs::TraceContext trace;
  uint64_t queue_end_ns = 0;  ///< when StageAdmit started (tail-kept spans)
  uint8_t lane = 1;           ///< lane of the most recent stage

  bool DeadlineExpired() const {
    return request.soft_deadline_seconds > 0.0 &&
           timer.Seconds() > request.soft_deadline_seconds;
  }
};

NetClusServer::NetClusServer(const Engine& engine, const ServerOptions& options)
    : options_(options),
      cache_(options.cache),
      cover_cache_(options.cover_cache),
      ctx_(std::make_shared<exec::ExecContext>()),
      latency_(ctx_->metrics.GetHistogram("netclus_serve_latency_seconds", {},
                                          "End-to-end kOk serving latency")),
      queries_served_(
          ctx_->metrics.GetCounter("netclus_serve_queries_total", {},
                                   "kOk completions (fresh or stale)")),
      slow_queries_(ctx_->metrics.GetCounter(
          "netclus_serve_slow_queries_total", {},
          "Completions at or above the slow-query threshold")),
      carryover_publishes_(ctx_->metrics.GetCounter(
          "netclus_carryover_publishes_total", {},
          "Publishes processed by delta-aware cache carryover")),
      carryover_clean_partitions_(ctx_->metrics.GetCounter(
          "netclus_carryover_clean_partitions_total", {},
          "Untouched instance partitions across those publishes")) {
  NC_CHECK(engine.index_built()) << "call Engine::BuildIndex() before Serve()";
  // Snapshots are fully self-contained: the network is copied once here
  // (and shared by every subsequent version), the mutable parts are
  // copied once and from then on evolve only through the pipeline's
  // copy-on-write batches. A retained ServeResult/SnapshotPtr therefore
  // stays valid even after the originating Engine is destroyed.
  auto network = std::make_shared<const graph::RoadNetwork>(engine.network());
  auto store =
      std::make_shared<traj::TrajectoryStore>(engine.store(), network.get());
  auto sites = std::make_shared<tops::SiteSet>(engine.sites());
  auto index = std::make_shared<index::MultiIndex>(engine.index().Clone());
  registry_.set_history_limit(options.snapshot_history);
  registry_.Publish(std::make_shared<IndexSnapshot>(
      /*version=*/1, std::move(network), std::move(store), std::move(sites),
      std::move(index)));
  // Chain the server's publish hook (cache carryover + standing queries)
  // in front of any caller-supplied one; both run on the writer thread.
  UpdatePipeline::Options updates = options.updates;
  const auto user_hook = updates.on_publish;
  updates.on_publish = [this, user_hook](uint64_t old_version,
                                         uint64_t new_version,
                                         const DeltaSummary& delta) {
    OnPublish(old_version, new_version, delta);
    if (user_hook) user_hook(old_version, new_version, delta);
  };
  pipeline_ = std::make_unique<UpdatePipeline>(&registry_, updates);
  util::StagedScheduler::Options sched;
  sched.workers = options.scheduler_workers;
  scheduler_ = std::make_unique<util::StagedScheduler>(sched);
  const double sample =
      options.trace_sample >= 0.0
          ? options.trace_sample
          : util::GetEnvDouble("NETCLUS_TRACE_SAMPLE", 0.01);
  const uint64_t seed =
      options.trace_seed >= 0
          ? static_cast<uint64_t>(options.trace_seed)
          : static_cast<uint64_t>(util::GetEnvInt("NETCLUS_TRACE_SEED", 0));
  tracer_ = std::make_unique<obs::Tracer>(
      sample, seed,
      static_cast<size_t>(util::GetEnvInt("NETCLUS_TRACE_RING", 8192)));
  slow_query_seconds_ =
      (options.slow_query_ms >= 0.0
           ? options.slow_query_ms
           : util::GetEnvDouble("NETCLUS_SLOW_QUERY_MS", 0.0)) /
      1e3;
  RegisterMetrics();
  NC_LOG_INFO << "NetClusServer: serving snapshot v1 ("
              << registry_.Acquire()->store().live_count()
              << " live trajectories, "
              << registry_.Acquire()->sites().size() << " sites, "
              << scheduler_->workers() << " scheduler workers)";
}

NetClusServer::~NetClusServer() { Shutdown(); }

// --- async path --------------------------------------------------------------

std::future<Response> NetClusServer::SubmitAsync(Request request) {
  auto state = std::make_shared<AsyncState>();
  state->request = std::move(request);
  std::future<Response> future = state->promise.get_future();
  Enqueue(std::move(state));
  return future;
}

void NetClusServer::SubmitAsync(Request request,
                                std::function<void(Response)> done) {
  auto state = std::make_shared<AsyncState>();
  state->request = std::move(request);
  state->callback = std::move(done);
  Enqueue(std::move(state));
}

void NetClusServer::Enqueue(std::shared_ptr<AsyncState> state) {
  const uint64_t trace_id = state->request.trace_id != 0
                                ? state->request.trace_id
                                : tracer_->NextTraceId();
  state->trace.Start(tracer_.get(), trace_id, tracer_->Sampled(trace_id));
  state->lane = LaneIdx(LaneOf(state->request.priority));
  if (scheduler_->stopping()) {
    Complete(state, StatusCode::kShutdown);
    return;
  }
  const size_t slot = SlotOf(state->request.priority);
  // Admission control: one bounded in-flight budget per priority,
  // released at completion. fetch_add-then-check keeps the reject path
  // lock-free; the momentary overshoot is undone before returning.
  if (admitted_[slot].fetch_add(1, std::memory_order_acq_rel) >=
      options_.admission_capacity[slot]) {
    admitted_[slot].fetch_sub(1, std::memory_order_acq_rel);
    ctx_->shed_overload->Increment();
    state->response.shed = true;
    Complete(state, StatusCode::kOverloaded);
    return;
  }
  state->holds_slot = true;
  const Lane lane = LaneOf(state->request.priority);
  if (!scheduler_->Submit(lane, [this, state] { StageAdmit(state); })) {
    Complete(state, StatusCode::kShutdown);
  }
}

void NetClusServer::StageAdmit(const std::shared_ptr<AsyncState>& state) {
  Response& r = state->response;
  const uint64_t admit_start = obs::TraceNowNs();
  state->queue_end_ns = admit_start;
  state->trace.AddSpan(obs::SpanName::kQueue, state->lane,
                       state->trace.start_ns(), admit_start);
  const auto end_admit_span = [&] {
    state->trace.AddSpan(obs::SpanName::kAdmit, state->lane, admit_start,
                         obs::TraceNowNs());
  };
  r.queue_seconds = state->timer.Seconds();
  ctx_->queue_wait_seconds->Record(r.queue_seconds);
  if (state->DeadlineExpired()) {
    ctx_->shed_deadline->Increment();
    r.shed = true;
    end_admit_span();
    Complete(state, StatusCode::kDeadlineExceeded);
    return;
  }
  state->snap = registry_.Acquire();
  const uint64_t version = state->snap->version();
  state->trace.set_snapshot_version(version);
  // Plan the same canonical form the cache keys on, so permuted
  // existing-services lists (and bit-equivalent ψ spellings) are one
  // query with one bit-exact answer.
  state->canon = CanonicalizeSpec(state->request.spec);
  try {
    const exec::Planner planner(ctx_.get());
    state->plan =
        planner.Plan(state->canon.ToRequest(kReadThreads),
                     state->snap->index(), /*batch_size=*/1);
    exec::Executor(&state->snap->index(), &state->snap->store(),
                   &state->snap->sites(), ctx_.get())
        .ValidatePlan(state->plan);
  } catch (const std::exception& e) {
    NC_SLOG_WARNING("invalid_spec").Kv("what", e.what());
    end_admit_span();
    Complete(state, StatusCode::kInvalidSpec);
    return;
  }
  state->trace.set_plan_fingerprint(state->plan.key.Fingerprint());
  if (state->plan.cacheable) {
    if (std::optional<index::QueryResult> cached =
            cache_.TryGet(version, state->plan.key)) {
      r.result = std::move(*cached);
      r.cache_hit = true;
      r.snapshot = state->snap;
      r.snapshot_version = version;
      end_admit_span();
      Complete(state, StatusCode::kOk);
      return;
    }
  }
  const exec::CoverKey cover_key = state->plan.cover_key();
  // A cover already built for this version means no heavy stage: solve
  // right here on the fast lane. This is what keeps cache-warm queries
  // from ever waiting behind queued builds.
  if (std::optional<exec::CoverPtr> cover =
          cover_cache_.TryGet(version, cover_key)) {
    ctx_->covers_shared->Increment();
    state->trace.AddFlags(obs::kFlagCoverShared);
    end_admit_span();
    FinishOnCover(state, state->snap, *cover, /*cover_reused=*/true,
                  /*stale=*/false);
    return;
  }
  // Backpressure: a fresh answer needs a build. If builds are backed up
  // and the policy tolerates lag, answer from a previous version — the
  // shed work is the *build*, never a cheap hit, and the response is
  // explicitly flagged stale + shed with the version it came from. This
  // runs even with the cover cache disabled: the *result* cache can
  // still serve a previous version's answer.
  const uint64_t max_lag = state->request.staleness.max_version_lag;
  if (max_lag > 0 &&
      scheduler_->QueueDepth(Lane::kHeavy) >= options_.shed_builds_over) {
    uint64_t served_version = 0;
    if (state->plan.cacheable) {
      if (std::optional<index::QueryResult> staler = cache_.TryGet(
              version, state->plan.key, max_lag, &served_version)) {
        r.result = std::move(*staler);
        r.cache_hit = true;
        r.shed = true;
        r.stale = served_version != version;
        r.snapshot_version = served_version;
        r.snapshot = registry_.AcquireVersion(served_version);
        if (r.stale) ctx_->stale_served->Increment();
        end_admit_span();
        Complete(state, StatusCode::kOk);
        return;
      }
    }
    if (std::optional<exec::CoverPtr> cover = cover_cache_.TryGet(
            version, cover_key, max_lag, &served_version)) {
      if (SnapshotPtr old_snap = registry_.AcquireVersion(served_version)) {
        ctx_->covers_shared->Increment();
        state->trace.AddFlags(obs::kFlagCoverShared);
        r.shed = true;
        end_admit_span();
        FinishOnCover(state, old_snap, *cover, /*cover_reused=*/true,
                      /*stale=*/served_version != version);
        return;
      }
    }
    // Nothing stale to serve — fall through and pay for the build.
  }
  end_admit_span();
  if (!scheduler_->Submit(Lane::kHeavy,
                          [this, state] { StageBuild(state); })) {
    Complete(state, StatusCode::kShutdown);
  }
}

void NetClusServer::StageBuild(const std::shared_ptr<AsyncState>& state) {
  state->lane = LaneIdx(Lane::kHeavy);
  if (state->DeadlineExpired()) {
    ctx_->shed_deadline->Increment();
    state->response.shed = true;
    Complete(state, StatusCode::kDeadlineExceeded);
    return;
  }
  const uint64_t build_start = obs::TraceNowNs();
  const SnapshotPtr& snap = state->snap;
  try {
    const exec::Executor executor(&snap->index(), &snap->store(),
                                  &snap->sites(), ctx_.get(),
                                  CoverHooksAt(snap->version()));
    bool reused = false;
    const exec::CoverPtr cover =
        executor.ObtainCover(state->plan, state->plan.threads, &reused);
    if (reused) state->trace.AddFlags(obs::kFlagCoverShared);
    state->trace.AddSpan(obs::SpanName::kCoverBuild, state->lane, build_start,
                         obs::TraceNowNs());
    FinishOnCover(state, snap, cover, reused, /*stale=*/false);
  } catch (const std::exception& e) {
    // The serving boundary returns statuses, not exceptions; a failed
    // build is indistinguishable from a plan the executor refuses.
    NC_SLOG_ERROR("cover_build_failed").Kv("what", e.what());
    Complete(state, StatusCode::kInvalidSpec);
  }
}

void NetClusServer::FinishOnCover(const std::shared_ptr<AsyncState>& state,
                                  const SnapshotPtr& snap,
                                  const exec::CoverPtr& cover,
                                  bool cover_reused, bool stale) {
  Response& r = state->response;
  const uint64_t exec_start = obs::TraceNowNs();
  const auto solve = [&] {
    return exec::Executor(&snap->index(), &snap->store(), &snap->sites(),
                          ctx_.get())
        .ExecuteOnCover(state->plan, cover, cover_reused);
  };
  // Identical reads in flight together run one solve: the others join it
  // and count as cache hits. A stale answer caches at its own version.
  r.result = state->plan.cacheable
                 ? cache_.GetOrBuild(snap->version(), state->plan.key, solve,
                                     &r.cache_hit)
                 : solve();
  const uint64_t exec_end = obs::TraceNowNs();
  // A read that joined another's solve ran none, so it has no solve span.
  if (state->trace.sampled() && !r.cache_hit) {
    // The executor times its solve phase internally; carve the execute
    // window into Solve + Assemble from that measurement so both stages
    // show up without instrumenting executor internals.
    uint64_t solve_ns = static_cast<uint64_t>(
        r.result.selection.solve_seconds * 1e9);
    if (exec_start + solve_ns > exec_end) solve_ns = exec_end - exec_start;
    state->trace.AddSpan(obs::SpanName::kSolve, state->lane, exec_start,
                         exec_start + solve_ns);
    state->trace.AddSpan(obs::SpanName::kAssemble, state->lane,
                         exec_start + solve_ns, exec_end);
  }
  r.snapshot = snap;
  r.snapshot_version = snap->version();
  r.stale = stale;
  if (stale) ctx_->stale_served->Increment();
  state->trace.AddSpan(obs::SpanName::kFinish, state->lane, exec_end,
                       obs::TraceNowNs());
  Complete(state, StatusCode::kOk);
}

void NetClusServer::Complete(const std::shared_ptr<AsyncState>& state,
                             StatusCode status) {
  Response& r = state->response;
  r.status = status;
  r.latency_seconds = state->timer.Seconds();
  if (state->holds_slot) {
    admitted_[SlotOf(state->request.priority)].fetch_sub(
        1, std::memory_order_acq_rel);
    state->holds_slot = false;
  }
  if (status == StatusCode::kOk) {
    latency_->Record(r.latency_seconds);
    queries_served_->Increment();
  }
  if (r.cache_hit) state->trace.AddFlags(obs::kFlagCacheHit);
  if (r.stale) state->trace.AddFlags(obs::kFlagStale);
  if (r.shed) state->trace.AddFlags(obs::kFlagShed);
  if (status != StatusCode::kOk) state->trace.AddFlags(obs::kFlagError);
  const bool slow =
      slow_query_seconds_ > 0.0 && r.latency_seconds >= slow_query_seconds_;
  // Tail keep: slow, shed, or errored requests always leave spans, even
  // when head sampling skipped them.
  state->trace.Finish(state->lane,
                      slow || r.shed || status != StatusCode::kOk,
                      state->queue_end_ns);
  if (slow) {
    slow_queries_->Increment();
    NC_SLOG_WARNING("slow_query")
        .Kv("trace_id", state->trace.trace_id())
        .Kv("latency_ms", r.latency_seconds * 1e3)
        .Kv("queue_ms", r.queue_seconds * 1e3)
        .Kv("status", StatusName(status))
        .Kv("priority", kPriorityNames[SlotOf(state->request.priority)])
        .Kv("snapshot", r.snapshot_version)
        .Kv("plan", state->plan.key.Fingerprint())
        .Kv("cache_hit", r.cache_hit)
        .Kv("stale", r.stale)
        .Kv("shed", r.shed);
  }
  if (state->callback) {
    state->callback(std::move(r));
  } else {
    state->promise.set_value(std::move(r));
  }
}

// --- standing-query evaluator ------------------------------------------------

index::QueryResult NetClusServer::AnswerInline(const Engine::QuerySpec& spec,
                                               const SnapshotPtr& snap) {
  const Engine::QuerySpec canon = CanonicalizeSpec(spec);
  try {
    const exec::Planner planner(ctx_.get());
    const exec::QueryPlan plan = planner.Plan(
        canon.ToRequest(kReadThreads), snap->index(), /*batch_size=*/1);
    const exec::Executor executor(&snap->index(), &snap->store(),
                                  &snap->sites(), ctx_.get(),
                                  CoverHooksAt(snap->version()));
    const auto solve = [&] { return executor.Execute(plan); };
    bool cache_hit = false;
    return plan.cacheable ? cache_.GetOrBuild(snap->version(), plan.key,
                                              solve, &cache_hit)
                          : solve();
  } catch (const std::exception& e) {
    NC_SLOG_WARNING("invalid_spec").Kv("what", e.what());
    return {};
  }
}

// --- writes / lifecycle -------------------------------------------------------

UpdateTicket NetClusServer::Mutate(UpdateOp op) {
  return pipeline_->Enqueue(std::move(op));
}

UpdateTicket NetClusServer::MutateAddTrajectory(
    std::vector<graph::NodeId> nodes) {
  return Mutate(UpdateOp::AddTrajectory(std::move(nodes)));
}

UpdateTicket NetClusServer::MutateRemoveTrajectory(traj::TrajId id) {
  return Mutate(UpdateOp::RemoveTrajectory(id));
}

UpdateTicket NetClusServer::MutateAddSite(graph::NodeId node) {
  return Mutate(UpdateOp::AddSite(node));
}

void NetClusServer::Flush() { pipeline_->Flush(); }

exec::CoverHooks NetClusServer::CoverHooksAt(uint64_t version) {
  exec::CoverHooks hooks;
  hooks.acquire = [this, version](const exec::CoverKey& key,
                                  const std::function<exec::CoverPtr()>& build,
                                  bool* reused) {
    return cover_cache_.GetOrBuild(version, key, build, reused);
  };
  return hooks;
}

void NetClusServer::OnPublish(uint64_t old_version, uint64_t new_version,
                              const DeltaSummary& delta) {
  if (options_.carryover) {
    carryover_publishes_->Increment();
    carryover_clean_partitions_->Increment(delta.dirty.size() -
                                           delta.DirtyCount());
    // Covers first: a carried query-cache entry implies its partition is
    // clean, so its cover carries too — keeping both warm means a
    // standing-query re-evaluation below is a lookup, not a build.
    cover_cache_.CarryForward(old_version, new_version, delta);
    cache_.CarryForward(old_version, new_version, delta);
  }
  standing_.OnPublish(new_version, delta,
                      [this](const Engine::QuerySpec& spec) {
                        return AnswerInline(spec, registry_.Acquire());
                      });
}

uint64_t NetClusServer::RegisterStanding(const Engine::QuerySpec& spec,
                                         StalenessPolicy staleness,
                                         StandingCallback callback) {
  const SnapshotPtr snap = registry_.Acquire();
  Engine::QuerySpec canon = CanonicalizeSpec(spec);
  exec::QueryPlan plan;
  try {
    const exec::Planner planner(ctx_.get());
    plan = planner.Plan(canon.ToRequest(kReadThreads), snap->index(),
                        /*batch_size=*/1);
    exec::Executor(&snap->index(), &snap->store(), &snap->sites(), ctx_.get())
        .ValidatePlan(plan);
  } catch (const std::exception& e) {
    NC_SLOG_WARNING("standing_invalid_spec").Kv("what", e.what());
    return 0;
  }
  return standing_.Register(std::move(canon), plan.instance,
                            staleness.max_version_lag, std::move(callback),
                            snap->version(),
                            [this](const Engine::QuerySpec& s) {
                              return AnswerInline(s, registry_.Acquire());
                            });
}

bool NetClusServer::UnregisterStanding(uint64_t id) {
  return standing_.Unregister(id);
}

void NetClusServer::Shutdown() {
  // Drain the async readers first (their stages may still acquire
  // snapshots), then the writer.
  scheduler_->Shutdown();
  pipeline_->Shutdown();
}

void NetClusServer::RegisterMetrics() {
  obs::MetricsRegistry& m = ctx_->metrics;
  // The stage histograms and exec/shed counters are ExecContext's own
  // instruments, and the serving latency and counters were created in the
  // constructor; everything below is polled from the serving structs.
  // Providers capture `this`, which outlives ctx_->metrics by ownership.
  for (size_t i = 0; i < util::StagedScheduler::kLanes; ++i) {
    const Lane lane = static_cast<Lane>(i);
    m.RegisterProvider("netclus_sched_queue_depth",
                       {{"lane", kLaneNames[i]}},
                       "Tasks waiting in the lane's injector queue",
                       /*counter=*/false, [this, lane]() {
                         return static_cast<double>(
                             scheduler_->QueueDepth(lane));
                       });
    m.RegisterProvider("netclus_sched_executed_total",
                       {{"lane", kLaneNames[i]}},
                       "Tasks run to completion by claim lane",
                       /*counter=*/true, [this, i]() {
                         return static_cast<double>(
                             scheduler_->stats().executed_lane[i]);
                       });
    m.RegisterProvider("netclus_sched_injected_total",
                       {{"lane", kLaneNames[i]}},
                       "External submits per lane", /*counter=*/true,
                       [this, i]() {
                         return static_cast<double>(
                             scheduler_->stats().injected[i]);
                       });
  }
  m.RegisterProvider("netclus_sched_stolen_total", {},
                     "Tasks stolen from another worker's deque",
                     /*counter=*/true, [this]() {
                       return static_cast<double>(scheduler_->stats().stolen);
                     });
  m.RegisterProvider("netclus_sched_utilization", {},
                     "Mean fraction of the pool running a task",
                     /*counter=*/false, [this]() {
                       return scheduler_->stats().utilization;
                     });
  m.RegisterProvider("netclus_sched_workers", {}, "Scheduler pool size",
                     /*counter=*/false, [this]() {
                       return static_cast<double>(scheduler_->workers());
                     });

  RegisterCacheMetrics(m, "query", "Result cache", cache_);
  RegisterCacheMetrics(m, "cover", "Cover cache", cover_cache_);

  const auto standing_stat =
      [this](uint64_t StandingQueryRegistry::Stats::*field) {
        return [this, field]() {
          return static_cast<double>(standing_.stats().*field);
        };
      };
  m.RegisterProvider("netclus_standing_active", {},
                     "Currently registered standing queries", false,
                     standing_stat(&StandingQueryRegistry::Stats::active));
  m.RegisterProvider(
      "netclus_standing_evaluations_total", {},
      "Standing-query evaluations run (incl. initial)", true,
      standing_stat(&StandingQueryRegistry::Stats::evaluations));
  m.RegisterProvider("netclus_standing_pushes_total", {},
                     "Standing-query callbacks invoked (changed results)",
                     true,
                     standing_stat(&StandingQueryRegistry::Stats::pushes));
  m.RegisterProvider(
      "netclus_standing_skipped_clean_total", {},
      "Publishes skipped because the entry's instance was untouched", true,
      standing_stat(&StandingQueryRegistry::Stats::skipped_clean));
  m.RegisterProvider("netclus_standing_deferred_total", {},
                     "Dirty publishes coalesced within the staleness budget",
                     true,
                     standing_stat(&StandingQueryRegistry::Stats::deferred));

  m.RegisterProvider("netclus_update_queue_depth", {},
                     "Mutations accepted but not yet applied", false,
                     [this]() {
                       return static_cast<double>(pipeline_->QueueDepth());
                     });
  const auto update_stat = [this](uint64_t UpdatePipeline::Stats::*field) {
    return [this, field]() {
      return static_cast<double>(pipeline_->stats().*field);
    };
  };
  m.RegisterProvider("netclus_update_ops_enqueued_total", {},
                     "Mutations accepted at Enqueue", true,
                     update_stat(&UpdatePipeline::Stats::ops_enqueued));
  m.RegisterProvider("netclus_update_ops_applied_total", {},
                     "Mutations applied and published", true,
                     update_stat(&UpdatePipeline::Stats::ops_applied));
  m.RegisterProvider("netclus_update_ops_rejected_total", {},
                     "Mutations rejected at Enqueue", true,
                     update_stat(&UpdatePipeline::Stats::ops_rejected));
  m.RegisterProvider("netclus_update_batches_published_total", {},
                     "Snapshot versions published by the writer", true,
                     update_stat(&UpdatePipeline::Stats::batches_published));

  m.RegisterProvider("netclus_snapshot_version", {},
                     "Currently published snapshot version", false, [this]() {
                       return static_cast<double>(registry_.current_version());
                     });
  for (size_t p = 0; p < kNumPriorities; ++p) {
    m.RegisterProvider("netclus_serve_admitted",
                       {{"priority", kPriorityNames[p]}},
                       "In-flight admitted requests", false, [this, p]() {
                         return static_cast<double>(
                             admitted_[p].load(std::memory_order_relaxed));
                       });
  }
  m.RegisterProvider("netclus_trace_spans_total", {},
                     "Spans pushed into the trace ring", true, [this]() {
                       return static_cast<double>(tracer_->recorded());
                     });
}

ServerStats NetClusServer::stats() const {
  ServerStats s;
  s.queries_served = queries_served_->Value();
  s.uptime_seconds = uptime_.Seconds();
  s.qps = s.uptime_seconds > 0.0
              ? static_cast<double>(s.queries_served) / s.uptime_seconds
              : 0.0;
  s.latency_p50_ms = latency_->PercentileSeconds(0.50) * 1e3;
  s.latency_p95_ms = latency_->PercentileSeconds(0.95) * 1e3;
  s.latency_p99_ms = latency_->PercentileSeconds(0.99) * 1e3;
  s.latency_p999_ms = latency_->PercentileSeconds(0.999) * 1e3;
  s.latency_mean_ms = latency_->MeanSeconds() * 1e3;
  s.latency_overflow = latency_->overflow_count();
  s.cache = cache_.stats();
  s.cover_cache = cover_cache_.stats();
  s.exec = ctx_->Read();
  s.updates = pipeline_->stats();
  s.scheduler = scheduler_->stats();
  s.standing = standing_.stats();
  s.carryover_publishes = carryover_publishes_->Value();
  s.carryover_clean_partitions = carryover_clean_partitions_->Value();
  s.snapshot_version = registry_.current_version();
  return s;
}

}  // namespace netclus::serve

namespace netclus {

std::unique_ptr<serve::NetClusServer> Engine::Serve() const {
  return Serve(serve::ServerOptions());
}

std::unique_ptr<serve::NetClusServer> Engine::Serve(
    const serve::ServerOptions& options) const {
  return std::make_unique<serve::NetClusServer>(*this, options);
}

}  // namespace netclus
