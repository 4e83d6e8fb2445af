// NetClusServer — the long-lived concurrent serving facade over Engine.
//
// Composition of the serve/ pieces:
//   SnapshotRegistry  — current immutable (store, sites, index) version,
//                       plus a bounded history window for stale serving;
//   UpdatePipeline    — single writer applying Sec. 6 incremental updates
//                       in batches, publishing a new snapshot per batch;
//   QueryCache        — versioned result cache over canonical plans;
//   CoverCache        — versioned cover sharing across queries (both
//                       VersionedCache instances, build-once per key);
//   StagedScheduler   — work-stealing pool running the async request
//                       stages (admit/solve on the fast lanes, cover
//                       builds on the heavy lane);
//   ExecContext       — the metrics registry and its instruments: stage
//                       histograms, exec/shed counters, and the served
//                       reads' latency histogram (p50..p999).
//
// Serving API v2 is asynchronous: SubmitAsync(Request) enqueues onto a
// bounded per-priority admission queue and returns a future (or invokes a
// completion callback); the request's stages then run as stealable
// scheduler tasks. Admission control rejects at enqueue (kOverloaded)
// when the priority's queue is full. Backpressure sheds cover *builds*
// first: when the heavy lane is backed up and the request's staleness
// policy permits, the server answers from a previous snapshot version via
// the result/cover caches (flagged `stale` + `shed`) instead of queueing
// a fresh build; cheap cache hits are never shed. SubmitAsync is the only
// read entry point: a caller that wants to block calls .get() on the
// future.
//
// Determinism: every kOk fresh response is bit-identical to a serial
// replay of the canonical spec on the snapshot version that served it,
// regardless of which worker ran which stage; stale responses are
// bit-identical to the same replay at their (older) served version and
// are always flagged — never silently wrong.
//
// Shutdown() is a graceful drain: in-flight requests complete, new
// SubmitAsync calls complete with kShutdown, new mutations are rejected,
// and queued mutations are applied and published.
#ifndef NETCLUS_SERVE_SERVER_H_
#define NETCLUS_SERVE_SERVER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <vector>

#include "api/engine.h"
#include "exec/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/delta.h"
#include "serve/query_cache.h"
#include "serve/snapshot.h"
#include "serve/standing.h"
#include "serve/update_pipeline.h"
#include "util/histogram.h"
#include "util/scheduler.h"
#include "util/timer.h"

namespace netclus::serve {

/// How a request ended. No exception escapes the serving boundary: spec
/// validation failures arrive as kInvalidSpec, overload as kOverloaded.
enum class StatusCode : uint8_t {
  kOk = 0,
  kOverloaded = 1,        ///< rejected at admission: priority queue full
  kDeadlineExceeded = 2,  ///< soft deadline passed before the answer
  kShutdown = 3,          ///< server shut down before/while processing
  kInvalidSpec = 4,       ///< malformed spec (payload size, cost <= 0, ...)
};

const char* StatusName(StatusCode status);

/// Admission class. Each priority has its own bounded queue; the two
/// interactive classes map to the scheduler's faster lanes.
enum class Priority : uint8_t {
  kInteractive = 0,  ///< latency-sensitive, fast lane
  kNormal = 1,       ///< default
  kBestEffort = 2,   ///< first to feel backpressure
};
inline constexpr size_t kNumPriorities = 3;

/// How stale an answer the caller tolerates, in snapshot versions.
struct StalenessPolicy {
  /// 0 = only the version current at admission (fresh). n = any of the n
  /// preceding versions is acceptable under backpressure.
  uint64_t max_version_lag = 0;

  static StalenessPolicy Fresh() { return {}; }
  static StalenessPolicy AllowStaleVersion(uint64_t lag) { return {lag}; }
};

/// One asynchronous serving request.
struct Request {
  Engine::QuerySpec spec;
  Priority priority = Priority::kNormal;
  /// Soft deadline in seconds from SubmitAsync; 0 = none. Checked at
  /// stage boundaries (not preemptive): an expired request completes
  /// with kDeadlineExceeded instead of starting its next stage.
  double soft_deadline_seconds = 0.0;
  StalenessPolicy staleness;
  /// Trace id linking this request's spans. 0 (default) lets the server
  /// assign one; set it to propagate an upstream request id into traces
  /// and the slow-query log.
  uint64_t trace_id = 0;
};

/// One answered (or refused) query, with its serving metadata.
struct ServeResult {
  /// Meaningful only when status == kOk.
  index::QueryResult result;
  /// The snapshot the query was answered on — retained so callers (and
  /// tests) can replay the query serially against the exact same
  /// version. May be null for a stale answer whose version aged out of
  /// the registry history (the version number still identifies it), and
  /// is null for non-kOk responses.
  SnapshotPtr snapshot;
  uint64_t snapshot_version = 0;
  StatusCode status = StatusCode::kOk;
  bool cache_hit = false;
  /// Answered from an older snapshot than the one current at admission
  /// (only ever true when the request's staleness policy permitted it).
  bool stale = false;
  /// The backpressure/admission path refused to do the full fresh work
  /// (kOverloaded / kDeadlineExceeded, or a stale kOk under load).
  bool shed = false;
  /// Admission-to-first-stage wait.
  double queue_seconds = 0.0;
  double latency_seconds = 0.0;
};

using Response = ServeResult;

struct ServerOptions {
  /// Result cache; capacity = 0 disables it.
  CacheOptions cache;
  /// Cross-query T̂C sharing (docs/query_planning.md): queries with the
  /// same (snapshot, instance, τ) reuse one cover build even when k, ψ,
  /// or ES differ. capacity = 0 disables it. Covers are large (Σ |T̂C|
  /// per instance) and live traffic has few distinct (instance, τ)
  /// pairs, so the budget stays small.
  CacheOptions cover_cache = {/*capacity=*/32, /*shards=*/8};
  UpdatePipeline::Options updates;
  /// Scheduler pool size (0 = NETCLUS_SCHED_WORKERS, else
  /// min(hardware_concurrency, 8), at least 2).
  uint32_t scheduler_workers = 0;
  /// Bounded admission queue per priority (in-flight requests admitted
  /// and not yet completed); a full queue rejects with kOverloaded.
  /// 0 rejects everything of that priority — useful in tests.
  std::array<size_t, kNumPriorities> admission_capacity = {4096, 4096, 4096};
  /// Backpressure threshold: when the heavy lane has at least this many
  /// queued cover builds, requests whose staleness policy permits are
  /// answered stale instead of enqueueing another build. 0 = always
  /// prefer a stale answer over a new build when the policy allows it.
  size_t shed_builds_over = 8;
  /// Superseded snapshot versions kept acquirable for stale serving
  /// (SnapshotRegistry::set_history_limit).
  size_t snapshot_history = 4;
  /// Head-sampling fraction for request tracing, in [0, 1]. Negative
  /// (default) resolves NETCLUS_TRACE_SAMPLE (default 0.01). Slow, shed,
  /// and errored requests are tail-kept regardless of sampling.
  double trace_sample = -1.0;
  /// Seed for the deterministic sampling hash. Negative (default)
  /// resolves NETCLUS_TRACE_SEED (default 0).
  int64_t trace_seed = -1;
  /// Slow-query log threshold in milliseconds: completions at or above it
  /// emit a structured `slow_query` WARNING line. Negative (default)
  /// resolves NETCLUS_SLOW_QUERY_MS; 0 disables the log.
  double slow_query_ms = -1.0;
  /// Delta-aware cache carryover across snapshot publishes: re-key
  /// query/cover cache entries whose (instance, τ) partition a publish
  /// provably did not touch (see delta.h) instead of letting every
  /// publish reset the caches to cold. Results are bit-identical either
  /// way.
  bool carryover = true;
};

struct ServerStats {
  /// kOk SubmitAsync completions (fresh or stale). Standing-query
  /// evaluations bypass admission and count only in standing.evaluations;
  /// the latency figures below cover the same reads.
  uint64_t queries_served = 0;
  double qps = 0.0;  ///< queries_served / uptime
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_p999_ms = 0.0;
  double latency_mean_ms = 0.0;
  /// Samples beyond the histogram range (> 100 s); nonzero means the
  /// tail percentiles above are range-clamped.
  uint64_t latency_overflow = 0;
  /// Counting contract: see CacheStats.
  CacheStats cache;
  CacheStats cover_cache;
  /// Planner/executor stage counts and total seconds, queue waits, and
  /// the cover-sharing and shed/stale counters: a read of this server's
  /// exec::ExecContext instruments.
  exec::ExecStats exec;
  UpdatePipeline::Stats updates;
  util::StagedScheduler::Stats scheduler;
  StandingQueryRegistry::Stats standing;
  /// Publishes processed by the carryover hook (0 when disabled).
  uint64_t carryover_publishes = 0;
  /// Σ untouched (instance) partitions across those publishes — the
  /// opportunity the caches carried entries within.
  uint64_t carryover_clean_partitions = 0;
  uint64_t snapshot_version = 0;
  double uptime_seconds = 0.0;
};

class NetClusServer {
 public:
  /// Boots from the engine's current state: copies the network, corpus,
  /// and sites, clones the built index, publishes version 1. The engine
  /// must have a built index; after construction the server (and any
  /// retained ServeResult/SnapshotPtr) is independent of the engine's
  /// lifetime. Once serving, route mutations through Mutate*, not
  /// through the engine.
  NetClusServer(const Engine& engine, const ServerOptions& options);
  ~NetClusServer();

  NetClusServer(const NetClusServer&) = delete;
  NetClusServer& operator=(const NetClusServer&) = delete;

  // --- reads ---------------------------------------------------------------

  /// Enqueues one request; the returned future resolves when its stages
  /// complete (or it is refused — the Response::status tells). Thread-
  /// safe; never throws for spec errors (kInvalidSpec) and never blocks
  /// beyond the admission check.
  std::future<Response> SubmitAsync(Request request);

  /// Callback flavor: `done` is invoked exactly once, from a scheduler
  /// worker (or inline when refused at admission). The callback must not
  /// block for long — it runs on the serving pool.
  void SubmitAsync(Request request, std::function<void(Response)> done);

  // --- writes --------------------------------------------------------------

  /// Queues a mutation; see UpdatePipeline. Thread-safe.
  UpdateTicket Mutate(UpdateOp op);

  /// Convenience wrappers.
  UpdateTicket MutateAddTrajectory(std::vector<graph::NodeId> nodes);
  UpdateTicket MutateRemoveTrajectory(traj::TrajId id);
  UpdateTicket MutateAddSite(graph::NodeId node);

  /// Blocks until every mutation accepted so far is published.
  void Flush();

  // --- standing queries ----------------------------------------------------

  /// Registers a continuous TOPS query: `callback` is invoked immediately
  /// with the current answer (first = true), then again after any publish
  /// that may have changed it — with the top-k membership diff — subject
  /// to the delta gating and the staleness budget (see standing.h;
  /// `staleness.max_version_lag` is the number of dirty publishes the
  /// entry may coalesce before re-evaluating). Callbacks after the first
  /// run on the update pipeline's writer thread and must not block or
  /// call Flush/Mutate-and-wait. Returns the id for UnregisterStanding,
  /// or 0 when the spec fails validation. Thread-safe.
  uint64_t RegisterStanding(const Engine::QuerySpec& spec,
                            StalenessPolicy staleness,
                            StandingCallback callback);

  /// Removes a standing query; after it returns the callback will not be
  /// invoked again. Safe from within the entry's own callback. Returns
  /// false for an unknown id. Thread-safe.
  bool UnregisterStanding(uint64_t id);

  // --- lifecycle / introspection -------------------------------------------

  /// Graceful drain: in-flight requests complete, the scheduler joins,
  /// new mutations are rejected, queued ones are applied and published.
  /// Reads submitted afterwards complete with kShutdown. Idempotent.
  void Shutdown();

  /// The current snapshot (never null).
  SnapshotPtr snapshot() const { return registry_.Acquire(); }

  ServerStats stats() const;

  /// Exports every registered instrument — scheduler lanes, caches,
  /// admission/shedding counters, stage and end-to-end latency histograms
  /// — as Prometheus text (default) or JSON.
  std::string DumpMetrics(
      obs::ExportFormat format = obs::ExportFormat::kPrometheusText) const {
    return ctx_->metrics.Export(format);
  }

  /// Chrome trace_event JSON of the span ring (sampled + tail-kept
  /// requests); loads directly in chrome://tracing / Perfetto.
  std::string DumpTraces() const { return tracer_->DumpChromeTrace(); }

  /// This server's metrics registry (instruments may be added by callers).
  obs::MetricsRegistry& metrics() const { return ctx_->metrics; }

  /// This server's tracer (sampling knobs, raw span access).
  obs::Tracer& tracer() const { return *tracer_; }

 private:
  struct AsyncState;

  /// Admission control + first enqueue; completes the state immediately
  /// on refusal.
  void Enqueue(std::shared_ptr<AsyncState> state);
  /// Stage 1 (fast/normal lane): queue-wait accounting, deadline check,
  /// canonicalize + plan + validate, result-cache lookup, ready-cover
  /// solve, backpressure stale-serve, or hand-off to StageBuild.
  void StageAdmit(const std::shared_ptr<AsyncState>& state);
  /// Stage 2 (heavy lane): cover build (rendezvoused through the cover
  /// cache), then solve + assemble.
  void StageBuild(const std::shared_ptr<AsyncState>& state);
  /// Solve + assemble on a ready cover against `snap` through the result
  /// cache's build-once rendezvous (a read that joins another's solve is
  /// a cache hit), complete kOk.
  void FinishOnCover(const std::shared_ptr<AsyncState>& state,
                     const SnapshotPtr& snap, const exec::CoverPtr& cover,
                     bool cover_reused, bool stale);
  /// Fulfills promise/callback, releases the admission slot, and records
  /// kOk completions into the latency histogram and served-reads counter.
  void Complete(const std::shared_ptr<AsyncState>& state, StatusCode status);

  /// The standing-query evaluator (registration and publish-time
  /// re-evaluation, on the caller's or the writer's thread): plan, cache,
  /// execute inline on `snap`, bypassing admission — so it records into
  /// no served-read figure. An invalid spec answers an empty result.
  index::QueryResult AnswerInline(const Engine::QuerySpec& spec,
                                  const SnapshotPtr& snap);

  /// Cover source for executors on snapshot `version`: the cover cache.
  exec::CoverHooks CoverHooksAt(uint64_t version);

  /// Update-pipeline publish hook (writer thread): carry the caches
  /// forward under the delta, then delta-gate standing-query
  /// re-evaluation.
  void OnPublish(uint64_t old_version, uint64_t new_version,
                 const DeltaSummary& delta);

  /// Registers the serving-layer providers (scheduler lanes, caches,
  /// standing queries, update pipeline, snapshot version) into
  /// ctx_->metrics. Called once from the constructor; providers capture
  /// `this`.
  void RegisterMetrics();

  ServerOptions options_;
  SnapshotRegistry registry_;
  QueryCache cache_;
  CoverCache cover_cache_;
  StandingQueryRegistry standing_;
  /// Per-server execution context: the metrics registry with the stage
  /// histograms and exec/shed counters, plus warn-once state, shared by
  /// every query's planner/executor run.
  std::shared_ptr<exec::ExecContext> ctx_;
  // The serving layer's own instruments, owned by ctx_->metrics.
  util::LatencyHistogram* const latency_;  ///< kOk SubmitAsync reads
  obs::Counter* const queries_served_;     ///< kOk SubmitAsync reads
  obs::Counter* const slow_queries_;
  obs::Counter* const carryover_publishes_;
  obs::Counter* const carryover_clean_partitions_;
  std::unique_ptr<UpdatePipeline> pipeline_;
  std::unique_ptr<util::StagedScheduler> scheduler_;
  /// In-flight admitted requests per priority, against
  /// ServerOptions::admission_capacity.
  std::array<std::atomic<size_t>, kNumPriorities> admitted_{};
  util::WallTimer uptime_;
  std::unique_ptr<obs::Tracer> tracer_;
  /// Resolved slow-query threshold in seconds; <= 0 disables the log.
  double slow_query_seconds_ = 0.0;
};

}  // namespace netclus::serve

#endif  // NETCLUS_SERVE_SERVER_H_
