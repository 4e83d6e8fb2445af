// Execution statistics for the planner/executor layer.
//
// A StatsRegistry accumulates, thread-safely, what the online path
// actually costs: per-instance cover-build counts and EWMA build
// latencies, EWMA latencies per executor stage (Plan / CoverBuild /
// Solve / Assemble), and cover-sharing counters. The serving layer
// exports a Snapshot through ServerStats so operators can see where
// query time goes and how often covers are reused; the planner reads
// the same numbers when describing its decisions.
//
// ExecContext bundles the registry with the little bit of per-engine
// mutable state the execution layer needs (the warn-once flag for the
// FM + existing-services fallback). One ExecContext lives per Engine
// (replaced with its index) and per NetClusServer — "once per engine"
// semantics fall out of that ownership.
#ifndef NETCLUS_EXEC_STATS_H_
#define NETCLUS_EXEC_STATS_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "util/thread_annotations.h"

namespace netclus::exec {

class StatsRegistry {
 public:
  /// One executor stage's latency account. The EWMA (α = 0.2) tracks the
  /// recent regime; the totals make averages and rates derivable.
  struct StageStats {
    uint64_t count = 0;
    double ewma_seconds = 0.0;
    double total_seconds = 0.0;
  };

  /// Per-resolution-instance cover-build account.
  struct InstanceStats {
    uint64_t cover_builds = 0;
    double ewma_build_seconds = 0.0;
    uint64_t last_cover_bytes = 0;
  };

  struct Snapshot {
    StageStats plan;
    StageStats queue_wait;  ///< admission-to-first-stage wait (async serving)
    StageStats cover_build;
    StageStats solve;
    StageStats assemble;
    /// Indexed by instance id; sized to the largest instance seen.
    std::vector<InstanceStats> instances;
    uint64_t covers_built = 0;
    uint64_t covers_shared = 0;  ///< solves served by a reused cover
    uint64_t fm_fallbacks = 0;
    // Load-shedding accounts for the async serving layer.
    uint64_t shed_overload = 0;  ///< rejected at admission (queues full)
    uint64_t shed_deadline = 0;  ///< dropped after the soft deadline passed
    uint64_t stale_served = 0;   ///< answered from an older snapshot version
  };

  StatsRegistry() = default;
  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  void RecordPlan(double seconds);
  void RecordQueueWait(double seconds);
  void RecordCoverBuild(size_t instance, double seconds, uint64_t bytes);
  void RecordCoverShared();
  void RecordSolve(double seconds);
  void RecordAssemble(double seconds);
  void RecordFmFallback();
  void RecordShedOverload();
  void RecordShedDeadline();
  void RecordStaleServed();

  Snapshot snapshot() const;

  /// Publishes this registry's accounts into `metrics`: real histogram
  /// instruments for the per-stage latencies (Record* observes into them
  /// from then on) and polled counter providers over the sharing/shedding
  /// atomics. Call before concurrent use (ExecContext's constructor does).
  void BindMetrics(obs::MetricsRegistry* metrics);

 private:
  /// One stage's account behind its own lock, so concurrent queries in
  /// different stages never contend (and the sharing counters below are
  /// plain atomics) — the hot serving path takes no registry-wide lock.
  struct StageSlot {
    mutable nc::Mutex mu;
    StageStats stats GUARDED_BY(mu);
    /// Optional registry instrument mirroring this stage; set once by
    /// BindMetrics (atomic so a late bind can't race recorders).
    std::atomic<obs::Histogram*> hist{nullptr};

    void Bump(double seconds) EXCLUDES(mu);
  };

  StageSlot plan_;
  StageSlot queue_wait_;
  StageSlot cover_build_;
  StageSlot solve_;
  StageSlot assemble_;
  mutable nc::Mutex instances_mu_;
  std::vector<InstanceStats> instances_ GUARDED_BY(instances_mu_);
  std::atomic<uint64_t> covers_built_{0};
  std::atomic<uint64_t> covers_shared_{0};
  std::atomic<uint64_t> fm_fallbacks_{0};
  std::atomic<uint64_t> shed_overload_{0};
  std::atomic<uint64_t> shed_deadline_{0};
  std::atomic<uint64_t> stale_served_{0};
};

/// Per-engine execution context: the stats registry, the engine's metrics
/// registry (exported by Engine::DumpMetrics / NetClusServer::DumpMetrics),
/// and warn-once state. Borrowed by every planner and executor instance
/// the owning engine or server creates.
struct ExecContext {
  // Declared before `stats` so it outlives the bound instruments.
  obs::MetricsRegistry metrics;
  StatsRegistry stats;
  std::atomic<bool> fm_fallback_warned{false};

  ExecContext() { stats.BindMetrics(&metrics); }
};

}  // namespace netclus::exec

#endif  // NETCLUS_EXEC_STATS_H_
