// Execution context for the planner/executor layer.
//
// An ExecContext owns the metrics registry that Engine::DumpMetrics and
// NetClusServer::DumpMetrics export, and holds the execution layer's
// instruments in it: one netclus_exec_stage_seconds{stage} histogram per
// executor stage (plan / queue_wait / cover_build / solve / assemble) and
// six counters (cover sharing, FM fallbacks, load shedding). The planner,
// executor and server record into those instruments directly — one
// relaxed atomic add per sample, no lock — so each number has exactly one
// record. Read() is a plain read of them; Engine::ExecStats() and
// ServerStats::exec return it.
//
// It also carries the little bit of per-engine mutable state the
// execution layer needs (the warn-once flag for the FM + existing-services
// fallback). One ExecContext lives per Engine (replaced with its index)
// and per NetClusServer — "once per engine" semantics fall out of that
// ownership.
#ifndef NETCLUS_EXEC_STATS_H_
#define NETCLUS_EXEC_STATS_H_

#include <atomic>
#include <cstdint>

#include "obs/metrics.h"
#include "util/histogram.h"

namespace netclus::exec {

/// A read of an ExecContext's instruments.
struct ExecStats {
  /// One executor stage: samples recorded and their sum.
  struct Stage {
    uint64_t count = 0;
    double total_seconds = 0.0;
  };

  Stage plan;
  Stage queue_wait;  ///< admission-to-first-stage wait (async serving)
  Stage cover_build;
  Stage solve;
  Stage assemble;
  uint64_t covers_built = 0;
  uint64_t covers_shared = 0;  ///< solves served by a reused cover
  uint64_t fm_fallbacks = 0;
  // Load-shedding accounts for the async serving layer.
  uint64_t shed_overload = 0;  ///< rejected at admission (queues full)
  uint64_t shed_deadline = 0;  ///< dropped after the soft deadline passed
  uint64_t stale_served = 0;   ///< answered from an older snapshot version
};

/// Per-engine execution context. Borrowed by every planner and executor
/// instance the owning engine or server creates.
struct ExecContext {
  ExecContext();
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  ExecStats Read() const;

  // Declared first: owns every instrument below.
  obs::MetricsRegistry metrics;
  util::LatencyHistogram* const plan_seconds;
  util::LatencyHistogram* const queue_wait_seconds;
  util::LatencyHistogram* const cover_build_seconds;
  util::LatencyHistogram* const solve_seconds;
  util::LatencyHistogram* const assemble_seconds;
  obs::Counter* const covers_built;
  obs::Counter* const covers_shared;
  obs::Counter* const fm_fallbacks;
  obs::Counter* const shed_overload;
  obs::Counter* const shed_deadline;
  obs::Counter* const stale_served;
  std::atomic<bool> fm_fallback_warned{false};
};

}  // namespace netclus::exec

#endif  // NETCLUS_EXEC_STATS_H_
