// Shared machinery for the paper-reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper's
// Section 8 on a scaled synthetic dataset (see DESIGN.md for the
// substitution rationale). Conventions:
//  * knobs come from NETCLUS_* env vars with paper defaults;
//  * NETCLUS_SCALE multiplies dataset sizes (default 1.0; each bench also
//    applies its own base scale so the full suite stays laptop-fast);
//  * every bench prints a `paper_shape:` line stating what qualitative
//    result of the paper it is expected to reproduce, then the table rows.
#ifndef NETCLUS_BENCH_BENCH_COMMON_H_
#define NETCLUS_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <iostream>
#include <string>

#include "data/datasets.h"
#include "exec/executor.h"
#include "exec/planner.h"
#include "graph/spf/distance_backend.h"
#include "netclus/multi_index.h"
#include "netclus/query.h"
#include "tops/coverage.h"
#include "tops/fm_greedy.h"
#include "tops/inc_greedy.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/memory.h"
#include "util/parallel.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/timer.h"

namespace netclus::bench {

inline void PrintHeader(const std::string& id, const std::string& title,
                        const std::string& paper_shape) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("paper_shape: %s\n", paper_shape.c_str());
  std::printf("==============================================================\n");
}

/// Dataset with the bench's base scale times NETCLUS_SCALE.
inline data::Dataset MakeDataset(const std::string& name, double base_scale) {
  const double scale = base_scale * util::DatasetScale();
  return data::MakeByName(name, scale);
}

/// Builds a multi-resolution index with bench-appropriate τ range.
/// `threads` = 0 uses the NETCLUS_THREADS default.
inline index::MultiIndex BuildIndex(const data::Dataset& dataset,
                                    double gamma = 0.75,
                                    double tau_min_m = 400.0,
                                    double tau_max_m = 6000.0,
                                    uint32_t threads = 0) {
  index::MultiIndexConfig config;
  config.gamma = gamma;
  config.tau_min_m = tau_min_m;
  config.tau_max_m = tau_max_m;
  config.threads = threads;
  return index::MultiIndex::Build(*dataset.store, dataset.sites, config);
}

/// Plans and executes one request over a bare index — the exec::Planner +
/// exec::Executor pair behind every query entry point — with a fresh
/// execution context.
inline index::QueryResult RunRequest(const data::Dataset& dataset,
                                     const index::MultiIndex& index,
                                     const exec::PlanRequest& request) {
  exec::ExecContext ctx;
  const exec::QueryPlan plan =
      exec::Planner(&ctx).Plan(request, index, /*batch_size=*/1);
  return exec::Executor(&index, dataset.store.get(), &dataset.sites, &ctx)
      .Execute(plan);
}

/// Answers `count` TOPS queries (varying τ and k) concurrently over a built
/// index with `threads` workers — the Engine::TopKBatch serving shape — and
/// returns the wall time in seconds.
inline double RunQueryBatch(const data::Dataset& dataset,
                            const index::MultiIndex& index, size_t count,
                            const tops::PreferenceFunction& psi,
                            uint32_t threads) {
  exec::ExecContext ctx;
  const exec::Planner planner(&ctx);
  const exec::Executor executor(&index, dataset.store.get(), &dataset.sites,
                                &ctx);
  util::WallTimer timer;
  util::ParallelMap<index::QueryResult>(
      threads, count,
      [&](size_t i) {
        exec::PlanRequest request;
        request.k = 3 + static_cast<uint32_t>(i % 5);
        request.tau_m = 500.0 + 250.0 * static_cast<double>(i % 8);
        request.psi = psi;
        request.threads = 1;  // queries are the unit of concurrency here
        return executor.Execute(planner.Plan(request, index, /*batch_size=*/1));
      },
      /*grain=*/1);
  return timer.Seconds();
}

/// One Inc-Greedy (or FM-greedy) run on freshly built covering sets — the
/// paper's INCG / FMG baselines. Reports end-to-end time (covering-set
/// construction dominates, as in Sec. 8.6) and the covering-set footprint.
struct ExactRun {
  bool oom = false;
  double utility = 0.0;
  double total_seconds = 0.0;       ///< covering sets + solve
  double solve_seconds = 0.0;       ///< iterative phase only
  uint64_t memory_bytes = 0;        ///< covering sets (+ sketches for FMG)
  std::vector<tops::SiteId> sites;
};

inline ExactRun RunExactGreedy(const data::Dataset& dataset, uint32_t k,
                               double tau_m, const tops::PreferenceFunction& psi,
                               bool use_fm, uint32_t fm_copies = 30,
                               uint64_t memory_budget_bytes = 0,
                               const graph::spf::DistanceBackend* backend =
                                   nullptr) {
  ExactRun run;
  util::WallTimer timer;
  tops::CoverageConfig config;
  config.tau_m = tau_m;
  config.memory_budget_bytes = memory_budget_bytes;
  config.backend = backend;
  const tops::CoverageIndex coverage =
      tops::CoverageIndex::Build(*dataset.store, dataset.sites, config);
  if (coverage.oom()) {
    run.oom = true;
    run.total_seconds = timer.Seconds();
    return run;
  }
  run.memory_bytes = coverage.MemoryBytes();
  if (use_fm) {
    tops::FmGreedyConfig fm;
    fm.k = k;
    fm.num_sketches = fm_copies;
    const tops::FmGreedyResult result = FmGreedy(coverage, fm);
    run.utility = result.selection.utility;
    run.solve_seconds = result.selection.solve_seconds;
    run.sites = result.selection.sites;
    run.memory_bytes +=
        dataset.sites.size() * fm_copies * sizeof(uint32_t);  // sketches
  } else {
    tops::GreedyConfig greedy;
    greedy.k = k;
    const tops::Selection result = IncGreedy(coverage, psi, greedy);
    run.utility = result.utility;
    run.solve_seconds = result.solve_seconds;
    run.sites = result.sites;
  }
  run.total_seconds = timer.Seconds();
  return run;
}

/// One NetClus (or FM-NetClus) query; utility is re-evaluated exactly so
/// that quality comparisons against INCG are apples-to-apples.
struct NetClusRun {
  double utility = 0.0;          ///< exact re-evaluation of the k sites
  double total_seconds = 0.0;
  double solve_seconds = 0.0;
  uint64_t transient_bytes = 0;
  size_t instance_used = 0;
  std::vector<tops::SiteId> sites;
};

inline NetClusRun RunNetClus(const data::Dataset& dataset,
                             const index::MultiIndex& index, uint32_t k,
                             double tau_m, const tops::PreferenceFunction& psi,
                             bool use_fm, uint32_t fm_copies = 30) {
  exec::PlanRequest request;
  request.k = k;
  request.tau_m = tau_m;
  request.psi = psi;
  request.use_fm = use_fm;
  request.fm_copies = fm_copies;
  const index::QueryResult result = RunRequest(dataset, index, request);
  NetClusRun run;
  run.total_seconds = result.total_seconds;
  run.solve_seconds = result.selection.solve_seconds;
  run.transient_bytes = result.transient_bytes;
  run.instance_used = result.instance_used;
  run.sites = result.selection.sites;
  run.utility = tops::CoverageIndex::EvaluateSelection(
      *dataset.store, dataset.sites, result.selection.sites, tau_m, psi);
  return run;
}

inline double Percent(double utility, size_t live_count) {
  return live_count == 0 ? 0.0 : 100.0 * utility / static_cast<double>(live_count);
}

/// Where a bench should write its BENCH_*.json artifact. Resolution order:
/// a `--out=PATH` argument > the NETCLUS_BENCH_JSON env var > the repo
/// root (NETCLUS_REPO_ROOT compile definition) + `default_name` > the
/// current directory + `default_name`. Benches historically wrote to their
/// cwd, which scattered artifacts under build/ and left the collected perf
/// trajectory empty — this pins them to one predictable place.
inline std::string JsonOutPath(int argc, char** argv,
                               const std::string& default_name) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) return arg.substr(6);
    if (arg == "--out" && i + 1 < argc) return argv[i + 1];
  }
  const std::string env = util::GetEnvString("NETCLUS_BENCH_JSON", "");
  if (!env.empty()) {
    // A directory-looking value gets the default file name appended.
    if (env.back() == '/') return env + default_name;
    return env;
  }
#ifdef NETCLUS_REPO_ROOT
  return std::string(NETCLUS_REPO_ROOT) + "/" + default_name;
#else
  return default_name;
#endif
}

}  // namespace netclus::bench

#endif  // NETCLUS_BENCH_BENCH_COMMON_H_
