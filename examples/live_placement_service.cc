// Live placement service: the serving subsystem end to end.
//
// A city operator runs a long-lived placement service: dispatchers keep
// asking "where should the next k service vans go?" while the trajectory
// corpus evolves underneath them — new trips stream in all day. This
// example boots a NetClusServer over a built engine and walks one
// simulated day:
//
//  1. morning: concurrent dispatcher queries against snapshot v1;
//  2. midday: a burst of trips through a new commercial corridor arrives
//     via the update pipeline (readers keep answering throughout);
//  3. afternoon: the same queries now reflect the shifted demand, cached
//     answers show up as hits, and the server reports its latency
//     percentiles, QPS, and cache stats.
//
// The observability layer rides along: a metrics snapshot (the serving
// and scheduler families) prints after each phase, and on exit the full
// Prometheus dump plus the Chrome trace land in NETCLUS_OBS_OUT
// (default: the current directory) as live_placement_metrics.prom and
// live_placement_trace.json — load the latter in Perfetto.
//
// Run: NETCLUS_TRACE_SAMPLE=1.0 ./build/examples/live_placement_service
#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "graph/generators.h"
#include "serve/server.h"
#include "traj/trip_generator.h"
#include "util/flags.h"
#include "util/rng.h"

namespace {

// Prints the serving-level metric families (skipping histogram bucket
// noise) so each phase's snapshot stays a handful of lines.
void PrintMetricsSnapshot(const netclus::serve::NetClusServer& server,
                          const char* phase) {
  std::printf("\n-- metrics snapshot (%s) --\n", phase);
  std::istringstream in(
      server.DumpMetrics(netclus::obs::ExportFormat::kPrometheusText));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.find("_bucket{") != std::string::npos) continue;
    if (line.rfind("netclus_serve_", 0) == 0 ||
        line.rfind("netclus_sched_", 0) == 0 ||
        line.rfind("netclus_query_cache_", 0) == 0 ||
        line.rfind("netclus_snapshot_", 0) == 0 ||
        line.rfind("netclus_trace_", 0) == 0) {
      std::printf("  %s\n", line.c_str());
    }
  }
}

}  // namespace

int main() {
  using namespace netclus;

  // A 30x30-block grid city; every intersection is a candidate site.
  graph::GridCityConfig city;
  city.rows = 30;
  city.cols = 30;
  city.block_m = 120.0;
  graph::RoadNetwork network = graph::GenerateGridCity(city);
  tops::SiteSet sites = tops::SiteSet::AllNodes(network);
  Engine::Options options;
  options.index.tau_min_m = 300.0;
  options.index.tau_max_m = 3000.0;
  Engine engine(std::move(network), std::move(sites), options);

  util::Rng rng(42);
  for (int i = 0; i < 1500; ++i) {
    const auto src = static_cast<graph::NodeId>(
        rng.UniformInt(engine.network().num_nodes()));
    const auto dst = static_cast<graph::NodeId>(
        rng.UniformInt(engine.network().num_nodes()));
    if (src == dst) continue;
    auto route = traj::RoutePerturbed(engine.network(), src, dst, 0.3, 100 + i);
    if (route.size() >= 2) engine.AddTrajectory(std::move(route));
  }
  engine.BuildIndex();
  std::printf("offline: %zu trajectories indexed, %zu instances\n",
              engine.store().live_count(), engine.index().num_instances());

  // Boot the serving layer: snapshot isolation + update pipeline + cache.
  auto server = engine.Serve();

  // 1. Morning: four dispatcher threads each keep five placement
  // requests in flight at once, then wait for the answers.
  serve::Request vans;
  vans.spec.k = 4;
  vans.spec.tau_m = 800.0;
  std::vector<std::thread> dispatchers;
  for (int t = 0; t < 4; ++t) {
    dispatchers.emplace_back([&] {
      std::vector<std::future<serve::Response>> pending;
      for (int q = 0; q < 5; ++q) pending.push_back(server->SubmitAsync(vans));
      for (std::future<serve::Response>& answer : pending) (void)answer.get();
    });
  }
  for (std::thread& t : dispatchers) t.join();
  const serve::Response morning = server->SubmitAsync(vans).get();
  std::printf("\nmorning (snapshot v%llu): top-%u sites:",
              static_cast<unsigned long long>(morning.snapshot_version),
              vans.spec.k);
  for (tops::SiteId s : morning.result.selection.sites) std::printf(" %u", s);
  std::printf("  (utility %.0f, cache_hit=%s)\n",
              morning.result.selection.utility,
              morning.cache_hit ? "yes" : "no");
  PrintMetricsSnapshot(*server, "morning");

  // 2. Midday: a burst of trips along one corridor streams in. Mutations
  // are asynchronous; Flush() barriers on the publish.
  const graph::NodeId corridor_start = 15 * 30 + 3;  // row 15, westside
  for (int i = 0; i < 120; ++i) {
    std::vector<graph::NodeId> trip;
    for (graph::NodeId n = corridor_start; n < corridor_start + 20; ++n) {
      trip.push_back(n);
    }
    server->MutateAddTrajectory(std::move(trip));
  }
  server->Flush();
  std::printf("\nmidday: 120 corridor trips absorbed; snapshot now v%llu "
              "(readers never blocked)\n",
              static_cast<unsigned long long>(server->snapshot()->version()));

  // 3. Afternoon: the same question, answered on the new snapshot.
  const serve::Response afternoon = server->SubmitAsync(vans).get();
  std::printf("afternoon (snapshot v%llu): top-%u sites:",
              static_cast<unsigned long long>(afternoon.snapshot_version),
              vans.spec.k);
  for (tops::SiteId s : afternoon.result.selection.sites) std::printf(" %u", s);
  std::printf("  (utility %.0f)\n", afternoon.result.selection.utility);
  std::printf("the corridor pulled utility from %.0f to %.0f\n",
              morning.result.selection.utility,
              afternoon.result.selection.utility);

  // Serving stats, then a graceful drain.
  const serve::ServerStats stats = server->stats();
  std::printf("\nserver stats: %llu queries (%.0f qps), "
              "p50 %.2f ms / p95 %.2f ms / p99 %.2f ms\n",
              static_cast<unsigned long long>(stats.queries_served), stats.qps,
              stats.latency_p50_ms, stats.latency_p95_ms, stats.latency_p99_ms);
  std::printf("cache: %llu hits / %llu misses / %llu evictions; "
              "pipeline: %llu ops in %llu batches\n",
              static_cast<unsigned long long>(stats.cache.hits),
              static_cast<unsigned long long>(stats.cache.misses),
              static_cast<unsigned long long>(stats.cache.evictions),
              static_cast<unsigned long long>(stats.updates.ops_applied),
              static_cast<unsigned long long>(stats.updates.batches_published));
  PrintMetricsSnapshot(*server, "afternoon");

  // Exit artifacts: the full Prometheus dump and the Chrome trace.
  const std::string out_dir = util::GetEnvString("NETCLUS_OBS_OUT", ".");
  const std::string metrics_path = out_dir + "/live_placement_metrics.prom";
  const std::string trace_path = out_dir + "/live_placement_trace.json";
  {
    std::ofstream metrics(metrics_path);
    metrics << server->DumpMetrics();
    std::ofstream trace(trace_path);
    trace << server->DumpTraces();
  }
  std::printf("\nwrote %s and %s (load the trace in Perfetto)\n",
              metrics_path.c_str(), trace_path.c_str());

  server->Shutdown();
  std::printf("drained and shut down.\n");
  return 0;
}
