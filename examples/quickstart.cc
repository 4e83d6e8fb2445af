// Quickstart: the full NetClus pipeline in ~80 lines.
//
//  1. generate a small synthetic city and commuter trajectories,
//  2. ingest a raw GPS trace through the built-in map-matcher,
//  3. build the multi-resolution NetClus index (offline phase),
//  4. ask for the top-5 sites at τ = 0.8 km (online phase),
//  5. compare against the exact Inc-Greedy baseline.
//
// Run: ./build/examples/quickstart
#include <cstdio>

#include "api/engine.h"
#include "graph/generators.h"
#include "traj/trace_synthesizer.h"
#include "traj/trip_generator.h"
#include "util/rng.h"

int main() {
  using namespace netclus;

  // 1. A 40x40-block grid city (~2.4 km x 2.4 km) with one-way streets.
  graph::GridCityConfig city;
  city.rows = 40;
  city.cols = 40;
  city.block_m = 120.0;
  graph::RoadNetwork network = graph::GenerateGridCity(city);
  std::printf("city: %zu intersections, %zu road segments\n",
              network.num_nodes(), network.num_edges());

  // Every intersection is a candidate site (the paper's default).
  tops::SiteSet sites = tops::SiteSet::AllNodes(network);
  Engine::Options options;
  options.index.gamma = 0.75;          // index resolution (Table 7)
  options.index.tau_min_m = 240.0;     // supported query range
  options.index.tau_max_m = 4000.0;
  Engine engine(std::move(network), std::move(sites), options);

  // 2. Commuter trips between hotspots, with non-shortest-path deviation.
  util::Rng rng(7);
  for (int i = 0; i < 3000; ++i) {
    const auto src = static_cast<graph::NodeId>(
        rng.UniformInt(engine.network().num_nodes()));
    const auto dst = static_cast<graph::NodeId>(
        rng.UniformInt(engine.network().num_nodes()));
    if (src == dst) continue;
    auto route = traj::RoutePerturbed(engine.network(), src, dst, 0.3, 1000 + i);
    if (route.size() >= 2) engine.AddTrajectory(std::move(route));
  }

  // ...plus one raw GPS trace, to exercise the map-matching front end.
  graph::DijkstraEngine dijkstra(&engine.network());
  const auto truth = dijkstra.ShortestPath(0, 900);
  traj::TraceSynthesizerConfig synth;
  synth.noise_sigma_m = 15.0;
  const auto trace = SynthesizeTrace(engine.network(), truth, synth);
  if (const auto id = engine.AddGpsTrace(trace)) {
    std::printf("map-matched a %zu-sample GPS trace to %zu intersections\n",
                trace.size(), engine.store().trajectory(*id).size());
  }
  std::printf("corpus: %zu trajectories\n", engine.store().live_count());

  // 3. Offline phase: build the multi-resolution index.
  engine.BuildIndex();
  std::printf("index: %zu instances, %s, built in %.2f s\n",
              engine.index().num_instances(),
              util::HumanBytes(engine.index().MemoryBytes()).c_str(),
              engine.index().build_seconds());

  // 4. Online phase: TOPS(k = 5, τ = 800 m, binary ψ).
  const tops::PreferenceFunction psi = tops::PreferenceFunction::Binary();
  Engine::QuerySpec query;
  query.k = 5;
  query.tau_m = 800.0;
  query.psi = psi;
  const auto result = engine.Run(query);
  const double exact_utility =
      engine.EvaluateExact(result.selection.sites, 800.0, psi);
  std::printf("\nNetClus top-5 sites (tau = 800 m), instance %zu, %.1f ms:\n",
              result.instance_used, result.total_seconds * 1e3);
  for (size_t i = 0; i < result.selection.sites.size(); ++i) {
    const auto node = engine.sites().node(result.selection.sites[i]);
    const auto& p = engine.network().position(node);
    std::printf("  #%zu site %u at (%.0f m, %.0f m), marginal gain %.0f\n",
                i + 1, result.selection.sites[i], p.x, p.y,
                result.selection.marginal_gains[i]);
  }
  std::printf("covered trajectories: %.0f of %zu (%.1f%%)\n", exact_utility,
              engine.store().live_count(),
              100.0 * exact_utility / engine.store().live_count());

  // 5. Exact Inc-Greedy baseline for comparison.
  const auto greedy = engine.ExactGreedy(5, 800.0, psi);
  std::printf("\nInc-Greedy baseline: %.0f covered (NetClus reaches %.1f%% of it)\n",
              greedy.utility, 100.0 * exact_utility / greedy.utility);

  // 6. Batched serving: many independent (k, τ) requests answered
  // concurrently over the shared index (threads from NETCLUS_THREADS).
  std::vector<Engine::QuerySpec> specs;
  for (const double tau : {500.0, 800.0, 1200.0}) {
    Engine::QuerySpec spec;
    spec.k = 5;
    spec.tau_m = tau;
    specs.push_back(std::move(spec));
  }
  const auto answers = engine.TopKBatch(specs);
  std::printf("\nbatch of %zu queries:\n", answers.size());
  for (size_t i = 0; i < answers.size(); ++i) {
    std::printf("  tau = %4.0f m -> utility %.0f (%.1f ms)\n", specs[i].tau_m,
                answers[i].selection.utility,
                answers[i].total_seconds * 1e3);
  }
  return 0;
}
