// Mobile ATM van dispatch: real-time re-planning over dynamic trajectories.
//
// The paper motivates NetClus with exactly this use case (Sec. 1): mobile
// ATM vans are re-positioned during the day as traffic patterns shift, so
// placement queries must (a) answer in real time and (b) absorb trajectory
// updates without rebuilding the index.
//
// The simulation runs three "day phases" over a star-topology city
// ("New York"): morning commute into the core, a midday lull, and an
// evening flow out along two corridors. Between phases, the corpus is
// updated through the dynamic-update API (Sec. 6) and the vans are
// re-dispatched with a capacity constraint (each van serves a bounded
// number of customers, Sec. 7.2).
//
// Run: ./build/examples/mobile_atm_vans
#include <cstdio>
#include <iostream>

#include "api/engine.h"
#include "data/datasets.h"
#include "traj/trip_generator.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace netclus;

// Adds `count` trips whose destination (or origin, if `inbound` is false)
// clusters around the given node; the engine's index absorbs each one.
std::vector<traj::TrajId> AddFlow(Engine* engine, graph::NodeId focus,
                                  bool inbound, uint32_t count, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<traj::TrajId> ids;
  const auto& net = engine->network();
  for (uint32_t i = 0; i < count; ++i) {
    const auto other = static_cast<graph::NodeId>(rng.UniformInt(net.num_nodes()));
    const graph::NodeId src = inbound ? other : focus;
    const graph::NodeId dst = inbound ? focus : other;
    if (src == dst) continue;
    auto route = traj::RoutePerturbed(net, src, dst, 0.3, seed * 1000 + i);
    if (route.size() >= 2) {
      ids.push_back(engine->AddTrajectory(std::move(route)));
    }
  }
  return ids;
}

}  // namespace

int main() {
  data::Dataset city = data::MakeNewYork(0.3);
  std::printf("star city: %zu intersections, %zu base trajectories\n",
              city.num_nodes(), city.num_trajectories());

  Engine::Options options;
  options.index.gamma = 0.75;
  options.index.tau_min_m = 400.0;
  options.index.tau_max_m = 5000.0;
  Engine engine(*city.network, city.sites, options);
  for (traj::TrajId t = 0; t < city.store->total_count(); ++t) {
    engine.AddTrajectory(city.store->trajectory(t).nodes());
  }
  engine.BuildIndex();
  const tops::PreferenceFunction psi = tops::PreferenceFunction::Binary();

  // 4 vans, each able to serve 400 customers before running out of cash.
  Engine::QuerySpec query;
  query.variant = exec::QueryVariant::kTopsCapacity;
  query.k = 4;
  query.tau_m = 1200.0;
  query.psi = psi;
  query.site_capacities.assign(engine.sites().size(), 400.0);
  auto dispatch = [&](const char* phase) {
    util::WallTimer timer;
    const index::QueryResult result = engine.Run(query);
    const double covered =
        engine.EvaluateExact(result.selection.sites, query.tau_m, psi);
    std::printf("%-8s dispatch in %6.1f ms -> vans at nodes [", phase,
                timer.Millis());
    for (size_t i = 0; i < result.selection.sites.size(); ++i) {
      std::printf("%s%u", i ? ", " : "",
                  engine.sites().node(result.selection.sites[i]));
    }
    std::printf("], %.0f/%zu trajectories in reach (%.1f%%)\n", covered,
                engine.store().live_count(),
                100.0 * covered / engine.store().live_count());
  };

  dispatch("baseline");

  // Morning: heavy inbound flow to the core (node 0 is in the core mesh).
  util::WallTimer update_timer;
  const auto morning = AddFlow(&engine, /*focus=*/0, /*inbound=*/true, 1500, 1);
  std::printf("\n[morning] +%zu inbound trips absorbed in %.1f ms\n",
              morning.size(), update_timer.Millis());
  dispatch("morning");

  // Midday: the morning surge ends (batch deletion).
  update_timer.Reset();
  for (traj::TrajId t : morning) engine.RemoveTrajectory(t);
  std::printf("\n[midday] morning surge removed in %.1f ms\n",
              update_timer.Millis());
  dispatch("midday");

  // Evening: outbound flows along two corridors.
  update_timer.Reset();
  const auto ray_a = AddFlow(&engine, static_cast<graph::NodeId>(city.num_nodes() / 2),
                             /*inbound=*/false, 800, 2);
  const auto ray_b = AddFlow(&engine, static_cast<graph::NodeId>(city.num_nodes() - 1),
                             /*inbound=*/false, 800, 3);
  std::printf("\n[evening] +%zu outbound trips absorbed in %.1f ms\n",
              ray_a.size() + ray_b.size(), update_timer.Millis());
  dispatch("evening");
  return 0;
}
