// Fuel-station placement under a land-acquisition budget (TOPS-COST).
//
// The scenario from the paper's introduction: a fuel retailer enters a
// polycentric city ("Bangalore" topology). Land prices vary by location —
// sites near district centers are expensive. The planner has a fixed
// budget B and wants to intercept as many commuter trajectories as
// possible (binary ψ: a driver refuels if a station is within τ of their
// route).
//
// Demonstrates: dataset catalog, cost-constrained NetClus queries (Sec.
// 7.1), budget sweeps, and the s_max guard.
//
// Run: ./build/examples/fuel_station_placement
#include <cmath>
#include <cstdio>
#include <iostream>

#include "api/engine.h"
#include "data/datasets.h"
#include "util/table.h"

int main() {
  using namespace netclus;

  data::Dataset city = data::MakeBangalore(0.35);
  std::printf("Bangalore-style city: %zu intersections, %zu trajectories\n",
              city.num_nodes(), city.num_trajectories());

  // Land price: expensive near the city's geometric center, with noise.
  const geo::Point center = city.network->Bounds().Center();
  const double span = std::max(city.network->Bounds().Width(),
                               city.network->Bounds().Height());
  util::Rng rng(99);
  std::vector<double> land_price(city.sites.size());
  for (tops::SiteId s = 0; s < city.sites.size(); ++s) {
    const geo::Point& p = city.network->position(city.sites.node(s));
    const double centrality = 1.0 - geo::Distance(p, center) / span;  // 0..1
    land_price[s] = std::max(0.1, 0.4 + 2.0 * centrality + rng.Normal(0.0, 0.25));
  }

  // Offline: build the index once.
  Engine::Options options;
  options.index.gamma = 0.75;
  options.index.tau_min_m = 400.0;
  options.index.tau_max_m = 6000.0;
  Engine engine(*city.network, city.sites, options);
  for (traj::TrajId t = 0; t < city.store->total_count(); ++t) {
    engine.AddTrajectory(city.store->trajectory(t).nodes());
  }
  engine.BuildIndex();
  std::printf("index: %zu instances, %s\n\n", engine.index().num_instances(),
              util::HumanBytes(engine.index().MemoryBytes()).c_str());

  // Online: sweep the budget and watch coverage grow.
  const tops::PreferenceFunction psi = tops::PreferenceFunction::Binary();
  util::Table table({"budget", "stations", "spent", "covered", "covered_%"});
  for (const double budget : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    Engine::QuerySpec query;
    query.variant = exec::QueryVariant::kTopsCost;
    query.tau_m = 1000.0;
    query.psi = psi;
    query.site_costs = land_price;
    query.budget = budget;
    const index::QueryResult result = engine.Run(query);
    const double covered =
        engine.EvaluateExact(result.selection.sites, query.tau_m, psi);
    double spent = 0.0;
    for (tops::SiteId s : result.selection.sites) spent += land_price[s];
    table.Row()
        .Cell(budget, 1)
        .Cell(static_cast<uint64_t>(result.selection.sites.size()))
        .Cell(spent, 2)
        .Cell(covered, 0)
        .Cell(100.0 * covered / city.num_trajectories(), 1);
  }
  table.PrintText(std::cout);
  return 0;
}
