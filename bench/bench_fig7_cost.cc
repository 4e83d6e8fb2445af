// Fig. 7a + Fig. 9: TOPS-COST under normally distributed site costs.
// Paper: with budget B = 5 and mean cost 1.0, utility and the number of
// selected sites rise with the cost standard deviation (more cheap sites
// become affordable); running time stays near the unconstrained case.
#include "bench_common.h"

#include "tops/variants.h"

int main() {
  using namespace netclus;
  bench::PrintHeader(
      "Fig. 7a / Fig. 9", "TOPS-COST: utility, #sites, time vs cost stddev",
      "utility and number of selected sites rise with cost stddev; NetClus "
      "tracks INCG closely and stays an order of magnitude faster");

  data::Dataset d = bench::MakeDataset("beijing-lite", 0.20);
  const double tau = util::GetEnvDouble("NETCLUS_TAU_M", 800.0);
  const double budget = util::GetEnvDouble("NETCLUS_BUDGET", 5.0);
  const tops::PreferenceFunction psi = tops::PreferenceFunction::Binary();
  const index::MultiIndex index = bench::BuildIndex(d);
  const size_t m = d.num_trajectories();

  // Exact covering sets once (costs change per row, covers don't).
  tops::CoverageConfig cc;
  cc.tau_m = tau;
  util::WallTimer cover_timer;
  const tops::CoverageIndex coverage =
      tops::CoverageIndex::Build(*d.store, d.sites, cc);
  const double cover_seconds = cover_timer.Seconds();

  util::Table table({"cost_stddev", "INCG_%", "NetClus_%", "INCG_sites",
                     "NetClus_sites", "INCG_ms", "NetClus_ms"});
  for (const double sigma : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    const std::vector<double> costs =
        tops::DrawNormalCosts(d.sites.size(), 1.0, sigma, 0.1, 1000 + sigma * 10);
    tops::CostConfig cost_config;
    cost_config.budget = budget;
    cost_config.site_costs = costs;
    util::WallTimer incg_timer;
    const tops::CostResult incg = CostGreedy(coverage, psi, cost_config);
    const double incg_ms = (cover_seconds + incg_timer.Seconds()) * 1e3;

    exec::PlanRequest request;
    request.variant = exec::QueryVariant::kTopsCost;
    request.tau_m = tau;
    request.psi = psi;
    request.site_costs = costs;
    request.budget = budget;
    util::WallTimer netclus_timer;
    const index::QueryResult netclus = bench::RunRequest(d, index, request);
    const double netclus_ms = netclus_timer.Millis();
    const double netclus_utility = tops::CoverageIndex::EvaluateSelection(
        *d.store, d.sites, netclus.selection.sites, tau, psi);

    table.Row()
        .Cell(sigma, 1)
        .Cell(bench::Percent(incg.selection.utility, m), 1)
        .Cell(bench::Percent(netclus_utility, m), 1)
        .Cell(static_cast<uint64_t>(incg.selection.sites.size()))
        .Cell(static_cast<uint64_t>(netclus.selection.sites.size()))
        .Cell(incg_ms, 0)
        .Cell(netclus_ms, 1);
  }
  table.PrintText(std::cout);
  return 0;
}
