// Fig. 7b: TOPS-CAPACITY under normally distributed site capacities.
// Paper: utility rises with mean capacity (mean swept from 0.1% to 100% of
// the trajectory count, stddev 10% of the mean); NetClus matches INCG.
#include "bench_common.h"

#include "tops/variants.h"

int main() {
  using namespace netclus;
  bench::PrintHeader(
      "Fig. 7b", "TOPS-CAPACITY: utility vs mean site capacity",
      "utility rises with mean capacity toward the unconstrained TOPS "
      "level; NetClus has almost the same utility as INCG");

  data::Dataset d = bench::MakeDataset("beijing-lite", 0.20);
  const double tau = util::GetEnvDouble("NETCLUS_TAU_M", 800.0);
  const uint32_t k = static_cast<uint32_t>(util::GetEnvInt("NETCLUS_K", 5));
  const tops::PreferenceFunction psi = tops::PreferenceFunction::Binary();
  const index::MultiIndex index = bench::BuildIndex(d);
  const size_t m = d.num_trajectories();

  tops::CoverageConfig cc;
  cc.tau_m = tau;
  const tops::CoverageIndex coverage =
      tops::CoverageIndex::Build(*d.store, d.sites, cc);

  util::Table table({"mean_cap_%of_m", "INCG_%", "NetClus_%"});
  for (const double cap_percent : {0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0}) {
    const double mean_cap = cap_percent / 100.0 * static_cast<double>(m);
    const std::vector<double> caps = tops::DrawNormalCapacities(
        d.sites.size(), mean_cap, 0.1 * mean_cap, 77);
    tops::CapacityConfig capacity_config;
    capacity_config.k = k;
    capacity_config.site_capacities = caps;
    const tops::CapacityResult incg =
        CapacityGreedy(coverage, psi, capacity_config);

    exec::PlanRequest request;
    request.variant = exec::QueryVariant::kTopsCapacity;
    request.k = k;
    request.tau_m = tau;
    request.psi = psi;
    request.site_capacities = caps;
    const index::QueryResult netclus = bench::RunRequest(d, index, request);
    // Capacity semantics cap the served count, so score the clustered
    // answer by its own (capped) utility rather than unconstrained
    // re-evaluation.
    table.Row()
        .Cell(cap_percent, 1)
        .Cell(bench::Percent(incg.selection.utility, m), 2)
        .Cell(bench::Percent(netclus.selection.utility, m), 2);
  }
  table.PrintText(std::cout);
  return 0;
}
