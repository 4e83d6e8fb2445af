#include "tops/variants.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/timer.h"

namespace netclus::tops {

namespace {

// Per-trajectory utility vector shared by the variant greedies.
struct UtilityState {
  explicit UtilityState(const CoverageIndex& coverage)
      : utility(coverage.num_trajectories(), 0.0) {}

  double MarginalOf(const CoverageIndex& coverage, const PreferenceFunction& psi,
                    SiteId s) const {
    double gain = 0.0;
    const double tau = coverage.tau_m();
    coverage.TC(s).ForEach([&](const CoverEntry& e) {
      const double score = psi.Score(e.dr_m, tau);
      if (score > utility[e.id]) gain += score - utility[e.id];
    });
    return gain;
  }

  double Apply(const CoverageIndex& coverage, const PreferenceFunction& psi,
               SiteId s) {
    double gain = 0.0;
    const double tau = coverage.tau_m();
    coverage.TC(s).ForEach([&](const CoverEntry& e) {
      const double score = psi.Score(e.dr_m, tau);
      if (score > utility[e.id]) {
        gain += score - utility[e.id];
        utility[e.id] = score;
      }
    });
    return gain;
  }

  std::vector<double> utility;
};

// How many trajectories a site of this capacity may serve: ⌊capacity⌋
// clamped to [0, |TC(s)|]. A site never serves more than |TC(s)|, so the
// saturation changes no answer, and it keeps the conversion defined for
// +inf and huge capacities, whose cast to size_t is undefined. NaN and
// non-positive capacities serve nothing.
size_t CapacityCount(double capacity, size_t tc_size) {
  const double floored = std::floor(capacity);
  if (!(floored > 0.0)) return 0;
  return floored >= static_cast<double>(tc_size)
             ? tc_size
             : static_cast<size_t>(floored);
}

}  // namespace

CostResult CostGreedy(const CoverageIndex& coverage,
                      const PreferenceFunction& psi, const CostConfig& config) {
  NC_CHECK(!coverage.oom());
  NC_CHECK_EQ(config.site_costs.size(), coverage.num_sites());
  util::WallTimer timer;
  CostResult result;
  UtilityState state(coverage);

  const size_t n = coverage.num_sites();
  std::vector<bool> excluded(n, false);
  double spent = 0.0;

  // Greedy on marginal-gain per unit cost, pruning unaffordable sites.
  while (true) {
    SiteId best = kInvalidSite;
    double best_ratio = 0.0;
    const double remaining = config.budget - spent;
    for (SiteId s = 0; s < n; ++s) {
      if (excluded[s]) continue;
      const double cost = config.site_costs[s];
      NC_CHECK_GT(cost, 0.0);
      if (cost > remaining) {
        excluded[s] = true;  // pruned from S per Sec. 7.1
        continue;
      }
      const double marginal = state.MarginalOf(coverage, psi, s);
      const double ratio = marginal / cost;
      if (best == kInvalidSite || ratio > best_ratio) {
        best = s;
        best_ratio = ratio;
      }
    }
    if (best == kInvalidSite || best_ratio <= 0.0) break;
    const double gain = state.Apply(coverage, psi, best);
    excluded[best] = true;
    spent += config.site_costs[best];
    result.selection.sites.push_back(best);
    result.selection.marginal_gains.push_back(gain);
    result.selection.utility += gain;
  }
  result.total_cost = spent;

  // The s_max guard: the single affordable site with maximal standalone
  // utility; return whichever of {greedy set, {s_max}} is better. This is
  // what lifts the bound to (1 - 1/e) / 2 [Khuller et al. 24].
  SiteId smax = kInvalidSite;
  double smax_utility = 0.0;
  for (SiteId s = 0; s < n; ++s) {
    if (config.site_costs[s] > config.budget) continue;
    const double u = coverage.SiteWeight(s, psi);
    if (smax == kInvalidSite || u > smax_utility) {
      smax = s;
      smax_utility = u;
    }
  }
  if (smax != kInvalidSite && smax_utility > result.selection.utility) {
    result.used_single_site_guard = true;
    result.selection.sites = {smax};
    result.selection.marginal_gains = {smax_utility};
    result.selection.utility = smax_utility;
    result.total_cost = config.site_costs[smax];
  }
  result.selection.solve_seconds = timer.Seconds();
  return result;
}

std::vector<double> DrawNormalCosts(size_t num_sites, double mean,
                                    double stddev, double min_cost,
                                    uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> costs(num_sites);
  for (double& c : costs) c = std::max(min_cost, rng.Normal(mean, stddev));
  return costs;
}

CapacityResult CapacityGreedy(const CoverageIndex& coverage,
                              const PreferenceFunction& psi,
                              const CapacityConfig& config) {
  NC_CHECK(!coverage.oom());
  NC_CHECK_EQ(config.site_capacities.size(), coverage.num_sites());
  util::WallTimer timer;
  CapacityResult result;
  UtilityState state(coverage);
  const double tau = coverage.tau_m();
  const size_t n = coverage.num_sites();
  std::vector<bool> selected(n, false);

  const uint32_t k =
      static_cast<uint32_t>(std::min<size_t>(config.k, n));
  std::vector<double> gains;  // scratch
  for (uint32_t step = 0; step < k; ++step) {
    SiteId best = kInvalidSite;
    double best_marginal = -1.0;
    for (SiteId s = 0; s < n; ++s) {
      if (selected[s]) continue;
      // Capped marginal: sum of the top-cap per-trajectory gains (Sec 7.2:
      // α_i = min(|TC(s_i)|, cap(s_i))).
      const auto tc = coverage.TC(s);
      const size_t cap = CapacityCount(config.site_capacities[s], tc.size());
      gains.clear();
      for (const CoverEntry& e : tc) {
        const double score = psi.Score(e.dr_m, tau);
        if (score > state.utility[e.id]) gains.push_back(score - state.utility[e.id]);
      }
      double marginal = 0.0;
      if (gains.size() <= cap) {
        for (double g : gains) marginal += g;
      } else {
        std::nth_element(gains.begin(), gains.begin() + cap, gains.end(),
                         std::greater<>());
        for (size_t i = 0; i < cap; ++i) marginal += gains[i];
      }
      if (marginal > best_marginal) {
        best_marginal = marginal;
        best = s;
      }
    }
    if (best == kInvalidSite) break;
    selected[best] = true;

    // Serve the top-cap trajectories of the chosen site.
    const auto tc = coverage.TC(best);
    const size_t cap =
        CapacityCount(config.site_capacities[best], tc.size());
    std::vector<std::pair<double, uint32_t>> ranked;  // (gain, traj)
    for (const CoverEntry& e : tc) {
      const double score = psi.Score(e.dr_m, tau);
      if (score > state.utility[e.id]) {
        ranked.emplace_back(score - state.utility[e.id], e.id);
      }
    }
    std::sort(ranked.begin(), ranked.end(), std::greater<>());
    if (ranked.size() > cap) ranked.resize(cap);
    double gain = 0.0;
    for (const auto& [g, t] : ranked) {
      state.utility[t] += g;
      gain += g;
    }
    result.selection.sites.push_back(best);
    result.selection.marginal_gains.push_back(gain);
    result.selection.utility += gain;
    result.served_counts.push_back(static_cast<uint32_t>(ranked.size()));
  }
  result.selection.solve_seconds = timer.Seconds();
  return result;
}

CostResult CostCapacityGreedy(const CoverageIndex& coverage,
                              const PreferenceFunction& psi,
                              const CostCapacityConfig& config) {
  NC_CHECK(!coverage.oom());
  NC_CHECK_EQ(config.site_costs.size(), coverage.num_sites());
  NC_CHECK_EQ(config.site_capacities.size(), coverage.num_sites());
  util::WallTimer timer;
  CostResult result;
  UtilityState state(coverage);
  const double tau = coverage.tau_m();
  const size_t n = coverage.num_sites();
  std::vector<bool> excluded(n, false);
  double spent = 0.0;

  // Capped marginal of site s against the current state.
  std::vector<double> gains;
  auto capped_marginal = [&](SiteId s) {
    const size_t cap =
        CapacityCount(config.site_capacities[s], coverage.TC(s).size());
    gains.clear();
    coverage.TC(s).ForEach([&](const CoverEntry& e) {
      const double score = psi.Score(e.dr_m, tau);
      if (score > state.utility[e.id]) {
        gains.push_back(score - state.utility[e.id]);
      }
    });
    double marginal = 0.0;
    if (gains.size() <= cap) {
      for (double g : gains) marginal += g;
    } else {
      std::nth_element(gains.begin(), gains.begin() + cap, gains.end(),
                       std::greater<>());
      for (size_t i = 0; i < cap; ++i) marginal += gains[i];
    }
    return marginal;
  };

  while (true) {
    SiteId best = kInvalidSite;
    double best_ratio = 0.0;
    const double remaining = config.budget - spent;
    for (SiteId s = 0; s < n; ++s) {
      if (excluded[s]) continue;
      const double cost = config.site_costs[s];
      NC_CHECK_GT(cost, 0.0);
      if (cost > remaining) {
        excluded[s] = true;
        continue;
      }
      const double ratio = capped_marginal(s) / cost;
      if (best == kInvalidSite || ratio > best_ratio) {
        best = s;
        best_ratio = ratio;
      }
    }
    if (best == kInvalidSite || best_ratio <= 0.0) break;
    // Serve the chosen site's top-cap trajectories.
    const size_t cap =
        CapacityCount(config.site_capacities[best], coverage.TC(best).size());
    std::vector<std::pair<double, uint32_t>> ranked;
    coverage.TC(best).ForEach([&](const CoverEntry& e) {
      const double score = psi.Score(e.dr_m, tau);
      if (score > state.utility[e.id]) {
        ranked.emplace_back(score - state.utility[e.id], e.id);
      }
    });
    std::sort(ranked.begin(), ranked.end(), std::greater<>());
    if (ranked.size() > cap) ranked.resize(cap);
    double gain = 0.0;
    for (const auto& [g, t] : ranked) {
      state.utility[t] += g;
      gain += g;
    }
    excluded[best] = true;
    spent += config.site_costs[best];
    result.selection.sites.push_back(best);
    result.selection.marginal_gains.push_back(gain);
    result.selection.utility += gain;
  }
  result.total_cost = spent;

  // Single-site guard against the ratio trap, with the capacity cap applied
  // to the standalone utilities as well.
  SiteId smax = kInvalidSite;
  double smax_utility = 0.0;
  UtilityState empty(coverage);
  for (SiteId s = 0; s < n; ++s) {
    if (config.site_costs[s] > config.budget) continue;
    gains.clear();
    coverage.TC(s).ForEach(
        [&](const CoverEntry& e) { gains.push_back(psi.Score(e.dr_m, tau)); });
    const size_t cap =
        CapacityCount(config.site_capacities[s], coverage.TC(s).size());
    double utility = 0.0;
    if (gains.size() <= cap) {
      for (double g : gains) utility += g;
    } else {
      std::nth_element(gains.begin(), gains.begin() + cap, gains.end(),
                       std::greater<>());
      for (size_t i = 0; i < cap; ++i) utility += gains[i];
    }
    if (smax == kInvalidSite || utility > smax_utility) {
      smax = s;
      smax_utility = utility;
    }
  }
  if (smax != kInvalidSite && smax_utility > result.selection.utility) {
    result.used_single_site_guard = true;
    result.selection.sites = {smax};
    result.selection.marginal_gains = {smax_utility};
    result.selection.utility = smax_utility;
    result.total_cost = config.site_costs[smax];
  }
  result.selection.solve_seconds = timer.Seconds();
  return result;
}

std::vector<double> DrawNormalCapacities(size_t num_sites, double mean,
                                         double stddev, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> caps(num_sites);
  for (double& c : caps) c = std::max(1.0, rng.Normal(mean, stddev));
  return caps;
}

MarketShareResult MarketShareGreedy(const CoverageIndex& coverage,
                                    const MarketShareConfig& config) {
  NC_CHECK(!coverage.oom());
  NC_CHECK_GT(config.beta, 0.0);
  NC_CHECK_LE(config.beta, 1.0);
  util::WallTimer timer;
  MarketShareResult result;
  const PreferenceFunction psi = PreferenceFunction::Binary();
  UtilityState state(coverage);
  const size_t n = coverage.num_sites();
  const size_t m = coverage.num_live_trajectories();
  const double target = config.beta * static_cast<double>(m);
  std::vector<bool> selected(n, false);

  double covered = 0.0;
  while (covered + 1e-9 < target) {
    if (config.max_sites != 0 &&
        result.selection.sites.size() >= config.max_sites) {
      break;
    }
    SiteId best = kInvalidSite;
    double best_marginal = 0.0;
    for (SiteId s = 0; s < n; ++s) {
      if (selected[s]) continue;
      const double marginal = state.MarginalOf(coverage, psi, s);
      if (best == kInvalidSite || marginal > best_marginal) {
        best = s;
        best_marginal = marginal;
      }
    }
    if (best == kInvalidSite || best_marginal <= 0.0) break;  // saturated
    selected[best] = true;
    const double gain = state.Apply(coverage, psi, best);
    covered += gain;
    result.selection.sites.push_back(best);
    result.selection.marginal_gains.push_back(gain);
  }
  result.selection.utility = covered;
  result.covered_fraction = m == 0 ? 0.0 : covered / static_cast<double>(m);
  result.reached_target = covered + 1e-9 >= target;
  result.selection.solve_seconds = timer.Seconds();
  return result;
}

}  // namespace netclus::tops
