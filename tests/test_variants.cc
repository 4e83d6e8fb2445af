#include <algorithm>
#include <limits>
#include <numeric>

#include "gtest/gtest.h"
#include "test_helpers.h"
#include "tops/coverage.h"
#include "tops/inc_greedy.h"
#include "tops/variants.h"
#include "util/rng.h"

namespace netclus::tops {
namespace {

CoverageIndex RandomInstance(uint64_t seed, uint32_t num_sites,
                             uint32_t num_trajs, double tau_m = 600.0) {
  graph::RoadNetwork net = test::MakeGridNetwork(10, 10, 120.0);
  traj::TrajectoryStore store(&net);
  test::FillRandomWalks(&store, num_trajs, 4, 12, seed);
  SiteSet sites = SiteSet::SampleNodes(net, num_sites, seed + 1);
  CoverageConfig cc;
  cc.tau_m = tau_m;
  return CoverageIndex::Build(store, sites, cc);
}

// --- TOPS-COST ---------------------------------------------------------------

TEST(CostGreedy, RespectsBudget) {
  const CoverageIndex cov = RandomInstance(1, 20, 60);
  CostConfig config;
  config.budget = 3.0;
  config.site_costs = DrawNormalCosts(20, 1.0, 0.5, 0.1, 2);
  const CostResult got = CostGreedy(cov, PreferenceFunction::Binary(), config);
  EXPECT_LE(got.total_cost, config.budget + 1e-9);
  double sum = 0.0;
  for (SiteId s : got.selection.sites) sum += config.site_costs[s];
  EXPECT_NEAR(sum, got.total_cost, 1e-9);
}

TEST(CostGreedy, UnitCostsWithBudgetKBehavesLikeTopsRelaxation) {
  const CoverageIndex cov = RandomInstance(3, 20, 60);
  const PreferenceFunction psi = PreferenceFunction::Binary();
  CostConfig config;
  config.budget = 5.0;
  config.site_costs.assign(20, 1.0);
  const CostResult cost = CostGreedy(cov, psi, config);
  GreedyConfig gc;
  gc.k = 5;
  const Selection greedy = IncGreedy(cov, psi, gc);
  // Unit costs and B = k: cost-effectiveness greedy ranks by marginal gain
  // like Inc-Greedy (Sec. 7.1's reduction). Tie-breaking rules differ, so
  // the utilities agree up to a small wobble rather than exactly.
  EXPECT_EQ(cost.selection.sites.size(), greedy.sites.size());
  EXPECT_NEAR(cost.selection.utility, greedy.utility, 0.03 * greedy.utility);
}

TEST(CostGreedy, SingleSiteGuardBeatsRatioTrap) {
  // The classic Khuller trap: one site with huge utility but cost = budget,
  // vs a cheap site with tiny utility and great ratio. The plain ratio
  // greedy takes the cheap site first and can't afford the big one; the
  // s_max guard must rescue the solution.
  std::vector<std::vector<CoverEntry>> tc(2);
  tc[0] = {{0, 0.0f}};  // cheap site covers 1 trajectory
  tc[1] = {{1, 0.0f}, {2, 0.0f}, {3, 0.0f}, {4, 0.0f}, {5, 0.0f}};
  const CoverageIndex cov = CoverageIndex::FromCovers(std::move(tc), 6, 6, 100.0);
  CostConfig config;
  config.budget = 1.0;
  config.site_costs = {0.01, 1.0};  // ratios: 100 vs 5
  const CostResult got = CostGreedy(cov, PreferenceFunction::Binary(), config);
  EXPECT_TRUE(got.used_single_site_guard);
  ASSERT_EQ(got.selection.sites.size(), 1u);
  EXPECT_EQ(got.selection.sites[0], 1u);
  EXPECT_NEAR(got.selection.utility, 5.0, 1e-9);
}

TEST(CostGreedy, HigherVarianceCostsRaiseUtility) {
  // Fig. 7a: with mean 1 and larger sigma, more cheap sites exist, so the
  // same budget buys more coverage.
  const CoverageIndex cov = RandomInstance(5, 30, 120);
  const PreferenceFunction psi = PreferenceFunction::Binary();
  double last = -1.0;
  double util_low = 0.0, util_high = 0.0;
  for (const double sigma : {0.0, 1.0}) {
    CostConfig config;
    config.budget = 5.0;
    config.site_costs = DrawNormalCosts(30, 1.0, sigma, 0.1, 7);
    const CostResult got = CostGreedy(cov, psi, config);
    if (sigma == 0.0) util_low = got.selection.utility;
    else util_high = got.selection.utility;
    last = got.selection.utility;
  }
  (void)last;
  EXPECT_GE(util_high, util_low - 1e-9);
}

TEST(DrawNormalCosts, RespectsFloorAndDeterminism) {
  const auto a = DrawNormalCosts(100, 1.0, 2.0, 0.1, 9);
  const auto b = DrawNormalCosts(100, 1.0, 2.0, 0.1, 9);
  EXPECT_EQ(a, b);
  for (double c : a) EXPECT_GE(c, 0.1);
}

// --- TOPS-CAPACITY -----------------------------------------------------------

TEST(CapacityGreedy, ServedCountsRespectCapacities) {
  const CoverageIndex cov = RandomInstance(11, 20, 80);
  CapacityConfig config;
  config.k = 5;
  config.site_capacities.assign(20, 7.0);
  const CapacityResult got =
      CapacityGreedy(cov, PreferenceFunction::Binary(), config);
  EXPECT_EQ(got.selection.sites.size(), 5u);
  ASSERT_EQ(got.served_counts.size(), 5u);
  for (uint32_t served : got.served_counts) EXPECT_LE(served, 7u);
  EXPECT_LE(got.selection.utility, 5.0 * 7.0 + 1e-9);
}

TEST(CapacityGreedy, InfiniteCapacityMatchesPlainGreedyUtility) {
  const CoverageIndex cov = RandomInstance(13, 20, 80);
  const PreferenceFunction psi = PreferenceFunction::Binary();
  GreedyConfig gc;
  gc.k = 5;
  const Selection greedy = IncGreedy(cov, psi, gc);
  // +inf is unbounded too: its count saturates at |TC(s)| (a bare size_t
  // cast of +inf is undefined).
  for (const double cap : {1e9, std::numeric_limits<double>::infinity()}) {
    CapacityConfig config;
    config.k = 5;
    config.site_capacities.assign(20, cap);
    const CapacityResult capacity = CapacityGreedy(cov, psi, config);
    EXPECT_NEAR(capacity.selection.utility, greedy.utility, 1e-9)
        << "cap=" << cap;
  }
}

TEST(CapacityGreedy, UtilityGrowsWithCapacity) {
  const CoverageIndex cov = RandomInstance(15, 20, 100);
  const PreferenceFunction psi = PreferenceFunction::Binary();
  double prev = -1.0;
  for (const double cap : {1.0, 5.0, 20.0, 1000.0}) {
    CapacityConfig config;
    config.k = 5;
    config.site_capacities.assign(20, cap);
    const CapacityResult got = CapacityGreedy(cov, psi, config);
    EXPECT_GE(got.selection.utility, prev - 1e-9) << "cap=" << cap;
    prev = got.selection.utility;
  }
}

TEST(CapacityGreedy, ZeroCapacityYieldsZeroUtility) {
  const CoverageIndex cov = RandomInstance(17, 10, 40);
  CapacityConfig config;
  config.k = 3;
  config.site_capacities.assign(10, 0.0);
  const CapacityResult got =
      CapacityGreedy(cov, PreferenceFunction::Binary(), config);
  EXPECT_DOUBLE_EQ(got.selection.utility, 0.0);
}

TEST(DrawNormalCapacities, FloorsAtOne) {
  const auto caps = DrawNormalCapacities(50, 1.0, 10.0, 21);
  for (double c : caps) EXPECT_GE(c, 1.0);
}

// --- TOPS4 market share --------------------------------------------------------

TEST(MarketShareGreedy, ReachesRequestedShare) {
  const CoverageIndex cov = RandomInstance(23, 30, 100, 800.0);
  MarketShareConfig config;
  config.beta = 0.4;
  const MarketShareResult got = MarketShareGreedy(cov, config);
  EXPECT_TRUE(got.reached_target);
  EXPECT_GE(got.covered_fraction, 0.4 - 1e-9);
  EXPECT_FALSE(got.selection.sites.empty());
}

TEST(MarketShareGreedy, HigherShareNeedsAtLeastAsManySites) {
  const CoverageIndex cov = RandomInstance(25, 30, 100, 800.0);
  size_t prev = 0;
  for (const double beta : {0.2, 0.4, 0.6}) {
    MarketShareConfig config;
    config.beta = beta;
    const MarketShareResult got = MarketShareGreedy(cov, config);
    if (!got.reached_target) break;  // saturated coverage; stop comparing
    EXPECT_GE(got.selection.sites.size(), prev);
    prev = got.selection.sites.size();
  }
}

TEST(MarketShareGreedy, UnreachableShareReportsHonestly) {
  // A single site covering one of three trajectories cannot reach 90%.
  std::vector<std::vector<CoverEntry>> tc(1);
  tc[0] = {{0, 0.0f}};
  const CoverageIndex cov = CoverageIndex::FromCovers(std::move(tc), 3, 3, 100.0);
  MarketShareConfig config;
  config.beta = 0.9;
  const MarketShareResult got = MarketShareGreedy(cov, config);
  EXPECT_FALSE(got.reached_target);
  EXPECT_NEAR(got.covered_fraction, 1.0 / 3.0, 1e-9);
}

TEST(MarketShareGreedy, MaxSitesCapStops) {
  const CoverageIndex cov = RandomInstance(27, 30, 100, 800.0);
  MarketShareConfig config;
  config.beta = 1.0;
  config.max_sites = 2;
  const MarketShareResult got = MarketShareGreedy(cov, config);
  EXPECT_LE(got.selection.sites.size(), 2u);
}

}  // namespace
}  // namespace netclus::tops
