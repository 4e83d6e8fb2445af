#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <utility>

#include "gtest/gtest.h"
#include "test_helpers.h"
#include "tops/coverage.h"
#include "tops/inc_greedy.h"
#include "tops/variants.h"
#include "util/float_bits.h"
#include "util/rng.h"
#include "util/strings.h"

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

// --- Lazy evaluation against the eager scans ---------------------------------
//
// The variant solvers pick each round's site by lazy (CELF) evaluation. The
// oracles below are the eager scans that re-evaluate every remaining site in
// every round, with capacity's top-cap gains summed in descending order.
// Lazy must match them bit for bit: sites, every gain, utility, total cost,
// the guard flag, served counts and the market-share outcome. Seeds follow
// docs/testing.md (NETCLUS_TEST_SEED / NETCLUS_TEST_ROUNDS).

namespace eager {

size_t CapacityCount(double capacity, size_t tc_size) {
  const double floored = std::floor(capacity);
  if (!(floored > 0.0)) return 0;
  return floored >= static_cast<double>(tc_size)
             ? tc_size
             : static_cast<size_t>(floored);
}

double TopCapSum(std::vector<double> gains, size_t cap) {
  std::sort(gains.begin(), gains.end(), std::greater<>());
  if (gains.size() > cap) gains.resize(cap);
  double sum = 0.0;
  for (double g : gains) sum += g;
  return sum;
}

double Marginal(const CoverageIndex& cov, const PreferenceFunction& psi,
                const std::vector<double>& utility, SiteId s) {
  double gain = 0.0;
  cov.TC(s).ForEach([&](const CoverEntry& e) {
    const double score = psi.Score(e.dr_m, cov.tau_m());
    if (score > utility[e.id]) gain += score - utility[e.id];
  });
  return gain;
}

double Apply(const CoverageIndex& cov, const PreferenceFunction& psi,
             std::vector<double>* utility, SiteId s) {
  double gain = 0.0;
  cov.TC(s).ForEach([&](const CoverEntry& e) {
    const double score = psi.Score(e.dr_m, cov.tau_m());
    if (score > (*utility)[e.id]) {
      gain += score - (*utility)[e.id];
      (*utility)[e.id] = score;
    }
  });
  return gain;
}

double CappedMarginal(const CoverageIndex& cov, const PreferenceFunction& psi,
                      const std::vector<double>& utility, SiteId s,
                      double capacity) {
  std::vector<double> gains;
  cov.TC(s).ForEach([&](const CoverEntry& e) {
    const double score = psi.Score(e.dr_m, cov.tau_m());
    if (score > utility[e.id]) gains.push_back(score - utility[e.id]);
  });
  return TopCapSum(std::move(gains), CapacityCount(capacity, cov.TC(s).size()));
}

std::pair<double, uint32_t> ApplyCapped(const CoverageIndex& cov,
                                        const PreferenceFunction& psi,
                                        std::vector<double>* utility, SiteId s,
                                        double capacity) {
  std::vector<std::pair<double, uint32_t>> ranked;
  cov.TC(s).ForEach([&](const CoverEntry& e) {
    const double score = psi.Score(e.dr_m, cov.tau_m());
    if (score > (*utility)[e.id]) {
      ranked.emplace_back(score - (*utility)[e.id], e.id);
    }
  });
  std::sort(ranked.begin(), ranked.end(), std::greater<>());
  const size_t cap = CapacityCount(capacity, cov.TC(s).size());
  if (ranked.size() > cap) ranked.resize(cap);
  double gain = 0.0;
  for (const auto& [g, t] : ranked) {
    (*utility)[t] += g;
    gain += g;
  }
  return {gain, static_cast<uint32_t>(ranked.size())};
}

// Eager budgeted greedy: every round rescans every affordable site; then the
// s_max guard over `standalone(s)`, computed afresh.
template <typename MarginalFn, typename ApplyFn, typename StandaloneFn>
CostResult Budgeted(size_t n, const std::vector<double>& costs, double budget,
                    MarginalFn marginal, ApplyFn apply,
                    StandaloneFn standalone) {
  CostResult result;
  std::vector<bool> excluded(n, false);
  double spent = 0.0;
  while (true) {
    SiteId best = kInvalidSite;
    double best_ratio = 0.0;
    const double remaining = budget - spent;
    for (SiteId s = 0; s < n; ++s) {
      if (excluded[s]) continue;
      if (costs[s] > remaining) {
        excluded[s] = true;
        continue;
      }
      const double ratio = marginal(s) / costs[s];
      if (best == kInvalidSite || ratio > best_ratio) {
        best = s;
        best_ratio = ratio;
      }
    }
    if (best == kInvalidSite || best_ratio <= 0.0) break;
    const double gain = apply(best);
    excluded[best] = true;
    spent += costs[best];
    result.selection.sites.push_back(best);
    result.selection.marginal_gains.push_back(gain);
    result.selection.utility += gain;
  }
  result.total_cost = spent;
  SiteId smax = kInvalidSite;
  double smax_utility = 0.0;
  for (SiteId s = 0; s < n; ++s) {
    if (costs[s] > budget) continue;
    const double u = standalone(s);
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
    result.total_cost = costs[smax];
  }
  return result;
}

CostResult Cost(const CoverageIndex& cov, const PreferenceFunction& psi,
                const CostConfig& config) {
  std::vector<double> utility(cov.num_trajectories(), 0.0);
  return Budgeted(
      cov.num_sites(), config.site_costs, config.budget,
      [&](SiteId s) { return Marginal(cov, psi, utility, s); },
      [&](SiteId s) { return Apply(cov, psi, &utility, s); },
      [&](SiteId s) { return cov.SiteWeight(s, psi); });
}

CostResult CostCapacity(const CoverageIndex& cov, const PreferenceFunction& psi,
                        const CostCapacityConfig& config) {
  std::vector<double> utility(cov.num_trajectories(), 0.0);
  const std::vector<double>& caps = config.site_capacities;
  return Budgeted(
      cov.num_sites(), config.site_costs, config.budget,
      [&](SiteId s) { return CappedMarginal(cov, psi, utility, s, caps[s]); },
      [&](SiteId s) {
        return ApplyCapped(cov, psi, &utility, s, caps[s]).first;
      },
      [&](SiteId s) {
        // Every score of TC(s), zeros included, capped.
        std::vector<double> scores;
        cov.TC(s).ForEach([&](const CoverEntry& e) {
          scores.push_back(psi.Score(e.dr_m, cov.tau_m()));
        });
        return TopCapSum(std::move(scores),
                         CapacityCount(caps[s], cov.TC(s).size()));
      });
}

CapacityResult Capacity(const CoverageIndex& cov, const PreferenceFunction& psi,
                        const CapacityConfig& config) {
  CapacityResult result;
  std::vector<double> utility(cov.num_trajectories(), 0.0);
  const size_t n = cov.num_sites();
  std::vector<bool> selected(n, false);
  const uint32_t k = static_cast<uint32_t>(std::min<size_t>(config.k, n));
  for (uint32_t step = 0; step < k; ++step) {
    SiteId best = kInvalidSite;
    double best_marginal = -1.0;
    for (SiteId s = 0; s < n; ++s) {
      if (selected[s]) continue;
      const double marginal =
          CappedMarginal(cov, psi, utility, s, config.site_capacities[s]);
      if (marginal > best_marginal) {
        best_marginal = marginal;
        best = s;
      }
    }
    if (best == kInvalidSite) break;
    selected[best] = true;
    const auto [gain, served] =
        ApplyCapped(cov, psi, &utility, best, config.site_capacities[best]);
    result.selection.sites.push_back(best);
    result.selection.marginal_gains.push_back(gain);
    result.selection.utility += gain;
    result.served_counts.push_back(served);
  }
  return result;
}

MarketShareResult MarketShare(const CoverageIndex& cov,
                              const MarketShareConfig& config) {
  MarketShareResult result;
  const PreferenceFunction psi = PreferenceFunction::Binary();
  std::vector<double> utility(cov.num_trajectories(), 0.0);
  const size_t n = cov.num_sites();
  const size_t m = cov.num_live_trajectories();
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
      const double marginal = Marginal(cov, psi, utility, s);
      if (best == kInvalidSite || marginal > best_marginal) {
        best = s;
        best_marginal = marginal;
      }
    }
    if (best == kInvalidSite || best_marginal <= 0.0) break;
    selected[best] = true;
    const double gain = Apply(cov, psi, &utility, best);
    covered += gain;
    result.selection.sites.push_back(best);
    result.selection.marginal_gains.push_back(gain);
  }
  result.selection.utility = covered;
  result.covered_fraction = m == 0 ? 0.0 : covered / static_cast<double>(m);
  result.reached_target = covered + 1e-9 >= target;
  return result;
}

}  // namespace eager

constexpr uint64_t kLazySeedBase = 0x1a2ec0deULL;

// One seeded instance: either grid-walk covers with real detours, or
// synthetic covers whose d_r values sit on a coarse grid of τ, so scores and
// marginals tie often (and some TC lists are empty).
CoverageIndex LazyInstance(uint64_t seed, util::Rng& rng) {
  const double tau = rng.Uniform(300.0, 900.0);
  if (seed % 2 == 0) {
    return RandomInstance(seed, static_cast<uint32_t>(rng.UniformInt(1, 40)),
                          static_cast<uint32_t>(rng.UniformInt(1, 100)), tau);
  }
  const size_t n = static_cast<size_t>(rng.UniformInt(1, 40));
  const size_t m = static_cast<size_t>(rng.UniformInt(1, 120));
  std::vector<std::vector<CoverEntry>> tc(n);
  for (auto& cover : tc) {
    const double density = rng.Uniform(0.0, 0.5);
    for (uint32_t t = 0; t < m; ++t) {
      if (rng.Uniform() >= density) continue;
      const double dr = tau * static_cast<double>(rng.UniformInt(0, 8)) / 8.0;
      cover.push_back({t, static_cast<float>(dr)});
    }
  }
  return CoverageIndex::FromCovers(std::move(tc), m, m, tau);
}

PreferenceFunction DrawPsi(util::Rng& rng) {
  switch (rng.UniformInt(3)) {
    case 0:
      return PreferenceFunction::Binary();
    case 1:
      return PreferenceFunction::Linear();
    default:
      return PreferenceFunction::ConvexProbability(rng.Uniform(1.0, 3.0));
  }
}

// Unit costs (tie-heavy) or N(1, σ) costs with σ <= 1, floored at 0.1.
std::vector<double> DrawCosts(size_t n, util::Rng& rng) {
  if (rng.UniformInt(3) == 0) return std::vector<double>(n, 1.0);
  const double sigma = rng.Uniform(0.0, 1.0);
  return DrawNormalCosts(n, 1.0, sigma, 0.1, rng.Next());
}

// Below the cheapest site, above the total, or in between.
double DrawBudget(const std::vector<double>& costs, util::Rng& rng) {
  const double cheapest = *std::min_element(costs.begin(), costs.end());
  const double total = std::accumulate(costs.begin(), costs.end(), 0.0);
  switch (rng.UniformInt(4)) {
    case 0:
      return 0.5 * cheapest;
    case 1:
      return 1.5 * total;
    case 2:
      return static_cast<double>(rng.UniformInt(1, 6));
    default:
      return rng.Uniform(cheapest, total);
  }
}

// Random, equal integer, zero or infinite capacities.
std::vector<double> DrawCapacities(size_t n, util::Rng& rng) {
  switch (rng.UniformInt(5)) {
    case 0: {
      std::vector<double> caps(n);
      for (double& c : caps) c = rng.Uniform(0.0, 15.0);
      return caps;
    }
    case 1:
      return DrawNormalCapacities(n, 6.0, 4.0, rng.Next());
    case 2:
      return std::vector<double>(n, static_cast<double>(rng.UniformInt(1, 8)));
    case 3:
      return std::vector<double>(n, 0.0);
    default:
      return std::vector<double>(n, std::numeric_limits<double>::infinity());
  }
}

void ExpectBitEqual(const Selection& got, const Selection& want) {
  EXPECT_EQ(got.sites, want.sites);
  ASSERT_EQ(got.marginal_gains.size(), want.marginal_gains.size());
  for (size_t i = 0; i < got.marginal_gains.size(); ++i) {
    EXPECT_EQ(util::DoubleBits(got.marginal_gains[i]),
              util::DoubleBits(want.marginal_gains[i]))
        << "step " << i;
  }
  EXPECT_EQ(util::DoubleBits(got.utility), util::DoubleBits(want.utility));
}

void ExpectBitEqual(const CostResult& got, const CostResult& want) {
  ExpectBitEqual(got.selection, want.selection);
  EXPECT_EQ(util::DoubleBits(got.total_cost),
            util::DoubleBits(want.total_cost));
  EXPECT_EQ(got.used_single_site_guard, want.used_single_site_guard);
}

TEST(LazyGreedy, CostMatchesEagerOracle) {
  const size_t rounds = test::FuzzRounds(30);
  for (size_t round = 0; round < rounds; ++round) {
    const uint64_t seed = test::FuzzSeed(kLazySeedBase, round);
    SCOPED_TRACE(test::SeedTrace(seed));
    util::Rng rng(seed);
    const CoverageIndex cov = LazyInstance(seed, rng);
    for (int draw = 0; draw < 4; ++draw) {
      const PreferenceFunction psi = DrawPsi(rng);
      CostConfig config;
      config.site_costs = DrawCosts(cov.num_sites(), rng);
      config.budget = DrawBudget(config.site_costs, rng);
      SCOPED_TRACE(util::StrFormat("draw %d psi=%s budget=%.17g", draw,
                                   psi.name().c_str(), config.budget));
      ExpectBitEqual(CostGreedy(cov, psi, config),
                     eager::Cost(cov, psi, config));
    }
  }
}

TEST(LazyGreedy, CapacityMatchesEagerOracle) {
  const size_t rounds = test::FuzzRounds(30);
  for (size_t round = 0; round < rounds; ++round) {
    const uint64_t seed = test::FuzzSeed(kLazySeedBase + 1, round);
    SCOPED_TRACE(test::SeedTrace(seed));
    util::Rng rng(seed);
    const CoverageIndex cov = LazyInstance(seed, rng);
    for (int draw = 0; draw < 4; ++draw) {
      const PreferenceFunction psi = DrawPsi(rng);
      CapacityConfig config;
      config.k = static_cast<uint32_t>(rng.UniformInt(0, cov.num_sites() + 3));
      config.site_capacities = DrawCapacities(cov.num_sites(), rng);
      SCOPED_TRACE(util::StrFormat("draw %d psi=%s k=%u", draw,
                                   psi.name().c_str(), config.k));
      const CapacityResult got = CapacityGreedy(cov, psi, config);
      const CapacityResult want = eager::Capacity(cov, psi, config);
      ExpectBitEqual(got.selection, want.selection);
      EXPECT_EQ(got.served_counts, want.served_counts);
    }
  }
}

TEST(LazyGreedy, CostCapacityMatchesEagerOracle) {
  const size_t rounds = test::FuzzRounds(30);
  for (size_t round = 0; round < rounds; ++round) {
    const uint64_t seed = test::FuzzSeed(kLazySeedBase + 2, round);
    SCOPED_TRACE(test::SeedTrace(seed));
    util::Rng rng(seed);
    const CoverageIndex cov = LazyInstance(seed, rng);
    for (int draw = 0; draw < 4; ++draw) {
      const PreferenceFunction psi = DrawPsi(rng);
      CostCapacityConfig config;
      config.site_costs = DrawCosts(cov.num_sites(), rng);
      config.budget = DrawBudget(config.site_costs, rng);
      config.site_capacities = DrawCapacities(cov.num_sites(), rng);
      SCOPED_TRACE(util::StrFormat("draw %d psi=%s budget=%.17g", draw,
                                   psi.name().c_str(), config.budget));
      ExpectBitEqual(CostCapacityGreedy(cov, psi, config),
                     eager::CostCapacity(cov, psi, config));
    }
  }
}

TEST(LazyGreedy, MarketShareMatchesEagerOracle) {
  const size_t rounds = test::FuzzRounds(30);
  for (size_t round = 0; round < rounds; ++round) {
    const uint64_t seed = test::FuzzSeed(kLazySeedBase + 3, round);
    SCOPED_TRACE(test::SeedTrace(seed));
    util::Rng rng(seed);
    const CoverageIndex cov = LazyInstance(seed, rng);
    for (int draw = 0; draw < 4; ++draw) {
      MarketShareConfig config;
      config.beta = rng.Uniform(0.01, 0.99);
      config.max_sites = rng.UniformInt(2) == 0
                             ? 0u
                             : static_cast<uint32_t>(
                                   rng.UniformInt(1, cov.num_sites() + 2));
      SCOPED_TRACE(util::StrFormat("draw %d beta=%.17g max_sites=%u", draw,
                                   config.beta, config.max_sites));
      const MarketShareResult got = MarketShareGreedy(cov, config);
      const MarketShareResult want = eager::MarketShare(cov, config);
      ExpectBitEqual(got.selection, want.selection);
      EXPECT_EQ(util::DoubleBits(got.covered_fraction),
                util::DoubleBits(want.covered_fraction));
      EXPECT_EQ(got.reached_target, want.reached_target);
    }
  }
}

}  // namespace
}  // namespace netclus::tops
