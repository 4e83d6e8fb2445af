// Property tests for the paper's theoretical guarantees:
//   Theorem 2  — U is monotone and submodular;
//   Lemma 2    — U(Q_k) >= (k/n) U(S);
//   Theorem 3  — Inc-Greedy >= max{1 - 1/e, k/n} of OPT;
//   Theorem 7  — with all nodes as sites and tau >= 4R_p, every trajectory
//                is covered by some representative (U(S_hat) = m);
//   Sec. 7.1   — CostGreedy >= (1 - 1/e)/2 of the budgeted OPT (checked
//                against brute force on tiny instances);
//   Sec. 7.3   — warm-started greedy keeps the (1 - 1/e) bound on the
//                *extra* utility.
#include <algorithm>
#include <memory>
#include <sstream>

#include "exec/cover_build.h"
#include "gtest/gtest.h"
#include "netclus/multi_index.h"
#include "test_helpers.h"
#include "tops/coverage.h"
#include "tops/ilp_export.h"
#include "tops/inc_greedy.h"
#include "tops/optimal.h"
#include "tops/variants.h"
#include "util/rng.h"

namespace netclus::tops {
namespace {

CoverageIndex RandomInstance(uint64_t seed, uint32_t num_sites,
                             uint32_t num_trajs, double tau_m = 700.0) {
  graph::RoadNetwork net = test::MakeRandomNetwork(35, seed);
  traj::TrajectoryStore store(&net);
  test::FillRandomWalks(&store, num_trajs, 3, 9, seed + 1);
  SiteSet sites = SiteSet::SampleNodes(net, num_sites, seed + 2);
  CoverageConfig cc;
  cc.tau_m = tau_m;
  return CoverageIndex::Build(store, sites, cc);
}

class BoundProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BoundProperty, UtilityIsMonotone) {
  const CoverageIndex cov = RandomInstance(GetParam(), 14, 40);
  const PreferenceFunction psi = PreferenceFunction::Linear();
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    // Random Q ⊂ R: U(Q) <= U(R).
    std::vector<SiteId> r;
    for (SiteId s = 0; s < cov.num_sites(); ++s) {
      if (rng.Bernoulli(0.5)) r.push_back(s);
    }
    std::vector<SiteId> q;
    for (SiteId s : r) {
      if (rng.Bernoulli(0.6)) q.push_back(s);
    }
    EXPECT_LE(UtilityOf(cov, psi, q), UtilityOf(cov, psi, r) + 1e-9);
  }
}

TEST_P(BoundProperty, UtilityIsSubmodular) {
  // Theorem 2 via the lattice form: U(Q) + U(R) >= U(Q∪R) + U(Q∩R).
  const CoverageIndex cov = RandomInstance(GetParam() + 10, 12, 40);
  const PreferenceFunction psi = PreferenceFunction::Linear();
  util::Rng rng(GetParam() + 10);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<SiteId> q, r, uni, inter;
    for (SiteId s = 0; s < cov.num_sites(); ++s) {
      const bool in_q = rng.Bernoulli(0.4);
      const bool in_r = rng.Bernoulli(0.4);
      if (in_q) q.push_back(s);
      if (in_r) r.push_back(s);
      if (in_q || in_r) uni.push_back(s);
      if (in_q && in_r) inter.push_back(s);
    }
    const double lhs = UtilityOf(cov, psi, q) + UtilityOf(cov, psi, r);
    const double rhs = UtilityOf(cov, psi, uni) + UtilityOf(cov, psi, inter);
    EXPECT_GE(lhs, rhs - 1e-9);
  }
}

TEST_P(BoundProperty, Lemma2GreedyPrefixBound) {
  // U(Q_k) >= (k/n) U(S) for every prefix of the greedy selection.
  const CoverageIndex cov = RandomInstance(GetParam() + 20, 15, 50);
  const PreferenceFunction psi = PreferenceFunction::Binary();
  const size_t n = cov.num_sites();
  std::vector<SiteId> all(n);
  for (SiteId s = 0; s < n; ++s) all[s] = s;
  const double full = UtilityOf(cov, psi, all);
  GreedyConfig config;
  config.k = static_cast<uint32_t>(n);
  const Selection greedy = IncGreedy(cov, psi, config);
  double prefix_utility = 0.0;
  for (size_t k = 1; k <= greedy.sites.size(); ++k) {
    prefix_utility += greedy.marginal_gains[k - 1];
    EXPECT_GE(prefix_utility + 1e-9,
              static_cast<double>(k) / static_cast<double>(n) * full)
        << "k=" << k;
  }
}

TEST_P(BoundProperty, Theorem3GreedyVsOptimal) {
  const CoverageIndex cov = RandomInstance(GetParam() + 30, 12, 40);
  const PreferenceFunction psi = PreferenceFunction::Binary();
  for (const uint32_t k : {2u, 4u}) {
    GreedyConfig gc;
    gc.k = k;
    const Selection greedy = IncGreedy(cov, psi, gc);
    OptimalConfig oc;
    oc.k = k;
    oc.time_limit_s = 30.0;
    const OptimalResult opt = SolveOptimal(cov, psi, oc);
    ASSERT_TRUE(opt.proven_optimal);
    const double bound =
        std::max(1.0 - 1.0 / M_E,
                 static_cast<double>(k) / static_cast<double>(cov.num_sites()));
    EXPECT_GE(greedy.utility, bound * opt.selection.utility - 1e-6);
  }
}

TEST_P(BoundProperty, ExistingServicesKeepBoundOnExtraUtility) {
  // Sec. 7.3: U'(Q) = U(Q ∪ ES) - U(ES) is within (1 - 1/e) of the best
  // possible extra utility.
  const CoverageIndex cov = RandomInstance(GetParam() + 40, 10, 35);
  const PreferenceFunction psi = PreferenceFunction::Binary();
  const std::vector<SiteId> es = {0, 3};
  GreedyConfig config;
  config.k = 3;
  config.existing_services = es;
  const Selection greedy = IncGreedy(cov, psi, config);
  const double base = greedy.base_utility;
  // Brute-force best extra utility over all 3-subsets of the remainder.
  double best_extra = 0.0;
  const size_t n = cov.num_sites();
  for (SiteId a = 0; a < n; ++a) {
    for (SiteId b = a + 1; b < n; ++b) {
      for (SiteId c = b + 1; c < n; ++c) {
        std::vector<SiteId> q = {0, 3, a, b, c};
        best_extra = std::max(best_extra, UtilityOf(cov, psi, q) - base);
      }
    }
  }
  EXPECT_GE(greedy.utility - base, (1.0 - 1.0 / M_E) * best_extra - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundProperty, ::testing::Values(5, 55, 555));

TEST(Theorem7, AllNodeSitesCoverEveryTrajectoryInClusteredSpace) {
  // With S = V and tau >= 4 R_p, each trajectory is covered by the
  // representative of a cluster it passes through, so the clustered
  // problem's full-set utility equals m (binary psi).
  graph::RoadNetwork net = test::MakeGridNetwork(10, 10, 100.0);
  auto store = std::make_unique<traj::TrajectoryStore>(&net);
  test::FillRandomWalks(store.get(), 50, 4, 12, 91);
  SiteSet sites = SiteSet::AllNodes(net);
  index::MultiIndexConfig config;
  config.gamma = 0.5;
  config.tau_min_m = 400.0;
  config.tau_max_m = 2500.0;
  const index::MultiIndex multi = index::MultiIndex::Build(*store, sites, config);
  for (const double tau : {400.0, 800.0, 1600.0}) {
    const size_t p = multi.InstanceFor(tau);
    ASSERT_LE(4.0 * multi.instance(p).radius_m(), tau + 1e-9);
    const CoverageIndex approx =
        exec::BuildCover(multi, *store, tau, p, /*threads=*/1).approx;
    // Union of all representative covers = every live trajectory.
    std::vector<bool> covered(store->total_count(), false);
    for (SiteId r = 0; r < approx.num_sites(); ++r) {
      for (const CoverEntry& e : approx.TC(r)) covered[e.id] = true;
    }
    size_t count = 0;
    for (traj::TrajId t = 0; t < store->total_count(); ++t) {
      if (covered[t]) ++count;
    }
    EXPECT_EQ(count, store->live_count()) << "tau=" << tau;
  }
}

TEST(CostBound, GreedyWithGuardWithinHalfOneMinusInvE) {
  // Brute-force budgeted optimum on tiny instances, under every ψ shape: the
  // s_max guard reads the greedy's round-0 marginals as standalone
  // utilities, so it is checked wherever ψ is not 0/1 as well.
  const size_t rounds = test::FuzzRounds(3);
  for (size_t round = 0; round < rounds; ++round) {
    const uint64_t seed = test::FuzzSeed(0xc057b0, round);
    SCOPED_TRACE(test::SeedTrace(seed));
    const CoverageIndex cov = RandomInstance(seed, 8, 25);
    CostConfig config;
    config.budget = 3.0;
    config.site_costs = DrawNormalCosts(8, 1.0, 0.5, 0.3, seed + 3);
    for (const PreferenceFunction& psi :
         {PreferenceFunction::Binary(), PreferenceFunction::Linear(),
          PreferenceFunction::ConvexProbability(2.0)}) {
      SCOPED_TRACE(psi.name());
      const CostResult got = CostGreedy(cov, psi, config);
      // Enumerate all subsets within budget.
      double best = 0.0;
      for (uint32_t mask = 0; mask < (1u << 8); ++mask) {
        double cost = 0.0;
        std::vector<SiteId> subset;
        for (uint32_t s = 0; s < 8; ++s) {
          if (mask & (1u << s)) {
            cost += config.site_costs[s];
            subset.push_back(s);
          }
        }
        if (cost <= config.budget) {
          best = std::max(best, UtilityOf(cov, psi, subset));
        }
      }
      EXPECT_GE(got.selection.utility, 0.5 * (1.0 - 1.0 / M_E) * best - 1e-6);
    }
  }
}

TEST(CostCapacity, CombinedExtensionRespectsBothConstraints) {
  const CoverageIndex cov = RandomInstance(801, 15, 60);
  const PreferenceFunction psi = PreferenceFunction::Binary();
  CostCapacityConfig config;
  config.budget = 4.0;
  config.site_costs = DrawNormalCosts(15, 1.0, 0.4, 0.2, 82);
  config.site_capacities.assign(15, 6.0);
  const CostResult got = CostCapacityGreedy(cov, psi, config);
  EXPECT_LE(got.total_cost, config.budget + 1e-9);
  // Capacity: utility per site bounded by its cap under binary psi.
  EXPECT_LE(got.selection.utility,
            6.0 * static_cast<double>(got.selection.sites.size()) + 1e-9);
}

TEST(CostCapacity, ReducesToCostGreedyWithInfiniteCapacity) {
  const CoverageIndex cov = RandomInstance(803, 12, 50);
  const PreferenceFunction psi = PreferenceFunction::Binary();
  CostCapacityConfig both;
  both.budget = 4.0;
  both.site_costs = DrawNormalCosts(12, 1.0, 0.4, 0.2, 84);
  both.site_capacities.assign(12, 1e12);
  CostConfig cost_only;
  cost_only.budget = both.budget;
  cost_only.site_costs = both.site_costs;
  const CostResult combined = CostCapacityGreedy(cov, psi, both);
  const CostResult plain = CostGreedy(cov, psi, cost_only);
  EXPECT_NEAR(combined.selection.utility, plain.selection.utility, 1e-9);
}

TEST(CostCapacity, TinyCapacitiesThrottleUtility) {
  const CoverageIndex cov = RandomInstance(805, 12, 50);
  const PreferenceFunction psi = PreferenceFunction::Binary();
  CostCapacityConfig config;
  config.budget = 6.0;
  config.site_costs.assign(12, 1.0);
  config.site_capacities.assign(12, 1.0);
  const CostResult got = CostCapacityGreedy(cov, psi, config);
  // At most budget/1 sites, each serving at most 1 trajectory.
  EXPECT_LE(got.selection.utility, 6.0 + 1e-9);
}

TEST(IlpExport, EmitsWellFormedLpWithExpectedCounts) {
  const CoverageIndex cov = RandomInstance(901, 6, 12);
  const PreferenceFunction psi = PreferenceFunction::Binary();
  std::ostringstream os;
  const IlpStats stats = ExportTopsLp(cov, psi, 3, os);
  const std::string lp = os.str();
  EXPECT_NE(lp.find("Maximize"), std::string::npos);
  EXPECT_NE(lp.find("Subject To"), std::string::npos);
  EXPECT_NE(lp.find("card:"), std::string::npos);
  EXPECT_NE(lp.find("Binary"), std::string::npos);
  EXPECT_NE(lp.find("End"), std::string::npos);
  // x vars for all sites plus linearization indicators.
  EXPECT_GE(stats.num_binary_vars, cov.num_sites());
  EXPECT_GT(stats.num_constraints, 0u);
  // One U bound per covered trajectory.
  size_t covered = 0;
  for (traj::TrajId t = 0; t < cov.num_trajectories(); ++t) {
    if (!cov.SC(t).empty()) ++covered;
  }
  for (size_t i = 0, pos = 0; i < covered; ++i) {
    pos = lp.find(" U", pos);
    ASSERT_NE(pos, std::string::npos);
    ++pos;
  }
}

TEST(IlpExport, BigMLinearizationUsesBoundedCoefficients) {
  const CoverageIndex cov = RandomInstance(903, 8, 20);
  std::ostringstream os;
  ExportTopsLp(cov, PreferenceFunction::Linear(), 2, os);
  // M = 2 suffices because scores live in [0,1]; no huge constants.
  EXPECT_EQ(os.str().find("1e+06"), std::string::npos);
  EXPECT_EQ(os.str().find("100000"), std::string::npos);
}

}  // namespace
}  // namespace netclus::tops
