#include <algorithm>
#include <set>

#include "exec/cover_build.h"
#include "gtest/gtest.h"
#include "netclus/multi_index.h"
#include "netclus/query.h"
#include "test_helpers.h"
#include "tops/inc_greedy.h"
#include "tops/variants.h"

namespace netclus::index {
namespace {

struct Fixture {
  graph::RoadNetwork net;
  std::unique_ptr<traj::TrajectoryStore> store;
  tops::SiteSet sites;
  std::unique_ptr<MultiIndex> index;

  explicit Fixture(uint64_t seed = 61, uint32_t dim = 14, uint32_t trajs = 120) {
    net = test::MakeGridNetwork(dim, dim, 100.0);
    store = std::make_unique<traj::TrajectoryStore>(&net);
    test::FillRandomWalks(store.get(), trajs, 5, 16, seed);
    sites = tops::SiteSet::AllNodes(net);
    MultiIndexConfig config;
    config.gamma = 0.75;
    config.tau_min_m = 300.0;
    config.tau_max_m = 4000.0;
    index = std::make_unique<MultiIndex>(
        MultiIndex::Build(*store, sites, config));
  }

  QueryResult Run(const Engine::QuerySpec& spec) const {
    return test::RunOnIndex(*index, *store, sites, spec);
  }
};

Engine::QuerySpec Spec(uint32_t k, double tau_m) {
  Engine::QuerySpec spec;
  spec.k = k;
  spec.tau_m = tau_m;
  return spec;
}

TEST(Query, ApproxCoversAreSubsetsOfExactCovers) {
  // T̂C(r) ⊆ TC(r) because d̂_r >= d_r (Sec. 5.1).
  Fixture f;
  const double tau = 800.0;
  const size_t p = f.index->InstanceFor(tau);
  const exec::BuiltCover cover =
      exec::BuildCover(*f.index, *f.store, tau, p, /*threads=*/1);
  const tops::CoverageIndex& approx = cover.approx;
  const std::vector<tops::SiteId>& rep_sites = cover.rep_sites;

  tops::CoverageConfig cc;
  cc.tau_m = tau;
  tops::SiteSet rep_set([&] {
    std::vector<graph::NodeId> nodes;
    for (tops::SiteId s : rep_sites) nodes.push_back(f.sites.node(s));
    return nodes;
  }());
  const tops::CoverageIndex exact =
      tops::CoverageIndex::Build(*f.store, rep_set, cc);

  ASSERT_EQ(approx.num_sites(), exact.num_sites());
  for (tops::SiteId r = 0; r < approx.num_sites(); ++r) {
    const auto approx_tc = approx.TC(r);
    const auto exact_tc = exact.TC(r);
    std::set<uint32_t> exact_ids;
    for (const tops::CoverEntry& e : exact_tc) exact_ids.insert(e.id);
    for (const tops::CoverEntry& e : approx_tc) {
      EXPECT_TRUE(exact_ids.count(e.id))
          << "rep " << r << " traj " << e.id << " in T^C but not TC";
      // And the estimate upper-bounds the true detour.
      auto it = std::find_if(exact_tc.begin(), exact_tc.end(),
                             [&](const tops::CoverEntry& x) { return x.id == e.id; });
      if (it != exact_tc.end()) {
        EXPECT_GE(e.dr_m + 1e-3, it->dr_m);
      }
    }
  }
}

TEST(Query, ReturnsKDistinctRealSites) {
  Fixture f;
  const QueryResult got = f.Run(Spec(6, 800.0));
  EXPECT_EQ(got.selection.sites.size(), 6u);
  std::set<tops::SiteId> unique(got.selection.sites.begin(),
                                got.selection.sites.end());
  EXPECT_EQ(unique.size(), 6u);
  for (tops::SiteId s : got.selection.sites) EXPECT_LT(s, f.sites.size());
  EXPECT_GT(got.selection.utility, 0.0);
  EXPECT_GT(got.clusters_considered, 0u);
  EXPECT_EQ(got.instance_used, f.index->InstanceFor(800.0));
}

TEST(Query, UtilityWithinFractionOfExactGreedy) {
  // Sec. 8.4: NetClus utilities are within ~93% of Inc-Greedy on average.
  // On small synthetic instances we assert a loose 60% to stay robust.
  Fixture f;
  const double tau = 800.0;
  const tops::PreferenceFunction psi = tops::PreferenceFunction::Binary();
  const QueryResult netclus = f.Run(Spec(5, tau));
  const double netclus_exact_utility = tops::CoverageIndex::EvaluateSelection(
      *f.store, f.sites, netclus.selection.sites, tau, psi);

  tops::CoverageConfig cc;
  cc.tau_m = tau;
  const tops::CoverageIndex cov = tops::CoverageIndex::Build(*f.store, f.sites, cc);
  tops::GreedyConfig gc;
  gc.k = 5;
  const tops::Selection greedy = IncGreedy(cov, psi, gc);

  EXPECT_GE(netclus_exact_utility, 0.6 * greedy.utility);
  // Both are heuristics: NetClus occasionally edges out Inc-Greedy (its
  // restricted candidate pool can dodge a greedy mistake), so only a large
  // excess would indicate a bug.
  EXPECT_LE(netclus_exact_utility, 1.1 * greedy.utility + 1.0);
}

TEST(Query, WorksAcrossTauSweep) {
  Fixture f;
  const tops::PreferenceFunction psi = tops::PreferenceFunction::Binary();
  double prev_utility = 0.0;
  for (const double tau : {300.0, 600.0, 1200.0, 2400.0}) {
    const QueryResult got = f.Run(Spec(5, tau));
    EXPECT_EQ(got.selection.sites.size(), 5u) << "tau " << tau;
    // Larger tau covers at least as much (checked on exact re-evaluation).
    const double exact = tops::CoverageIndex::EvaluateSelection(
        *f.store, f.sites, got.selection.sites, tau, psi);
    EXPECT_GE(exact, prev_utility * 0.8) << "tau " << tau;  // loose monotonicity
    prev_utility = exact;
  }
}

TEST(Query, CoarserInstancesForLargerTau) {
  Fixture f;
  const auto got_small = f.Run(Spec(3, 320.0));
  const auto got_large = f.Run(Spec(3, 3000.0));
  EXPECT_LT(got_small.instance_used, got_large.instance_used);
  EXPECT_GE(got_small.clusters_considered, got_large.clusters_considered);
}

TEST(Query, FmVariantSelectsReasonableSites) {
  Fixture f;
  Engine::QuerySpec spec = Spec(5, 800.0);
  spec.use_fm = true;
  const tops::PreferenceFunction psi = tops::PreferenceFunction::Binary();
  const QueryResult fm = f.Run(spec);
  EXPECT_EQ(fm.selection.sites.size(), 5u);
  spec.use_fm = false;
  const QueryResult exact = f.Run(spec);
  const double fm_utility = tops::CoverageIndex::EvaluateSelection(
      *f.store, f.sites, fm.selection.sites, 800.0, psi);
  const double exact_utility = tops::CoverageIndex::EvaluateSelection(
      *f.store, f.sites, exact.selection.sites, 800.0, psi);
  EXPECT_GE(fm_utility, 0.5 * exact_utility);
}

TEST(Query, ExistingServicesShiftSelection) {
  Fixture f;
  Engine::QuerySpec spec = Spec(3, 800.0);
  const QueryResult plain = f.Run(spec);
  // Install the plain answer as existing services; the next query must not
  // re-select them.
  spec.existing_services = plain.selection.sites;
  const QueryResult next = f.Run(spec);
  for (tops::SiteId s : next.selection.sites) {
    EXPECT_EQ(std::find(plain.selection.sites.begin(), plain.selection.sites.end(),
                        s),
              plain.selection.sites.end());
  }
}

TEST(Query, CostVariantStaysInBudget) {
  Fixture f;
  Engine::QuerySpec spec;
  spec.variant = exec::QueryVariant::kTopsCost;
  spec.tau_m = 800.0;
  spec.site_costs = tops::DrawNormalCosts(f.sites.size(), 1.0, 0.4, 0.1, 63);
  spec.budget = 4.0;
  const QueryResult got = f.Run(spec);
  double total = 0.0;
  for (tops::SiteId s : got.selection.sites) total += spec.site_costs[s];
  EXPECT_LE(total, 4.0 + 1e-9);
  EXPECT_GT(got.selection.utility, 0.0);
}

TEST(Query, CapacityVariantRespectsK) {
  Fixture f;
  Engine::QuerySpec spec = Spec(4, 800.0);
  spec.variant = exec::QueryVariant::kTopsCapacity;
  spec.site_capacities.assign(f.sites.size(), 10.0);
  const QueryResult got = f.Run(spec);
  EXPECT_EQ(got.selection.sites.size(), 4u);
  EXPECT_LE(got.selection.utility, 4.0 * 10.0 + 1e-9);
}

TEST(Query, DynamicTrajectoryUpdatesChangeAnswers) {
  Fixture f(71, 10, 30);
  // Flood one corner with new trajectories; the answer should move there.
  const tops::PreferenceFunction psi = tops::PreferenceFunction::Binary();
  const QueryResult before = f.Run(Spec(1, 600.0));
  for (int i = 0; i < 200; ++i) {
    const traj::TrajId t = f.store->Add({0, 1, 2, 10, 11, 12});
    f.index->AddTrajectory(*f.store, t);
  }
  const QueryResult after = f.Run(Spec(1, 600.0));
  const double before_utility = tops::CoverageIndex::EvaluateSelection(
      *f.store, f.sites, before.selection.sites, 600.0, psi);
  const double after_utility = tops::CoverageIndex::EvaluateSelection(
      *f.store, f.sites, after.selection.sites, 600.0, psi);
  EXPECT_GE(after_utility, before_utility);
  // The chosen site now covers the flooded corner.
  const graph::NodeId chosen = f.sites.node(after.selection.sites[0]);
  EXPECT_LT(f.net.EuclideanMeters(chosen, 1), 700.0);
}

TEST(Query, TransientMemoryIsBounded) {
  Fixture f;
  const QueryResult got = f.Run(Spec(5, 800.0));
  EXPECT_GT(got.transient_bytes, 0u);
  EXPECT_GT(got.total_seconds, 0.0);
  EXPECT_GE(got.total_seconds, got.cover_build_seconds);
}

}  // namespace
}  // namespace netclus::index
