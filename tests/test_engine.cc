// End-to-end tests of the public Engine API: the paper's whole pipeline
// (Fig. 2) from raw GPS traces through map-matching, offline index
// construction, online queries, and dynamic updates.
#include <algorithm>
#include <cstdlib>

#include "api/engine.h"
#include "gtest/gtest.h"
#include "store/simd/bulk_varint.h"
#include "test_helpers.h"
#include "traj/trace_synthesizer.h"
#include "traj/trip_generator.h"

namespace netclus {
namespace {

Engine MakeEngine(uint32_t dim = 12, uint64_t seed = 91) {
  graph::RoadNetwork net = test::MakeGridNetwork(dim, dim, 100.0);
  tops::SiteSet sites = tops::SiteSet::AllNodes(net);
  Engine::Options options;
  options.index.gamma = 0.75;
  options.index.tau_min_m = 300.0;
  options.index.tau_max_m = 3000.0;
  Engine engine(std::move(net), std::move(sites), options);
  util::Rng rng(seed);
  for (int i = 0; i < 80; ++i) {
    const auto src =
        static_cast<graph::NodeId>(rng.UniformInt(engine.network().num_nodes()));
    const auto dst =
        static_cast<graph::NodeId>(rng.UniformInt(engine.network().num_nodes()));
    if (src == dst) continue;
    auto path = traj::RoutePerturbed(engine.network(), src, dst, 0.3, seed + i);
    if (path.size() >= 2) engine.AddTrajectory(std::move(path));
  }
  return engine;
}

Engine::QuerySpec Spec(uint32_t k, double tau_m) {
  Engine::QuerySpec spec;
  spec.k = k;
  spec.tau_m = tau_m;
  return spec;
}

TEST(Engine, FullPipelineProducesResults) {
  Engine engine = MakeEngine();
  engine.BuildIndex();
  ASSERT_TRUE(engine.index_built());
  const auto result = engine.Run(Spec(5, 600.0));
  EXPECT_EQ(result.selection.sites.size(), 5u);
  EXPECT_GT(result.selection.utility, 0.0);
}

TEST(Engine, GpsTraceIngestionRunsTheMatcher) {
  Engine engine = MakeEngine();
  // Synthesize a trace along a known route and ingest it.
  graph::DijkstraEngine dijkstra(&engine.network());
  const auto route = dijkstra.ShortestPath(0, 143);
  ASSERT_FALSE(route.empty());
  traj::TraceSynthesizerConfig synth;
  synth.noise_sigma_m = 10.0;
  const traj::GpsTrace trace =
      SynthesizeTrace(engine.network(), route, synth);
  const size_t before = engine.store().live_count();
  const auto id = engine.AddGpsTrace(trace);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(engine.store().live_count(), before + 1);
  const auto& matched = engine.store().trajectory(*id);
  EXPECT_EQ(matched.node(0), route.front());
  EXPECT_EQ(matched.node(matched.size() - 1), route.back());
}

TEST(Engine, ExactBaselinesAgreeWithEvaluate) {
  Engine engine = MakeEngine();
  const tops::PreferenceFunction psi = tops::PreferenceFunction::Binary();
  const tops::Selection greedy = engine.ExactGreedy(4, 600.0, psi);
  EXPECT_EQ(greedy.sites.size(), 4u);
  const double eval = engine.EvaluateExact(greedy.sites, 600.0, psi);
  EXPECT_NEAR(eval, greedy.utility, 1e-6);
}

TEST(Engine, NetClusStaysCloseToExactGreedy) {
  Engine engine = MakeEngine();
  engine.BuildIndex();
  const tops::PreferenceFunction psi = tops::PreferenceFunction::Binary();
  const auto netclus = engine.Run(Spec(5, 600.0));
  const tops::Selection greedy = engine.ExactGreedy(5, 600.0, psi);
  const double netclus_utility =
      engine.EvaluateExact(netclus.selection.sites, 600.0, psi);
  // Both heuristics; NetClus may slightly beat greedy, but large excess or
  // large shortfall would indicate a bug.
  EXPECT_LE(netclus_utility, 1.1 * greedy.utility + 1.0);
  EXPECT_GE(netclus_utility, 0.5 * greedy.utility);
}

TEST(Engine, OptimalBeatsGreedyOnSmallInstance) {
  Engine engine = MakeEngine(8, 95);
  const tops::PreferenceFunction psi = tops::PreferenceFunction::Binary();
  const auto optimal = engine.ExactOptimal(3, 600.0, psi, 30.0);
  const auto greedy = engine.ExactGreedy(3, 600.0, psi);
  EXPECT_TRUE(optimal.proven_optimal);
  EXPECT_GE(optimal.selection.utility, greedy.utility - 1e-9);
}

TEST(Engine, DynamicUpdatesKeepIndexConsistent) {
  Engine engine = MakeEngine();
  engine.BuildIndex();
  const tops::PreferenceFunction psi = tops::PreferenceFunction::Binary();
  // Add trajectories after the build; the index must absorb them.
  std::vector<traj::TrajId> added;
  for (int i = 0; i < 50; ++i) {
    added.push_back(engine.AddTrajectory({0, 1, 2, 12, 13, 14}));
  }
  const auto result = engine.Run(Spec(1, 600.0));
  const double utility = engine.EvaluateExact(result.selection.sites, 600.0, psi);
  EXPECT_GT(utility, 50.0 * 0.9);  // the flooded corner dominates
  // Remove them again; utility drops back.
  for (traj::TrajId t : added) engine.RemoveTrajectory(t);
  const auto after = engine.Run(Spec(1, 600.0));
  const double after_utility =
      engine.EvaluateExact(after.selection.sites, 600.0, psi);
  EXPECT_LT(after_utility, utility);
}

TEST(Engine, RemovingUnknownTrajectoryIsADocumentedNoOp) {
  Engine engine = MakeEngine();
  engine.BuildIndex();
  const size_t live = engine.store().live_count();

  engine.RemoveTrajectory(1u << 30);  // far beyond any allocated id
  EXPECT_EQ(engine.store().live_count(), live);
  engine.RemoveSite(1u << 30);  // unknown site id: same no-op contract
  engine.RemoveTrajectory(0);
  engine.RemoveTrajectory(0);  // double remove: second is a no-op
  EXPECT_EQ(engine.store().live_count(), live - 1);

  // The bogus removals left engine bit-identical to a control that only
  // performed the one legitimate removal (MakeEngine is deterministic).
  Engine control = MakeEngine();
  control.BuildIndex();
  control.RemoveTrajectory(0);
  const auto after = engine.Run(Spec(3, 600.0));
  const auto expected = control.Run(Spec(3, 600.0));
  EXPECT_EQ(after.selection.sites, expected.selection.sites);
  EXPECT_EQ(after.selection.marginal_gains, expected.selection.marginal_gains);
  EXPECT_EQ(after.selection.utility, expected.selection.utility);
}

TEST(Engine, SiteUpdatesChangeTheCandidatePool) {
  graph::RoadNetwork net = test::MakeGridNetwork(10, 10, 100.0);
  // Start with a deliberately tiny site pool far from the action.
  tops::SiteSet sites({99});
  Engine::Options options;
  options.index.tau_min_m = 300.0;
  options.index.tau_max_m = 2000.0;
  Engine engine(std::move(net), std::move(sites), options);
  for (int i = 0; i < 30; ++i) {
    engine.AddTrajectory({0, 1, 2, 3, 10, 11, 12, 13});
  }
  engine.BuildIndex();
  const tops::PreferenceFunction psi = tops::PreferenceFunction::Binary();
  const auto before = engine.Run(Spec(1, 400.0));
  const double before_utility =
      engine.EvaluateExact(before.selection.sites, 400.0, psi);
  // Add a site right on the busy corridor.
  const tops::SiteId hot = engine.AddSite(1);
  const auto after = engine.Run(Spec(1, 400.0));
  const double after_utility =
      engine.EvaluateExact(after.selection.sites, 400.0, psi);
  EXPECT_GE(after_utility, before_utility);
  EXPECT_EQ(after.selection.sites[0], hot);
  // Removing it restores the old answer.
  engine.RemoveSite(hot);
  const auto restored = engine.Run(Spec(1, 400.0));
  EXPECT_NE(restored.selection.sites[0], hot);
}

TEST(Engine, CostAndCapacityQueriesWork) {
  Engine engine = MakeEngine();
  engine.BuildIndex();
  Engine::QuerySpec cost = Spec(5, 600.0);
  cost.variant = exec::QueryVariant::kTopsCost;
  cost.site_costs =
      tops::DrawNormalCosts(engine.sites().size(), 1.0, 0.3, 0.1, 7);
  cost.budget = 3.0;
  const auto cost_result = engine.Run(cost);
  double spent = 0.0;
  for (tops::SiteId s : cost_result.selection.sites) {
    spent += cost.site_costs[s];
  }
  EXPECT_LE(spent, 3.0 + 1e-9);

  Engine::QuerySpec capacity = Spec(4, 600.0);
  capacity.variant = exec::QueryVariant::kTopsCapacity;
  capacity.site_capacities.assign(engine.sites().size(), 5.0);
  const auto cap_result = engine.Run(capacity);
  EXPECT_EQ(cap_result.selection.sites.size(), 4u);
  EXPECT_LE(cap_result.selection.utility, 20.0 + 1e-9);
}

TEST(Engine, IndexPersistenceRoundTrip) {
  Engine engine = MakeEngine();
  engine.BuildIndex();
  const auto before = engine.Run(Spec(5, 600.0));

  const std::string path = "/tmp/netclus_engine_persist_test.idx";
  std::string error;
  ASSERT_TRUE(engine.SaveIndexToFile(path, &error)) << error;

  // A second engine over the identical corpus loads instead of rebuilding.
  Engine fresh = MakeEngine();
  ASSERT_FALSE(fresh.index_built());
  ASSERT_TRUE(fresh.LoadIndexFromFile(path, &error)) << error;
  ASSERT_TRUE(fresh.index_built());
  const auto after = fresh.Run(Spec(5, 600.0));
  EXPECT_EQ(before.selection.sites, after.selection.sites);
  EXPECT_DOUBLE_EQ(before.selection.utility, after.selection.utility);
  std::remove(path.c_str());
}

TEST(Engine, LoadRejectsMismatchedCorpus) {
  Engine engine = MakeEngine();
  engine.BuildIndex();
  const std::string path = "/tmp/netclus_engine_mismatch_test.idx";
  std::string error;
  ASSERT_TRUE(engine.SaveIndexToFile(path, &error)) << error;
  Engine other = MakeEngine(9, 123);  // different grid size
  EXPECT_FALSE(other.LoadIndexFromFile(path, &error));
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

TEST(Engine, CoverageRespectsMemoryBudget) {
  Engine engine = MakeEngine();
  const auto cov = engine.BuildCoverage(600.0, /*memory_budget_bytes=*/512);
  EXPECT_TRUE(cov.oom());
}

// Same corpus as MakeEngine, caller-controlled options (backend, threads,
// load mode) for the persistence differential below.
Engine MakeEngineWith(Engine::Options options, uint32_t dim = 12,
                      uint64_t seed = 91) {
  graph::RoadNetwork net = test::MakeGridNetwork(dim, dim, 100.0);
  tops::SiteSet sites = tops::SiteSet::AllNodes(net);
  options.index.gamma = 0.75;
  options.index.tau_min_m = 300.0;
  options.index.tau_max_m = 3000.0;
  Engine engine(std::move(net), std::move(sites), options);
  util::Rng rng(seed);
  for (int i = 0; i < 80; ++i) {
    const auto src =
        static_cast<graph::NodeId>(rng.UniformInt(engine.network().num_nodes()));
    const auto dst =
        static_cast<graph::NodeId>(rng.UniformInt(engine.network().num_nodes()));
    if (src == dst) continue;
    auto path = traj::RoutePerturbed(engine.network(), src, dst, 0.3, seed + i);
    if (path.size() >= 2) engine.AddTrajectory(std::move(path));
  }
  return engine;
}

// The Table 9 / Table 11 acceptance property of the index file: an index
// saved to the binary file and loaded back — by heap copy or zero-copy
// mmap, at 1 or 4 worker threads, under every distance backend — answers
// TopK and TopKBatch bit-identically to the in-memory index it came from.
TEST(Engine, SaveLoadBitIdenticalAcrossBackendsThreadsAndModes) {
  std::vector<Engine::QuerySpec> specs;
  for (uint32_t i = 0; i < 6; ++i) {
    Engine::QuerySpec spec;
    spec.k = 3 + i % 3;
    spec.tau_m = 500.0 + 200.0 * i;
    spec.use_fm = i % 2 == 1;
    specs.push_back(spec);
  }
  const std::string path = "/tmp/netclus_engine_save_load_diff.idx";
  for (const auto backend : {graph::spf::BackendKind::kDijkstra,
                             graph::spf::BackendKind::kBidirectional,
                             graph::spf::BackendKind::kContractionHierarchies}) {
    SCOPED_TRACE(static_cast<int>(backend));
    Engine::Options base;
    base.distance_backend = backend;
    Engine built = MakeEngineWith(base);
    built.BuildIndex();
    const auto ref_single = built.Run(Spec(5, 700.0));
    const auto ref_batch = built.TopKBatch(specs);
    std::string error;
    ASSERT_TRUE(built.SaveIndexToFile(path, &error)) << error;

    for (const auto mode :
         {index::IndexLoadMode::kCopy, index::IndexLoadMode::kMmap}) {
      for (const uint32_t threads : {1u, 4u}) {
        SCOPED_TRACE(static_cast<int>(mode) * 10 + static_cast<int>(threads));
        Engine::Options options = base;
        options.threads = threads;
        options.index_load_mode = mode;
        Engine fresh = MakeEngineWith(options);
        ASSERT_TRUE(fresh.LoadIndexFromFile(path, &error)) << error;

        const auto single = fresh.Run(Spec(5, 700.0));
        EXPECT_EQ(single.selection.sites, ref_single.selection.sites);
        EXPECT_EQ(single.selection.utility, ref_single.selection.utility);
        EXPECT_EQ(single.selection.marginal_gains,
                  ref_single.selection.marginal_gains);

        const auto batch = fresh.TopKBatch(specs);
        ASSERT_EQ(batch.size(), ref_batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
          EXPECT_EQ(batch[i].selection.sites, ref_batch[i].selection.sites)
              << "spec " << i;
          EXPECT_EQ(batch[i].selection.utility, ref_batch[i].selection.utility);
          EXPECT_EQ(batch[i].selection.marginal_gains,
                    ref_batch[i].selection.marginal_gains);
        }
      }
    }
  }
  std::remove(path.c_str());
}

// The v3 acceptance property: TopK answers are bit-identical across
// every SIMD kernel the host supports, with and without a page budget
// smaller than the index file, in both load modes. The kernels decode
// the same grammar and the pool only changes residency, so any
// divergence here is a codec or eviction bug.
TEST(Engine, SaveLoadV3BitIdenticalAcrossSimdKernelsAndPageBudget) {
  std::vector<Engine::QuerySpec> specs;
  for (uint32_t i = 0; i < 4; ++i) {
    Engine::QuerySpec spec;
    spec.k = 3 + i % 3;
    spec.tau_m = 500.0 + 250.0 * i;
    spec.use_fm = i % 2 == 1;
    specs.push_back(spec);
  }
  const std::string path = "/tmp/netclus_engine_v3_diff.idx";
  Engine built = MakeEngineWith(Engine::Options());
  built.BuildIndex();
  const auto ref_single = built.Run(Spec(5, 700.0));
  const auto ref_batch = built.TopKBatch(specs);
  std::string error;
  ASSERT_TRUE(built.SaveIndexToFile(path, &error)) << error;

  std::vector<store::simd::Kernel> kernels;
  for (const auto k :
       {store::simd::Kernel::kScalar, store::simd::Kernel::kSse4,
        store::simd::Kernel::kAvx2}) {
    if (store::simd::Supports(k)) kernels.push_back(k);
  }
  ASSERT_GE(kernels.size(), 1u);

  for (const store::simd::Kernel kernel : kernels) {
    ASSERT_TRUE(store::simd::ForceKernel(kernel));
    for (const char* budget : {"", "16MiB"}) {
      if (budget[0] != '\0') {
        setenv("NETCLUS_PAGE_BUDGET", budget, 1);
      } else {
        unsetenv("NETCLUS_PAGE_BUDGET");
      }
      for (const auto mode :
           {index::IndexLoadMode::kCopy, index::IndexLoadMode::kMmap}) {
        SCOPED_TRACE(std::string(store::simd::KernelName(kernel)) + "/" +
                     (budget[0] ? budget : "unlimited") + "/mode" +
                     std::to_string(static_cast<int>(mode)));
        Engine::Options options;
        options.index_load_mode = mode;
        Engine fresh = MakeEngineWith(options);
        ASSERT_TRUE(fresh.LoadIndexFromFile(path, &error)) << error;

        const auto single = fresh.Run(Spec(5, 700.0));
        EXPECT_EQ(single.selection.sites, ref_single.selection.sites);
        EXPECT_EQ(single.selection.utility, ref_single.selection.utility);
        EXPECT_EQ(single.selection.marginal_gains,
                  ref_single.selection.marginal_gains);

        const auto batch = fresh.TopKBatch(specs);
        ASSERT_EQ(batch.size(), ref_batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
          EXPECT_EQ(batch[i].selection.sites, ref_batch[i].selection.sites)
              << "spec " << i;
          EXPECT_EQ(batch[i].selection.utility, ref_batch[i].selection.utility);
          EXPECT_EQ(batch[i].selection.marginal_gains,
                    ref_batch[i].selection.marginal_gains);
        }
      }
    }
  }
  store::simd::ResetKernelFromEnv();
  unsetenv("NETCLUS_PAGE_BUDGET");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace netclus
