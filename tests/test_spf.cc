// Differential distance-oracle suite for the pluggable shortest-path
// subsystem (src/graph/spf/), plus the backend-equivalence end-to-end
// tests over the Engine API.
//
// The contract under test: every backend (bidirectional Dijkstra,
// Contraction Hierarchies) returns *bit-identical* distances to the plain
// Dijkstra oracle — on strongly connected city networks, on tie-heavy
// graphs with zero-weight edges, and on disconnected graphs with
// unreachable pairs. Seeds follow the replay convention of
// docs/testing.md (NETCLUS_TEST_SEED / NETCLUS_TEST_ROUNDS).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "api/engine.h"
#include "data/datasets.h"
#include "graph/dijkstra.h"
#include "graph/spf/bidirectional_dijkstra.h"
#include "graph/spf/contraction_hierarchy.h"
#include "graph/spf/distance_backend.h"
#include "gtest/gtest.h"
#include "test_helpers.h"
#include "traj/trip_generator.h"

namespace netclus {
namespace {

using graph::DijkstraEngine;
using graph::NodeId;
using graph::kInfDistance;
namespace spf = graph::spf;

constexpr uint64_t kSuiteSeedBase = 0x5bfbeefULL;

// Walks `path` and sums the lightest arc between consecutive nodes;
// returns kInfDistance on a broken path.
double PathLength(const graph::RoadNetwork& net,
                  const std::vector<NodeId>& path) {
  double total = 0.0;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    double best = kInfDistance;
    for (const graph::Arc& arc : net.OutArcs(path[i])) {
      if (arc.to == path[i + 1]) best = std::min(best, double{arc.weight});
    }
    if (best == kInfDistance) return kInfDistance;
    total += best;
  }
  return total;
}

TEST(SpfDifferential, BackendNamesRoundTrip) {
  for (const spf::BackendKind kind :
       {spf::BackendKind::kDijkstra, spf::BackendKind::kBidirectional,
        spf::BackendKind::kContractionHierarchies}) {
    const auto parsed = spf::ParseBackendName(spf::BackendName(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(spf::ParseBackendName("astar").has_value());
  EXPECT_EQ(spf::ResolveBackendKind(spf::BackendKind::kBidirectional),
            spf::BackendKind::kBidirectional);
}

// The headline differential: 50 seeded random graphs, 1k (s, t) pairs
// each, distances bit-identical across all three backends — including
// unreachable pairs (family 2) and zero-weight ties (families 1, 2).
TEST(SpfDifferential, PointToPointMatchesDijkstraOracle) {
  const size_t rounds = test::FuzzRounds(50);
  for (size_t round = 0; round < rounds; ++round) {
    const uint64_t seed = test::FuzzSeed(kSuiteSeedBase, round);
    SCOPED_TRACE(test::SeedTrace(seed));
    const graph::RoadNetwork net = test::MakeSpfTestGraph(seed);
    DijkstraEngine oracle(&net);
    spf::BidirectionalQuery bidir(&net);
    const auto ch = spf::ContractionHierarchy::Build(&net);
    const auto ch_query = ch->MakeQuery();

    size_t unreachable = 0;
    for (const auto& [s, t] : test::MakeQueryPairs(net, 1000, seed)) {
      const double expected = oracle.PointToPoint(s, t);
      if (expected == kInfDistance) ++unreachable;
      // EXPECT_EQ, not EXPECT_NEAR: the contract is bit-identical.
      EXPECT_EQ(bidir.PointToPoint(s, t), expected) << "s=" << s << " t=" << t;
      EXPECT_EQ(ch_query->PointToPoint(s, t), expected)
          << "s=" << s << " t=" << t;
    }
    // Family 2 graphs are two islands: roughly half the pairs must have
    // exercised the unreachable code path.
    if (seed % 3 == 2) {
      EXPECT_GT(unreachable, 100u);
    }
  }
}

// One-to-many primitives: full searches, bounded searches, and bounded
// round trips agree node-for-node and bit-for-bit.
TEST(SpfDifferential, OneToManyMatchesDijkstraOracle) {
  const size_t rounds = test::FuzzRounds(12);
  for (size_t round = 0; round < rounds; ++round) {
    const uint64_t seed = test::FuzzSeed(kSuiteSeedBase + 1, round);
    SCOPED_TRACE(test::SeedTrace(seed));
    const graph::RoadNetwork net = test::MakeSpfTestGraph(seed);
    DijkstraEngine oracle(&net);
    spf::BidirectionalQuery bidir(&net);
    const auto ch = spf::ContractionHierarchy::Build(&net);
    const auto ch_query = ch->MakeQuery();

    util::Rng rng(seed);
    for (int probe = 0; probe < 8; ++probe) {
      const auto source =
          static_cast<NodeId>(rng.UniformInt(net.num_nodes()));
      const auto dir = probe % 2 == 0 ? graph::Direction::kForward
                                      : graph::Direction::kReverse;
      // Interleave a point-to-point on the same workspace: the
      // bidirectional search must not leave state (heap leftovers, stale
      // labels) that corrupts the batched one-to-many that follows.
      ch_query->PointToPoint(
          source, static_cast<NodeId>(rng.UniformInt(net.num_nodes())));
      // Full search: element-wise bit equality, unreachable included.
      const std::vector<double> expected_full = oracle.FullSearch(source, dir);
      EXPECT_EQ(bidir.FullSearch(source, dir), expected_full);
      EXPECT_EQ(ch_query->FullSearch(source, dir), expected_full);

      // Bounded search: same (node, distance) set. Settle order may
      // legitimately differ on zero-weight ties, so compare sorted.
      const double radius = rng.Uniform(200.0, 2500.0);
      auto by_node = [](std::vector<graph::Settled> settled) {
        std::sort(settled.begin(), settled.end(),
                  [](const graph::Settled& a, const graph::Settled& b) {
                    return a.node < b.node;
                  });
        return settled;
      };
      const auto expected_ball = by_node(oracle.BoundedSearch(source, radius, dir));
      for (spf::DistanceQuery* other :
           {static_cast<spf::DistanceQuery*>(&bidir), ch_query.get()}) {
        const auto ball = by_node(other->BoundedSearch(source, radius, dir));
        ASSERT_EQ(ball.size(), expected_ball.size());
        for (size_t i = 0; i < ball.size(); ++i) {
          EXPECT_EQ(ball[i].node, expected_ball[i].node);
          EXPECT_EQ(ball[i].distance, expected_ball[i].distance);
        }
      }

      // Bounded round trip: both backends must produce the identical
      // id-sorted (node, out, back) triples.
      const auto expected_rt = oracle.BoundedRoundTrip(source, radius);
      for (spf::DistanceQuery* other :
           {static_cast<spf::DistanceQuery*>(&bidir), ch_query.get()}) {
        const auto rt = other->BoundedRoundTrip(source, radius);
        ASSERT_EQ(rt.size(), expected_rt.size());
        for (size_t i = 0; i < rt.size(); ++i) {
          EXPECT_EQ(rt[i].node, expected_rt[i].node);
          EXPECT_EQ(rt[i].out_distance, expected_rt[i].out_distance);
          EXPECT_EQ(rt[i].back_distance, expected_rt[i].back_distance);
        }
      }
    }
  }
}

// ShortestPath: each backend may pick a different tie-equivalent route,
// but every returned path must be a real path of exactly the shortest
// length, and reachability must agree.
TEST(SpfDifferential, ShortestPathsAreValidAndOptimal) {
  const size_t rounds = test::FuzzRounds(10);
  for (size_t round = 0; round < rounds; ++round) {
    const uint64_t seed = test::FuzzSeed(kSuiteSeedBase + 2, round);
    SCOPED_TRACE(test::SeedTrace(seed));
    const graph::RoadNetwork net = test::MakeSpfTestGraph(seed);
    DijkstraEngine oracle(&net);
    spf::BidirectionalQuery bidir(&net);
    const auto ch = spf::ContractionHierarchy::Build(&net);
    const auto ch_query = ch->MakeQuery();

    for (const auto& [s, t] : test::MakeQueryPairs(net, 60, seed)) {
      const double expected = oracle.PointToPoint(s, t);
      for (spf::DistanceQuery* backend :
           {static_cast<spf::DistanceQuery*>(&oracle),
            static_cast<spf::DistanceQuery*>(&bidir), ch_query.get()}) {
        const std::vector<NodeId> path = backend->ShortestPath(s, t);
        if (expected == kInfDistance) {
          EXPECT_TRUE(path.empty());
          continue;
        }
        ASSERT_FALSE(path.empty());
        EXPECT_EQ(path.front(), s);
        EXPECT_EQ(path.back(), t);
        EXPECT_EQ(PathLength(net, path), expected);
      }
    }
  }
}

// CH serialization: the full hierarchy round-trips through the index-file
// backend section, and the loaded copy answers identically.
TEST(SpfDifferential, ContractionHierarchySerializationRoundTrips) {
  const uint64_t seed = test::FuzzSeed(kSuiteSeedBase + 3, 0);
  SCOPED_TRACE(test::SeedTrace(seed));
  const graph::RoadNetwork net = test::MakeSpfTestGraph(seed);
  const auto ch = spf::ContractionHierarchy::Build(&net);

  std::stringstream stream;
  ch->WriteTo(stream);
  std::unique_ptr<spf::ContractionHierarchy> loaded;
  std::string error;
  ASSERT_TRUE(spf::ContractionHierarchy::ReadFrom(stream, &net, &loaded, &error))
      << error;
  EXPECT_EQ(loaded->num_shortcuts(), ch->num_shortcuts());

  const auto original = ch->MakeQuery();
  const auto reloaded = loaded->MakeQuery();
  for (const auto& [s, t] : test::MakeQueryPairs(net, 200, seed)) {
    EXPECT_EQ(reloaded->PointToPoint(s, t), original->PointToPoint(s, t));
  }

  // A hierarchy for a different network must be rejected.
  const graph::RoadNetwork other = test::MakeLineNetwork(7);
  std::stringstream stream2;
  ch->WriteTo(stream2);
  EXPECT_FALSE(
      spf::ContractionHierarchy::ReadFrom(stream2, &other, &loaded, &error));
}

// ---------------------------------------------------------------------------
// Backend-equivalence end-to-end: identical TopK / TopKBatch rankings
// through the full Engine pipeline under all three backends, at 1 and 4
// threads.
// ---------------------------------------------------------------------------

Engine MakeBackendEngine(spf::BackendKind kind, uint32_t threads,
                         uint64_t seed) {
  graph::RoadNetwork net = test::MakeGridNetwork(12, 12, 110.0);
  tops::SiteSet sites = tops::SiteSet::AllNodes(net);
  Engine::Options options;
  options.index.tau_min_m = 300.0;
  options.index.tau_max_m = 3000.0;
  options.threads = threads;
  options.distance_backend = kind;
  Engine engine(std::move(net), std::move(sites), options);
  util::Rng rng(seed);
  for (int i = 0; i < 70; ++i) {
    const auto src =
        static_cast<NodeId>(rng.UniformInt(engine.network().num_nodes()));
    const auto dst =
        static_cast<NodeId>(rng.UniformInt(engine.network().num_nodes()));
    if (src == dst) continue;
    auto path = traj::RoutePerturbed(engine.network(), src, dst, 0.3, seed + i);
    if (path.size() >= 2) engine.AddTrajectory(std::move(path));
  }
  engine.BuildIndex();
  return engine;
}

TEST(SpfEngineEquivalence, TopKIdenticalAcrossBackendsAndThreads) {
  const uint64_t seed = test::FuzzSeed(kSuiteSeedBase + 4, 0);
  SCOPED_TRACE(test::SeedTrace(seed));
  Engine::QuerySpec single_spec;
  single_spec.k = 5;
  single_spec.tau_m = 800.0;

  std::vector<Engine::QuerySpec> specs;
  for (uint32_t k : {3u, 5u}) {
    for (double tau : {500.0, 900.0, 1600.0}) {
      Engine::QuerySpec spec;
      spec.k = k;
      spec.tau_m = tau;
      specs.push_back(spec);
    }
  }

  // Reference: plain Dijkstra, serial.
  const Engine reference =
      MakeBackendEngine(spf::BackendKind::kDijkstra, 1, seed);
  const auto expected_single = reference.Run(single_spec);
  const auto expected_batch = reference.TopKBatch(specs);

  for (const spf::BackendKind kind :
       {spf::BackendKind::kDijkstra, spf::BackendKind::kBidirectional,
        spf::BackendKind::kContractionHierarchies,
        // kDefault resolves NETCLUS_SPF: under the CI backend matrix this
        // re-runs the pipeline through each env-selected backend.
        spf::BackendKind::kDefault}) {
    for (const uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(testing::Message()
                   << "backend=" << spf::BackendName(kind)
                   << " threads=" << threads);
      const Engine engine = MakeBackendEngine(kind, threads, seed);
      const auto single = engine.Run(single_spec);
      EXPECT_EQ(single.selection.sites, expected_single.selection.sites);
      EXPECT_EQ(single.selection.utility, expected_single.selection.utility);

      const auto batch = engine.TopKBatch(specs);
      ASSERT_EQ(batch.size(), expected_batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(batch[i].selection.sites, expected_batch[i].selection.sites)
            << "spec " << i;
        EXPECT_EQ(batch[i].selection.utility,
                  expected_batch[i].selection.utility)
            << "spec " << i;
      }
    }
  }
}

// Exact baselines flow through the backend too: covering sets built by CH
// match the Dijkstra-built ones entry for entry.
TEST(SpfEngineEquivalence, ExactCoverageIdenticalAcrossBackends) {
  const uint64_t seed = test::FuzzSeed(kSuiteSeedBase + 5, 0);
  SCOPED_TRACE(test::SeedTrace(seed));
  const Engine reference =
      MakeBackendEngine(spf::BackendKind::kDijkstra, 1, seed);
  const Engine ch_engine =
      MakeBackendEngine(spf::BackendKind::kContractionHierarchies, 1, seed);

  const tops::CoverageIndex expected = reference.BuildCoverage(700.0);
  const tops::CoverageIndex actual = ch_engine.BuildCoverage(700.0);
  ASSERT_EQ(actual.num_sites(), expected.num_sites());
  for (tops::SiteId s = 0; s < expected.num_sites(); ++s) {
    const auto expected_tc = expected.TC(s);
    const auto actual_tc = actual.TC(s);
    ASSERT_EQ(actual_tc.size(), expected_tc.size()) << "site " << s;
    for (size_t i = 0; i < expected_tc.size(); ++i) {
      EXPECT_EQ(actual_tc[i].id, expected_tc[i].id);
      EXPECT_EQ(actual_tc[i].dr_m, expected_tc[i].dr_m);
    }
  }

  const tops::PreferenceFunction psi = tops::PreferenceFunction::Binary();
  const tops::Selection a = reference.ExactGreedy(4, 700.0, psi);
  const tops::Selection b = ch_engine.ExactGreedy(4, 700.0, psi);
  EXPECT_EQ(a.sites, b.sites);
  EXPECT_EQ(a.utility, b.utility);
}

// Save/load carries the backend: an engine that persists its index under
// CH hands the hierarchy to the loading engine (no re-contraction), and
// the loaded engine answers identically.
TEST(SpfEngineEquivalence, IndexFileCarriesBackend) {
  const uint64_t seed = test::FuzzSeed(kSuiteSeedBase + 6, 0);
  SCOPED_TRACE(test::SeedTrace(seed));
  Engine saver =
      MakeBackendEngine(spf::BackendKind::kContractionHierarchies, 1, seed);
  const std::string path = testing::TempDir() + "/spf_index_with_backend.txt";
  std::string error;
  ASSERT_TRUE(saver.SaveIndexToFile(path, &error)) << error;

  Engine loader = MakeBackendEngine(spf::BackendKind::kDijkstra, 1, seed);
  ASSERT_TRUE(loader.LoadIndexFromFile(path, &error)) << error;
  EXPECT_EQ(loader.distance_backend().kind(),
            spf::BackendKind::kContractionHierarchies);

  Engine::QuerySpec spec;
  spec.k = 5;
  spec.tau_m = 800.0;
  const auto expected = saver.Run(spec);
  const auto actual = loader.Run(spec);
  EXPECT_EQ(actual.selection.sites, expected.selection.sites);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace netclus
