// Shared fixtures and reference implementations for the test suite,
// including the seeded property/fuzz harness (see docs/testing.md for the
// seed-replay convention).
#ifndef NETCLUS_TESTS_TEST_HELPERS_H_
#define NETCLUS_TESTS_TEST_HELPERS_H_

#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "exec/executor.h"
#include "exec/planner.h"
#include "graph/generators.h"
#include "graph/road_network.h"
#include "netclus/multi_index.h"
#include "netclus/query.h"
#include "serve/server.h"
#include "tops/coverage.h"
#include "tops/site_set.h"
#include "traj/trajectory_store.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/strings.h"

namespace netclus::test {

/// Directed path 0 -> 1 -> ... -> n-1 with uniform edge length, plus the
/// reverse edges so round trips are finite.
inline graph::RoadNetwork MakeLineNetwork(size_t n, double edge_m = 100.0) {
  graph::RoadNetworkBuilder builder;
  for (size_t i = 0; i < n; ++i) {
    builder.AddNode({static_cast<double>(i) * edge_m, 0.0});
  }
  for (size_t i = 0; i + 1 < n; ++i) {
    builder.AddBidirectional(static_cast<graph::NodeId>(i),
                             static_cast<graph::NodeId>(i + 1), edge_m);
  }
  return std::move(builder).Build();
}

/// Small two-way grid with unit block length.
inline graph::RoadNetwork MakeGridNetwork(uint32_t rows, uint32_t cols,
                                          double block_m = 100.0) {
  graph::RoadNetworkBuilder builder;
  for (uint32_t r = 0; r < rows; ++r) {
    for (uint32_t c = 0; c < cols; ++c) {
      builder.AddNode({c * block_m, r * block_m});
    }
  }
  auto id = [cols](uint32_t r, uint32_t c) {
    return static_cast<graph::NodeId>(r * cols + c);
  };
  for (uint32_t r = 0; r < rows; ++r) {
    for (uint32_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) builder.AddBidirectional(id(r, c), id(r, c + 1), block_m);
      if (r + 1 < rows) builder.AddBidirectional(id(r, c), id(r + 1, c), block_m);
    }
  }
  return std::move(builder).Build();
}

/// Random strongly-connected-ish directed network for property tests;
/// a ring (guaranteeing strong connectivity) plus random chords.
inline graph::RoadNetwork MakeRandomNetwork(uint32_t num_nodes, uint64_t seed) {
  util::Rng rng(seed);
  graph::RoadNetworkBuilder builder;
  for (uint32_t i = 0; i < num_nodes; ++i) {
    builder.AddNode({rng.Uniform(0.0, 5000.0), rng.Uniform(0.0, 5000.0)});
  }
  for (uint32_t i = 0; i < num_nodes; ++i) {
    builder.AddEdge(i, (i + 1) % num_nodes, rng.Uniform(50.0, 400.0));
  }
  const uint32_t chords = num_nodes * 2;
  for (uint32_t c = 0; c < chords; ++c) {
    const auto u = static_cast<graph::NodeId>(rng.UniformInt(num_nodes));
    const auto v = static_cast<graph::NodeId>(rng.UniformInt(num_nodes));
    if (u != v) builder.AddEdge(u, v, rng.Uniform(50.0, 600.0));
  }
  return std::move(builder).Build();
}

/// O(V*E) Bellman-Ford reference distances.
inline std::vector<double> BellmanFord(const graph::RoadNetwork& net,
                                       graph::NodeId source) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(net.num_nodes(), inf);
  dist[source] = 0.0;
  for (size_t round = 0; round + 1 < net.num_nodes(); ++round) {
    bool changed = false;
    for (graph::NodeId u = 0; u < net.num_nodes(); ++u) {
      if (dist[u] == inf) continue;
      for (const graph::Arc& arc : net.OutArcs(u)) {
        if (dist[u] + arc.weight < dist[arc.to]) {
          dist[arc.to] = dist[u] + arc.weight;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  return dist;
}

/// Brute-force single-point detour distance: min over trajectory nodes of
/// d(v, s) + d(s, v), using Bellman-Ford reference distances.
inline double BruteSinglePointDetour(const graph::RoadNetwork& net,
                                     const traj::Trajectory& trajectory,
                                     graph::NodeId site_node) {
  const std::vector<double> from_site = BellmanFord(net, site_node);
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < trajectory.size(); ++i) {
    const graph::NodeId v = trajectory.node(i);
    const std::vector<double> from_v = BellmanFord(net, v);
    best = std::min(best, from_v[site_node] + from_site[v]);
  }
  return best;
}

/// Brute-force pairwise detour distance with along-path baseline and both
/// legs <= tau, clamped at zero.
inline double BrutePairwiseDetour(const graph::RoadNetwork& net,
                                  const traj::Trajectory& trajectory,
                                  graph::NodeId site_node, double tau_m) {
  const std::vector<double> from_site = BellmanFord(net, site_node);
  double best = std::numeric_limits<double>::infinity();
  for (size_t k = 0; k < trajectory.size(); ++k) {
    const std::vector<double> from_vk = BellmanFord(net, trajectory.node(k));
    const double leave = from_vk[site_node];
    if (leave > tau_m) continue;
    for (size_t l = k; l < trajectory.size(); ++l) {
      const double rejoin = from_site[trajectory.node(l)];
      if (rejoin > tau_m) continue;
      const double detour =
          std::max(0.0, leave + rejoin - trajectory.AlongDistance(k, l));
      best = std::min(best, detour);
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// Seeded property/fuzz harness (docs/testing.md)
//
// Property tests iterate `FuzzRounds(n)` rounds; round i derives its seed
// with `FuzzSeed(base, i)`. Both respect env overrides so a CI failure
// replays locally with a single variable:
//   NETCLUS_TEST_SEED=<seed>  pin every round to one seed
//   NETCLUS_TEST_ROUNDS=<n>   shrink/grow the round count
// Wrap each round in SCOPED_TRACE(SeedTrace(seed)) so failures print the
// exact replay command.
// ---------------------------------------------------------------------------

/// Number of rounds a property test should run (env-overridable). When a
/// seed is pinned via NETCLUS_TEST_SEED, one round is enough.
inline size_t FuzzRounds(size_t default_rounds) {
  if (util::GetEnvInt("NETCLUS_TEST_SEED", -1) >= 0) return 1;
  return static_cast<size_t>(util::GetEnvInt(
      "NETCLUS_TEST_ROUNDS", static_cast<int64_t>(default_rounds)));
}

/// Seed for round `round` of a property test (env-overridable).
inline uint64_t FuzzSeed(uint64_t base, size_t round) {
  const int64_t pinned = util::GetEnvInt("NETCLUS_TEST_SEED", -1);
  if (pinned >= 0) return static_cast<uint64_t>(pinned);
  // SplitMix-style spread so adjacent rounds land far apart. Masked to 63
  // bits: the replay env var parses through GetEnvInt (int64), so a seed
  // with the top bit set would not round-trip.
  uint64_t z = base + 0x9e3779b97f4a7c15ULL * (round + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) & 0x7fffffffffffffffULL;
}

/// SCOPED_TRACE message carrying the replay command for a failed round.
inline std::string SeedTrace(uint64_t seed) {
  return util::StrFormat(
      "fuzz seed %llu (replay: NETCLUS_TEST_SEED=%llu ctest -R <test>)",
      static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(seed));
}

/// Random directed graph family for the distance-oracle differential
/// suite. Three sub-families by seed so the suite always exercises:
///  * strongly connected city networks from graph/generators (the shapes
///    the index actually sees);
///  * ring + chord graphs with ~6% zero-weight edges (tie-heavy);
///  * two disconnected islands (unreachable pairs) with zero-weight edges.
inline graph::RoadNetwork MakeSpfTestGraph(uint64_t seed) {
  util::Rng rng(seed ^ 0x5fbful);
  switch (seed % 3) {
    case 0: {
      graph::RandomCityConfig config;
      config.num_nodes = 120 + static_cast<uint32_t>(seed % 5) * 40;
      config.neighbors = 2 + static_cast<uint32_t>(seed % 2);
      config.one_way_fraction = 0.3;
      config.seed = seed;
      return GenerateRandomCity(config);
    }
    case 1: {
      // Ring (strongly connected) + chords, some of them zero-weight.
      const uint32_t n = 80 + static_cast<uint32_t>(seed % 7) * 20;
      graph::RoadNetworkBuilder builder;
      for (uint32_t i = 0; i < n; ++i) {
        builder.AddNode({rng.Uniform(0.0, 4000.0), rng.Uniform(0.0, 4000.0)});
      }
      for (uint32_t i = 0; i < n; ++i) {
        builder.AddEdge(i, (i + 1) % n, rng.Uniform(40.0, 300.0));
      }
      for (uint32_t c = 0; c < n * 2; ++c) {
        const auto u = static_cast<graph::NodeId>(rng.UniformInt(n));
        const auto v = static_cast<graph::NodeId>(rng.UniformInt(n));
        if (u == v) continue;
        const double w =
            rng.Uniform(0.0, 1.0) < 0.06 ? 0.0 : rng.Uniform(40.0, 500.0);
        builder.AddEdge(u, v, w);
      }
      return std::move(builder).Build();
    }
    default: {
      // Two islands, only internally connected: every cross pair is
      // unreachable, so backends must agree on kInfDistance too.
      const uint32_t half = 50 + static_cast<uint32_t>(seed % 5) * 15;
      graph::RoadNetworkBuilder builder;
      for (uint32_t i = 0; i < 2 * half; ++i) {
        builder.AddNode({rng.Uniform(0.0, 4000.0), rng.Uniform(0.0, 4000.0)});
      }
      for (uint32_t island = 0; island < 2; ++island) {
        const uint32_t base = island * half;
        for (uint32_t i = 0; i < half; ++i) {
          builder.AddEdge(base + i, base + (i + 1) % half,
                          rng.Uniform(40.0, 300.0));
        }
        for (uint32_t c = 0; c < half; ++c) {
          const auto u = base + static_cast<graph::NodeId>(rng.UniformInt(half));
          const auto v = base + static_cast<graph::NodeId>(rng.UniformInt(half));
          if (u == v) continue;
          const double w =
              rng.Uniform(0.0, 1.0) < 0.08 ? 0.0 : rng.Uniform(40.0, 400.0);
          builder.AddEdge(u, v, w);
        }
      }
      return std::move(builder).Build();
    }
  }
}

/// `count` random (s, t) query pairs over `net`, seed-deterministic.
inline std::vector<std::pair<graph::NodeId, graph::NodeId>> MakeQueryPairs(
    const graph::RoadNetwork& net, size_t count, uint64_t seed) {
  util::Rng rng(seed ^ 0xbeefULL);
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
  pairs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    pairs.emplace_back(
        static_cast<graph::NodeId>(rng.UniformInt(net.num_nodes())),
        static_cast<graph::NodeId>(rng.UniformInt(net.num_nodes())));
  }
  return pairs;
}

/// Answers `spec` over bare index parts the way a serial replay does: a
/// fresh ExecContext, one Planner pass over spec.ToRequest(threads), one
/// Executor pass. The bare-index query of the index tests and the oracle
/// the serving tests replay served answers against (pass the canonical
/// spec, serve::CanonicalizeSpec, to match what the server executes).
inline index::QueryResult RunOnIndex(const index::MultiIndex& index,
                                     const traj::TrajectoryStore& store,
                                     const tops::SiteSet& sites,
                                     const Engine::QuerySpec& spec,
                                     uint32_t threads = 1) {
  exec::ExecContext ctx;
  const exec::QueryPlan plan = exec::Planner(&ctx).Plan(
      spec.ToRequest(threads), index, /*batch_size=*/1);
  return exec::Executor(&index, &store, &sites, &ctx).Execute(plan);
}

/// One blocking read through the server's only read entry point.
inline serve::ServeResult Submit(serve::NetClusServer& server,
                                 const Engine::QuerySpec& spec) {
  serve::Request request;
  request.spec = spec;
  return server.SubmitAsync(std::move(request)).get();
}

/// Fills `store` with random-walk trajectories over its network.
inline void FillRandomWalks(traj::TrajectoryStore* store, uint32_t count,
                            uint32_t min_len, uint32_t max_len, uint64_t seed) {
  util::Rng rng(seed);
  const graph::RoadNetwork& net = store->network();
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t len =
        static_cast<uint32_t>(rng.UniformInt(min_len, max_len));
    graph::NodeId cur =
        static_cast<graph::NodeId>(rng.UniformInt(net.num_nodes()));
    std::vector<graph::NodeId> nodes{cur};
    for (uint32_t step = 1; step < len; ++step) {
      const auto arcs = net.OutArcs(cur);
      if (arcs.empty()) break;
      cur = arcs[rng.UniformInt(arcs.size())].to;
      nodes.push_back(cur);
    }
    store->Add(std::move(nodes));
  }
}

}  // namespace netclus::test

#endif  // NETCLUS_TESTS_TEST_HELPERS_H_
