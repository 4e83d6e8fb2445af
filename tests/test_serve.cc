// Tests for the concurrent serving subsystem (src/serve): snapshot
// isolation, the single-writer update pipeline, the versioned result and
// cover caches, and the NetClusServer facade.
//
// The load-bearing property is at the bottom: with >= 4 reader threads
// submitting queries while the update pipeline publishes new snapshot
// versions, every answer is bit-identical to a serial replay of the same
// spec on the snapshot version that served it. The whole file must also
// be TSan-clean (the CI tsan job runs it under -fsanitize=thread).
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <future>
#include <limits>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "exec/cover_build.h"
#include "gtest/gtest.h"
#include "serve/delta.h"
#include "serve/query_cache.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "serve/standing.h"
#include "serve/update_pipeline.h"
#include "test_helpers.h"
#include "traj/trip_generator.h"

namespace netclus {
namespace {

Engine MakeEngine(uint32_t dim = 10, uint64_t seed = 311) {
  graph::RoadNetwork net = test::MakeGridNetwork(dim, dim, 100.0);
  tops::SiteSet sites = tops::SiteSet::AllNodes(net);
  Engine::Options options;
  options.index.gamma = 0.75;
  options.index.tau_min_m = 300.0;
  options.index.tau_max_m = 2000.0;
  Engine engine(std::move(net), std::move(sites), options);
  util::Rng rng(seed);
  for (int i = 0; i < 60; ++i) {
    const auto src =
        static_cast<graph::NodeId>(rng.UniformInt(engine.network().num_nodes()));
    const auto dst =
        static_cast<graph::NodeId>(rng.UniformInt(engine.network().num_nodes()));
    if (src == dst) continue;
    auto path = traj::RoutePerturbed(engine.network(), src, dst, 0.3, seed + i);
    if (path.size() >= 2) engine.AddTrajectory(std::move(path));
  }
  engine.BuildIndex();
  return engine;
}

Engine::QuerySpec Spec(uint32_t k, double tau_m) {
  Engine::QuerySpec spec;
  spec.k = k;
  spec.tau_m = tau_m;
  return spec;
}

// Serial replay of a spec on one snapshot, in the same canonical form the
// server executes.
index::QueryResult ReplayOn(const serve::IndexSnapshot& snapshot,
                            const Engine::QuerySpec& spec) {
  return test::RunOnIndex(snapshot.index(), snapshot.store(), snapshot.sites(),
                          serve::CanonicalizeSpec(spec));
}

// Serial replay of a spec on the exact snapshot that served it.
index::QueryResult Replay(const serve::ServeResult& served,
                          const Engine::QuerySpec& spec) {
  return ReplayOn(*served.snapshot, spec);
}

// The result-cache key of a spec (resolution instance 0: key-only tests).
exec::PlanKey KeyOf(const Engine::QuerySpec& spec) {
  return exec::CanonicalPlanKey(spec.ToRequest(/*threads=*/0), /*instance=*/0);
}

// Seeds the result cache through its one write path.
void Seed(serve::QueryCache& cache, uint64_t version, const exec::PlanKey& key,
          const index::QueryResult& result) {
  bool reused = false;
  (void)cache.GetOrBuild(version, key, [&] { return result; }, &reused);
}

void ExpectBitIdentical(const index::QueryResult& expected,
                        const index::QueryResult& actual) {
  EXPECT_EQ(expected.selection.sites, actual.selection.sites);
  EXPECT_EQ(expected.selection.marginal_gains, actual.selection.marginal_gains);
  EXPECT_EQ(expected.selection.utility, actual.selection.utility);
  EXPECT_EQ(expected.instance_used, actual.instance_used);
  EXPECT_EQ(expected.clusters_considered, actual.clusters_considered);
}

TEST(SnapshotRegistry, PublishAndAcquireAreVersioned) {
  Engine engine = MakeEngine();
  auto server = engine.Serve();
  const serve::SnapshotPtr snap = server->snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version(), 1u);
  EXPECT_EQ(snap->store().live_count(), engine.store().live_count());
  EXPECT_EQ(snap->sites().size(), engine.sites().size());
  EXPECT_EQ(snap->index().num_instances(), engine.index().num_instances());
}

TEST(NetClusServer, SubmitMatchesEngineAndCaches) {
  Engine engine = MakeEngine();
  auto server = engine.Serve();
  const Engine::QuerySpec spec = Spec(5, 700.0);

  const serve::ServeResult first = test::Submit(*server, spec);
  EXPECT_EQ(first.snapshot_version, 1u);
  EXPECT_FALSE(first.cache_hit);
  const auto direct = engine.Run(spec);
  ExpectBitIdentical(direct, first.result);

  const serve::ServeResult second = test::Submit(*server, spec);
  EXPECT_TRUE(second.cache_hit);
  ExpectBitIdentical(first.result, second.result);

  const serve::ServerStats stats = server->stats();
  EXPECT_EQ(stats.queries_served, 2u);
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_GE(stats.latency_p99_ms, 0.0);
}

TEST(UpdatePipeline, PreassignedTrajectoryIdsMatchTheStore) {
  Engine engine = MakeEngine();
  auto server = engine.Serve();
  const auto base_count = server->snapshot()->store().total_count();
  const std::vector<graph::NodeId> path = {0, 1, 2, 12, 22};
  const serve::UpdateTicket t1 = server->MutateAddTrajectory(path);
  const serve::UpdateTicket t2 = server->MutateAddTrajectory({5, 6, 7});
  ASSERT_TRUE(t1.accepted);
  ASSERT_TRUE(t2.accepted);
  EXPECT_EQ(t1.traj, static_cast<traj::TrajId>(base_count));
  EXPECT_EQ(t2.traj, static_cast<traj::TrajId>(base_count + 1));
  server->Flush();
  const serve::SnapshotPtr snap = server->snapshot();
  ASSERT_GT(snap->version(), 1u);
  ASSERT_TRUE(snap->store().is_alive(t1.traj));
  EXPECT_EQ(snap->store().trajectory(t1.traj).nodes(), path);
}

TEST(UpdatePipeline, SnapshotIsolationLeavesOldReadersUntouched) {
  Engine engine = MakeEngine();
  auto server = engine.Serve();
  const Engine::QuerySpec spec = Spec(1, 600.0);

  const serve::ServeResult before = test::Submit(*server, spec);
  const serve::SnapshotPtr old_snap = before.snapshot;

  // Flood one corner so the k=1 answer must change.
  for (int i = 0; i < 50; ++i) {
    server->MutateAddTrajectory({0, 1, 2, 10, 11, 12});
  }
  server->Flush();

  const serve::ServeResult after = test::Submit(*server, spec);
  EXPECT_GT(after.snapshot_version, before.snapshot_version);
  EXPECT_GT(after.result.selection.utility, before.result.selection.utility);

  // The retained old snapshot still answers exactly as it did: immutable.
  ExpectBitIdentical(before.result, Replay(before, spec));
  EXPECT_EQ(old_snap->store().live_count(), engine.store().live_count());
}

TEST(UpdatePipeline, RemovesAndSiteAddsFlowThrough) {
  // A sampled (not all-nodes) site pool, so the AddSite below introduces
  // a site at a genuinely site-less node — the assertion would be vacuous
  // against MakeEngine's AllNodes pool.
  graph::RoadNetwork net = test::MakeGridNetwork(10, 10, 100.0);
  tops::SiteSet sites = tops::SiteSet::SampleNodes(net, 30, 9);
  Engine::Options options;
  options.index.tau_min_m = 300.0;
  options.index.tau_max_m = 2000.0;
  Engine engine(std::move(net), std::move(sites), options);
  for (int i = 0; i < 30; ++i) {
    engine.AddTrajectory({0, 1, 2, 12, 22, 23});
  }
  engine.BuildIndex();
  auto server = engine.Serve();
  const size_t live_before = server->snapshot()->store().live_count();
  const size_t sites_before = server->snapshot()->sites().size();
  graph::NodeId fresh_node = 0;
  while (engine.sites().SiteAtNode(fresh_node) != tops::kInvalidSite) {
    ++fresh_node;
  }

  const serve::UpdateTicket added = server->MutateAddTrajectory({3, 4, 5, 15});
  server->MutateRemoveTrajectory(added.traj);  // remove the one just queued
  server->MutateRemoveTrajectory(0);           // remove a pre-existing one
  const serve::UpdateTicket site = server->MutateAddSite(fresh_node);
  ASSERT_TRUE(site.accepted);
  server->Flush();

  const serve::SnapshotPtr snap = server->snapshot();
  EXPECT_EQ(snap->store().live_count(), live_before - 1);
  EXPECT_FALSE(snap->store().is_alive(added.traj));
  EXPECT_FALSE(snap->store().is_alive(0));
  EXPECT_EQ(snap->sites().size(), sites_before + 1);
  EXPECT_NE(snap->sites().SiteAtNode(fresh_node), tops::kInvalidSite);
  // The originating engine's site pool is untouched: isolation.
  EXPECT_EQ(engine.sites().SiteAtNode(fresh_node), tops::kInvalidSite);
}

TEST(UpdatePipeline, RejectsInvalidOpsAtEnqueueNotOnTheWriter) {
  Engine engine = MakeEngine();
  auto server = engine.Serve();
  const size_t nodes = engine.network().num_nodes();

  // A client-supplied out-of-range node must bounce the op with
  // accepted = false — never abort the writer thread mid-apply.
  const serve::UpdateTicket bad_traj = server->MutateAddTrajectory(
      {0, static_cast<graph::NodeId>(nodes + 5)});
  EXPECT_FALSE(bad_traj.accepted);
  const serve::UpdateTicket empty_traj = server->MutateAddTrajectory({});
  EXPECT_FALSE(empty_traj.accepted);
  const serve::UpdateTicket bad_site =
      server->MutateAddSite(static_cast<graph::NodeId>(nodes));
  EXPECT_FALSE(bad_site.accepted);

  // Garbage τ from a client (NaN, inf) must select some instance and
  // answer, never abort the service (UBSan guards the cast path).
  const auto nan_q =
      test::Submit(*server, Spec(2, std::numeric_limits<double>::quiet_NaN()));
  EXPECT_GE(nan_q.result.selection.utility, 0.0);
  const auto inf_q =
      test::Submit(*server, Spec(2, std::numeric_limits<double>::infinity()));
  EXPECT_GE(inf_q.result.selection.utility, 0.0);

  // Rejected ops do not consume sequence numbers or trajectory ids: the
  // next valid add gets the id the store will really assign.
  const auto base_count = server->snapshot()->store().total_count();
  const serve::UpdateTicket good = server->MutateAddTrajectory({0, 1, 2});
  ASSERT_TRUE(good.accepted);
  EXPECT_EQ(good.traj, static_cast<traj::TrajId>(base_count));
  server->Flush();
  EXPECT_TRUE(server->snapshot()->store().is_alive(good.traj));
  EXPECT_EQ(server->stats().updates.ops_rejected, 3u);
}

// Satellite regression: unknown / double removes must be safe no-ops at
// every layer (Engine, store, MultiIndex, and through the pipeline).
TEST(DynamicUpdates, RemovingUnknownTrajectoryIsANoOpEverywhere) {
  Engine engine = MakeEngine();
  const size_t live = engine.store().live_count();

  engine.RemoveTrajectory(999999);  // unknown id: logged no-op
  engine.RemoveTrajectory(0);
  engine.RemoveTrajectory(0);  // second remove of the same id: no-op
  EXPECT_EQ(engine.store().live_count(), live - 1);

  auto server = engine.Serve();
  server->MutateRemoveTrajectory(888888);  // unknown id through the pipeline
  server->Flush();
  EXPECT_EQ(server->snapshot()->store().live_count(), live - 1);
  // The pipeline's bogus remove changed nothing: the served answer is
  // bit-identical to querying the engine (which saw only the real remove).
  const auto after = test::Submit(*server, Spec(3, 600.0));
  ExpectBitIdentical(engine.Run(Spec(3, 600.0)), after.result);
}

TEST(QueryCache, CanonicalizationAndLru) {
  serve::QueryCache::Options options;
  options.capacity = 2;
  options.shards = 1;
  serve::QueryCache cache(options);
  Engine::QuerySpec spec = Spec(5, 800.0);

  // Permuted + duplicated existing services canonicalize to the same key.
  spec.existing_services = {3, 1, 2};
  const exec::PlanKey a = KeyOf(spec);
  spec.existing_services = {2, 3, 1, 1};
  const exec::PlanKey b = KeyOf(spec);
  EXPECT_EQ(a, b);
  EXPECT_EQ(serve::QueryCacheTraits::Hash(a), serve::QueryCacheTraits::Hash(b));

  index::QueryResult r;
  r.selection.utility = 42.0;
  EXPECT_FALSE(cache.TryGet(7, a).has_value());
  Seed(cache, 7, a, r);
  ASSERT_TRUE(cache.TryGet(7, b).has_value());
  EXPECT_EQ(cache.TryGet(7, b)->selection.utility, 42.0);
  // A version bump changes the key: publishes implicitly invalidate.
  EXPECT_FALSE(cache.TryGet(8, a).has_value());

  // Fill past capacity; the LRU tail (version 7) must be evicted after
  // versions 8 and 9 are touched more recently.
  spec.existing_services.clear();
  const exec::PlanKey d = KeyOf(spec);
  Seed(cache, 8, a, r);
  Seed(cache, 9, d, r);
  EXPECT_FALSE(cache.TryGet(7, a).has_value());
  const serve::QueryCache::Stats stats = cache.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

// Satellite regression (index-format PR): a shard count of zero (config
// typo, zeroed struct) must not divide-by-zero in ShardFor — the
// constructor clamps shards to >= 1 and the cache stays functional.
TEST(QueryCache, ZeroShardsClampsInsteadOfCrashing) {
  serve::QueryCache::Options options;
  options.capacity = 8;
  options.shards = 0;
  serve::QueryCache cache(options);
  EXPECT_TRUE(cache.enabled());

  Engine::QuerySpec spec = Spec(4, 700.0);
  const exec::PlanKey key = KeyOf(spec);
  index::QueryResult r;
  r.selection.utility = 7.0;
  EXPECT_FALSE(cache.TryGet(1, key).has_value());  // exercises ShardFor
  Seed(cache, 1, key, r);
  ASSERT_TRUE(cache.TryGet(1, key).has_value());
  EXPECT_EQ(cache.TryGet(1, key)->selection.utility, 7.0);
}

// More shards than capacity: per-shard budgets must not round every shard
// up to one entry and overshoot the total.
TEST(QueryCache, ShardCountShrinksToCapacity) {
  serve::QueryCache::Options options;
  options.capacity = 2;
  options.shards = 64;
  serve::QueryCache cache(options);
  Engine::QuerySpec spec = Spec(4, 700.0);
  index::QueryResult r;
  for (uint64_t version = 1; version <= 16; ++version) {
    Seed(cache, version, KeyOf(spec), r);
  }
  EXPECT_LE(cache.stats().entries, 2u);
}

TEST(NetClusServer, ServerAndRetainedSnapshotsOutliveTheEngine) {
  auto engine = std::make_unique<Engine>(MakeEngine());
  auto server = engine->Serve();
  const Engine::QuerySpec spec = Spec(3, 700.0);
  const serve::ServeResult held = test::Submit(*server, spec);
  engine.reset();  // the server copied network/corpus/sites: self-contained

  ExpectBitIdentical(held.result, Replay(held, spec));  // retained snapshot
  server->MutateAddTrajectory({0, 1, 2, 12});           // pipeline still works
  server->Flush();
  EXPECT_GT(server->snapshot()->version(), 1u);
  const auto fresh = test::Submit(*server, spec);
  EXPECT_EQ(fresh.result.selection.sites.size(), 3u);
}

TEST(NetClusServer, GracefulShutdownDrainsThenRejectsWrites) {
  Engine engine = MakeEngine();
  auto server = engine.Serve();
  for (int i = 0; i < 40; ++i) {
    server->MutateAddTrajectory({10, 11, 12, 13});
  }
  server->Shutdown();
  const serve::ServerStats stats = server->stats();
  EXPECT_EQ(stats.updates.ops_applied, 40u);  // drained, not dropped
  EXPECT_GE(stats.snapshot_version, 2u);

  const serve::UpdateTicket late = server->MutateAddTrajectory({1, 2});
  EXPECT_FALSE(late.accepted);
  // Reads are refused with a status, never answered or dropped.
  const auto result = test::Submit(*server, Spec(2, 600.0));
  EXPECT_EQ(result.status, serve::StatusCode::kShutdown);
  EXPECT_EQ(result.snapshot, nullptr);
  server->Shutdown();  // idempotent
}

// Acceptance: >= 4 reader threads + a live update stream; every answer is
// bit-identical to a serial replay at its snapshot version.
TEST(NetClusServer, ConcurrentServingMatchesSerialReplayAtEveryVersion) {
  Engine engine = MakeEngine();
  serve::ServerOptions options;
  options.updates.max_batch = 16;
  auto server = engine.Serve(options);

  const std::vector<Engine::QuerySpec> specs = {
      Spec(1, 500.0), Spec(3, 700.0), Spec(5, 900.0),
      Spec(2, 1100.0), Spec(4, 600.0)};

  constexpr int kReaders = 4;
  constexpr int kQueriesPerReader = 30;
  std::vector<std::vector<std::pair<size_t, serve::ServeResult>>> recorded(
      kReaders);
  std::atomic<bool> start{false};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int q = 0; q < kQueriesPerReader; ++q) {
        const size_t spec_index = (r + q) % specs.size();
        recorded[r].emplace_back(spec_index,
                                 test::Submit(*server, specs[spec_index]));
      }
    });
  }

  // The writer: stream trajectory updates while the readers run.
  start.store(true, std::memory_order_release);
  util::Rng rng(77);
  std::vector<traj::TrajId> added;
  for (int batch = 0; batch < 8; ++batch) {
    for (int i = 0; i < 10; ++i) {
      const auto src = static_cast<graph::NodeId>(
          rng.UniformInt(engine.network().num_nodes()));
      const auto dst = static_cast<graph::NodeId>(
          rng.UniformInt(engine.network().num_nodes()));
      if (src == dst) continue;
      auto path =
          traj::RoutePerturbed(engine.network(), src, dst, 0.3, 9000 + batch * 10 + i);
      if (path.size() < 2) continue;
      const serve::UpdateTicket t = server->MutateAddTrajectory(std::move(path));
      if (t.accepted) added.push_back(t.traj);
    }
    if (batch % 3 == 2 && !added.empty()) {
      server->MutateRemoveTrajectory(added[added.size() / 2]);
    }
    server->Flush();
  }
  for (std::thread& t : readers) t.join();
  server->Shutdown();

  // Serial replay: every recorded answer must be bit-identical to a fresh
  // serial computation on the snapshot version that served it.
  uint64_t min_version = ~0ull, max_version = 0;
  size_t total = 0;
  for (int r = 0; r < kReaders; ++r) {
    for (const auto& [spec_index, served] : recorded[r]) {
      ExpectBitIdentical(Replay(served, specs[spec_index]), served.result);
      min_version = std::min(min_version, served.snapshot_version);
      max_version = std::max(max_version, served.snapshot_version);
      ++total;
    }
  }
  EXPECT_EQ(total, static_cast<size_t>(kReaders) * kQueriesPerReader);
  // The update stream published while reads were in flight, so readers
  // must have observed more than one version on any realistic schedule;
  // at minimum the final version exceeds the initial one.
  EXPECT_GT(server->snapshot()->version(), 1u);
  EXPECT_GE(max_version, min_version);

  const serve::ServerStats stats = server->stats();
  EXPECT_EQ(stats.queries_served, total);
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, total);
  EXPECT_GT(stats.updates.batches_published, 0u);
  EXPECT_EQ(stats.updates.ops_enqueued, stats.updates.ops_applied);
}

// --- serving API v2 (async) --------------------------------------------------

TEST(NetClusServerAsync, SubmitAsyncMatchesSerialReplay) {
  Engine engine = MakeEngine();
  auto server = engine.Serve();
  const Engine::QuerySpec spec = Spec(4, 800.0);

  serve::Request request;
  request.spec = spec;
  const serve::Response first = server->SubmitAsync(request).get();
  ASSERT_EQ(first.status, serve::StatusCode::kOk);
  EXPECT_FALSE(first.stale);
  EXPECT_FALSE(first.shed);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.snapshot_version, 1u);
  EXPECT_GE(first.queue_seconds, 0.0);
  ASSERT_NE(first.snapshot, nullptr);
  ExpectBitIdentical(Replay(first, spec), first.result);

  // Callback flavor; the repeated canonical spec hits the result cache.
  serve::Request again;
  again.spec = spec;
  again.priority = serve::Priority::kInteractive;
  std::promise<serve::Response> done;
  server->SubmitAsync(std::move(again), [&done](serve::Response response) {
    done.set_value(std::move(response));
  });
  const serve::Response second = done.get_future().get();
  ASSERT_EQ(second.status, serve::StatusCode::kOk);
  EXPECT_TRUE(second.cache_hit);
  ExpectBitIdentical(first.result, second.result);
  EXPECT_EQ(server->stats().queries_served, 2u);
}

TEST(NetClusServerAsync, DeadlineExpiredRequestsAreShedNotAnswered) {
  Engine engine = MakeEngine();
  serve::ServerOptions options;
  options.scheduler_workers = 1;
  auto server = engine.Serve(options);

  serve::Request late;
  late.spec = Spec(3, 700.0);
  // Expires before the first stage can possibly start (scheduling alone
  // takes longer), so the check at the stage boundary always sheds it.
  late.soft_deadline_seconds = 1e-9;
  const serve::Response shed = server->SubmitAsync(std::move(late)).get();
  EXPECT_EQ(shed.status, serve::StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(shed.shed);
  EXPECT_EQ(shed.snapshot, nullptr);
  EXPECT_GE(server->stats().exec.shed_deadline, 1u);

  // A generous deadline answers normally — and is never counted served
  // twice.
  serve::Request fine;
  fine.spec = Spec(3, 700.0);
  fine.soft_deadline_seconds = 60.0;
  const serve::Response ok = server->SubmitAsync(std::move(fine)).get();
  ASSERT_EQ(ok.status, serve::StatusCode::kOk);
  ExpectBitIdentical(Replay(ok, Spec(3, 700.0)), ok.result);
  EXPECT_EQ(server->stats().queries_served, 1u);
}

TEST(NetClusServerAsync, AdmissionControlRejectsWhenQueueFull) {
  Engine engine = MakeEngine();
  {
    // Capacity 0: every request of that priority is refused at enqueue,
    // deterministically, before any stage runs.
    serve::ServerOptions options;
    options.admission_capacity = {0, 0, 0};
    auto server = engine.Serve(options);
    serve::Request request;
    request.spec = Spec(2, 600.0);
    const serve::Response r = server->SubmitAsync(std::move(request)).get();
    EXPECT_EQ(r.status, serve::StatusCode::kOverloaded);
    EXPECT_TRUE(r.shed);
    EXPECT_EQ(server->stats().exec.shed_overload, 1u);
    EXPECT_EQ(server->stats().queries_served, 0u);
  }
  {
    // Saturating burst against a one-deep queue and one worker: the
    // first request holds the only admission slot until it completes
    // (its fresh answer needs a cover build), so the burst behind it is
    // rejected. Every response is either kOk (and replay-identical) or
    // kOverloaded with shed set — never silently wrong.
    serve::ServerOptions options;
    options.scheduler_workers = 1;
    options.admission_capacity = {1, 1, 1};
    auto server = engine.Serve(options);
    constexpr int kBurst = 16;
    std::vector<std::future<serve::Response>> pending;
    pending.reserve(kBurst);
    for (int i = 0; i < kBurst; ++i) {
      serve::Request request;
      request.spec = Spec(3, 1200.0);
      pending.push_back(server->SubmitAsync(std::move(request)));
    }
    int ok = 0, rejected = 0;
    for (auto& f : pending) {
      const serve::Response r = f.get();
      if (r.status == serve::StatusCode::kOk) {
        EXPECT_FALSE(r.shed);
        ExpectBitIdentical(Replay(r, Spec(3, 1200.0)), r.result);
        ++ok;
      } else {
        EXPECT_EQ(r.status, serve::StatusCode::kOverloaded);
        EXPECT_TRUE(r.shed);
        ++rejected;
      }
    }
    EXPECT_EQ(ok + rejected, kBurst);
    EXPECT_GE(ok, 1);
    EXPECT_GE(rejected, 1);
    EXPECT_EQ(server->stats().exec.shed_overload,
              static_cast<uint64_t>(rejected));
  }
}

TEST(NetClusServerAsync, StaleServeFlagsVersionCorrectly) {
  Engine engine = MakeEngine();
  serve::ServerOptions options;
  options.shed_builds_over = 0;  // always prefer stale over a new build
  auto server = engine.Serve(options);
  const Engine::QuerySpec spec = Spec(4, 900.0);

  // Warm version 1 (fills the result and cover caches).
  serve::Request warm;
  warm.spec = spec;
  const serve::Response v1 = server->SubmitAsync(std::move(warm)).get();
  ASSERT_EQ(v1.status, serve::StatusCode::kOk);
  EXPECT_FALSE(v1.stale);
  ASSERT_EQ(v1.snapshot_version, 1u);

  server->MutateAddTrajectory({0, 1, 2, 12, 22});
  server->Flush();
  ASSERT_GE(server->snapshot()->version(), 2u);
  const uint64_t current = server->snapshot()->version();

  // A lag-tolerant request is served from version 1 under backpressure:
  // flagged stale + shed, versioned, and bit-identical to the version-1
  // answer it repeats — never a silently wrong "fresh" result.
  serve::Request lax;
  lax.spec = spec;
  lax.staleness = serve::StalenessPolicy::AllowStaleVersion(4);
  const serve::Response stale = server->SubmitAsync(std::move(lax)).get();
  ASSERT_EQ(stale.status, serve::StatusCode::kOk);
  EXPECT_TRUE(stale.stale);
  EXPECT_TRUE(stale.shed);
  EXPECT_TRUE(stale.cache_hit);
  EXPECT_EQ(stale.snapshot_version, 1u);
  ExpectBitIdentical(v1.result, stale.result);
  ASSERT_NE(stale.snapshot, nullptr);  // v1 retained by the history window
  ExpectBitIdentical(Replay(stale, spec), stale.result);
  EXPECT_EQ(server->stats().exec.stale_served, 1u);
  EXPECT_GE(server->stats().cache.stale_hits, 1u);

  // A fresh-policy request is never stale-served: it pays the build and
  // answers at the current version.
  serve::Request fresh;
  fresh.spec = spec;
  const serve::Response now = server->SubmitAsync(std::move(fresh)).get();
  ASSERT_EQ(now.status, serve::StatusCode::kOk);
  EXPECT_FALSE(now.stale);
  EXPECT_FALSE(now.shed);
  EXPECT_EQ(now.snapshot_version, current);
  ExpectBitIdentical(Replay(now, spec), now.result);
}

TEST(NetClusServerAsync, ShutdownCompletesInFlightRequests) {
  Engine engine = MakeEngine();
  auto server = engine.Serve();
  const std::vector<Engine::QuerySpec> specs = {
      Spec(1, 500.0), Spec(3, 700.0), Spec(5, 900.0),
      Spec(2, 1100.0), Spec(4, 600.0)};
  constexpr int kInFlight = 24;
  std::vector<std::future<serve::Response>> pending;
  pending.reserve(kInFlight);
  for (int i = 0; i < kInFlight; ++i) {
    serve::Request request;
    request.spec = specs[i % specs.size()];
    pending.push_back(server->SubmitAsync(std::move(request)));
  }
  // Shutdown drains: every request admitted above must complete kOk and
  // stay replay-identical; none may be dropped or left hanging.
  server->Shutdown();
  for (int i = 0; i < kInFlight; ++i) {
    const serve::Response r = pending[i].get();
    ASSERT_EQ(r.status, serve::StatusCode::kOk);
    ExpectBitIdentical(Replay(r, specs[i % specs.size()]), r.result);
  }
  // After shutdown both flavours of SubmitAsync refuse.
  EXPECT_EQ(test::Submit(*server, specs[0]).status,
            serve::StatusCode::kShutdown);
  serve::StatusCode late_status = serve::StatusCode::kOk;
  serve::Request late;
  late.spec = specs[0];
  server->SubmitAsync(std::move(late), [&late_status](serve::Response r) {
    late_status = r.status;
  });
  EXPECT_EQ(late_status, serve::StatusCode::kShutdown);
}

TEST(NetClusServerAsync, InvalidSpecMapsToStatusNotException) {
  Engine engine = MakeEngine();
  auto server = engine.Serve();

  serve::Request bad;
  bad.spec.variant = exec::QueryVariant::kTopsCost;
  bad.spec.site_costs = {1.0, 2.0};  // not site-indexed
  bad.spec.budget = 10.0;
  const serve::Response r = server->SubmitAsync(std::move(bad)).get();
  EXPECT_EQ(r.status, serve::StatusCode::kInvalidSpec);
  EXPECT_EQ(r.snapshot, nullptr);

  // A capacity payload of the wrong size maps to the same status.
  Engine::QuerySpec bad_capacity;
  bad_capacity.variant = exec::QueryVariant::kTopsCapacity;
  bad_capacity.site_capacities = {3.0};
  EXPECT_EQ(test::Submit(*server, bad_capacity).status,
            serve::StatusCode::kInvalidSpec);
  // Site-indexed but malformed cost payloads: a zero cost (the cost
  // greedy divides by every cost it weighs and aborts on one <= 0) and a
  // NaN budget (which would prune nothing).
  Engine::QuerySpec zero_cost;
  zero_cost.variant = exec::QueryVariant::kTopsCost;
  zero_cost.site_costs.assign(engine.sites().size(), 0.0);
  zero_cost.budget = 3.0;
  EXPECT_EQ(test::Submit(*server, zero_cost).status,
            serve::StatusCode::kInvalidSpec);
  Engine::QuerySpec nan_budget;
  nan_budget.variant = exec::QueryVariant::kTopsCost;
  nan_budget.site_costs.assign(engine.sites().size(), 1.0);
  nan_budget.budget = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(test::Submit(*server, nan_budget).status,
            serve::StatusCode::kInvalidSpec);
  EXPECT_EQ(server->stats().queries_served, 0u);

  // A well-formed cost spec flows through the same unified path.
  serve::Request cost;
  cost.spec.variant = exec::QueryVariant::kTopsCost;
  cost.spec.tau_m = 800.0;
  cost.spec.site_costs.assign(engine.sites().size(), 1.0);
  cost.spec.budget = 3.0;
  const serve::Response priced = server->SubmitAsync(std::move(cost)).get();
  ASSERT_EQ(priced.status, serve::StatusCode::kOk);
  EXPECT_FALSE(priced.result.selection.sites.empty());
}

// Identical reads admitted together share one solve through the result
// cache's build-once rendezvous: one read builds, the rest join it (or
// find its completed entry) and count as cache hits. Without it, every
// read admitted before the first answer landed would run its own solve.
TEST(NetClusServerAsync, ConcurrentIdenticalReadsRunOneSolve) {
  Engine engine = MakeEngine();
  auto server = engine.Serve();
  const Engine::QuerySpec spec = Spec(4, 800.0);
  constexpr int kReads = 16;
  std::vector<std::future<serve::Response>> pending;
  for (int i = 0; i < kReads; ++i) {
    serve::Request request;
    request.spec = spec;
    pending.push_back(server->SubmitAsync(std::move(request)));
  }
  for (std::future<serve::Response>& future : pending) {
    const serve::Response r = future.get();
    ASSERT_EQ(r.status, serve::StatusCode::kOk);
    ExpectBitIdentical(Replay(r, spec), r.result);
  }
  const serve::ServerStats stats = server->stats();
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.cache.hits, static_cast<uint64_t>(kReads - 1));
  EXPECT_EQ(stats.exec.solve.count, 1u);
}

// --- delta-aware carryover, standing queries, cache accounting --------------

// The stale ladder's counters partition exactly: a lag-0 find is an
// ordinary fresh hit, a lagged find is a stale hit, and a failed ladder
// counts nothing (only a GetOrBuild that builds is a miss).
TEST(QueryCache, TryGetLadderCountsFreshStaleAndMissExactly) {
  serve::QueryCache::Options options;
  options.capacity = 64;
  options.shards = 4;
  serve::QueryCache cache(options);
  const exec::PlanKey key = KeyOf(Spec(3, 700.0));
  index::QueryResult result;
  result.selection.utility = 5.0;
  Seed(cache, 3, key, result);  // builds: the one miss

  // Found at lag 0: the fresh version answered — hits, not stale_hits.
  uint64_t served = 0;
  ASSERT_TRUE(cache.TryGet(3, key, 4, &served).has_value());
  EXPECT_EQ(served, 3u);
  serve::QueryCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.stale_hits, 0u);
  EXPECT_EQ(s.misses, 1u);

  // Found at lag 2: a genuine stale serve.
  ASSERT_TRUE(cache.TryGet(5, key, 2, &served).has_value());
  EXPECT_EQ(served, 3u);
  s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.stale_hits, 1u);
  EXPECT_EQ(s.misses, 1u);

  // Whole ladder fails (versions 9, 8, 7 all absent): nothing counted.
  EXPECT_FALSE(cache.TryGet(9, key, 2, &served).has_value());
  s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.stale_hits, 1u);
  EXPECT_EQ(s.misses, 1u);
}

exec::CoverPtr FakeCover(uint64_t bytes) {
  auto cover = std::make_shared<exec::BuiltCover>();
  cover->bytes = bytes;
  return cover;
}

exec::CoverKey TauKey(double tau_m) {
  exec::CoverKey key;
  key.instance = 0;
  key.tau_bits = std::bit_cast<uint64_t>(tau_m);
  return key;
}

// Satellite regression: eviction must never evict an in-flight build.
// Evicting one breaks the build-once rendezvous — a second caller for the
// same key would miss and start a duplicate build. Hammer one single-slot
// shard with more distinct keys than capacity from several threads and
// assert no key ever had two builders at once, and that the byte ledger
// balances when the dust settles. Run under TSan by the CI tsan job.
TEST(CoverCache, EvictionNeverBreaksBuildOnceRendezvous) {
  serve::CoverCache::Options options;
  options.capacity = 1;  // four keys fight over one completed slot
  options.shards = 1;
  serve::CoverCache cache(options);

  constexpr int kThreads = 4;
  constexpr int kKeys = 4;
  constexpr int kIters = 25;
  std::array<std::atomic<int>, kKeys> building{};
  std::atomic<bool> concurrent_build{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const int key_index = (t + i) % kKeys;
        bool reused = false;
        cache.GetOrBuild(
            1, TauKey(100.0 * (1 + key_index)),
            [&building, &concurrent_build, key_index] {
              if (building[key_index].fetch_add(1) != 0) {
                concurrent_build.store(true);
              }
              std::this_thread::sleep_for(std::chrono::microseconds(200));
              building[key_index].fetch_sub(1);
              return FakeCover(64 + key_index);
            },
            &reused);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_FALSE(concurrent_build.load());  // rendezvous held throughout
  serve::CoverCache::Stats s = cache.stats();
  EXPECT_GT(s.evictions, 0u);   // the capacity fight really happened
  EXPECT_LE(s.entries, 1u);     // capacity enforced once builds completed
  cache.Clear();
  s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.resident_bytes, 0u);  // nothing leaked or double-subtracted
}

// Satellite regression: a failing builder's cleanup must erase only its
// OWN entry. Interleaving: builder A's entry vanishes underneath it
// (Clear — the one way left now that eviction skips in-flight builds),
// builder B re-inserts the same key, then A throws. A's cleanup used to
// erase any in-flight-looking entry for the key — killing B's build
// rendezvous; with the build-id check it leaves B alone.
TEST(CoverCache, FailedBuilderOnlyCleansUpItsOwnEntry) {
  serve::CoverCache::Options options;
  options.capacity = 4;
  options.shards = 1;
  serve::CoverCache cache(options);
  const exec::CoverKey key = TauKey(500.0);

  std::promise<void> gate_a, gate_b;
  std::shared_future<void> wait_a = gate_a.get_future().share();
  std::shared_future<void> wait_b = gate_b.get_future().share();
  std::atomic<bool> a_started{false}, b_started{false};
  std::atomic<bool> a_threw{false};
  exec::CoverPtr b_cover;
  bool b_reused = true;

  std::thread a([&] {
    bool reused = false;
    try {
      cache.GetOrBuild(
          1, key,
          [&]() -> exec::CoverPtr {
            a_started.store(true);
            wait_a.wait();
            throw std::runtime_error("transient build failure");
          },
          &reused);
    } catch (const std::runtime_error&) {
      a_threw.store(true);
    }
  });
  while (!a_started.load()) std::this_thread::yield();

  cache.Clear();  // A's entry is gone; the key slot is free again
  std::thread b([&] {
    b_cover = cache.GetOrBuild(
        1, key,
        [&] {
          b_started.store(true);
          wait_b.wait();
          return FakeCover(77);
        },
        &b_reused);
  });
  while (!b_started.load()) std::this_thread::yield();

  gate_a.set_value();  // A fails while B's entry for the key is in flight
  a.join();
  gate_b.set_value();
  b.join();

  EXPECT_TRUE(a_threw.load());  // the failure still propagated to A's caller
  ASSERT_NE(b_cover, nullptr);
  EXPECT_FALSE(b_reused);
  EXPECT_EQ(b_cover->bytes, 77u);
  // B's entry survived A's cleanup: resident, counted, servable.
  EXPECT_NE(cache.TryGet(1, key).value_or(nullptr), nullptr);
  const serve::CoverCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.resident_bytes, 77u);
}

// A grid engine over a sampled (not all-nodes) site pool, with a fixed
// deterministic corpus: trajectory ids 0..29 are guaranteed live, and
// site-less nodes exist for AddSite. Two calls build bit-identical twins.
Engine MakeSampledEngine() {
  graph::RoadNetwork net = test::MakeGridNetwork(10, 10, 100.0);
  tops::SiteSet sites = tops::SiteSet::SampleNodes(net, 30, 9);
  Engine::Options options;
  options.index.gamma = 0.75;
  options.index.tau_min_m = 300.0;
  options.index.tau_max_m = 2000.0;
  Engine engine(std::move(net), std::move(sites), options);
  for (int i = 0; i < 30; ++i) {
    const auto c = static_cast<graph::NodeId>(i % 9);
    engine.AddTrajectory({c, static_cast<graph::NodeId>(c + 10),
                          static_cast<graph::NodeId>(c + 11),
                          static_cast<graph::NodeId>(c + 21)});
  }
  engine.BuildIndex();
  return engine;
}

// The writer publishes one DeltaSummary per batch classifying each op:
// trajectory adds and effective removes dirty every instance (their TL
// postings land in all of them), no-op removes dirty nothing, and a site
// add dirties exactly the instances whose cluster representative moved.
TEST(UpdatePipeline, DeltaSummaryClassifiesOps) {
  Engine engine = MakeSampledEngine();
  graph::NodeId fresh_node = 0;
  while (engine.sites().SiteAtNode(fresh_node) != tops::kInvalidSite) {
    ++fresh_node;
  }

  serve::ServerOptions options;
  std::mutex mu;
  std::vector<serve::DeltaSummary> deltas;
  options.updates.on_publish = [&](uint64_t, uint64_t,
                                   const serve::DeltaSummary& delta) {
    const std::lock_guard<std::mutex> lock(mu);
    deltas.push_back(delta);
  };
  auto server = engine.Serve(options);
  const size_t instances = server->snapshot()->index().num_instances();

  server->MutateRemoveTrajectory(999999);  // unknown id: provable no-op
  server->Flush();
  const serve::UpdateTicket added = server->MutateAddTrajectory({0, 1, 2, 12});
  server->Flush();
  server->MutateRemoveTrajectory(added.traj);  // effective remove
  server->Flush();
  server->MutateAddSite(fresh_node);
  server->Flush();

  const std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(deltas.size(), 4u);
  for (const serve::DeltaSummary& d : deltas) {
    EXPECT_EQ(d.dirty.size(), instances);
  }
  // No-op remove: clean everywhere — the publish changed nothing.
  EXPECT_TRUE(deltas[0].AllClean());
  EXPECT_EQ(deltas[0].noop_removes, 1u);
  // Trajectory add / effective remove: every instance dirty.
  EXPECT_EQ(deltas[1].DirtyCount(), instances);
  EXPECT_EQ(deltas[1].traj_adds, 1u);
  EXPECT_EQ(deltas[2].DirtyCount(), instances);
  EXPECT_EQ(deltas[2].traj_removes, 1u);
  // Site add: dirty exactly where a cluster representative changed.
  EXPECT_EQ(deltas[3].site_adds, 1u);
  EXPECT_EQ(deltas[3].DirtyCount(), deltas[3].rep_changes);
}

// Tentpole invariant underlying carryover: a publish that leaves an
// instance untouched leaves its covers byte-equal — rebuildable from the
// new snapshot with identical contents at any thread count.
TEST(NetClusServer, CleanPublishKeepsCoversByteEqual) {
  Engine engine = MakeEngine();
  auto server = engine.Serve();
  const serve::SnapshotPtr before = server->snapshot();
  server->MutateRemoveTrajectory(424242);  // no-op: every instance clean
  server->Flush();
  const serve::SnapshotPtr after = server->snapshot();
  ASSERT_GT(after->version(), before->version());

  for (size_t p = 0; p < before->index().num_instances(); ++p) {
    const double tau_m = 400.0 + 150.0 * static_cast<double>(p);
    const exec::BuiltCover old_cover =
        exec::BuildCover(before->index(), before->store(), tau_m, p, 1);
    const exec::BuiltCover new_cover =
        exec::BuildCover(after->index(), after->store(), tau_m, p, 4);
    ASSERT_EQ(old_cover.rep_sites, new_cover.rep_sites);
    ASSERT_EQ(old_cover.approx.num_sites(), new_cover.approx.num_sites());
    for (size_t s = 0; s < old_cover.approx.num_sites(); ++s) {
      const auto old_list = old_cover.approx.TC(static_cast<tops::SiteId>(s));
      const auto new_list = new_cover.approx.TC(static_cast<tops::SiteId>(s));
      ASSERT_EQ(old_list.size(), new_list.size());
      auto old_it = old_list.begin();
      auto new_it = new_list.begin();
      for (size_t i = 0; i < old_list.size(); ++i, ++old_it, ++new_it) {
        ASSERT_EQ((*old_it).id, (*new_it).id);
        ASSERT_EQ((*old_it).dr_m, (*new_it).dr_m);
      }
    }
  }
}

// Tentpole: a clean publish carries both caches forward — the next query
// at the new version is a (non-stale) cache hit, bit-identical to a
// from-scratch replay there; a dirty publish carries nothing and the next
// query recomputes.
TEST(NetClusServer, CarryoverKeepsCachesWarmAcrossCleanPublishes) {
  Engine engine = MakeEngine();
  serve::ServerOptions options;
  options.carryover = true;
  auto server = engine.Serve(options);
  const Engine::QuerySpec spec = Spec(4, 800.0);

  // Warms both caches.
  const serve::ServeResult v1 = test::Submit(*server, spec);
  ASSERT_EQ(v1.snapshot_version, 1u);
  ASSERT_FALSE(v1.cache_hit);

  server->MutateRemoveTrajectory(999999);  // clean publish: version 2
  server->Flush();
  ASSERT_EQ(server->snapshot()->version(), 2u);

  const serve::ServeResult v2 = test::Submit(*server, spec);
  EXPECT_EQ(v2.snapshot_version, 2u);
  EXPECT_TRUE(v2.cache_hit);  // carried entry answered at the NEW version
  EXPECT_FALSE(v2.stale);     // a carry is not a stale serve
  ExpectBitIdentical(v1.result, v2.result);
  ExpectBitIdentical(Replay(v2, spec), v2.result);  // == from-scratch at v2

  serve::ServerStats stats = server->stats();
  EXPECT_GE(stats.cache.carried, 1u);
  EXPECT_GE(stats.cover_cache.carried, 1u);
  EXPECT_EQ(stats.cache.stale_hits, 0u);
  EXPECT_GE(stats.carryover_publishes, 1u);
  EXPECT_GE(stats.carryover_clean_partitions,
            server->snapshot()->index().num_instances());

  // A trajectory add dirties every instance: nothing carries, and the
  // next submit pays a fresh compute that still matches replay.
  server->MutateAddTrajectory({0, 1, 2, 12});
  server->Flush();
  const uint64_t carried_before = server->stats().cache.carried;
  const serve::ServeResult v3 = test::Submit(*server, spec);
  EXPECT_EQ(v3.snapshot_version, 3u);
  EXPECT_FALSE(v3.cache_hit);
  ExpectBitIdentical(Replay(v3, spec), v3.result);
  EXPECT_EQ(server->stats().cache.carried, carried_before);
}

// Acceptance: twin servers over bit-identical engines, carryover on vs
// off, fed the same mirrored update stream (one op per publish, so
// version numbers mean the same state on both) while 1 then 4 reader
// threads submit. Every answer must be bit-identical to a from-scratch
// serial replay at its served version; answers the two servers produce
// for the same (spec, version) must match each other; and only the
// carryover server carries entries.
TEST(NetClusServer, CarryoverDifferentialUnderLiveUpdates) {
  for (const int readers : {1, 4}) {
    Engine engine_on = MakeSampledEngine();
    Engine engine_off = MakeSampledEngine();
    std::vector<graph::NodeId> fresh_nodes;
    for (graph::NodeId node = 0; fresh_nodes.size() < 2; ++node) {
      if (engine_on.sites().SiteAtNode(node) == tops::kInvalidSite) {
        fresh_nodes.push_back(node);
      }
    }
    serve::ServerOptions on_options, off_options;
    on_options.carryover = true;
    off_options.carryover = false;
    auto server_on = engine_on.Serve(on_options);
    auto server_off = engine_off.Serve(off_options);

    const std::vector<Engine::QuerySpec> specs = {
        Spec(2, 500.0), Spec(4, 800.0), Spec(3, 1200.0)};
    for (const Engine::QuerySpec& spec : specs) {  // warm both caches at v1
      test::Submit(*server_on, spec);
      test::Submit(*server_off, spec);
    }

    constexpr int kQueriesPerReader = 45;
    std::vector<std::vector<std::pair<size_t, serve::ServeResult>>> rec_on(
        readers),
        rec_off(readers);
    std::vector<std::thread> threads;
    threads.reserve(readers);
    for (int r = 0; r < readers; ++r) {
      threads.emplace_back([&, r] {
        for (int q = 0; q < kQueriesPerReader; ++q) {
          const size_t spec_index = (r + q) % specs.size();
          rec_on[r].emplace_back(spec_index,
                                 test::Submit(*server_on, specs[spec_index]));
          rec_off[r].emplace_back(spec_index,
                                  test::Submit(*server_off, specs[spec_index]));
        }
      });
    }

    // Mirrored stream, one op per publish: no-op removes (clean — full
    // carry), site adds (partially clean), trajectory adds and effective
    // removes (all instances dirty — nothing carries).
    const auto mirror = [&](const std::function<void(serve::NetClusServer&)>&
                                op) {
      op(*server_on);
      op(*server_off);
      server_on->Flush();
      server_off->Flush();
    };
    mirror([](serve::NetClusServer& s) { s.MutateRemoveTrajectory(777777); });
    mirror([](serve::NetClusServer& s) {
      s.MutateAddTrajectory({5, 15, 25, 35});
    });
    mirror([&](serve::NetClusServer& s) { s.MutateAddSite(fresh_nodes[0]); });
    mirror([](serve::NetClusServer& s) { s.MutateRemoveTrajectory(0); });
    mirror([](serve::NetClusServer& s) { s.MutateRemoveTrajectory(888888); });
    mirror([](serve::NetClusServer& s) {
      s.MutateAddTrajectory({40, 50, 51, 61});
    });
    mirror([&](serve::NetClusServer& s) { s.MutateAddSite(fresh_nodes[1]); });
    mirror([](serve::NetClusServer& s) { s.MutateRemoveTrajectory(666666); });
    for (std::thread& t : threads) t.join();

    // Both servers applied the identical op sequence one op per publish,
    // so equal version numbers denote equal corpus states.
    ASSERT_EQ(server_on->snapshot()->version(),
              server_off->snapshot()->version());

    // Oracle 1: every recorded answer, both servers, replays bit-identically
    // from scratch on the exact snapshot that served it.
    std::map<std::pair<size_t, uint64_t>, index::QueryResult> on_answers;
    for (int r = 0; r < readers; ++r) {
      for (const auto& [spec_index, served] : rec_on[r]) {
        ExpectBitIdentical(Replay(served, specs[spec_index]), served.result);
        on_answers.emplace(std::make_pair(spec_index, served.snapshot_version),
                           served.result);
      }
      for (const auto& [spec_index, served] : rec_off[r]) {
        ExpectBitIdentical(Replay(served, specs[spec_index]), served.result);
        // Oracle 2: where the carryover server answered the same spec at
        // the same version, the two answers are bit-identical.
        const auto match =
            on_answers.find({spec_index, served.snapshot_version});
        if (match != on_answers.end()) {
          ExpectBitIdentical(match->second, served.result);
        }
      }
    }
    // Oracle 3: at the common final version, the servers agree exactly.
    for (const Engine::QuerySpec& spec : specs) {
      ExpectBitIdentical(test::Submit(*server_on, spec).result,
                         test::Submit(*server_off, spec).result);
    }

    // The clean publishes really carried entries — and only where enabled.
    const serve::ServerStats on_stats = server_on->stats();
    const serve::ServerStats off_stats = server_off->stats();
    EXPECT_GE(on_stats.cache.carried, 1u);
    EXPECT_GE(on_stats.cover_cache.carried, 1u);
    EXPECT_GT(on_stats.carryover_publishes, 0u);
    EXPECT_EQ(off_stats.cache.carried, 0u);
    EXPECT_EQ(off_stats.cover_cache.carried, 0u);
    EXPECT_EQ(off_stats.carryover_publishes, 0u);
  }
}

TEST(StandingQueries, InitialPushThenDeltaGatedReevaluation) {
  Engine engine = MakeEngine();
  serve::ServerOptions options;
  options.carryover = true;
  auto server = engine.Serve(options);
  const Engine::QuerySpec spec = Spec(3, 700.0);

  std::mutex mu;
  std::vector<serve::StandingUpdate> log;
  // The server's snapshot when each push arrived. A push runs on the
  // writer right after the publish that triggered it and before any later
  // one, so this is the snapshot of the version the push reports — unlike
  // the server's snapshot after Flush(), which can be newer when the
  // writer publishes a burst of updates as several snapshots.
  std::vector<serve::SnapshotPtr> pushed_on;
  const auto snapshot_log = [&] {
    const std::lock_guard<std::mutex> lock(mu);
    return log;
  };
  const uint64_t id = server->RegisterStanding(
      spec, serve::StalenessPolicy::Fresh(),
      [&](const serve::StandingUpdate& update) {
        serve::SnapshotPtr snapshot = server->snapshot();
        const std::lock_guard<std::mutex> lock(mu);
        log.push_back(update);
        pushed_on.push_back(std::move(snapshot));
      });
  ASSERT_NE(id, 0u);
  const auto expect_matches_replay = [&](size_t push) {
    const std::lock_guard<std::mutex> lock(mu);
    ASSERT_LT(push, pushed_on.size());
    ASSERT_EQ(pushed_on[push]->version(), log[push].version);
    ExpectBitIdentical(ReplayOn(*pushed_on[push], spec), log[push].result);
  };

  // The initial result arrives synchronously, diff-empty, at version 1,
  // and matches a direct submit bit-identically.
  std::vector<serve::StandingUpdate> seen = snapshot_log();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_TRUE(seen[0].first);
  EXPECT_EQ(seen[0].version, 1u);
  EXPECT_TRUE(seen[0].added.empty());
  EXPECT_TRUE(seen[0].removed.empty());
  ExpectBitIdentical(test::Submit(*server, spec).result, seen[0].result);
  expect_matches_replay(0);

  // Clean publish: skipped without evaluating — no push.
  server->MutateRemoveTrajectory(999999);
  server->Flush();
  EXPECT_EQ(snapshot_log().size(), 1u);
  EXPECT_GE(server->stats().standing.skipped_clean, 1u);
  EXPECT_EQ(server->stats().standing.evaluations, 1u);

  // Dirty publishes under a zero staleness budget: each is re-evaluated;
  // a push arrives iff the top-k membership changed, and every push
  // matches a serial replay on the snapshot of the version it reports.
  for (int i = 0; i < 40; ++i) {
    server->MutateAddTrajectory({0, 1, 2, 12, 22});
  }
  server->Flush();
  EXPECT_GE(server->stats().standing.evaluations, 2u);
  seen = snapshot_log();
  for (size_t push = 1; push < seen.size(); ++push) {
    EXPECT_FALSE(seen[push].first);
    EXPECT_FALSE(seen[push].added.empty() && seen[push].removed.empty());
    EXPECT_GT(seen[push].version, seen[push - 1].version);
    expect_matches_replay(push);
  }

  // Unregister stops deliveries; the id is single-use.
  EXPECT_TRUE(server->UnregisterStanding(id));
  EXPECT_FALSE(server->UnregisterStanding(id));
  const size_t deliveries = snapshot_log().size();
  server->MutateAddTrajectory({5, 6, 7});
  server->Flush();
  EXPECT_EQ(snapshot_log().size(), deliveries);
  EXPECT_EQ(server->stats().standing.active, 0u);

  // An invalid spec is refused with id 0, not an exception.
  Engine::QuerySpec bad;
  bad.variant = exec::QueryVariant::kTopsCost;
  bad.site_costs = {1.0};  // not site-indexed
  bad.budget = 5.0;
  EXPECT_EQ(server->RegisterStanding(bad, serve::StalenessPolicy::Fresh(),
                                     [](const serve::StandingUpdate&) {}),
            0u);
}

TEST(StandingQueries, StalenessBudgetCoalescesDirtyPublishes) {
  Engine engine = MakeEngine();
  auto server = engine.Serve();
  std::atomic<uint64_t> deliveries{0};
  const uint64_t id = server->RegisterStanding(
      Spec(3, 700.0), serve::StalenessPolicy::AllowStaleVersion(2),
      [&](const serve::StandingUpdate&) { ++deliveries; });
  ASSERT_NE(id, 0u);
  EXPECT_EQ(deliveries.load(), 1u);  // the initial push
  EXPECT_EQ(server->stats().standing.evaluations, 1u);

  // Three dirty publishes against a budget of 2: the first two defer
  // (coalesce), the third exceeds the budget and re-evaluates.
  for (int i = 0; i < 3; ++i) {
    server->MutateAddTrajectory({0, 1, 2, 12});
    server->Flush();
  }
  const serve::StandingQueryRegistry::Stats stats = server->stats().standing;
  EXPECT_EQ(stats.deferred, 2u);
  EXPECT_EQ(stats.evaluations, 2u);
  EXPECT_EQ(stats.skipped_clean, 0u);
  server->UnregisterStanding(id);
}

TEST(StandingQueries, EvaluationsAreNotServedReads) {
  // Standing-query evaluations run on the registering and writer threads,
  // never through admission or a queue, so they count only in
  // standing.evaluations — not in the served-read figures.
  Engine engine = MakeEngine();
  auto server = engine.Serve();
  const uint64_t id = server->RegisterStanding(
      Spec(3, 700.0), serve::StalenessPolicy::Fresh(),
      [](const serve::StandingUpdate&) {});
  ASSERT_NE(id, 0u);
  for (int i = 0; i < 3; ++i) {
    server->MutateAddTrajectory({0, 1, 2, 12});
    server->Flush();
  }
  const serve::ServerStats stats = server->stats();
  EXPECT_EQ(stats.standing.evaluations, 4u);
  EXPECT_EQ(stats.queries_served, 0u);
  EXPECT_EQ(stats.latency_p50_ms, 0.0);
  const std::string prom = server->DumpMetrics();
  EXPECT_NE(prom.find("netclus_serve_queries_total 0\n"), std::string::npos);
  EXPECT_NE(prom.find("netclus_serve_latency_seconds_count 0\n"),
            std::string::npos);
  server->UnregisterStanding(id);
}

TEST(StandingQueries, CallbackCanUnregisterItself) {
  Engine engine = MakeEngine();
  auto server = engine.Serve();
  std::atomic<uint64_t> deliveries{0};
  // The callback unregisters its own query reentrantly — from the very
  // first (synchronous, in-Register) push.
  const uint64_t id = server->RegisterStanding(
      Spec(2, 600.0), serve::StalenessPolicy::Fresh(),
      [&](const serve::StandingUpdate& update) {
        ++deliveries;
        EXPECT_TRUE(server->UnregisterStanding(update.query_id));
      });
  ASSERT_NE(id, 0u);
  EXPECT_EQ(deliveries.load(), 1u);
  EXPECT_EQ(server->stats().standing.active, 0u);
  EXPECT_FALSE(server->UnregisterStanding(id));  // already gone

  // Publishes after the self-unregister deliver nothing.
  server->MutateAddTrajectory({0, 1, 2, 12});
  server->Flush();
  EXPECT_EQ(deliveries.load(), 1u);
}

}  // namespace
}  // namespace netclus
