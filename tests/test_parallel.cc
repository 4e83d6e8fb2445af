// The parallel execution subsystem: ThreadPool lifecycle, the deterministic
// chunked helpers, and end-to-end determinism of the solver stack across
// thread counts (threads=1 must be bit-identical to threads=8).
#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "gtest/gtest.h"
#include "test_helpers.h"
#include "tops/coverage.h"
#include "tops/inc_greedy.h"
#include "traj/trip_generator.h"
#include "util/parallel.h"

namespace netclus {
namespace {

TEST(ThreadPool, StartupAndShutdown) {
  for (unsigned threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
  }
  // Zero is clamped to one worker.
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPool, RunsAllSubmittedTasks) {
  std::atomic<int> count{0};
  {
    util::ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    // Destruction drains the queue: all 100 tasks run before join.
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WorkerThreadsAreFlagged) {
  EXPECT_FALSE(util::ThreadPool::OnWorkerThread());
  std::atomic<bool> flagged{false};
  std::atomic<bool> done{false};
  {
    util::ThreadPool pool(2);
    pool.Submit([&] {
      flagged = util::ThreadPool::OnWorkerThread();
      done = true;
    });
    while (!done) std::this_thread::yield();
  }
  EXPECT_TRUE(flagged.load());
  EXPECT_FALSE(util::ThreadPool::OnWorkerThread());
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (unsigned threads : {1u, 3u, 8u}) {
    const size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    util::ParallelFor(threads, n, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelFor, ZeroItemsIsANoop) {
  bool called = false;
  util::ParallelFor(8, 0, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      util::ParallelFor(
          4, 1000,
          [](size_t begin, size_t) {
            if (begin >= 500) throw std::runtime_error("chunk failed");
          },
          /*grain=*/10),
      std::runtime_error);
}

TEST(ParallelFor, LowestChunkExceptionWins) {
  // Every chunk throws its begin index; the rethrown one must be chunk 0's
  // regardless of scheduling.
  for (int repeat = 0; repeat < 5; ++repeat) {
    try {
      util::ParallelFor(
          8, 640, [](size_t begin, size_t) { throw begin; }, /*grain=*/10);
      FAIL() << "expected an exception";
    } catch (size_t begin) {
      EXPECT_EQ(begin, 0u);
    }
  }
}

TEST(ParallelMap, PreservesIndexOrder) {
  for (unsigned threads : {1u, 8u}) {
    const auto out = util::ParallelMap<int>(
        threads, 257, [](size_t i) { return static_cast<int>(i * 3); });
    ASSERT_EQ(out.size(), 257u);
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], static_cast<int>(i * 3));
    }
  }
}

TEST(ParallelReduce, FloatingPointSumsAreBitIdenticalAcrossThreadCounts) {
  // A sum whose value depends on association order: with a fixed grain the
  // chunk layout and combine order never change, so every thread count must
  // produce the exact same bits.
  const size_t n = 100000;
  std::vector<double> values(n);
  util::Rng rng(7);
  for (double& v : values) v = rng.Uniform(-1e9, 1e9);

  auto sum_at = [&](unsigned threads) {
    return util::ParallelReduce<double>(
        threads, n, 0.0,
        [&](size_t begin, size_t end) {
          double acc = 0.0;
          for (size_t i = begin; i < end; ++i) acc += values[i];
          return acc;
        },
        [](double acc, double partial) { return acc + partial; },
        /*grain=*/1024);
  };

  const double reference = sum_at(1);
  for (unsigned threads : {2u, 4u, 8u}) {
    EXPECT_EQ(sum_at(threads), reference);
  }
}

TEST(ParallelReduce, EmptyRangeReturnsIdentity) {
  const int out = util::ParallelReduce<int>(
      8, 0, -7, [](size_t, size_t) { return 0; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(out, -7);
}

TEST(Threads, ResolveZeroUsesDefault) {
  EXPECT_EQ(util::ResolveThreads(0), util::DefaultThreads());
  EXPECT_EQ(util::ResolveThreads(5), 5u);
  EXPECT_GE(util::DefaultThreads(), 1u);
}

TEST(Threads, ExplicitCountsAreClamped) {
  // A config typo must not turn into an unbounded std::thread spawn.
  EXPECT_EQ(util::ResolveThreads(100000), 256u);
  util::ParallelFor(100000, 64, [](size_t, size_t) {});  // must not throw
}

// --- solver determinism across thread counts -------------------------------

struct Corpus {
  graph::RoadNetwork net;
  std::unique_ptr<traj::TrajectoryStore> store;
  tops::SiteSet sites;
};

Corpus MakeCorpus() {
  Corpus c{test::MakeGridNetwork(14, 14, 100.0), nullptr, {}};
  c.store = std::make_unique<traj::TrajectoryStore>(&c.net);
  test::FillRandomWalks(c.store.get(), 160, 6, 28, 1234);
  c.sites = tops::SiteSet::SampleNodes(c.net, 120, 99);
  return c;
}

TEST(Determinism, CoverageBuildIdenticalAcrossThreadCounts) {
  const Corpus corpus = MakeCorpus();
  tops::CoverageConfig serial;
  serial.tau_m = 700.0;
  serial.threads = 1;
  const auto reference =
      tops::CoverageIndex::Build(*corpus.store, corpus.sites, serial);

  tops::CoverageConfig parallel = serial;
  parallel.threads = 8;
  const auto threaded =
      tops::CoverageIndex::Build(*corpus.store, corpus.sites, parallel);

  const auto expect_same = [](tops::CoverList a, tops::CoverList b,
                              const char* what, uint32_t list) {
    ASSERT_EQ(a.size(), b.size()) << what << " " << list;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << what << " " << list << " [" << i << "]";
      EXPECT_EQ(a[i].dr_m, b[i].dr_m) << what << " " << list << " [" << i << "]";
    }
  };
  ASSERT_EQ(threaded.num_sites(), reference.num_sites());
  for (tops::SiteId s = 0; s < reference.num_sites(); ++s) {
    expect_same(reference.TC(s), threaded.TC(s), "TC", s);
  }
  ASSERT_EQ(threaded.num_trajectories(), reference.num_trajectories());
  for (traj::TrajId t = 0; t < reference.num_trajectories(); ++t) {
    expect_same(reference.SC(t), threaded.SC(t), "SC", t);
  }
}

TEST(Determinism, IncGreedyIdenticalAcrossThreadCounts) {
  const Corpus corpus = MakeCorpus();
  tops::CoverageConfig coverage_config;
  coverage_config.tau_m = 700.0;
  const auto coverage =
      tops::CoverageIndex::Build(*corpus.store, corpus.sites, coverage_config);
  const auto psi = tops::PreferenceFunction::Linear();

  tops::GreedyConfig serial;
  serial.k = 8;
  serial.threads = 1;
  const tops::Selection reference = IncGreedy(coverage, psi, serial);

  tops::GreedyConfig parallel = serial;
  parallel.threads = 8;
  // Force the chunked ParallelReduce argmax (the corpus is far below the
  // default serial cutoff, which would otherwise hide a fold regression).
  parallel.argmax_serial_cutoff = 0;
  const tops::Selection threaded = IncGreedy(coverage, psi, parallel);

  EXPECT_EQ(threaded.sites, reference.sites);
  EXPECT_EQ(threaded.utility, reference.utility);  // bit-exact, not NEAR
  ASSERT_EQ(threaded.marginal_gains.size(), reference.marginal_gains.size());
  for (size_t i = 0; i < reference.marginal_gains.size(); ++i) {
    EXPECT_EQ(threaded.marginal_gains[i], reference.marginal_gains[i]);
  }

  // The chunked argmax must also agree at threads=1 (same fold, one worker).
  tops::GreedyConfig chunked_serial = parallel;
  chunked_serial.threads = 1;
  const tops::Selection chunked = IncGreedy(coverage, psi, chunked_serial);
  EXPECT_EQ(chunked.sites, reference.sites);
  EXPECT_EQ(chunked.utility, reference.utility);
}

Engine MakeThreadedEngine(uint32_t threads) {
  graph::RoadNetwork net = test::MakeGridNetwork(12, 12, 100.0);
  tops::SiteSet sites = tops::SiteSet::AllNodes(net);
  Engine::Options options;
  options.index.tau_min_m = 300.0;
  options.index.tau_max_m = 3000.0;
  options.threads = threads;
  Engine engine(std::move(net), std::move(sites), options);
  util::Rng rng(17);
  for (int i = 0; i < 90; ++i) {
    const auto src =
        static_cast<graph::NodeId>(rng.UniformInt(engine.network().num_nodes()));
    const auto dst =
        static_cast<graph::NodeId>(rng.UniformInt(engine.network().num_nodes()));
    if (src == dst) continue;
    auto path = traj::RoutePerturbed(engine.network(), src, dst, 0.3, 400 + i);
    if (path.size() >= 2) engine.AddTrajectory(std::move(path));
  }
  engine.BuildIndex();
  return engine;
}

std::vector<Engine::QuerySpec> MakeSpecs() {
  std::vector<Engine::QuerySpec> specs;
  for (const double tau : {400.0, 600.0, 900.0, 1400.0}) {
    for (const uint32_t k : {3u, 5u}) {
      Engine::QuerySpec spec;
      spec.k = k;
      spec.tau_m = tau;
      spec.psi = (k == 3) ? tops::PreferenceFunction::Binary()
                          : tops::PreferenceFunction::Linear();
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

TEST(Determinism, TopKBatchIdenticalAcrossThreadCounts) {
  const Engine serial = MakeThreadedEngine(1);
  const Engine threaded = MakeThreadedEngine(8);
  const auto specs = MakeSpecs();

  const auto a = serial.TopKBatch(specs);
  const auto b = threaded.TopKBatch(specs);
  ASSERT_EQ(a.size(), specs.size());
  ASSERT_EQ(b.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(a[i].selection.sites, b[i].selection.sites) << "query " << i;
    EXPECT_EQ(a[i].selection.utility, b[i].selection.utility) << "query " << i;
    EXPECT_EQ(a[i].instance_used, b[i].instance_used);
  }
}

TEST(Determinism, TopKBatchMatchesSequentialTopK) {
  const Engine engine = MakeThreadedEngine(8);
  const auto specs = MakeSpecs();
  const auto batch = engine.TopKBatch(specs);
  ASSERT_EQ(batch.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const auto single = engine.TopK(specs[i].k, specs[i].tau_m, specs[i].psi);
    EXPECT_EQ(batch[i].selection.sites, single.selection.sites) << "query " << i;
    EXPECT_EQ(batch[i].selection.utility, single.selection.utility);
  }
}

TEST(Determinism, IndexBuildIdenticalAcrossThreadCounts) {
  const Engine serial = MakeThreadedEngine(1);
  const Engine threaded = MakeThreadedEngine(8);
  const auto& a = serial.index();
  const auto& b = threaded.index();
  ASSERT_EQ(a.num_instances(), b.num_instances());
  for (size_t p = 0; p < a.num_instances(); ++p) {
    const auto& ia = a.instance(p);
    const auto& ib = b.instance(p);
    ASSERT_EQ(ia.num_clusters(), ib.num_clusters()) << "instance " << p;
    for (uint32_t g = 0; g < ia.num_clusters(); ++g) {
      const auto& ca = ia.cluster(g);
      const auto& cb = ib.cluster(g);
      EXPECT_EQ(ca.center, cb.center);
      EXPECT_EQ(ca.representative, cb.representative);
      EXPECT_EQ(ca.rep_rt_m, cb.rep_rt_m);
      ASSERT_EQ(ca.tl.size(), cb.tl.size());
      for (size_t i = 0; i < ca.tl.size(); ++i) {
        EXPECT_EQ(ca.tl[i].traj, cb.tl[i].traj);
        EXPECT_EQ(ca.tl[i].dr_m, cb.tl[i].dr_m);
      }
      ASSERT_EQ(ca.cl.size(), cb.cl.size());
      for (size_t i = 0; i < ca.cl.size(); ++i) {
        EXPECT_EQ(ca.cl[i].cluster, cb.cl[i].cluster);
        EXPECT_EQ(ca.cl[i].dr_m, cb.cl[i].dr_m);
      }
    }
  }
}

}  // namespace
}  // namespace netclus
