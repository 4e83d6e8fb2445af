// Google-benchmark micro benchmarks for the hot primitives underneath
// NetClus: bounded Dijkstra, round-trip enumeration, FM sketch operations,
// covering-set construction, and clustered-space queries.
#include <benchmark/benchmark.h>

#include "data/datasets.h"
#include "exec/executor.h"
#include "exec/planner.h"
#include "graph/dijkstra.h"
#include "graph/generators.h"
#include "netclus/multi_index.h"
#include "netclus/query.h"
#include "sketch/fm_sketch.h"
#include "store/arena.h"
#include "store/simd/bulk_varint.h"
#include "tops/coverage.h"
#include "tops/inc_greedy.h"
#include "util/rng.h"

namespace {

using namespace netclus;

const graph::RoadNetwork& SharedNetwork() {
  static const graph::RoadNetwork* net = [] {
    graph::GridCityConfig config;
    config.rows = 60;
    config.cols = 60;
    config.block_m = 150.0;
    return new graph::RoadNetwork(GenerateGridCity(config));
  }();
  return *net;
}

const data::Dataset& SharedDataset() {
  static const data::Dataset* dataset =
      new data::Dataset(data::MakeBeijingLite(0.08));
  return *dataset;
}

void BM_DijkstraBounded(benchmark::State& state) {
  const graph::RoadNetwork& net = SharedNetwork();
  graph::DijkstraEngine engine(&net);
  const double radius = static_cast<double>(state.range(0));
  util::Rng rng(1);
  for (auto _ : state) {
    const auto src =
        static_cast<graph::NodeId>(rng.UniformInt(net.num_nodes()));
    benchmark::DoNotOptimize(
        engine.BoundedSearch(src, radius, graph::Direction::kForward));
  }
  state.counters["settled"] = static_cast<double>(engine.last_settled_count());
}
BENCHMARK(BM_DijkstraBounded)->Arg(400)->Arg(800)->Arg(1600)->Arg(3200);

void BM_DijkstraRoundTrip(benchmark::State& state) {
  const graph::RoadNetwork& net = SharedNetwork();
  graph::DijkstraEngine engine(&net);
  util::Rng rng(2);
  for (auto _ : state) {
    const auto src =
        static_cast<graph::NodeId>(rng.UniformInt(net.num_nodes()));
    benchmark::DoNotOptimize(
        engine.BoundedRoundTrip(src, static_cast<double>(state.range(0))));
  }
}
BENCHMARK(BM_DijkstraRoundTrip)->Arg(800)->Arg(1600);

void BM_DijkstraPointToPoint(benchmark::State& state) {
  const graph::RoadNetwork& net = SharedNetwork();
  graph::DijkstraEngine engine(&net);
  util::Rng rng(3);
  for (auto _ : state) {
    const auto s = static_cast<graph::NodeId>(rng.UniformInt(net.num_nodes()));
    const auto t = static_cast<graph::NodeId>(rng.UniformInt(net.num_nodes()));
    benchmark::DoNotOptimize(engine.PointToPoint(s, t));
  }
}
BENCHMARK(BM_DijkstraPointToPoint);

void BM_FmSketchAdd(benchmark::State& state) {
  sketch::FmSketch sk(static_cast<uint32_t>(state.range(0)));
  uint64_t x = 0;
  for (auto _ : state) {
    sk.Add(++x);
  }
}
BENCHMARK(BM_FmSketchAdd)->Arg(1)->Arg(30)->Arg(100);

void BM_FmSketchUnionEstimate(benchmark::State& state) {
  sketch::FmSketch a(static_cast<uint32_t>(state.range(0)));
  sketch::FmSketch b(static_cast<uint32_t>(state.range(0)));
  for (uint64_t x = 0; x < 10000; ++x) {
    a.Add(x);
    b.Add(x + 5000);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.UnionEstimate(b));
  }
}
BENCHMARK(BM_FmSketchUnionEstimate)->Arg(30)->Arg(100);

void BM_CoverageBuild(benchmark::State& state) {
  const data::Dataset& d = SharedDataset();
  tops::CoverageConfig config;
  config.tau_m = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tops::CoverageIndex::Build(*d.store, d.sites, config));
  }
}
BENCHMARK(BM_CoverageBuild)->Arg(400)->Arg(800)->Unit(benchmark::kMillisecond);

void BM_IncGreedySolve(benchmark::State& state) {
  const data::Dataset& d = SharedDataset();
  tops::CoverageConfig config;
  config.tau_m = 800.0;
  const tops::CoverageIndex coverage =
      tops::CoverageIndex::Build(*d.store, d.sites, config);
  const tops::PreferenceFunction psi = tops::PreferenceFunction::Binary();
  tops::GreedyConfig greedy;
  greedy.k = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(IncGreedy(coverage, psi, greedy));
  }
}
BENCHMARK(BM_IncGreedySolve)->Arg(5)->Arg(20)->Unit(benchmark::kMillisecond);

// --- blocked-postings primitives (v3 index format) -------------------------

// Scalar vs SIMD bulk varint decode: the inner loop of every blocked
// list traversal. range(0) selects the kernel, range(1) the run length
// (one posting block is 128 entries; larger runs amortize dispatch),
// range(2) the stream shape: 0 = dense (all 1-byte varints, the shape of
// sorted-id delta streams, where the all-single-byte widening fast path
// runs), 1 = mixed (10% wide varints, which break up the fast windows).
// items_per_second is decoded entries/sec — the Table 11 column that
// motivates the SIMD kernels.
void BM_BulkVarintDecode(benchmark::State& state) {
  const auto kernel = static_cast<store::simd::Kernel>(state.range(0));
  if (!store::simd::Supports(kernel)) {
    state.SkipWithError("kernel unsupported on this host");
    return;
  }
  const size_t count = static_cast<size_t>(state.range(1));
  const bool mixed = state.range(2) != 0;
  util::Rng rng(7);
  std::vector<uint8_t> enc;
  for (size_t i = 0; i < count; ++i) {
    const uint64_t v = mixed && rng.UniformInt(10ull) == 0
                           ? rng.UniformInt(1ull << 28)
                           : rng.UniformInt(128ull);
    store::PutVarint64(enc, v);
  }
  std::vector<uint32_t> out(count);
  const auto fn = kernel == store::simd::Kernel::kScalar
                      ? store::simd::BulkDecodeVarint32Scalar
                      : kernel == store::simd::Kernel::kSse4
                            ? store::simd::BulkDecodeVarint32Sse4
                            : store::simd::BulkDecodeVarint32Avx2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fn(enc.data(), enc.data() + enc.size(), out.data(), count));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(count));
  state.SetLabel(std::string(store::simd::KernelName(kernel)) +
                 (mixed ? "/mixed" : "/dense"));
}
BENCHMARK(BM_BulkVarintDecode)
    ->ArgNames({"kernel", "entries", "mixed"})
    ->Args({0, 128, 0})
    ->Args({0, 16384, 0})
    ->Args({0, 16384, 1})
    ->Args({1, 128, 0})
    ->Args({1, 16384, 0})
    ->Args({1, 16384, 1})
    ->Args({2, 128, 0})
    ->Args({2, 16384, 0})
    ->Args({2, 16384, 1});

// Full list traversal through the arena view's ForEach (skip headers +
// SIMD bulk decode). range(0) is the list length.
void BM_PostingListForEach(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  util::Rng rng(11);
  std::vector<uint32_t> values(len);
  for (auto& v : values) {
    v = static_cast<uint32_t>(rng.UniformInt(1u << 24));
  }
  store::PostingArenaBuilder builder;
  builder.AddU32List(values);
  const store::PostingArena arena = builder.Finish();
  for (auto _ : state) {
    uint64_t sum = 0;
    arena.U32List(0).ForEach([&](uint32_t v) { sum += v; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(len));
}
BENCHMARK(BM_PostingListForEach)
    ->ArgNames({"entries"})
    ->Arg(1024)
    ->Arg(65536);

void BM_NetClusQuery(benchmark::State& state) {
  const data::Dataset& d = SharedDataset();
  static const index::MultiIndex* index = [] {
    index::MultiIndexConfig config;
    config.gamma = 0.75;
    config.tau_min_m = 400.0;
    config.tau_max_m = 6000.0;
    return new index::MultiIndex(
        index::MultiIndex::Build(*SharedDataset().store, SharedDataset().sites,
                                 config));
  }();
  exec::ExecContext ctx;
  const exec::Planner planner(&ctx);
  const exec::Executor executor(index, d.store.get(), &d.sites, &ctx);
  exec::PlanRequest request;
  request.k = 5;
  request.tau_m = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        executor.Execute(planner.Plan(request, *index, /*batch_size=*/1)));
  }
}
BENCHMARK(BM_NetClusQuery)->Arg(800)->Arg(1600)->Arg(3200)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
