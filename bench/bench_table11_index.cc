// Table 11: per-radius indexing details on the main network.
// Paper: as R_p grows, cluster count η falls (roughly geometrically), mean
// dominating-set size |Λ| and mean trajectory-list size |TL| grow, mean
// neighbor-list size |CL| first rises then falls, and build times stay
// practical with a U-shape at the extremes.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "bench_common.h"

#include "graph/spf/distance_backend.h"
#include "netclus/cluster_index.h"
#include "netclus/index_io.h"
#include "netclus/query.h"
#include "store/buffer_pool.h"

int main(int argc, char** argv) {
  using namespace netclus;
  bench::PrintHeader(
      "Table 11", "Indexing details per cluster radius (gamma = 0.75)",
      "eta falls ~geometrically with R; |Lambda| and |TL| grow; |CL| rises "
      "then falls; build times practical");

  data::Dataset d = bench::MakeDataset("beijing-lite", 0.20);
  std::printf("network: %zu nodes, %zu trajectories\n\n", d.num_nodes(),
              d.num_trajectories());
  // Per-backend column: the same instance rebuilt on a CH distance oracle
  // (one contraction amortized over the whole radius sweep). The cluster
  // structure is bit-identical; only build_s changes.
  const std::shared_ptr<const graph::spf::DistanceBackend> ch =
      graph::spf::MakeBackend(graph::spf::BackendKind::kContractionHierarchies,
                              d.network.get());

  util::Table table({"R_km", "eta_clusters", "mean_Lambda", "mean_TL",
                     "mean_CL", "build_s", "build_s_ch", "memory"});
  double radius = util::GetEnvDouble("NETCLUS_T11_R0_M", 60.0);
  const int steps = static_cast<int>(util::GetEnvInt("NETCLUS_T11_STEPS", 9));
  for (int i = 0; i < steps; ++i, radius *= 1.75) {
    index::ClusterIndexConfig config;
    config.radius_m = radius;
    config.gamma = 0.75;
    const index::ClusterIndex instance =
        index::ClusterIndex::Build(*d.store, d.sites, config);
    const index::ClusterIndex instance_ch =
        index::ClusterIndex::Build(*d.store, d.sites, config, ch.get());
    NC_CHECK_EQ(instance_ch.num_clusters(), instance.num_clusters());
    table.Row()
        .Cell(radius / 1000.0, 4)
        .Cell(static_cast<uint64_t>(instance.num_clusters()))
        .Cell(instance.stats().mean_dominating_set_size, 2)
        .Cell(instance.stats().mean_tl_size, 2)
        .Cell(instance.stats().mean_cl_size, 2)
        .Cell(instance.stats().build_seconds, 2)
        .Cell(instance_ch.stats().build_seconds, 2)
        .Cell(util::HumanBytes(instance.MemoryBytes()));
  }
  table.PrintText(std::cout);

  // --- index persistence: copy vs mmap load --------------------------------
  // The startup-latency leg: Engine::LoadIndexFromFile boils down to
  // LoadIndex, so this times the full multi-resolution index through the
  // heap-copy loader and the zero-copy mmap loader.
  std::printf("\nindex persistence (full multi-resolution index):\n");
  const index::MultiIndex full = bench::BuildIndex(d);
  const std::string v3_path = "/tmp/netclus_bench_t11_v3.idx";
  std::string error;
  NC_CHECK(index::SaveIndex(full, v3_path, &error)) << error;
  const size_t nodes = d.num_nodes();
  const size_t trajs = d.store->total_count();

  auto time_load = [&](index::IndexLoadMode mode) {
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      index::MultiIndex loaded;
      util::WallTimer timer;
      NC_CHECK(index::LoadIndex(v3_path, nodes, trajs, &loaded, &error,
                                nullptr, nullptr, mode))
          << error;
      best = std::min(best, timer.Seconds());
    }
    return best;
  };
  const double v3_copy_s = time_load(index::IndexLoadMode::kCopy);
  const double v3_mmap_s = time_load(index::IndexLoadMode::kMmap);
  uint64_t v3_bytes = 0;
  {
    std::ifstream in(v3_path, std::ios::binary | std::ios::ate);
    v3_bytes = static_cast<uint64_t>(in.tellg());
  }
  util::Table io_table({"load", "file_bytes", "load_s"});
  io_table.Row()
      .Cell(std::string("copy"))
      .Cell(util::HumanBytes(v3_bytes))
      .Cell(v3_copy_s, 4);
  io_table.Row()
      .Cell(std::string("mmap"))
      .Cell(util::HumanBytes(v3_bytes))
      .Cell(v3_mmap_s, 4);
  io_table.PrintText(std::cout);

  // --- larger-than-budget serving -------------------------------------------
  // Mmap the same index under a page budget deliberately smaller than the
  // file and serve a zipf-skewed query mix. Reported: cold (pool dropped
  // before each query, every list re-faults) and warm p50/p99 latencies,
  // plus the pool's residency counters — the proof that the working set
  // stays bounded while answers stay exact.
  const tops::PreferenceFunction psi = tops::PreferenceFunction::Binary();

  // Budget: a quarter of the file, floored at two frames.
  const uint64_t budget = std::max<uint64_t>(128 << 10, v3_bytes / 4);
  NC_CHECK_LT(budget, v3_bytes);  // must exercise eviction, not fit in RAM
  setenv("NETCLUS_PAGE_BUDGET", std::to_string(budget).c_str(), 1);
  index::MultiIndex budgeted;
  NC_CHECK(index::LoadIndex(v3_path, nodes, trajs, &budgeted, &error, nullptr,
                            nullptr, index::IndexLoadMode::kMmap))
      << error;
  unsetenv("NETCLUS_PAGE_BUDGET");
  store::BufferPool* pool = store::BufferPool::Find(
      static_cast<const uint8_t*>(budgeted.instance(0).cc_arena_id()));
  NC_CHECK(pool != nullptr);

  exec::ExecContext ctx;
  const exec::Planner planner(&ctx);
  const exec::Executor executor(&budgeted, d.store.get(), &d.sites, &ctx);
  // Zipf-skewed tau mix: rank r is drawn with p ~ 1/(r+1), so a couple of
  // radii dominate (hot instances) while the tail still forces the pool
  // to swap cold instances in and out.
  const std::vector<double> taus = {800.0,  1600.0, 400.0,  3200.0,
                                    1200.0, 2400.0, 600.0,  4800.0};
  std::vector<double> cdf(taus.size());
  double norm = 0.0;
  for (size_t r = 0; r < taus.size(); ++r) norm += 1.0 / (r + 1.0);
  double acc = 0.0;
  for (size_t r = 0; r < taus.size(); ++r) {
    acc += 1.0 / ((r + 1.0) * norm);
    cdf[r] = acc;
  }
  util::Rng rng(23);
  auto next_tau = [&] {
    const double u = rng.Uniform();
    for (size_t r = 0; r < cdf.size(); ++r) {
      if (u <= cdf[r]) return taus[r];
    }
    return taus.back();
  };
  auto run_query = [&](double tau) {
    exec::PlanRequest request;
    request.k = 5;
    request.tau_m = tau;
    request.psi = psi;
    util::WallTimer timer;
    const auto result =
        executor.Execute(planner.Plan(request, budgeted, /*batch_size=*/1));
    NC_CHECK(!result.selection.sites.empty());
    return timer.Seconds() * 1000.0;
  };
  auto percentile = [](std::vector<double> xs, double q) {
    std::sort(xs.begin(), xs.end());
    return xs.empty() ? 0.0 : xs[static_cast<size_t>(q * (xs.size() - 1))];
  };

  std::vector<double> cold_ms, warm_ms;
  for (int i = 0; i < 30; ++i) {
    pool->DropAll();  // every posting access below re-faults from disk
    cold_ms.push_back(run_query(next_tau()));
  }
  for (int i = 0; i < 150; ++i) warm_ms.push_back(run_query(next_tau()));
  const store::BufferPool::Stats ps = pool->GetStats();

  util::Table v3_table(
      {"regime", "queries", "p50_ms", "p99_ms"});
  v3_table.Row()
      .Cell(std::string("mmap-cold"))
      .Cell(static_cast<uint64_t>(cold_ms.size()))
      .Cell(percentile(cold_ms, 0.5), 3)
      .Cell(percentile(cold_ms, 0.99), 3);
  v3_table.Row()
      .Cell(std::string("warm (zipf)"))
      .Cell(static_cast<uint64_t>(warm_ms.size()))
      .Cell(percentile(warm_ms, 0.5), 3)
      .Cell(percentile(warm_ms, 0.99), 3);
  v3_table.PrintText(std::cout);
  std::printf("page budget %s (file %s): resident %s, faults %llu, "
              "evictions %llu\n",
              util::HumanBytes(budget).c_str(),
              util::HumanBytes(v3_bytes).c_str(),
              util::HumanBytes(ps.resident_bytes).c_str(),
              static_cast<unsigned long long>(ps.faults),
              static_cast<unsigned long long>(ps.evictions));

  const std::string json_path = bench::JsonOutPath(argc, argv, "BENCH_table11.json");
  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"table11_index\",\n"
       << "  \"v3_binary_bytes\": " << v3_bytes << ",\n"
       << "  \"load_v3_copy_s\": " << v3_copy_s << ",\n"
       << "  \"load_v3_mmap_s\": " << v3_mmap_s << ",\n"
       << "  \"page_budget_bytes\": " << budget << ",\n"
       << "  \"pool_resident_bytes\": " << ps.resident_bytes << ",\n"
       << "  \"pool_faults\": " << ps.faults << ",\n"
       << "  \"pool_evictions\": " << ps.evictions << ",\n"
       << "  \"cold_p50_ms\": " << percentile(cold_ms, 0.5) << ",\n"
       << "  \"cold_p99_ms\": " << percentile(cold_ms, 0.99) << ",\n"
       << "  \"warm_p50_ms\": " << percentile(warm_ms, 0.5) << ",\n"
       << "  \"warm_p99_ms\": " << percentile(warm_ms, 0.99) << "\n}\n";
  std::printf("wrote %s\n", json_path.c_str());
  std::remove(v3_path.c_str());
  return 0;
}
