// Serving throughput and tail latency (src/serve) under a mixed
// read/update workload with zipf-skewed query keys.
//
// Every reader drives SubmitAsync() with a bounded in-flight window,
// priority classes, and StalenessPolicy::AllowStaleVersion on most of
// its stream: under backpressure the scheduler sheds cover *builds* and
// serves stale-but-versioned answers from the caches, so cache-hit
// traffic never queues behind builds. The sweep is reader threads ×
// update stream kind × delta-aware cache carryover; each cell boots a
// fresh server from the same built engine:
//  * none — read-only baseline;
//  * traj — trajectory add/remove batches: every publish dirties every
//    index instance, so carryover has (correctly) nothing to carry;
//  * site — paced AddSite stream: a site add leaves most (instance, τ)
//    partitions untouched, so with carryover on the caches stay warm
//    across publishes (cache_hit > 0 and `carried` grows) while with it
//    off every publish resets them to cold.
//
// Reported per cell: completed (kOk) queries, wall time, QPS, latency
// p50/p95/p99/p999, stale-serve share, shed rate, result-cache hit rate,
// entries carried across publishes, and snapshots published. The summary
// line prints the carryover effect on the hit rate at the widest
// site-update cell.
//
// paper_shape: read throughput holds up when updates stream in, because
// readers never block on the writer (snapshot isolation) and
// stale-tolerant requests ride the caches instead of re-paying a cover
// build after every publish; carryover keeps the hit rate up under a
// site-update stream; shed and stale responses are always flagged, never
// silently wrong.
//
// Besides the stdout table, rows are written as JSON to
// BENCH_serve_tail.json (override with NETCLUS_BENCH_JSON) so CI can
// track the serving trajectory.
#include "bench_common.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "serve/server.h"
#include "traj/trip_generator.h"

namespace {

using namespace netclus;

// Zipf(s) over ranks [0, n): precomputed CDF + binary search. Rank 0 is
// the hottest key; with s ~= 1.1 a handful of specs dominate the stream,
// which is what makes result/cover caching (and stale serving) matter.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }

  size_t Sample(util::Rng& rng) const {
    const double u = rng.Uniform();
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

// Bounded in-flight window for one async reader: Acquire before each
// SubmitAsync, Release from the completion callback, Drain at the end.
class InFlightWindow {
 public:
  explicit InFlightWindow(size_t limit) : limit_(limit) {}

  void Acquire() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return in_flight_ < limit_; });
    ++in_flight_;
  }

  void Release() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
    }
    cv_.notify_all();
  }

  void Drain() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return in_flight_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  const size_t limit_;
  size_t in_flight_ = 0;
};

struct CellResult {
  uint32_t readers = 0;
  std::string update_kind;  // none | traj | site
  uint32_t update_batch = 0;
  bool carryover = true;
  uint64_t ok = 0;
  uint64_t stale = 0;
  uint64_t shed = 0;  // kOverloaded + kDeadlineExceeded + stale-served
  double wall_s = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0, p999_ms = 0.0;
  double stale_rate = 0.0;
  double shed_rate = 0.0;
  double cache_hit_rate = 0.0;
  uint64_t carried = 0;  // cache entries re-keyed across publishes
  uint64_t snapshots = 0;
};

// Site publishes are paced far slower than trajectory batches: sites
// arrive rarely, and carryover re-keys entries from the superseded
// version only, so the pace must exceed typical query latency for
// results inserted at one version to carry into the next.
constexpr uint32_t kSitePublishMs = 250;

CellResult RunCell(const Engine& engine,
                   const std::vector<std::vector<graph::NodeId>>& update_pool,
                   const std::vector<graph::NodeId>& site_pool,
                   const std::string& update_kind, uint32_t readers,
                   uint32_t traj_batch, size_t queries, uint32_t publish_ms,
                   uint64_t stale_lag, bool carryover) {
  serve::ServerOptions options;
  options.updates.max_batch = 64;
  options.carryover = carryover;
  auto server = engine.Serve(options);

  // One site per publish: a site add dirties only the instances whose
  // cluster representative it displaces, so single-site publishes leave
  // most partitions clean — the carryover case. Batching several sites
  // per publish would union their dirt and mostly erase it.
  const uint32_t update_batch =
      update_kind == "traj" ? traj_batch : (update_kind == "site" ? 1u : 0u);

  // 64 distinct specs, zipf-ranked: rank r maps to a fixed (k, τ) pair so
  // the hot set is stable across the run and across cells.
  constexpr size_t kSpecPool = 64;
  auto spec_for = [](size_t rank) {
    Engine::QuerySpec spec;
    spec.k = 2 + static_cast<uint32_t>(rank % 5);
    spec.tau_m = 500.0 + 60.0 * static_cast<double>(rank % 32);
    return spec;
  };
  const ZipfSampler zipf(kSpecPool, 1.1);

  std::atomic<bool> readers_done{false};
  std::atomic<uint64_t> ok{0}, stale{0}, shed{0};
  util::WallTimer timer;

  std::thread writer;
  if (update_batch > 0 && update_kind == "traj") {
    writer = std::thread([&] {
      size_t cursor = 0;
      while (!readers_done.load(std::memory_order_acquire)) {
        std::vector<traj::TrajId> added;
        for (uint32_t i = 0; i < update_batch; ++i) {
          const auto& path = update_pool[cursor++ % update_pool.size()];
          const serve::UpdateTicket t = server->MutateAddTrajectory(path);
          if (t.accepted) added.push_back(t.traj);
        }
        if (!added.empty()) server->MutateRemoveTrajectory(added.front());
        server->Flush();  // publish: fresh answers now need new covers
        // Bounded publish rate: an unpaced Flush loop on a small box is
        // a version-churn microbenchmark, not a serving workload.
        std::this_thread::sleep_for(std::chrono::milliseconds(publish_ms));
      }
    });
  } else if (update_batch > 0 && update_kind == "site") {
    // Site-add publishes leave most (instance, τ) partitions untouched:
    // the cell where delta-aware carryover keeps stale-serving traffic on
    // warm caches instead of cold-starting at every publish.
    writer = std::thread([&] {
      size_t cursor = 0;
      while (!readers_done.load(std::memory_order_acquire) &&
             cursor < site_pool.size()) {
        for (uint32_t i = 0; i < update_batch && cursor < site_pool.size();
             ++i) {
          server->MutateAddSite(site_pool[cursor++]);
        }
        server->Flush();
        std::this_thread::sleep_for(std::chrono::milliseconds(kSitePublishMs));
      }
    });
  }

  std::vector<std::thread> pool;
  pool.reserve(readers);
  for (uint32_t r = 0; r < readers; ++r) {
    const size_t per_reader = queries / readers + (r < queries % readers);
    pool.emplace_back([&, r, per_reader] {
      util::Rng rng(0xbeef + r);
      // A short window keeps arrivals spread over the cell, so later
      // requests can hit (or carry) what earlier ones cached; a window
      // as large as the query budget would admit everything at once.
      InFlightWindow window(8);
      for (size_t q = 0; q < per_reader; ++q) {
        serve::Request request;
        request.spec = spec_for(zipf.Sample(rng));
        // Hot interactive traffic tolerates a few versions of lag; a
        // slice of the stream insists on fresh answers so cover builds
        // keep flowing through the heavy lane.
        if (q % 8 == 0) {
          request.priority = serve::Priority::kNormal;
          request.staleness = serve::StalenessPolicy::Fresh();
        } else {
          request.priority = serve::Priority::kInteractive;
          request.staleness = serve::StalenessPolicy::AllowStaleVersion(stale_lag);
        }
        window.Acquire();
        server->SubmitAsync(std::move(request), [&](serve::Response res) {
          if (res.status == serve::StatusCode::kOk) {
            ok.fetch_add(1, std::memory_order_relaxed);
            if (res.stale) stale.fetch_add(1, std::memory_order_relaxed);
          }
          if (res.shed) shed.fetch_add(1, std::memory_order_relaxed);
          window.Release();
        });
      }
      window.Drain();
    });
  }
  for (std::thread& t : pool) t.join();
  const double wall = timer.Seconds();
  readers_done.store(true, std::memory_order_release);
  if (writer.joinable()) writer.join();
  server->Shutdown();

  const serve::ServerStats stats = server->stats();
  CellResult cell;
  cell.readers = readers;
  cell.update_kind = update_kind;
  cell.update_batch = update_batch;
  cell.carryover = carryover;
  cell.ok = ok.load();
  cell.stale = stale.load();
  cell.shed = shed.load();
  cell.wall_s = wall;
  cell.qps = wall > 0.0 ? static_cast<double>(cell.ok) / wall : 0.0;
  cell.p50_ms = stats.latency_p50_ms;
  cell.p95_ms = stats.latency_p95_ms;
  cell.p99_ms = stats.latency_p99_ms;
  cell.p999_ms = stats.latency_p999_ms;
  cell.stale_rate = queries > 0
                        ? static_cast<double>(cell.stale) /
                              static_cast<double>(queries)
                        : 0.0;
  cell.shed_rate = queries > 0 ? static_cast<double>(cell.shed) /
                                     static_cast<double>(queries)
                               : 0.0;
  const uint64_t lookups = stats.cache.hits + stats.cache.misses;
  cell.cache_hit_rate =
      lookups > 0 ? static_cast<double>(stats.cache.hits) / lookups : 0.0;
  cell.carried = stats.cache.carried + stats.cover_cache.carried;
  cell.snapshots = stats.updates.batches_published;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace netclus;
  bench::PrintHeader(
      "ServeTail",
      "Serving throughput and tail latency under mixed read/update load "
      "(src/serve)",
      "read QPS survives a live update stream: stale-tolerant requests "
      "ride the caches instead of re-paying cover builds after every "
      "publish, and delta-aware carryover keeps the caches warm across "
      "site publishes");

  data::Dataset d = bench::MakeDataset("beijing-lite", 0.15);

  graph::RoadNetwork network = *d.network;
  // Sample ~70% of nodes as the initial candidate pool (the dataset's
  // default is all-nodes, which would leave the site update stream no
  // site-less node to claim).
  tops::SiteSet sites =
      tops::SiteSet::SampleNodes(network, (network.num_nodes() * 7) / 10, 42);
  Engine::Options engine_options;
  engine_options.index.tau_min_m = 400.0;
  engine_options.index.tau_max_m = 6000.0;
  Engine engine(std::move(network), std::move(sites), engine_options);
  for (traj::TrajId t = 0; t < d.store->total_count(); ++t) {
    if (d.store->is_alive(t)) {
      engine.AddTrajectory(d.store->trajectory(t).nodes());
    }
  }
  engine.BuildIndex();
  std::printf("corpus: %zu trajectories, %zu sites, %zu index instances\n",
              engine.store().live_count(), engine.sites().size(),
              engine.index().num_instances());

  // Pre-generated update stream (excluded from timings).
  std::vector<std::vector<graph::NodeId>> update_pool;
  {
    util::Rng rng(717);
    while (update_pool.size() < 256) {
      const auto src = static_cast<graph::NodeId>(
          rng.UniformInt(engine.network().num_nodes()));
      const auto dst = static_cast<graph::NodeId>(
          rng.UniformInt(engine.network().num_nodes()));
      if (src == dst) continue;
      auto path = traj::RoutePerturbed(engine.network(), src, dst, 0.3,
                                       9000 + update_pool.size());
      if (path.size() >= 2) update_pool.push_back(std::move(path));
    }
  }
  // Site-less nodes the site update stream can claim (one per AddSite).
  std::vector<graph::NodeId> site_pool;
  for (graph::NodeId node = 0;
       node < static_cast<graph::NodeId>(engine.network().num_nodes());
       ++node) {
    if (engine.sites().SiteAtNode(node) == tops::kInvalidSite) {
      site_pool.push_back(node);
    }
  }

  const size_t queries = static_cast<size_t>(
      util::GetEnvInt("NETCLUS_SERVE_QUERIES", 512));
  const uint32_t traj_batch = static_cast<uint32_t>(
      util::GetEnvInt("NETCLUS_SERVE_UPDATE_BATCH", 16));
  const uint32_t publish_ms = static_cast<uint32_t>(
      util::GetEnvInt("NETCLUS_SERVE_PUBLISH_MS", 25));
  // How many snapshot versions the lag-tolerant slice accepts. At the
  // paced publish rate this is a window of a few seconds of staleness.
  const uint64_t stale_lag = static_cast<uint64_t>(
      util::GetEnvInt("NETCLUS_SERVE_STALE_LAG", 64));
  std::vector<CellResult> cells;
  util::Table table({"readers", "upd_kind", "carryover", "ok", "stale",
                     "shed", "wall_s", "qps", "p50_ms", "p95_ms", "p99_ms",
                     "p999_ms", "shed_rate", "cache_hit", "carried",
                     "snapshots"});
  const auto run_row = [&](uint32_t readers, const std::string& kind,
                           bool carryover) {
    const CellResult cell =
        RunCell(engine, update_pool, site_pool, kind, readers, traj_batch,
                queries, publish_ms, stale_lag, carryover);
    cells.push_back(cell);
    table.Row()
        .Cell(static_cast<uint64_t>(cell.readers))
        .Cell(cell.update_kind)
        .Cell(static_cast<uint64_t>(cell.carryover))
        .Cell(cell.ok)
        .Cell(cell.stale)
        .Cell(cell.shed)
        .Cell(cell.wall_s, 3)
        .Cell(cell.qps, 1)
        .Cell(cell.p50_ms, 2)
        .Cell(cell.p95_ms, 2)
        .Cell(cell.p99_ms, 2)
        .Cell(cell.p999_ms, 2)
        .Cell(cell.shed_rate, 2)
        .Cell(cell.cache_hit_rate, 2)
        .Cell(cell.carried)
        .Cell(cell.snapshots);
  };
  for (const uint32_t readers : {2u, 8u}) {
    // Read-only baseline: carryover has no publishes to act on.
    run_row(readers, "none", true);
  }
  for (const std::string kind : {"traj", "site"}) {
    for (const bool carryover : {false, true}) {
      for (const uint32_t readers : {2u, 8u}) {
        run_row(readers, kind, carryover);
      }
    }
  }
  table.PrintText(std::cout);

  // Headline: the carryover effect at the widest site-update cell.
  double site_hit_on = -1.0, site_hit_off = -1.0;
  for (const CellResult& c : cells) {
    if (c.update_kind != "site" || c.readers != 8) continue;
    (c.carryover ? site_hit_on : site_hit_off) = c.cache_hit_rate;
  }
  if (site_hit_on >= 0.0 && site_hit_off >= 0.0) {
    std::printf(
        "\ncache hit rate under the site-update stream at 8 readers: "
        "%.2f with carryover vs %.2f without\n",
        site_hit_on, site_hit_off);
  }

  const std::string json_path = bench::JsonOutPath(argc, argv, "BENCH_serve_tail.json");
  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"serve_tail\",\n  \"rows\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    json << "    {\"readers\": " << c.readers
         << ", \"update_kind\": \"" << c.update_kind << "\""
         << ", \"carryover\": " << c.carryover
         << ", \"update_batch\": " << c.update_batch << ", \"ok\": " << c.ok
         << ", \"stale\": " << c.stale << ", \"shed\": " << c.shed
         << ", \"wall_s\": " << c.wall_s << ", \"qps\": " << c.qps
         << ", \"p50_ms\": " << c.p50_ms << ", \"p95_ms\": " << c.p95_ms
         << ", \"p99_ms\": " << c.p99_ms << ", \"p999_ms\": " << c.p999_ms
         << ", \"stale_rate\": " << c.stale_rate
         << ", \"shed_rate\": " << c.shed_rate
         << ", \"cache_hit_rate\": " << c.cache_hit_rate
         << ", \"carried\": " << c.carried
         << ", \"snapshots\": " << c.snapshots << "}"
         << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote %s\n", json_path.c_str());
  return json.good() ? 0 : 1;
}
