// serve-live: a live placement service with writes beside reads.
//
// Offline and untimed, the index is built and written as a v3 file. The
// serving node ingests the corpus, loads the file by mmap under a page
// budget of a quarter of its size, and calls Serve() with default
// ServerOptions. One driver thread keeps three SubmitAsync reads
// outstanding, each drawn zipf(0.5) from 144 dashboard specs; every 20
// reads it drains, enqueues a churn batch and calls Flush(). The result
// and cover caches, carryover, the scheduler, mmap load and the buffer
// pool work only here.
//
// Determinism: writes happen only between rounds, after a drain, so every
// read of a round sees the snapshot the previous Flush() left, and the
// driver never has two reads of one spec in flight, so a repeat always
// finds the earlier answer cached. The outcome counts therefore repeat
// exactly for a seed.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <tuple>

#include "exec/cover_build.h"
#include "exec/executor.h"
#include "exec/planner.h"
#include "harness.h"
#include "serve/query_cache.h"
#include "serve/server.h"
#include "store/buffer_pool.h"
#include "util/thread_annotations.h"

namespace netclus::perf {

namespace {

constexpr uint64_t kReadSalt = 0xB1;
constexpr uint64_t kQualitySalt = 0xB2;
constexpr uint64_t kChurnSalt = 0xB3;

constexpr double kDashboardTaus[] = {500.0, 800.0, 1200.0, 1600.0, 2200.0, 3000.0};
constexpr size_t kNumTaus = 6;
constexpr size_t kNumK = 8;  // k = 3..10
constexpr size_t kDashboardSpecs = kNumTaus * kNumK * 3;
constexpr double kZipfExponent = 0.5;
constexpr size_t kOutstanding = 3;
constexpr size_t kReadsPerRound = 20;
constexpr uint64_t kWarmRounds = 8;
/// The exact counters cover the first this-many timed rounds (1,200
/// reads), and the timed window never ends before them.
constexpr uint64_t kCountedRounds = 60;
/// Every this-many timed rounds the clock pauses for one more serving-node
/// set-up, so setup_s samples the host across the whole run; every second
/// pause also replays that round's answers serially.
constexpr uint64_t kPauseEvery = 12;
constexpr size_t kQualitySample = 48;
constexpr int kWalkReps = 3;
constexpr double kMaxTimedSeconds = 120.0;
constexpr double kMiB = 1024.0 * 1024.0;

/// The 144 dashboard specs. Rank r maps to (τ, k, ψ) by a fixed bijection
/// that spreads the hot ranks over all three axes.
std::vector<Engine::QuerySpec> Dashboard() {
  std::vector<Engine::QuerySpec> specs(kDashboardSpecs);
  for (size_t r = 0; r < kDashboardSpecs; ++r) {
    const size_t t = r % kNumTaus;
    const size_t j = (r / kNumTaus) % kNumK;
    const size_t b = r / (kNumTaus * kNumK);
    Engine::QuerySpec& spec = specs[r];
    spec.tau_m = kDashboardTaus[t];
    spec.k = static_cast<uint32_t>(3 + j);
    switch ((b + t + j) % 3) {
      case 0: spec.psi = tops::PreferenceFunction::Binary(); break;
      case 1: spec.psi = tops::PreferenceFunction::Linear(); break;
      default: spec.psi = tops::PreferenceFunction::ConvexProbability(2.0); break;
    }
  }
  return specs;
}

/// Zipf(s) over ranks [0, n) by inverse CDF.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  uint32_t Sample(util::Rng* rng) const {
    const double u = rng->Uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<uint32_t>(
        std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

enum class Outcome { kHit, kReuse, kBuild };

struct ReadRecord {
  uint32_t spec = 0;
  serve::StatusCode status = serve::StatusCode::kOk;
  Outcome outcome = Outcome::kBuild;
  double latency_s = 0.0;
  double queue_s = 0.0;
  double solve_s = 0.0;
  double cover_build_s = 0.0;
  double clusters = 0.0;
  uint64_t version = 0;
  uint64_t answer = 0;
};

/// An answer kept for a serial replay at its snapshot version.
struct KeptRead {
  uint32_t spec = 0;
  index::QueryResult result;
  serve::SnapshotPtr snapshot;
  uint64_t version = 0;
};

/// Closed-loop reader: at most kOutstanding reads in flight, never two of
/// the same spec at once.
class ReadDriver {
 public:
  ReadDriver(serve::NetClusServer* server,
             const std::vector<Engine::QuerySpec>* dashboard)
      : server_(server), dashboard_(dashboard), busy_(dashboard->size(), 0) {}

  void Submit(uint32_t spec, bool keep) EXCLUDES(mu_) {
    {
      nc::MutexLock lock(mu_);
      while (in_flight_ >= kOutstanding || busy_[spec] != 0) cv_.Wait(lock);
      ++in_flight_;
      busy_[spec] = 1;
    }
    serve::Request request;
    request.spec = (*dashboard_)[spec];
    const double submitted = Now();
    server_->SubmitAsync(std::move(request), [this, spec, keep,
                                              submitted](serve::Response r) {
      const double done = Now();
      ReadRecord rec;
      rec.spec = spec;
      rec.status = r.status;
      rec.outcome = r.cache_hit             ? Outcome::kHit
                    : r.result.cover_shared ? Outcome::kReuse
                                            : Outcome::kBuild;
      rec.latency_s = done - submitted;
      rec.queue_s = r.queue_seconds;
      rec.solve_s = r.result.selection.solve_seconds;
      rec.cover_build_s = r.result.cover_build_seconds;
      rec.clusters = static_cast<double>(r.result.clusters_considered);
      rec.version = r.snapshot_version;
      rec.answer = HashAnswer(r.result);
      KeptRead kept;
      const bool keep_this = keep && r.status == serve::StatusCode::kOk;
      if (keep_this) {
        kept = {spec, std::move(r.result), std::move(r.snapshot), r.snapshot_version};
      }
      nc::MutexLock lock(mu_);
      records_.push_back(rec);
      if (keep_this) kept_.push_back(std::move(kept));
      --in_flight_;
      busy_[spec] = 0;
      bookkeeping_s_ += Now() - done;
      cv_.NotifyAll();
    });
  }

  /// Waits for every read in flight, then hands over their records.
  void Drain(std::vector<ReadRecord>* records, std::vector<KeptRead>* kept,
             double* bookkeeping_s) EXCLUDES(mu_) {
    nc::MutexLock lock(mu_);
    while (in_flight_ > 0) cv_.Wait(lock);
    records->swap(records_);
    records_.clear();
    kept->swap(kept_);
    kept_.clear();
    *bookkeeping_s += bookkeeping_s_;
    bookkeeping_s_ = 0.0;
  }

 private:
  serve::NetClusServer* server_;
  const std::vector<Engine::QuerySpec>* dashboard_;
  nc::Mutex mu_;
  nc::CondVar cv_;
  size_t in_flight_ GUARDED_BY(mu_) = 0;
  std::vector<uint8_t> busy_ GUARDED_BY(mu_);
  std::vector<ReadRecord> records_ GUARDED_BY(mu_);
  std::vector<KeptRead> kept_ GUARDED_BY(mu_);
  double bookkeeping_s_ GUARDED_BY(mu_) = 0.0;
};

/// Replays each kept answer serially on the snapshot it reports, sharing
/// one cover build per (version, instance, τ). Returns mismatches.
size_t ReplayRound(const std::vector<KeptRead>& kept,
                   const std::vector<Engine::QuerySpec>& dashboard,
                   uint32_t build_threads) {
  exec::ExecContext ctx;
  const exec::Planner planner(&ctx);
  std::map<std::tuple<uint64_t, size_t, double>, exec::CoverPtr> covers;
  size_t mismatches = 0;
  for (const KeptRead& k : kept) {
    if (k.snapshot == nullptr || k.snapshot->version() != k.version) {
      ++mismatches;
      continue;
    }
    const serve::IndexSnapshot& snap = *k.snapshot;
    const Engine::QuerySpec canon = serve::CanonicalizeSpec(dashboard[k.spec]);
    const exec::QueryPlan plan =
        planner.Plan(canon.ToRequest(1), snap.index(), /*batch_size=*/1);
    const exec::Executor executor(&snap.index(), &snap.store(), &snap.sites(),
                                  &ctx);
    exec::CoverPtr& cover = covers[{k.version, plan.instance, plan.tau_m}];
    if (cover == nullptr) {
      bool reused = false;
      cover = executor.ObtainCover(plan, build_threads, &reused);
    }
    if (!SameAnswer(executor.ExecuteOnCover(plan, cover, false), k.result)) {
      ++mismatches;
    }
  }
  return mismatches;
}

struct ServingNode {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<serve::NetClusServer> server;
};

/// One timed set-up of a serving node: ingest the corpus, load the index
/// file by mmap (under the page budget in the environment), Serve().
ServingNode SetUpNode(const Corpus& corpus, const Engine::Options& options,
                      const std::string& path, std::vector<double>* seconds,
                      Report* report) {
  ServingNode node;
  const double t0 = Now();
  node.engine = Ingest(corpus, options);
  std::string error;
  if (!node.engine->LoadIndexFromFile(path, &error)) {
    report->Problem("serve-live: load failed: " + error);
    node.engine.reset();
    return node;
  }
  node.server = node.engine->Serve();
  seconds->push_back(Now() - t0);
  return node;
}

/// Counts of one window of reads.
struct Outcomes {
  uint64_t reads = 0;
  uint64_t ok = 0;
  uint64_t hits = 0;
  uint64_t reuses = 0;
  uint64_t builds = 0;

  void Add(const ReadRecord& r) {
    ++reads;
    if (r.status != serve::StatusCode::kOk) return;
    ++ok;
    if (r.outcome == Outcome::kHit) ++hits;
    if (r.outcome == Outcome::kReuse) ++reuses;
    if (r.outcome == Outcome::kBuild) ++builds;
  }
  double Share(uint64_t n) const {
    return ok == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(ok);
  }
};

/// Distance, in quantile terms, from quantile `q` to the nearest boundary
/// between the hit, reuse and build classes (ordered fastest first).
double ClassMargin(const Outcomes& o, double q) {
  const double b1 = o.Share(o.hits);
  const double b2 = b1 + o.Share(o.reuses);
  double margin = 1.0;
  for (double b : {b1, b2}) {
    if (b > 0.0 && b < 1.0) margin = std::min(margin, std::abs(q - b));
  }
  return margin;
}

}  // namespace

void RunServeLive(const Args& args, Report* report) {
  const Corpus corpus = MakeCorpus(args.seed);
  const uint32_t threads = HardwareThreads();
  const Engine::Options options = EngineOptions(threads);

  const std::string path = args.work_dir + "/serve-live.ncix";
  {
    // Offline, untimed: build the index and write it as a v3 file.
    const std::unique_ptr<Engine> offline = Ingest(corpus, options);
    offline->BuildIndex();
    std::string error;
    if (!offline->SaveIndexToFile(path, &error)) {
      report->Problem("serve-live: save failed: " + error);
      return;
    }
  }
  // Settle the file's writeback before the timed loads read it.
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    fsync(fd);
    close(fd);
  }
  const uint64_t file_bytes = std::filesystem::file_size(path);
  const uint64_t budget = file_bytes / 4;
  setenv("NETCLUS_PAGE_BUDGET", std::to_string(budget).c_str(), 1);
  PrintResolvedConfig();

  // Serving node set-up: ingest + mmap load + Serve(). The first node
  // serves the run; the timed loop repeats the set-up at its pauses, and
  // setup_s is the median of all of them.
  std::vector<double> setup;
  const ServingNode live_node = SetUpNode(corpus, options, path, &setup, report);
  if (live_node.server == nullptr) return;
  Engine* node = live_node.engine.get();
  serve::NetClusServer* server = live_node.server.get();
  const double index_mib = static_cast<double>(node->index().MemoryBytes()) / kMiB;
  store::BufferPool* pool = store::BufferPool::Find(static_cast<const uint8_t*>(
      server->snapshot()->index().instance(0).cc_arena_id()));
  if (pool == nullptr) {
    report->Problem("serve-live: the loaded index has no buffer pool");
    return;
  }
  std::printf("serve-live: %zu nodes, %zu trajectories, index %.3f MiB, "
              "file %llu B, page budget %llu B\n",
              corpus.dataset.num_nodes(), corpus.trajectories.size(), index_mib,
              static_cast<unsigned long long>(file_bytes),
              static_cast<unsigned long long>(pool->GetStats().budget_bytes));

  const std::vector<Engine::QuerySpec> dashboard = Dashboard();
  const ZipfSampler zipf(kDashboardSpecs, kZipfExponent);
  util::Rng reads(util::SplitMix64(args.seed ^ kReadSalt));
  util::Rng churn(util::SplitMix64(args.seed ^ kChurnSalt));
  std::deque<traj::TrajId> live;
  for (traj::TrajId t = 0; t < corpus.trajectories.size(); ++t) live.push_back(t);
  size_t pool_cursor = 0;
  ReadDriver driver(server, &dashboard);

  Digest ops;
  Digest answers;
  std::vector<ReadRecord> timed;  // every read of the timed window
  Outcomes counted;               // the first kCountedRounds timed rounds
  std::vector<double> publish_s;
  uint64_t writes = 0, writes_accepted = 0, replay_mismatches = 0;
  double paused_s = 0.0, paused_cpu = 0.0, bookkeeping_s = 0.0;
  uint64_t pool_faults_paused = 0, pool_evictions_paused = 0;

  // One round: kReadsPerRound reads, drain, optional serial replay (off
  // the clock), then one churn batch published through Flush().
  const auto run_round = [&](uint64_t round, bool is_timed, bool replay) {
    const bool is_counted = round < kWarmRounds + kCountedRounds;
    for (size_t i = 0; i < kReadsPerRound; ++i) {
      const uint32_t spec = zipf.Sample(&reads);
      if (is_counted) ops.Mix(spec);
      driver.Submit(spec, replay);
    }
    std::vector<ReadRecord> records;
    std::vector<KeptRead> kept;
    driver.Drain(&records, &kept, &bookkeeping_s);
    const uint64_t version = server->snapshot()->version();
    for (const ReadRecord& r : records) {
      if (r.status == serve::StatusCode::kOk && r.version != version) {
        report->Problem("serve-live: a read reports version " +
                        std::to_string(r.version) + " during version " +
                        std::to_string(version));
      }
    }
    if (replay) {
      const double t0 = Now();
      const double c0 = ProcessCpuSeconds();
      const store::BufferPool::Stats before = pool->GetStats();
      replay_mismatches += ReplayRound(kept, dashboard, threads);
      const store::BufferPool::Stats after = pool->GetStats();
      pool_faults_paused += after.faults - before.faults;
      pool_evictions_paused += after.evictions - before.evictions;
      paused_cpu += ProcessCpuSeconds() - c0;
      paused_s += Now() - t0;
    }
    if (is_counted) {
      // Completion order varies; the digest of a round's answers must not.
      std::vector<uint64_t> hashes;
      for (const ReadRecord& r : records) hashes.push_back(r.answer ^ r.spec);
      std::sort(hashes.begin(), hashes.end());
      for (uint64_t h : hashes) answers.Mix(h);
    }
    if (is_timed) {
      for (const ReadRecord& r : records) {
        timed.push_back(r);
        if (is_counted) counted.Add(r);
      }
    }

    const ChurnBatch batch = NextChurnBatch(round, corpus, &churn, &pool_cursor);
    if (is_counted) MixBatch(batch, &ops);
    const double seconds =
        PublishBatch(server, corpus, batch, &live, &writes, &writes_accepted);
    if (is_timed) publish_s.push_back(seconds);
  };

  for (uint64_t round = 0; round < kWarmRounds; ++round) {
    run_round(round, /*is_timed=*/false, /*replay=*/false);
  }
  writes = writes_accepted = 0;
  const serve::ServerStats s0 = server->stats();
  const store::BufferPool::Stats pool0 = pool->GetStats();
  serve::ServerStats s_counted;
  const double cpu0 = ProcessCpuSeconds();
  const double start = Now();
  double wall = 0.0;
  uint64_t round = kWarmRounds;
  for (;; ++round) {
    const uint64_t done_rounds = round - kWarmRounds;
    wall = Now() - start - paused_s;
    if ((done_rounds >= kCountedRounds && wall >= args.seconds) ||
        Now() - start >= kMaxTimedSeconds) {
      break;
    }
    run_round(round, /*is_timed=*/true, done_rounds % (2 * kPauseEvery) == 0);
    if (round + 1 == kWarmRounds + kCountedRounds) s_counted = server->stats();
    if (done_rounds % kPauseEvery == kPauseEvery - 1) {
      const double t0 = Now();
      const double c0 = ProcessCpuSeconds();
      SetUpNode(corpus, options, path, &setup, report);
      paused_cpu += ProcessCpuSeconds() - c0;
      paused_s += Now() - t0;
    }
  }
  const double cpu = ProcessCpuSeconds() - cpu0 - paused_cpu;
  const serve::ServerStats s1 = server->stats();
  const store::BufferPool::Stats pool1 = pool->GetStats();
  if (round < kWarmRounds + kCountedRounds) {
    report->Problem("serve-live: the time cap ended the run before the counted rounds");
  }
  if (replay_mismatches > 0) {
    report->Problem("serve-live: " + std::to_string(replay_mismatches) +
                    " answers differ from a serial replay at their version");
  }

  Outcomes all;
  std::vector<double> latency_ms, by_class[3], queue_ms, build_ms, solve_ms;
  double sum_latency = 0.0, sum_queue = 0.0, clusters = 0.0;
  std::map<double, uint64_t> builds_by_tau;
  for (const ReadRecord& r : timed) {
    all.Add(r);
    if (r.status != serve::StatusCode::kOk) continue;
    latency_ms.push_back(r.latency_s * 1e3);
    by_class[static_cast<int>(r.outcome)].push_back(r.latency_s * 1e3);
    queue_ms.push_back(r.queue_s * 1e3);
    sum_latency += r.latency_s;
    sum_queue += r.queue_s;
    if (r.outcome != Outcome::kHit) {
      solve_ms.push_back(r.solve_s * 1e3);
      clusters += r.clusters;
    }
    if (r.outcome == Outcome::kBuild) {
      build_ms.push_back(r.cover_build_s * 1e3);
      ++builds_by_tau[dashboard[r.spec].tau_m];
    }
  }
  report->attempted = all.reads + writes;
  report->failed = (all.reads - all.ok) + (writes - writes_accepted);

  const uint64_t covers_built = s_counted.exec.covers_built - s0.exec.covers_built;
  const uint64_t carried = (s_counted.cache.carried - s0.cache.carried) +
                           (s_counted.cover_cache.carried - s0.cover_cache.carried);
  const uint64_t publishes =
      s_counted.updates.batches_published - s0.updates.batches_published;
  if (covers_built != counted.builds) {
    report->Problem("serve-live: " + std::to_string(counted.builds) +
                    " reads built a cover but the server built " +
                    std::to_string(covers_built));
  }
  report->op_digest = ops.value();
  report->answer_digest = answers.value();
  report->Exact("reads", static_cast<double>(counted.reads));
  report->Exact("result_hits", static_cast<double>(counted.hits));
  report->Exact("cover_reuses", static_cast<double>(counted.reuses));
  report->Exact("covers_built", static_cast<double>(covers_built));
  report->Exact("index_mib", index_mib);
  // The writer folds whatever ops are queued when it wakes, so a client
  // batch occasionally publishes as two snapshots; these two counts then
  // move by one publish and are left out of the exact record.
  std::printf("serve-live: counted rounds %llu, server publishes %llu, "
              "carried entries %llu\n",
              static_cast<unsigned long long>(kCountedRounds),
              static_cast<unsigned long long>(publishes),
              static_cast<unsigned long long>(carried));

  std::printf("serve-live: %zu timed reads in %.2f s (%llu rounds, %.2f s of "
              "replay off the clock)\n",
              timed.size(), wall,
              static_cast<unsigned long long>(round - kWarmRounds), paused_s);
  std::printf("serve-live: shares hit %.4f reuse %.4f build %.4f; p50 class "
              "margin %.3f, p99 class margin %.3f\n",
              all.Share(all.hits), all.Share(all.reuses), all.Share(all.builds),
              ClassMargin(all, 0.50), ClassMargin(all, 0.99));
  const char* kClassNames[] = {"hit", "reuse", "build"};
  for (int c = 0; c < 3; ++c) {
    std::printf("serve-live: %-5s n=%zu p5 %.3f p50 %.3f p95 %.3f ms\n",
                kClassNames[c], by_class[c].size(), Quantile(by_class[c], 0.05),
                Quantile(by_class[c], 0.50), Quantile(by_class[c], 0.95));
  }

  util::Rng quality(util::SplitMix64(args.seed ^ kQualitySalt));
  std::vector<Engine::QuerySpec> sample;
  for (size_t i = 0; i < kQualitySample; ++i) {
    sample.push_back(dashboard[zipf.Sample(&quality)]);
  }
  const double utility_ratio = UtilityRatio(*node, sample);
  report->Exact("utility_ratio", utility_ratio);

  std::printf("serve-live: %zu set-ups, median %.4f s\n", setup.size(),
              Quantile(setup, 0.5));
  if (!args.trace) {
    report->Metric("setup_s", Quantile(setup, 0.5), "s");
    report->Metric("latency_p50_ms", Quantile(latency_ms, 0.50), "ms");
    report->Metric("latency_p99_ms", Quantile(latency_ms, 0.99), "ms");
    report->Metric("queries_per_s", static_cast<double>(all.ok) / wall, "1/s");
    for (double& s : publish_s) s *= 1e3;
    report->Metric("publish_p50_ms", Quantile(publish_s, 0.50), "ms");
    report->Metric("publish_p90_ms", Quantile(publish_s, 0.90), "ms");
    report->Metric("ok_frac",
                   static_cast<double>(all.ok + writes_accepted) /
                       static_cast<double>(all.reads + writes),
                   "fraction");
    report->Metric("utility_ratio", utility_ratio, "ratio");
    report->Metric("index_mib", index_mib, "MiB");
    report->Metric("peak_rss_mib", PeakRssMib(), "MiB");
    server->Shutdown();
    return;
  }

  // Traced run: the loop above read only what the server always exports;
  // the layer work counters below are taken after it, off the clock.
  const serve::SnapshotPtr final_snapshot = server->snapshot();
  const serve::IndexSnapshot& snap = *final_snapshot;
  double decode_s = 0.0, walk_s = 0.0, entries_decoded = 0.0, cover_entries = 0.0;
  uint64_t walked = 0;
  for (const auto& [tau, builds] : builds_by_tau) {
    const size_t instance = snap.index().InstanceFor(tau);
    std::vector<double> walks;
    uint64_t entries = 0;
    for (int w = 0; w < kWalkReps; ++w) {
      double seconds = 0.0;
      entries = WalkCoverPostings(snap.index(), instance, tau, &seconds);
      walks.push_back(seconds);
    }
    const double walk = Quantile(walks, 0.5);
    walk_s += walk;
    walked += entries;
    decode_s += walk * static_cast<double>(builds);
    entries_decoded += static_cast<double>(entries * builds);
    cover_entries += static_cast<double>(
        exec::BuildCover(snap.index(), snap.store(), tau, instance, 1)
            .approx.stats().cover_entries * builds);
  }
  const double n_ok = static_cast<double>(all.ok);
  const double n_builds = static_cast<double>(std::max<uint64_t>(all.builds, 1));
  const double d_plan = s1.exec.plan.total_seconds - s0.exec.plan.total_seconds;
  const double d_plan_n = static_cast<double>(s1.exec.plan.count - s0.exec.plan.count);
  const double d_cover =
      s1.exec.cover_build.total_seconds - s0.exec.cover_build.total_seconds;
  const double d_solve = s1.exec.solve.total_seconds - s0.exec.solve.total_seconds;
  const double d_assemble =
      s1.exec.assemble.total_seconds - s0.exec.assemble.total_seconds;
  const double d_batches = static_cast<double>(s1.updates.batches_published -
                                               s0.updates.batches_published);
  const double staged = d_plan + d_cover + d_solve + d_assemble + sum_queue;

  report->Metric("exec.plan_us_mean", d_plan / std::max(d_plan_n, 1.0) * 1e6, "us");
  report->Metric("exec.cover_build_ms_p50", Quantile(build_ms, 0.50), "ms");
  report->Metric("exec.cover_build_ms_p99", Quantile(build_ms, 0.99), "ms");
  report->Metric("exec.cover_build_share", d_cover / sum_latency, "fraction");
  report->Metric("exec.cover_entries", cover_entries / n_builds, "count");
  report->Metric("store.entries_decoded", entries_decoded / n_ok, "count");
  report->Metric("store.decode_ns_per_entry",
                 walk_s / static_cast<double>(std::max<uint64_t>(walked, 1)) * 1e9,
                 "ns");
  report->Metric("tops.solve_ms_p50", Quantile(solve_ms, 0.50), "ms");
  report->Metric("tops.clusters_considered",
                 clusters / static_cast<double>(std::max<uint64_t>(all.ok - all.hits, 1)),
                 "count");
  report->Metric("util.cpu_per_wall", cpu / wall, "ratio");
  report->Metric("serve.result_hit_frac", counted.Share(counted.hits), "fraction");
  report->Metric("serve.cover_reuse_frac", counted.Share(counted.reuses), "fraction");
  report->Metric("serve.cover_build_frac", counted.Share(counted.builds), "fraction");
  report->Metric("serve.carried_per_publish",
                 static_cast<double>(carried) /
                     static_cast<double>(std::max<uint64_t>(publishes, 1)),
                 "count");
  report->Metric("serve.hit_ms_p50", Quantile(by_class[0], 0.50), "ms");
  report->Metric("serve.reuse_ms_p50", Quantile(by_class[1], 0.50), "ms");
  report->Metric("serve.build_ms_p50", Quantile(by_class[2], 0.50), "ms");
  report->Metric("serve.queue_wait_ms_p99", Quantile(queue_ms, 0.99), "ms");
  report->Metric("serve.publish_apply_ms",
                 (s1.updates.apply_seconds - s0.updates.apply_seconds) /
                     std::max(d_batches, 1.0) * 1e3,
                 "ms");
  report->Metric("serve.publishes", static_cast<double>(publishes), "count");
  report->Metric("serve.cover_cache_mib",
                 static_cast<double>(s1.cover_cache.resident_bytes) / kMiB, "MiB");
  report->Metric("store.pool_resident_mib",
                 static_cast<double>(pool1.resident_bytes) / kMiB, "MiB");
  report->Metric("store.pool_faults_per_read",
                 static_cast<double>(pool1.faults - pool0.faults - pool_faults_paused) /
                     static_cast<double>(all.reads),
                 "count");
  report->Metric("store.pool_evictions_per_read",
                 static_cast<double>(pool1.evictions - pool0.evictions -
                                     pool_evictions_paused) /
                     static_cast<double>(all.reads),
                 "count");
  // Self time per layer as a share of read latency. Cover builds are
  // single-threaded here (query_threads = 1), so the decode walk's time
  // stands for the decode inside each build. The remainder holds
  // scheduling, completion and waits on another read's in-flight build.
  report->Metric("exec.self_share", (d_plan + d_cover - decode_s + d_assemble) / sum_latency,
                 "fraction");
  report->Metric("store.self_share", decode_s / sum_latency, "fraction");
  report->Metric("tops.self_share", d_solve / sum_latency, "fraction");
  report->Metric("serve.self_share", sum_queue / sum_latency, "fraction");
  report->Metric("obs.unattributed_share", (sum_latency - staged) / sum_latency,
                 "fraction");
  report->Metric("obs.reconcile_gap_frac", std::abs(sum_latency - staged) / sum_latency,
                 "fraction");
  report->Metric("obs.trace_overhead_frac", bookkeeping_s / sum_latency, "fraction");
  server->Shutdown();
  MeasureSetupLayers(corpus, args.work_dir + "/serve-live-layers.ncix", report);
  MeasureGraphLayer(corpus, args.seed, report);
}

}  // namespace netclus::perf
