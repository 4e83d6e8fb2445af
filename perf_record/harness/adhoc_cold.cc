// adhoc-cold: an analyst's what-if queries.
//
// One client calls Engine::Run back to back on an in-memory index with
// Engine::Options::threads = the hardware thread count. Engine::Run has no
// cache, so every query plans, builds its own cover and solves: the reads
// load cover build, posting decode, the solvers and intra-query
// parallelism, and bypass the serving layer, the update pipeline and the
// buffer pool. Updates are absorbed in place (Engine::AddTrajectory,
// RemoveTrajectory, AddSite on a built index) by a second engine, one batch
// at a time between queries.
#include <cstdio>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <numeric>
#include <string>

#include "exec/executor.h"
#include "exec/planner.h"
#include "harness.h"

namespace netclus::perf {

namespace {

constexpr uint64_t kSpecSalt = 0xA1;
constexpr uint64_t kQualitySalt = 0xA2;
constexpr uint64_t kChurnSalt = 0xA3;

/// After every this-many timed queries the clock pauses for one more
/// set-up, so setup_s samples the host across the whole run.
constexpr size_t kSetupEvery = 100;
constexpr int kWarmupQueries = 20;
/// p99 needs at least ten samples beyond it.
constexpr size_t kMinQueries = 1000;
constexpr size_t kMinTracedQueries = 300;
/// The op and answer digests cover this fixed prefix of the spec stream,
/// so they repeat exactly whatever the host speed.
constexpr size_t kDigestPrefix = 256;
constexpr size_t kReplaySample = 48;
constexpr size_t kQualitySample = 48;
/// Churn batches per run, spread evenly over the timed window so that
/// update latency samples the host across the whole run, like setup_s.
/// The count is fixed, so every run applies the same batches to the same
/// corpus whatever the host speed.
constexpr size_t kUpdateBatches = 240;
constexpr size_t kWarmupBatches = 6;
constexpr double kMaxTimedSeconds = 120.0;
constexpr double kMiB = 1024.0 * 1024.0;

/// The spec grid: τ over 400, 600, …, 3000 m, k over 3–10, ψ over
/// binary / linear / convex(2), and ten kind slots — one each TOPS-COST,
/// TOPS-CAPACITY, FM and existing-services, six plain TOPS.
constexpr size_t kNumTaus = 14;
constexpr size_t kNumK = 8;
constexpr size_t kNumPsi = 3;
constexpr size_t kKindSlots = 10;
constexpr size_t kPlainSlot = kKindSlots - 1;

/// The spec at grid point (`tau`, `k`, `psi`) of kind slot `kind`; an
/// existing-services spec draws its four sites from `rng`.
Engine::QuerySpec AdhocSpec(const Corpus& corpus, size_t tau, size_t k,
                            size_t psi, size_t kind, util::Rng* rng) {
  Engine::QuerySpec spec;
  spec.tau_m = 400.0 + 200.0 * static_cast<double>(tau);
  spec.k = 3 + static_cast<uint32_t>(k);
  switch (psi) {
    case 0: spec.psi = tops::PreferenceFunction::Binary(); break;
    case 1: spec.psi = tops::PreferenceFunction::Linear(); break;
    default: spec.psi = tops::PreferenceFunction::ConvexProbability(2.0); break;
  }
  switch (kind) {
    case 0:
      spec.variant = exec::QueryVariant::kTopsCost;
      spec.site_costs = corpus.site_costs;
      spec.budget = static_cast<double>(spec.k);  // mean site cost is 1
      break;
    case 1:
      spec.variant = exec::QueryVariant::kTopsCapacity;
      spec.site_capacities = corpus.site_capacities;
      break;
    case 2:
      spec.use_fm = true;
      spec.psi = tops::PreferenceFunction::Binary();
      break;
    case 3:
      for (int i = 0; i < 4; ++i) {
        spec.existing_services.push_back(static_cast<tops::SiteId>(
            rng->UniformInt(corpus.dataset.sites.size())));
      }
      break;
    default:
      break;
  }
  return spec;
}

/// A spec drawn uniformly from the grid; `plain_only` draws plain TOPS
/// specs only.
Engine::QuerySpec RandomSpec(const Corpus& corpus, util::Rng* rng,
                             bool plain_only) {
  const size_t tau = rng->UniformInt(kNumTaus);
  const size_t k = rng->UniformInt(kNumK);
  const size_t psi = rng->UniformInt(kNumPsi);
  const size_t kind = plain_only ? kPlainSlot : rng->UniformInt(kKindSlots);
  return AdhocSpec(corpus, tau, k, psi, kind, rng);
}

/// The timed spec stream. (kind slot, τ, k) comes from a deck holding each
/// of the 1,120 combinations once, reshuffled when it runs out, and ψ from
/// a deck of the three shapes. A run of 1,000 or more queries therefore
/// asks nearly the same mix whatever the seed, and its tail percentiles do
/// not hinge on how many of the costliest specs a seed happened to draw.
class SpecStream {
 public:
  SpecStream(const Corpus& corpus, uint64_t seed)
      : corpus_(corpus), rng_(seed), cells_(kKindSlots * kNumTaus * kNumK),
        psis_(kNumPsi) {
    std::iota(cells_.begin(), cells_.end(), 0);
    std::iota(psis_.begin(), psis_.end(), 0);
  }

  Engine::QuerySpec Next() {
    const size_t cell = Deal(&cells_, &next_cell_);
    const size_t psi = Deal(&psis_, &next_psi_);
    return AdhocSpec(corpus_, cell % kNumTaus, (cell / kNumTaus) % kNumK, psi,
                     cell / (kNumTaus * kNumK), &rng_);
  }

 private:
  /// The next card of `deck`, shuffling it whenever a pass begins.
  size_t Deal(std::vector<size_t>* deck, size_t* next) {
    if (*next == 0) {
      for (size_t i = deck->size() - 1; i > 0; --i) {
        std::swap((*deck)[i], (*deck)[rng_.UniformInt(i + 1)]);
      }
    }
    const size_t card = (*deck)[*next];
    *next = (*next + 1) % deck->size();
    return card;
  }

  const Corpus& corpus_;
  util::Rng rng_;
  std::vector<size_t> cells_;
  std::vector<size_t> psis_;
  size_t next_cell_ = 0;
  size_t next_psi_ = 0;
};

const char* SpecKind(const Engine::QuerySpec& spec) {
  if (spec.variant == exec::QueryVariant::kTopsCost) return "cost";
  if (spec.variant == exec::QueryVariant::kTopsCapacity) return "capacity";
  if (spec.use_fm) return "fm";
  if (!spec.existing_services.empty()) return "existing";
  return "tops";
}

/// One timed set-up: ingest + BuildIndex on a fresh engine.
std::unique_ptr<Engine> SetUp(const Corpus& corpus,
                              const Engine::Options& options,
                              std::vector<double>* seconds) {
  const double t0 = Now();
  std::unique_ptr<Engine> engine = Ingest(corpus, options);
  engine->BuildIndex();
  seconds->push_back(Now() - t0);
  return engine;
}

struct Kept {
  Engine::QuerySpec spec;
  index::QueryResult result;
};

/// Answers at the engine's thread count must equal threads = 1 replays.
void CheckSerialReplays(const Engine& engine, const std::vector<Kept>& kept,
                        Report* report) {
  exec::ExecContext ctx;
  const exec::Planner planner(&ctx);
  const exec::Executor executor(&engine.index(), &engine.store(),
                                &engine.sites(), &ctx);
  size_t mismatches = 0;
  for (const Kept& k : kept) {
    const exec::QueryPlan plan =
        planner.Plan(k.spec.ToRequest(1), engine.index(), /*batch_size=*/1);
    if (!SameAnswer(executor.Execute(plan), k.result)) ++mismatches;
  }
  if (mismatches > 0) {
    report->Problem("adhoc-cold: " + std::to_string(mismatches) + " of " +
                    std::to_string(kept.size()) +
                    " answers differ from their threads=1 replay");
  }
}

/// Absorbs churn batches into `engine`, a second engine built over the
/// same corpus, through its in-place update calls (the index absorbs each
/// call as it returns). A batch's time runs from its first call to its
/// last returning; the next Run on that engine sees it. The queried engine
/// keeps the index it was built with, so the query stream, its replays and
/// its digests do not depend on when a batch lands.
class Updater {
 public:
  Updater(std::unique_ptr<Engine> engine, const Corpus& corpus, uint64_t seed)
      : corpus_(corpus),
        engine_(std::move(engine)),
        rng_(util::SplitMix64(seed ^ kChurnSalt)) {
    for (traj::TrajId t = 0; t < corpus.trajectories.size(); ++t) {
      live_.push_back(t);
    }
    for (size_t b = 0; b < kWarmupBatches; ++b) Apply();
    seconds_.clear();
    site_batch_.clear();
  }

  /// Applies every batch whose slot in the schedule (kUpdateBatches evenly
  /// over `window` seconds) falls at or before `elapsed`, or all remaining
  /// ones when `finish`. Returns the wall time spent.
  double ApplyDue(double elapsed, double window, bool finish) {
    const double t0 = Now();
    while (seconds_.size() < kUpdateBatches &&
           (finish || elapsed >= window * (static_cast<double>(seconds_.size()) + 0.5) /
                                    static_cast<double>(kUpdateBatches))) {
      Apply();
    }
    return Now() - t0;
  }

  /// Applies the batches still due, checks the corpus the engine ends
  /// with, counts the writes and returns each batch's time in ms.
  std::vector<double> Finish(Report* report) {
    ApplyDue(0.0, 0.0, /*finish=*/true);
    report->attempted += writes_;
    if (engine_->store().live_count() != corpus_.trajectories.size()) {
      report->Problem("adhoc-cold: after the churn batches the engine holds " +
                      std::to_string(engine_->store().live_count()) +
                      " live trajectories, not " +
                      std::to_string(corpus_.trajectories.size()));
    }
    if (missing_sites_ > 0) {
      report->Problem("adhoc-cold: " + std::to_string(missing_sites_) +
                      " added sites are not in the engine's site set");
    }
    std::vector<double> ms;
    for (const bool sites : {false, true}) {
      ms.clear();
      for (size_t i = 0; i < seconds_.size(); ++i) {
        if (site_batch_[i] == sites) ms.push_back(seconds_[i] * 1e3);
      }
      std::printf("adhoc-cold: %-5s batches n=%zu update p50 %.3f p90 %.3f ms\n",
                  sites ? "site" : "churn", ms.size(), Quantile(ms, 0.50),
                  Quantile(ms, 0.90));
    }
    ms.clear();
    for (double s : seconds_) ms.push_back(s * 1e3);
    return ms;
  }

  uint64_t op_digest() const { return ops_.value(); }

 private:
  void Apply() {
    const ChurnBatch batch = NextChurnBatch(next_++, corpus_, &rng_, &cursor_);
    MixBatch(batch, &ops_);
    const double t0 = Now();
    for (size_t i : batch.add_pool_index) {
      live_.push_back(engine_->AddTrajectory(corpus_.churn_pool[i]));
    }
    for (size_t i = 0; i < batch.remove_oldest; ++i) {
      engine_->RemoveTrajectory(live_.front());
      live_.pop_front();
    }
    for (graph::NodeId at : batch.add_site_at) engine_->AddSite(at);
    seconds_.push_back(Now() - t0);
    site_batch_.push_back(!batch.add_site_at.empty());
    writes_ += batch.add_pool_index.size() + batch.remove_oldest +
               batch.add_site_at.size();
    for (graph::NodeId at : batch.add_site_at) {
      if (engine_->sites().SiteAtNode(at) == tops::kInvalidSite) ++missing_sites_;
    }
  }

  const Corpus& corpus_;
  const std::unique_ptr<Engine> engine_;
  util::Rng rng_;
  std::deque<traj::TrajId> live_;
  size_t cursor_ = 0;
  uint64_t next_ = 0;
  uint64_t writes_ = 0;
  uint64_t missing_sites_ = 0;
  Digest ops_;
  std::vector<double> seconds_;
  std::vector<bool> site_batch_;
};

/// The untraced run: end-to-end metrics. `between` runs off the clock
/// every kSetupEvery queries, and so do the updater's due batches.
void TimedQueries(const Args& args, const Engine& engine, SpecStream* specs,
                  const std::function<void()>& between, Updater* updater,
                  Report* report, std::vector<Kept>* kept) {
  Digest ops;
  Digest answers;
  std::vector<double> latency;
  std::map<std::string, std::vector<double>> by_kind;
  uint64_t ok = 0;
  const double start = Now();
  double elapsed = 0.0;
  double paused = 0.0;
  for (size_t n = 0;; ++n) {
    if (n > 0 && n % kSetupEvery == 0) {
      const double p0 = Now();
      between();
      paused += Now() - p0;
    }
    paused += updater->ApplyDue(Now() - start - paused, args.seconds, false);
    elapsed = Now() - start - paused;
    if ((n >= kMinQueries && elapsed >= args.seconds) ||
        elapsed >= kMaxTimedSeconds) {
      break;
    }
    const Engine::QuerySpec spec = specs->Next();
    const double t0 = Now();
    index::QueryResult result;
    bool answered = true;
    try {
      result = engine.Run(spec);
    } catch (const std::exception& e) {
      answered = false;
      report->Problem(std::string("adhoc-cold: Run threw: ") + e.what());
    }
    latency.push_back(Now() - t0);
    by_kind[SpecKind(spec)].push_back(latency.back() * 1e3);
    ++report->attempted;
    if (answered) {
      ++ok;
    } else {
      ++report->failed;
    }
    if (n < kDigestPrefix) {
      MixSpec(spec, &ops);
      answers.Mix(HashAnswer(result));
    }
    if (kept->size() < kReplaySample) kept->push_back({spec, result});
  }
  if (latency.size() < kMinQueries) {
    report->Problem("adhoc-cold: only " + std::to_string(latency.size()) +
                    " queries in the time cap");
  }
  for (double& s : latency) s *= 1e3;
  std::printf("adhoc-cold: %zu queries in %.2f s\n", latency.size(), elapsed);
  for (const auto& [kind, ms] : by_kind) {
    std::printf("adhoc-cold: %-8s n=%zu p50 %.3f p99 %.3f ms\n", kind.c_str(),
                ms.size(), Quantile(ms, 0.50), Quantile(ms, 0.99));
  }
  report->Metric("latency_p50_ms", Quantile(latency, 0.50), "ms");
  report->Metric("latency_p99_ms", Quantile(latency, 0.99), "ms");
  report->Metric("queries_per_s", static_cast<double>(ok) / elapsed, "1/s");
  report->op_digest = ops.value();
  report->answer_digest = answers.value();
}

/// The traced run: each spec runs once through Engine::Run and once
/// through the harness's own Plan → ObtainCover → ExecuteOnCover calls
/// (in alternating order), then its cover's posting lists are walked
/// decode-only. Per-layer metrics only.
void TracedQueries(const Args& args, const Engine& engine, SpecStream* specs,
                   Report* report, std::vector<Kept>* kept) {
  exec::ExecContext ctx;
  const exec::Planner planner(&ctx);
  const exec::Executor executor(&engine.index(), &engine.store(),
                                &engine.sites(), &ctx);
  const uint32_t threads = engine.options().threads;
  Digest ops;
  Digest answers;
  std::vector<double> plan_s, cover_s, exec_s, solve_s, total_s, untraced_s,
      reuse_path_s, ready_s;
  double untraced_cpu = 0.0, cover_cpu = 0.0, walk_s = 0.0;
  double cover_entries = 0.0, clusters = 0.0;
  uint64_t decoded = 0;
  size_t mismatches = 0;
  const double start = Now();
  size_t n = 0;
  for (;; ++n) {
    const double elapsed = Now() - start;
    if ((n >= kMinTracedQueries && elapsed >= args.seconds) ||
        elapsed >= kMaxTimedSeconds) {
      break;
    }
    const Engine::QuerySpec spec = specs->Next();
    const double spec_ready = Now();
    index::QueryResult untraced;
    index::QueryResult traced;
    exec::QueryPlan plan;
    const auto run_untraced = [&] {
      const double c0 = ProcessCpuSeconds();
      const double t0 = Now();
      if (n % 2 == 0) ready_s.push_back(t0 - spec_ready);
      untraced = engine.Run(spec);
      untraced_s.push_back(Now() - t0);
      untraced_cpu += ProcessCpuSeconds() - c0;
    };
    const auto run_traced = [&] {
      const double t0 = Now();
      if (n % 2 == 1) ready_s.push_back(t0 - spec_ready);
      plan = planner.Plan(spec.ToRequest(threads), engine.index(),
                          /*batch_size=*/1);
      executor.ValidatePlan(plan);
      const double t1 = Now();
      const double c1 = ProcessCpuSeconds();
      bool reused = false;
      exec::CoverPtr cover = executor.ObtainCover(plan, plan.threads, &reused);
      const double t2 = Now();
      cover_cpu += ProcessCpuSeconds() - c1;
      cover_entries += static_cast<double>(cover->approx.stats().cover_entries);
      traced = executor.ExecuteOnCover(plan, cover, reused);
      const double t3 = Now();
      // Engine::Run frees the cover before it returns; so does this path.
      cover.reset();
      const double t4 = Now();
      plan_s.push_back(t1 - t0);
      cover_s.push_back(t2 - t1);
      exec_s.push_back(t4 - t2);
      total_s.push_back(t4 - t0);
      reuse_path_s.push_back((t1 - t0) + (t3 - t2));
      solve_s.push_back(traced.selection.solve_seconds);
      clusters += static_cast<double>(traced.clusters_considered);
    };
    // Alternating which path runs first cancels cache-warmth order effects.
    if (n % 2 == 0) {
      run_untraced();
      run_traced();
    } else {
      run_traced();
      run_untraced();
    }
    report->attempted += 2;
    if (!SameAnswer(untraced, traced)) ++mismatches;
    double walk = 0.0;
    decoded += WalkCoverPostings(engine.index(), plan.instance, plan.tau_m, &walk);
    walk_s += walk;
    if (n < kDigestPrefix) {
      MixSpec(spec, &ops);
      answers.Mix(HashAnswer(untraced));
    }
    if (kept->size() < kReplaySample) kept->push_back({spec, untraced});
  }
  if (mismatches > 0) {
    report->Problem("adhoc-cold: " + std::to_string(mismatches) +
                    " staged answers differ from Engine::Run");
  }
  if (n < kMinTracedQueries) report->Problem("adhoc-cold: traced run too short");
  report->op_digest = ops.value();
  report->answer_digest = answers.value();

  const double q = static_cast<double>(n);
  const auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  const double sum_plan = sum(plan_s), sum_cover = sum(cover_s),
               sum_exec = sum(exec_s), sum_solve = sum(solve_s),
               sum_total = sum(total_s), sum_untraced = sum(untraced_s);
  // The walk is single-threaded; inside a cover build the same decode is
  // spread over the build's threads, so scale it by the build's measured
  // CPU-per-wall to estimate its share of the build's wall time.
  const double build_parallelism = sum_cover > 0.0 ? cover_cpu / sum_cover : 1.0;
  const double decode_wall = walk_s / std::max(1.0, build_parallelism);
  std::printf("adhoc-cold: %zu traced queries, decode walk %.3f s over %llu entries\n",
              n, walk_s, static_cast<unsigned long long>(decoded));

  report->Metric("exec.plan_us_mean", sum_plan / q * 1e6, "us");
  report->Metric("exec.cover_build_ms_p50", Quantile(cover_s, 0.50) * 1e3, "ms");
  report->Metric("exec.cover_build_ms_p99", Quantile(cover_s, 0.99) * 1e3, "ms");
  report->Metric("exec.cover_build_share", sum_cover / sum_total, "fraction");
  report->Metric("exec.cover_entries", cover_entries / q, "count");
  report->Metric("store.entries_decoded", static_cast<double>(decoded) / q, "count");
  report->Metric("store.decode_ns_per_entry",
                 walk_s / static_cast<double>(std::max<uint64_t>(decoded, 1)) * 1e9,
                 "ns");
  report->Metric("tops.solve_ms_p50", Quantile(solve_s, 0.50) * 1e3, "ms");
  report->Metric("tops.clusters_considered", clusters / q, "count");
  report->Metric("util.cpu_per_wall", untraced_cpu / sum_untraced, "ratio");
  // Engine::Run bypasses the serving layer: no caches, no queue, no
  // snapshot publishes. The serve.*_ms figures are the same stage paths
  // timed on this workload's specs — a result-cache hit would run only the
  // plan stage, a cover reuse plan + solve + assemble, a build every stage
  // — and the queue wait is the closed loop's gap between a spec being
  // ready and the engine being entered.
  report->Metric("serve.result_hit_frac", 0.0, "fraction");
  report->Metric("serve.cover_reuse_frac", 0.0, "fraction");
  report->Metric("serve.cover_build_frac", 1.0, "fraction");
  report->Metric("serve.hit_ms_p50", Quantile(plan_s, 0.50) * 1e3, "ms");
  report->Metric("serve.reuse_ms_p50", Quantile(reuse_path_s, 0.50) * 1e3, "ms");
  report->Metric("serve.build_ms_p50", Quantile(total_s, 0.50) * 1e3, "ms");
  report->Metric("serve.queue_wait_ms_p99", Quantile(ready_s, 0.99) * 1e3, "ms");
  report->Metric("serve.cover_cache_mib", 0.0, "MiB");
  report->Metric("serve.publish_apply_ms", 0.0, "ms");
  report->Metric("serve.publishes", 0.0, "count");
  report->Metric("serve.carried_per_publish", 0.0, "count");
  report->Metric("store.pool_resident_mib", 0.0, "MiB");
  report->Metric("store.pool_faults_per_read", 0.0, "count");
  report->Metric("store.pool_evictions_per_read", 0.0, "count");
  // Per-layer self time as a share of the untraced Engine::Run time of
  // the same specs; the remainder is what no layer span covers (negative
  // when the staged calls ran slower than Engine::Run).
  report->Metric("exec.self_share",
                 (sum_plan + sum_cover - decode_wall + sum_exec - sum_solve) /
                     sum_untraced,
                 "fraction");
  report->Metric("store.self_share", decode_wall / sum_untraced, "fraction");
  report->Metric("tops.self_share", sum_solve / sum_untraced, "fraction");
  report->Metric("serve.self_share", 0.0, "fraction");
  report->Metric("obs.unattributed_share", (sum_untraced - sum_total) / sum_untraced,
                 "fraction");
  const double gap = std::abs(sum_total - sum_untraced) / sum_untraced;
  report->Metric("obs.reconcile_gap_frac", gap, "fraction");
  report->Metric("obs.trace_overhead_frac", (sum_total - sum_untraced) / sum_untraced,
                 "fraction");
  if (gap > 0.05) {
    report->Problem("adhoc-cold: layer self times miss the untraced Engine::Run "
                    "time by " + std::to_string(gap));
  }
}

}  // namespace

void RunAdhocCold(const Args& args, Report* report) {
  const Corpus corpus = MakeCorpus(args.seed);
  const Engine::Options options = EngineOptions(HardwareThreads());

  // Set-up: ingest + BuildIndex. The first engine serves the run; the
  // untraced run repeats the set-up between queries, and setup_s is the
  // median of all of them.
  std::vector<double> setup;
  const std::unique_ptr<Engine> engine = SetUp(corpus, options, &setup);
  const double index_mib = static_cast<double>(engine->index().MemoryBytes()) / kMiB;
  std::printf("adhoc-cold: %zu nodes, %zu trajectories, %zu instances, "
              "index %.3f MiB\n",
              corpus.dataset.num_nodes(), corpus.trajectories.size(),
              engine->index().num_instances(), index_mib);

  SpecStream specs(corpus, util::SplitMix64(args.seed ^ kSpecSalt));
  util::Rng warm(util::SplitMix64(args.seed ^ kSpecSalt ^ 0xFF));
  for (int i = 0; i < kWarmupQueries; ++i) {
    engine->Run(RandomSpec(corpus, &warm, false));
  }

  std::vector<Kept> kept;
  std::vector<double> update_ms;
  if (args.trace) {
    TracedQueries(args, *engine, &specs, report, &kept);
  } else {
    // The updater's engine is one more identical set-up.
    Updater updater(SetUp(corpus, options, &setup), corpus, args.seed);
    TimedQueries(args, *engine, &specs,
                 [&] { SetUp(corpus, options, &setup); }, &updater, report,
                 &kept);
    update_ms = updater.Finish(report);
    Digest ops;
    ops.Mix(report->op_digest);
    ops.Mix(updater.op_digest());
    report->op_digest = ops.value();
  }
  CheckSerialReplays(*engine, kept, report);

  util::Rng quality(util::SplitMix64(args.seed ^ kQualitySalt));
  std::vector<Engine::QuerySpec> sample;
  for (size_t i = 0; i < kQualitySample; ++i) {
    sample.push_back(RandomSpec(corpus, &quality, /*plain_only=*/true));
  }
  const double utility_ratio = UtilityRatio(*engine, sample);

  report->Exact("index_mib", index_mib);
  report->Exact("utility_ratio", utility_ratio);

  if (args.trace) {
    MeasureSetupLayers(corpus, args.work_dir + "/adhoc-cold-layers.ncix", report);
    MeasureGraphLayer(corpus, args.seed, report);
    return;
  }
  std::printf("adhoc-cold: %zu set-ups, median %.4f s\n", setup.size(),
              Quantile(setup, 0.5));
  report->Metric("setup_s", Quantile(setup, 0.5), "s");
  report->Metric("publish_p50_ms", Quantile(update_ms, 0.50), "ms");
  report->Metric("publish_p90_ms", Quantile(update_ms, 0.90), "ms");
  report->Metric("ok_frac",
                 static_cast<double>(report->attempted - report->failed) /
                     static_cast<double>(report->attempted),
                 "fraction");
  report->Metric("utility_ratio", utility_ratio, "ratio");
  report->Metric("index_mib", index_mib, "MiB");
  report->Metric("peak_rss_mib", PeakRssMib(), "MiB");
}

}  // namespace netclus::perf
