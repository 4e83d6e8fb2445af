#include <time.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "graph/spf/distance_backend.h"
#include "harness.h"
#include "netclus/cluster_index.h"
#include "serve/server.h"
#include "store/buffer_pool.h"
#include "store/simd/bulk_varint.h"
#include "tops/variants.h"
#include "util/flags.h"
#include "util/scheduler.h"

namespace netclus::perf {

namespace {

// Stream salts: the corpus, churn pool, payloads and each workload stream
// are independent functions of the one --seed.
constexpr uint64_t kPoolSalt = 0x7001;
constexpr uint64_t kPayloadSalt = 0x7002;
constexpr uint64_t kGraphSalt = 0x7003;

constexpr size_t kChurnPoolSize = 512;

void JsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

// --- corpus ------------------------------------------------------------------

Corpus MakeCorpus(uint64_t seed) {
  Corpus corpus;
  corpus.dataset = data::MakeBeijingLite(kCorpusScale);
  const traj::TrajectoryStore& store = *corpus.dataset.store;
  const size_t initial = store.total_count();
  corpus.trajectories.reserve(initial);
  for (traj::TrajId t = 0; t < initial; ++t) {
    corpus.trajectories.push_back(store.trajectory(t).nodes());
  }
  const std::vector<traj::TrajId> pool = data::AddTrajectoriesWithLength(
      &corpus.dataset, kChurnPoolSize, /*min_length_m=*/2000.0,
      /*max_length_m=*/0.0, util::SplitMix64(seed ^ kPoolSalt));
  for (traj::TrajId t : pool) {
    corpus.churn_pool.push_back(store.trajectory(t).nodes());
  }
  const size_t sites = corpus.dataset.sites.size();
  const uint64_t payload_seed = util::SplitMix64(seed ^ kPayloadSalt);
  corpus.site_costs = tops::DrawNormalCosts(sites, 1.0, 0.2, 0.1, payload_seed);
  corpus.site_capacities =
      tops::DrawNormalCapacities(sites, 40.0, 15.0, payload_seed + 1);
  return corpus;
}

Engine::Options EngineOptions(uint32_t threads) {
  Engine::Options options;
  options.threads = threads;
  options.index.tau_min_m = kTauMinM;
  options.index.tau_max_m = kTauMaxM;
  options.index.gamma = kGamma;
  return options;
}

std::unique_ptr<Engine> Ingest(const Corpus& corpus,
                               const Engine::Options& options) {
  auto engine = std::make_unique<Engine>(*corpus.dataset.network,
                                         corpus.dataset.sites, options);
  for (const std::vector<graph::NodeId>& nodes : corpus.trajectories) {
    engine->AddTrajectory(nodes);
  }
  return engine;
}

uint32_t HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

// --- churn -------------------------------------------------------------------

ChurnBatch NextChurnBatch(uint64_t b, const Corpus& corpus, util::Rng* rng,
                          size_t* pool_cursor) {
  ChurnBatch batch;
  if (b % 3 == 2) {
    const uint64_t nodes = corpus.dataset.network->num_nodes();
    for (size_t i = 0; i < kChurnOps; ++i) {
      batch.add_site_at.push_back(
          static_cast<graph::NodeId>(rng->UniformInt(nodes)));
    }
    return batch;
  }
  for (size_t i = 0; i < kChurnOps; ++i) {
    batch.add_pool_index.push_back((*pool_cursor)++ % corpus.churn_pool.size());
  }
  batch.remove_oldest = kChurnOps;
  return batch;
}

double PublishBatch(serve::NetClusServer* server, const Corpus& corpus,
                    const ChurnBatch& batch, std::deque<traj::TrajId>* live,
                    uint64_t* writes, uint64_t* accepted) {
  const auto note = [&](const serve::UpdateTicket& ticket) {
    ++*writes;
    if (ticket.accepted) ++*accepted;
    return ticket;
  };
  const double t0 = Now();
  for (size_t i : batch.add_pool_index) {
    const serve::UpdateTicket t =
        note(server->MutateAddTrajectory(corpus.churn_pool[i]));
    if (t.accepted) live->push_back(t.traj);
  }
  for (size_t i = 0; i < batch.remove_oldest; ++i) {
    note(server->MutateRemoveTrajectory(live->front()));
    live->pop_front();
  }
  for (graph::NodeId at : batch.add_site_at) note(server->MutateAddSite(at));
  server->Flush();
  return Now() - t0;
}

// --- statistics --------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// --- digests -----------------------------------------------------------------

void Digest::MixDouble(double v) { Mix(std::bit_cast<uint64_t>(v)); }

void MixSpec(const Engine::QuerySpec& spec, Digest* digest) {
  digest->Mix(static_cast<uint64_t>(spec.variant));
  digest->Mix(spec.k);
  digest->MixDouble(spec.tau_m);
  digest->Mix(static_cast<uint64_t>(spec.psi.kind()));
  digest->MixDouble(spec.psi.param());
  digest->Mix(spec.use_fm ? 1 : 0);
  for (tops::SiteId s : spec.existing_services) digest->Mix(s);
  digest->MixDouble(spec.budget);
  digest->Mix(spec.site_costs.size());
  digest->Mix(spec.site_capacities.size());
}

void MixBatch(const ChurnBatch& batch, Digest* digest) {
  for (size_t i : batch.add_pool_index) digest->Mix(i);
  for (graph::NodeId n : batch.add_site_at) digest->Mix(0x5173ULL ^ n);
  digest->Mix(batch.remove_oldest);
}

uint64_t HashAnswer(const index::QueryResult& result) {
  Digest d;
  for (tops::SiteId s : result.selection.sites) d.Mix(s);
  d.MixDouble(result.selection.utility);
  d.MixDouble(result.selection.base_utility);
  for (double g : result.selection.marginal_gains) d.MixDouble(g);
  d.Mix(result.instance_used);
  d.Mix(result.clusters_considered);
  return d.value();
}

bool SameAnswer(const index::QueryResult& a, const index::QueryResult& b) {
  return a.selection.sites == b.selection.sites &&
         HashAnswer(a) == HashAnswer(b);
}

// --- quality -----------------------------------------------------------------

double UtilityRatio(const Engine& engine,
                    const std::vector<Engine::QuerySpec>& specs) {
  std::map<double, std::vector<const Engine::QuerySpec*>> by_tau;
  for (const Engine::QuerySpec& spec : specs) by_tau[spec.tau_m].push_back(&spec);
  double sum = 0.0;
  size_t n = 0;
  for (const auto& [tau, group] : by_tau) {
    const tops::CoverageIndex exact = engine.BuildCoverage(tau);
    for (const Engine::QuerySpec* spec : group) {
      tops::GreedyConfig greedy;
      greedy.k = spec->k;
      greedy.threads = engine.options().threads;
      const double best = tops::IncGreedy(exact, spec->psi, greedy).utility;
      const index::QueryResult netclus = engine.Run(*spec);
      const double got =
          tops::UtilityOf(exact, spec->psi, netclus.selection.sites);
      if (best > 0.0) {
        sum += got / best;
        ++n;
      }
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

// --- the run record ----------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Problem("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::Exact(const std::string& name, double value) {
  exact_[name] = value;
}

void Report::Problem(const std::string& what) { problems_.push_back(what); }

void Report::Print(const std::string& workload) const {
  for (const std::string& p : problems_) std::printf("problem: %s\n", p.c_str());
  std::string record = "{\"workload\": ";
  JsonString(workload, &record);
  record += ", \"op_digest\": \"" + Hex(op_digest) + "\"";
  record += ", \"answer_digest\": \"" + Hex(answer_digest) + "\"";
  record += ", \"exact\": {";
  bool first = true;
  for (const auto& [name, value] : exact_) {
    if (!first) record += ", ";
    first = false;
    JsonString(name, &record);
    record += ": " + JsonNumber(value);
  }
  record += "}}";
  std::printf("record: %s\n", record.c_str());

  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  first = true;
  for (const auto& [name, value_unit] : metrics_) {
    if (!first) out += ", ";
    first = false;
    JsonString(name, &out);
    out += ": {\"value\": " + JsonNumber(value_unit.first) + ", \"unit\": ";
    JsonString(value_unit.second, &out);
    out += "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void PrintResolvedConfig() {
  util::StagedScheduler::Options sched_options;
  const util::StagedScheduler sched(sched_options);
  const uint64_t budget = store::BufferPool::BudgetFromEnv();
  std::printf(
      "config: simd=%s spf=%s engine_threads=%u netclus_threads=%u "
      "sched_workers=%u page_budget=%s cover_cache=%d carryover=%d "
      "index_mmap=%lld trace_sample=%g\n",
      store::simd::KernelName(store::simd::ActiveKernel()),
      graph::spf::BackendName(
          graph::spf::ResolveBackendKind(graph::spf::BackendKind::kDefault)),
      HardwareThreads(), util::ThreadCount(), sched.workers(),
      budget == 0 ? "unlimited" : (std::to_string(budget) + "B").c_str(),
      util::GetEnvBool("NETCLUS_COVER_CACHE", true) ? 1 : 0,
      util::GetEnvBool("NETCLUS_CARRYOVER", true) ? 1 : 0,
      static_cast<long long>(util::GetEnvInt("NETCLUS_INDEX_MMAP", 1)),
      util::GetEnvDouble("NETCLUS_TRACE_SAMPLE", 0.01));
  std::fflush(stdout);
}

// --- shared layer measurements -----------------------------------------------

void MeasureSetupLayers(const Corpus& corpus, const std::string& index_path,
                        Report* report) {
  constexpr int kReps = 3;
  const Engine::Options options = EngineOptions(HardwareThreads());
  std::vector<double> build, save, load, boot;
  for (int r = 0; r < kReps; ++r) {
    std::unique_ptr<Engine> built = Ingest(corpus, options);
    double t0 = Now();
    built->BuildIndex();
    build.push_back(Now() - t0);
    std::string error;
    t0 = Now();
    if (!built->SaveIndexToFile(index_path, &error)) {
      report->Problem("layer save: " + error);
      return;
    }
    save.push_back(Now() - t0);
    built.reset();

    std::unique_ptr<Engine> node = Ingest(corpus, options);
    t0 = Now();
    if (!node->LoadIndexFromFile(index_path, &error)) {
      report->Problem("layer load: " + error);
      return;
    }
    load.push_back(Now() - t0);
    t0 = Now();
    std::unique_ptr<serve::NetClusServer> server = node->Serve();
    boot.push_back(Now() - t0);
    server->Shutdown();
  }
  report->Metric("netclus.build_s", Quantile(build, 0.5), "s");
  report->Metric("netclus.save_s", Quantile(save, 0.5), "s");
  report->Metric("netclus.load_s", Quantile(load, 0.5), "s");
  report->Metric("serve.boot_s", Quantile(boot, 0.5), "s");
}

void MeasureGraphLayer(const Corpus& corpus, uint64_t seed, Report* report) {
  using graph::spf::BackendKind;
  constexpr size_t kPairs = 2000;
  constexpr size_t kSources = 200;
  constexpr double kRoundTripRadiusM = 1500.0;
  constexpr int kChBuilds = 3;
  const graph::RoadNetwork* net = corpus.dataset.network.get();
  util::Rng rng(util::SplitMix64(seed ^ kGraphSalt));
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs(kPairs);
  for (auto& [s, t] : pairs) {
    s = static_cast<graph::NodeId>(rng.UniformInt(net->num_nodes()));
    t = static_cast<graph::NodeId>(rng.UniformInt(net->num_nodes()));
  }
  std::vector<graph::NodeId> sources(kSources);
  for (graph::NodeId& s : sources) {
    s = static_cast<graph::NodeId>(rng.UniformInt(net->num_nodes()));
  }

  const std::pair<BackendKind, const char*> kinds[] = {
      {BackendKind::kDijkstra, "dijkstra"},
      {BackendKind::kBidirectional, "bidir"},
      {BackendKind::kContractionHierarchies, "ch"}};
  std::vector<double> oracle;
  std::vector<size_t> oracle_round_trips;
  for (const auto& [kind, name] : kinds) {
    std::shared_ptr<const graph::spf::DistanceBackend> backend;
    std::vector<double> builds;
    for (int b = 0; b < (kind == BackendKind::kContractionHierarchies ? kChBuilds : 1);
         ++b) {
      const double t0 = Now();
      backend = graph::spf::MakeBackend(kind, net, HardwareThreads());
      builds.push_back(Now() - t0);
    }
    if (kind == BackendKind::kContractionHierarchies) {
      report->Metric("graph.ch_preprocess_s", Quantile(builds, 0.5), "s");
    }
    std::unique_ptr<graph::spf::DistanceQuery> query = backend->MakeQuery();
    std::vector<double> distances(kPairs);
    double t0 = Now();
    for (size_t i = 0; i < kPairs; ++i) {
      distances[i] = query->PointToPoint(pairs[i].first, pairs[i].second);
    }
    const double p2p = Now() - t0;
    std::vector<size_t> round_trips(kSources);
    t0 = Now();
    for (size_t i = 0; i < kSources; ++i) {
      round_trips[i] = query->BoundedRoundTrip(sources[i], kRoundTripRadiusM).size();
    }
    const double rt = Now() - t0;
    report->Metric(std::string("graph.p2p_us.") + name, p2p / kPairs * 1e6, "us");
    report->Metric(std::string("graph.round_trip_us.") + name,
                   rt / kSources * 1e6, "us");
    if (oracle.empty()) {
      oracle = distances;
      oracle_round_trips = round_trips;
    } else {
      for (size_t i = 0; i < kPairs; ++i) {
        if (std::bit_cast<uint64_t>(distances[i]) !=
            std::bit_cast<uint64_t>(oracle[i])) {
          report->Problem(std::string("graph: ") + name +
                          " distance differs from dijkstra");
          break;
        }
      }
      if (round_trips != oracle_round_trips) {
        report->Problem(std::string("graph: ") + name +
                        " round trips differ from dijkstra");
      }
    }
  }
}

uint64_t WalkCoverPostings(const index::MultiIndex& index, size_t instance,
                           double tau_m, double* seconds) {
  const index::ClusterIndex& inst = index.instance(instance);
  uint64_t entries = 0;
  uint64_t sink = 0;
  const auto count = [&](const index::TlEntry& e) {
    ++entries;
    sink += e.traj;
  };
  const double t0 = Now();
  for (uint32_t g = 0; g < inst.num_clusters(); ++g) {
    const index::Cluster& home = inst.cluster(g);
    if (home.representative == tops::kInvalidSite) continue;
    home.tl.ForEach(count);
    for (const index::ClEntry& nb : home.cl) {
      // Same horizon test as exec::BuildCover.
      const float base = nb.dr_m + home.rep_rt_m;
      if (base > tau_m) break;
      inst.cluster(nb.cluster).tl.ForEach(count);
    }
  }
  *seconds = Now() - t0;
  // Keeps the decode observable so the walk cannot be elided.
  static volatile uint64_t g_sink = 0;
  g_sink = g_sink + sink;
  return entries;
}

}  // namespace netclus::perf
