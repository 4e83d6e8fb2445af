#include "api/engine.h"

#include "exec/executor.h"
#include "exec/planner.h"
#include "netclus/index_io.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace netclus {

Engine::Engine(graph::RoadNetwork network, tops::SiteSet sites)
    : Engine(std::move(network), std::move(sites), Options()) {}

Engine::Engine(graph::RoadNetwork network, tops::SiteSet sites, Options options)
    : options_(options),
      network_(std::make_unique<graph::RoadNetwork>(std::move(network))),
      store_(std::make_unique<traj::TrajectoryStore>(network_.get())),
      sites_(std::make_unique<tops::SiteSet>(std::move(sites))) {}

const graph::spf::DistanceBackend* Engine::backend() const {
  const nc::MutexLock lock(*spf_mu_);
  if (spf_ == nullptr) {
    spf_ = graph::spf::MakeBackend(options_.distance_backend, network_.get(),
                                   options_.threads);
  }
  return spf_.get();
}

traj::TrajId Engine::AddTrajectory(std::vector<graph::NodeId> nodes) {
  const traj::TrajId id = store_->Add(std::move(nodes));
  if (index_ != nullptr) index_->AddTrajectory(*store_, id);
  return id;
}

std::optional<traj::TrajId> Engine::AddGpsTrace(const traj::GpsTrace& trace) {
  if (matcher_ == nullptr) {
    matcher_ = std::make_unique<traj::MapMatcher>(
        network_.get(), options_.map_matcher, backend());
  }
  traj::MatchResult match = matcher_->Match(trace);
  if (match.path.empty()) return std::nullopt;
  return AddTrajectory(std::move(match.path));
}

void Engine::RemoveTrajectory(traj::TrajId id) {
  if (id >= store_->total_count()) {
    NC_LOG_WARNING << "RemoveTrajectory(" << id
                   << "): unknown trajectory id (corpus has "
                   << store_->total_count() << " ids); ignored";
    return;
  }
  if (!store_->is_alive(id)) {
    NC_LOG_WARNING << "RemoveTrajectory(" << id
                   << "): trajectory already removed; ignored";
    return;
  }
  store_->Remove(id);
  if (index_ != nullptr) index_->RemoveTrajectory(id);
}

tops::SiteId Engine::AddSite(graph::NodeId node) {
  NC_CHECK_LT(node, network_->num_nodes());
  const tops::SiteId id = sites_->Add(node);
  if (index_ != nullptr) index_->AddSite(*store_, *sites_, id);
  return id;
}

void Engine::RemoveSite(tops::SiteId site) {
  if (site >= sites_->size()) {
    NC_LOG_WARNING << "RemoveSite(" << site << "): unknown site id (pool has "
                   << sites_->size() << " sites); ignored";
    return;
  }
  if (index_ != nullptr) index_->RemoveSite(*store_, *sites_, site);
}

void Engine::BuildIndex() {
  index::MultiIndexConfig config = options_.index;
  if (config.threads == 0) config.threads = options_.threads;
  index_ = std::make_unique<index::MultiIndex>(
      index::MultiIndex::Build(*store_, *sites_, config, backend()));
  ctx_ = std::make_unique<exec::ExecContext>();
}

bool Engine::SaveIndexToFile(const std::string& path, std::string* error) const {
  NC_CHECK(index_ != nullptr) << "call BuildIndex() first";
  return index::SaveIndex(*index_, backend(), path, error);
}

bool Engine::LoadIndexFromFile(const std::string& path, std::string* error) {
  auto loaded = std::make_unique<index::MultiIndex>();
  std::shared_ptr<const graph::spf::DistanceBackend> loaded_backend;
  if (!index::LoadIndex(path, network_->num_nodes(), store_->total_count(),
                        loaded.get(), error, network_.get(), &loaded_backend,
                        options_.index_load_mode)) {
    return false;
  }
  // The file records which backend built the index (and, for CH, the full
  // preprocessed hierarchy), so the snapshot carries its backend across
  // processes. Absent section = a pre-spf file: keep the configured one.
  // The matcher holds raw query workspaces into the outgoing backend, so
  // it must go before the backend does (it is rebuilt lazily).
  if (loaded_backend != nullptr) {
    matcher_.reset();
    const nc::MutexLock lock(*spf_mu_);
    spf_ = std::move(loaded_backend);
  }
  index_ = std::move(loaded);
  ctx_ = std::make_unique<exec::ExecContext>();
  return true;
}

exec::PlanRequest Engine::QuerySpec::ToRequest(uint32_t threads) const {
  exec::PlanRequest request;
  request.variant = variant;
  request.k = k;
  request.tau_m = tau_m;
  request.psi = psi;
  request.use_fm = use_fm;
  request.existing_services = existing_services;
  if (variant == exec::QueryVariant::kTopsCost) {
    request.site_costs = site_costs;
    request.budget = budget;
  }
  if (variant == exec::QueryVariant::kTopsCapacity) {
    request.site_capacities = site_capacities;
  }
  request.threads = threads;
  return request;
}

index::QueryResult Engine::Run(const QuerySpec& spec) const {
  NC_CHECK(index_ != nullptr) << "call BuildIndex() first";
  const exec::Planner planner(ctx_.get());
  const exec::QueryPlan plan =
      planner.Plan(spec.ToRequest(options_.threads), *index_,
                   /*batch_size=*/1);
  return exec::Executor(index_.get(), store_.get(), sites_.get(), ctx_.get())
      .Execute(plan);
}

std::vector<index::QueryResult> Engine::TopKBatch(
    std::span<const QuerySpec> specs) const {
  NC_CHECK(index_ != nullptr) << "call BuildIndex() first";
  // Plan every spec (the planner's batch-aware allocation reproduces the
  // historical two regimes: with at least one query per worker, queries
  // are the unit of concurrency; otherwise each query fans its inner
  // loops across all threads), then hand the batch to the executor, which
  // groups plans by (instance, τ) and builds each T̂C once. Every stage is
  // deterministic, so the answers are identical in both regimes and to
  // sequential Run calls.
  const exec::Planner planner(ctx_.get());
  std::vector<exec::QueryPlan> plans;
  plans.reserve(specs.size());
  for (const QuerySpec& spec : specs) {
    plans.push_back(planner.Plan(spec.ToRequest(options_.threads), *index_,
                                 specs.size()));
  }
  return exec::Executor(index_.get(), store_.get(), sites_.get(), ctx_.get())
      .ExecuteBatch(plans, options_.threads);
}

exec::ExecStats Engine::ExecStats() const {
  if (ctx_ == nullptr) return {};
  return ctx_->Read();
}

std::string Engine::DumpMetrics(obs::ExportFormat format) const {
  if (ctx_ == nullptr) return obs::MetricsRegistry().Export(format);
  return ctx_->metrics.Export(format);
}

tops::CoverageIndex Engine::BuildCoverage(double tau_m,
                                          uint64_t memory_budget_bytes) const {
  tops::CoverageConfig config;
  config.tau_m = tau_m;
  config.detour = options_.detour;
  config.memory_budget_bytes = memory_budget_bytes;
  config.threads = options_.threads;
  config.backend = backend();
  return tops::CoverageIndex::Build(*store_, *sites_, config);
}

tops::Selection Engine::ExactGreedy(uint32_t k, double tau_m,
                                    const tops::PreferenceFunction& psi) const {
  const tops::CoverageIndex coverage = BuildCoverage(tau_m);
  tops::GreedyConfig config;
  config.k = k;
  config.threads = options_.threads;
  return IncGreedy(coverage, psi, config);
}

tops::OptimalResult Engine::ExactOptimal(uint32_t k, double tau_m,
                                         const tops::PreferenceFunction& psi,
                                         double time_limit_s) const {
  const tops::CoverageIndex coverage = BuildCoverage(tau_m);
  tops::OptimalConfig config;
  config.k = k;
  config.time_limit_s = time_limit_s;
  return SolveOptimal(coverage, psi, config);
}

double Engine::EvaluateExact(const std::vector<tops::SiteId>& selection,
                             double tau_m,
                             const tops::PreferenceFunction& psi) const {
  return tops::CoverageIndex::EvaluateSelection(
      *store_, *sites_, selection, tau_m, psi, options_.detour, backend());
}

}  // namespace netclus
