// netclus::Engine — the one-stop public API.
//
// Owns the road network, the trajectory corpus, the candidate sites, and
// (after BuildIndex) the multi-resolution NetClus index, and exposes the
// paper's full query surface:
//
//   Engine engine(std::move(network), std::move(sites));
//   engine.AddTrajectory({n1, n2, ...});        // map-matched input
//   engine.AddGpsTrace(trace);                  // raw GPS input
//   engine.BuildIndex();                        // offline phase
//   Engine::QuerySpec spec;                     // TOPS(k, τ, ψ) or a
//   spec.k = 5;                                 // cost / capacity variant
//   spec.tau_m = 800.0;
//   auto result = engine.Run(spec);             // online query
//   engine.AddTrajectory(...);                  // dynamic updates keep
//                                               // the index current
//
// Exact baselines (Inc-Greedy / FM-greedy / branch-and-bound optimum on the
// full covering sets) are available through the same object for
// benchmarking and verification.
#ifndef NETCLUS_API_ENGINE_H_
#define NETCLUS_API_ENGINE_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "exec/plan.h"
#include "exec/stats.h"
#include "graph/road_network.h"
#include "graph/spf/distance_backend.h"
#include "obs/metrics.h"
#include "netclus/index_io.h"
#include "util/thread_annotations.h"
#include "netclus/multi_index.h"
#include "netclus/query.h"
#include "tops/coverage.h"
#include "tops/fm_greedy.h"
#include "tops/inc_greedy.h"
#include "tops/optimal.h"
#include "tops/preference.h"
#include "tops/site_set.h"
#include "tops/variants.h"
#include "traj/map_matcher.h"
#include "traj/trajectory_store.h"

namespace netclus {

namespace serve {
class NetClusServer;
struct ServerOptions;
}  // namespace serve

class Engine {
 public:
  struct Options {
    index::MultiIndexConfig index;
    tops::DetourMode detour = tops::DetourMode::kSinglePoint;
    traj::MapMatcherConfig map_matcher;
    /// Worker threads for the offline build, the exact baselines, and the
    /// online queries (0 = the NETCLUS_THREADS environment default, which
    /// itself defaults to 1 — the exact serial behavior). All results are
    /// bit-identical at any thread count; see docs/parallelism.md.
    uint32_t threads = 0;
    /// Shortest-path backend for every network-distance computation: index
    /// build, covering sets, map matching, τ estimation, exact detour
    /// evaluation. kDefault resolves the NETCLUS_SPF environment variable
    /// ("dijkstra" | "bidir" | "ch"; unset = dijkstra). Distances — and
    /// with them everything distance-derived: indexes, covering sets,
    /// rankings for a given corpus — are bit-identical under every
    /// backend (see src/graph/spf/); only speed differs. The one
    /// exception is route *geometry*: ShortestPath may return a
    /// different equal-length route on ties, so a corpus ingested
    /// through AddGpsTrace (whose map matcher expands routes) can hold
    /// tie-equivalent but not node-identical trajectories across
    /// backends. AddTrajectory corpora are unaffected. CH preprocessing
    /// runs once, lazily, at the first distance use.
    graph::spf::BackendKind distance_backend = graph::spf::BackendKind::kDefault;
    /// How LoadIndexFromFile materializes the index file. kAuto
    /// memory-maps it (zero-copy posting arenas; override with
    /// NETCLUS_INDEX_MMAP=0); kCopy forces a heap read; kMmap requires
    /// the mapping to succeed.
    index::IndexLoadMode index_load_mode = index::IndexLoadMode::kAuto;
  };

  /// One query: the single-shot entry (Run), the batch entry (TopKBatch),
  /// and the serving layer (serve::NetClusServer) all consume this one
  /// struct. `variant` selects the problem; the cost / capacity payload
  /// fields are only read for their variant.
  struct QuerySpec {
    exec::QueryVariant variant = exec::QueryVariant::kTops;
    uint32_t k = 5;
    double tau_m = 800.0;
    tops::PreferenceFunction psi = tops::PreferenceFunction::Binary();
    bool use_fm = false;
    std::vector<tops::SiteId> existing_services;
    /// TOPS-COST payload: site-indexed costs + budget
    /// (variant == kTopsCost only).
    std::vector<double> site_costs;
    double budget = 0.0;
    /// TOPS-CAPACITY payload: site-indexed capacities
    /// (variant == kTopsCapacity only).
    std::vector<double> site_capacities;

    /// The PlanRequest this spec denotes, with the caller's thread budget
    /// — the single spec → planner mapping, shared by Run, TopKBatch, the
    /// serving layer and its cache keys, so a new spec field cannot be
    /// silently dropped by one of them. The request's cost / capacity
    /// spans borrow this spec's vectors: the spec must outlive the plan's
    /// execution.
    exec::PlanRequest ToRequest(uint32_t threads) const;
  };

  /// Takes ownership of the network and candidate sites.
  Engine(graph::RoadNetwork network, tops::SiteSet sites);
  Engine(graph::RoadNetwork network, tops::SiteSet sites, Options options);

  // --- corpus management ---------------------------------------------------

  /// Adds a map-matched trajectory (node sequence). If the index is built,
  /// it absorbs the update (Sec. 6).
  traj::TrajId AddTrajectory(std::vector<graph::NodeId> nodes);

  /// Map-matches a raw GPS trace and adds the result; returns the id or
  /// nullopt when matching fails.
  std::optional<traj::TrajId> AddGpsTrace(const traj::GpsTrace& trace);

  /// Removes a trajectory from the corpus (and the index, if built).
  /// Removing an unknown or already-removed id is a documented no-op (a
  /// warning is logged): callers replaying an update stream must not be
  /// able to crash the engine with a stale id.
  void RemoveTrajectory(traj::TrajId id);

  /// Registers a new candidate site at an existing node.
  tops::SiteId AddSite(graph::NodeId node);

  /// Untags a candidate site (the index elects new representatives).
  /// An unknown site id is a logged no-op, like RemoveTrajectory.
  void RemoveSite(tops::SiteId site);

  // --- offline phase --------------------------------------------------------

  /// Builds the multi-resolution NetClus index over the current corpus.
  void BuildIndex();
  bool index_built() const { return index_ != nullptr; }

  /// Persists the built index (the expensive offline artifact) to `path`
  /// in the binary index format (blocked delta-varint postings,
  /// checksummed sections; docs/index_format.md), together with the
  /// distance backend (a CH hierarchy rides along, so a load never
  /// re-contracts). The file is written beside `path` and renamed over
  /// it, so saving over the file this engine was loaded from is safe.
  bool SaveIndexToFile(const std::string& path, std::string* error) const;

  /// Loads a previously saved index instead of rebuilding; validates that
  /// it matches the current network/corpus sizes. The file is mmap'ed by
  /// default so the posting arenas alias it zero-copy — see
  /// Options::index_load_mode. A backend recorded in the file replaces
  /// this engine's configured one.
  bool LoadIndexFromFile(const std::string& path, std::string* error);

  // --- online queries (NetClus) ---------------------------------------------

  /// The one online entry point: plans `spec` (any variant; `use_fm`
  /// selects FMNETCLUS, binary ψ only) through the exec layer and runs
  /// CoverBuild → Solve → Assemble. TopKBatch and the serving layer plan
  /// the same ToRequest mapping, so their answers are identical spec for
  /// spec. Throws std::invalid_argument on malformed payloads (cost /
  /// capacity vectors must be site-indexed).
  index::QueryResult Run(const QuerySpec& spec) const;

  /// Answers a batch of independent queries (any variant) concurrently
  /// over the shared immutable index, using Options::threads workers.
  /// Results are in input order and identical — query by query — to
  /// issuing each spec through Run sequentially; a malformed spec throws
  /// std::invalid_argument before any query runs.
  ///
  /// Specs are planned through the exec layer and grouped by
  /// (instance, τ): each distinct approximate cover T̂C is built once and
  /// shared by every query of its group (identical results — the cover
  /// does not depend on k, ψ, FM, or ES; see docs/query_planning.md).
  /// Sharers report amortized cover_build_seconds/transient_bytes and
  /// cover_shared = true.
  std::vector<index::QueryResult> TopKBatch(
      std::span<const QuerySpec> specs) const;

  /// Planner/executor statistics for this engine's online queries (per
  /// stage sample count and total seconds, sharing counters): a read of
  /// the instruments DumpMetrics exports. Empty before BuildIndex; reset
  /// when the index is rebuilt or reloaded.
  exec::ExecStats ExecStats() const;

  /// Exports this engine's metrics registry (stage latency histograms,
  /// cover sharing/shedding counters) as Prometheus text or JSON. Empty
  /// export before BuildIndex. A server created via Serve() has its own
  /// registry — use NetClusServer::DumpMetrics there.
  std::string DumpMetrics(
      obs::ExportFormat format = obs::ExportFormat::kPrometheusText) const;

  // --- concurrent serving (src/serve) ---------------------------------------

  /// Turns the built engine into a long-lived concurrent service: copies
  /// the network/corpus/sites, clones the index, and returns a
  /// NetClusServer with snapshot isolation, a single-writer update
  /// pipeline, and a sharded query cache (see docs/serving.md). The
  /// server is fully self-contained — it (and any retained snapshot) may
  /// outlive this engine. Once serving, route mutations through the
  /// server, not through this engine. Defined in src/serve/server.cc.
  std::unique_ptr<serve::NetClusServer> Serve() const;
  std::unique_ptr<serve::NetClusServer> Serve(
      const serve::ServerOptions& options) const;

  // --- exact baselines (no index; build covering sets on demand) ------------

  /// Full covering sets at τ (the expensive structure; Sec. 3.2).
  tops::CoverageIndex BuildCoverage(double tau_m,
                                    uint64_t memory_budget_bytes = 0) const;

  /// Inc-Greedy on freshly built covering sets.
  tops::Selection ExactGreedy(uint32_t k, double tau_m,
                              const tops::PreferenceFunction& psi) const;

  /// Branch-and-bound optimum (small instances only).
  tops::OptimalResult ExactOptimal(uint32_t k, double tau_m,
                                   const tops::PreferenceFunction& psi,
                                   double time_limit_s = 120.0) const;

  /// Exact utility of a selection under (τ, ψ), evaluated with k bounded
  /// searches (no covering sets).
  double EvaluateExact(const std::vector<tops::SiteId>& selection, double tau_m,
                       const tops::PreferenceFunction& psi) const;

  // --- accessors -------------------------------------------------------------

  const graph::RoadNetwork& network() const { return *network_; }
  /// The engine's distance backend: built lazily on first distance use
  /// (so a load-then-serve deployment never contracts a hierarchy it is
  /// about to replace), or adopted from a loaded index file.
  const graph::spf::DistanceBackend& distance_backend() const {
    return *backend();
  }
  const traj::TrajectoryStore& store() const { return *store_; }
  const tops::SiteSet& sites() const { return *sites_; }
  const index::MultiIndex& index() const { return *index_; }
  const Options& options() const { return options_; }

 private:
  /// Lazily builds (under spf_mu_, so concurrent const callers are safe)
  /// and returns the distance backend.
  const graph::spf::DistanceBackend* backend() const EXCLUDES(spf_mu_);

  Options options_;
  // Everything the index and the executor point at lives behind a stable
  // heap address (network, store, sites), so the implicit move keeps a
  // built Engine valid — Engine is safely movable after BuildIndex(). The
  // mutex lives behind a unique_ptr for the same reason (a mutex is
  // immovable).
  std::unique_ptr<graph::RoadNetwork> network_;
  mutable std::unique_ptr<nc::Mutex> spf_mu_ = std::make_unique<nc::Mutex>();
  mutable std::shared_ptr<const graph::spf::DistanceBackend> spf_
      GUARDED_BY(spf_mu_);
  std::unique_ptr<traj::TrajectoryStore> store_;
  std::unique_ptr<tops::SiteSet> sites_;
  std::unique_ptr<traj::MapMatcher> matcher_;
  std::unique_ptr<index::MultiIndex> index_;
  /// Metrics and warn-once state of the online queries; replaced
  /// together with the index by BuildIndex and LoadIndexFromFile.
  std::unique_ptr<exec::ExecContext> ctx_;
};

}  // namespace netclus

#endif  // NETCLUS_API_ENGINE_H_
