// The multi-resolution NETCLUS index (Sec. 4.4).
//
// Maintains t = ⌊log_{1+γ}(τ_max / τ_min)⌋ + 1 instances with radii
// R_p = (1+γ)^p R_0, R_0 = τ_min / 4. Instance I_p serves coverage
// thresholds τ ∈ [4 R_p, 4 R_p (1+γ)): below 4 R_p coverage of same-cluster
// trajectories is not guaranteed, above 4 R_p (1+γ) a coarser instance
// processes fewer clusters. τ_min / τ_max default to the (sampled) min /
// max round-trip distance between candidate sites, exactly as Sec. 4.4
// prescribes; queries outside the range clamp to the extreme instances.
//
// Dynamic updates (Sec. 6) are applied to every instance.
#ifndef NETCLUS_NETCLUS_MULTI_INDEX_H_
#define NETCLUS_NETCLUS_MULTI_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/spf/distance_backend.h"
#include "netclus/cluster_index.h"
#include "tops/site_set.h"
#include "traj/trajectory_store.h"

namespace netclus::index {

struct MultiIndexConfig {
  double gamma = 0.75;
  /// Explicit τ range; 0 means "estimate from the data" (Sec. 4.4: min/max
  /// site-pair round-trip distance, sampled for tractability).
  double tau_min_m = 0.0;
  double tau_max_m = 0.0;
  uint32_t max_instances = 16;  ///< safety cap on t
  GdspStrategy gdsp_strategy = GdspStrategy::kLazyExact;
  uint32_t fm_copies = 30;
  RepresentativeRule representative_rule = RepresentativeRule::kClosestToCenter;
  uint64_t seed = 99;  ///< for τ range sampling
  /// Worker threads for the offline build (0 = NETCLUS_THREADS default).
  /// With at least as many instances as threads, instances build
  /// concurrently (one per worker); with fewer, instances build one after
  /// another with the per-cluster loops fanned across all threads. Every
  /// instance build is deterministic, so the index is identical at any
  /// thread count. Runtime-only: not serialized.
  uint32_t threads = 0;
};

class MultiIndex {
 public:
  /// Offline build (Sec. 4): clusters every instance and indexes all live
  /// trajectories and sites. `backend` (optional, not owned, build-time
  /// only) accelerates every distance computation of the build — τ-range
  /// estimation, GDSP domination, neighbor lists; null = plain Dijkstra.
  /// The index is bit-identical under every backend.
  static MultiIndex Build(const traj::TrajectoryStore& store,
                          const tops::SiteSet& sites,
                          const MultiIndexConfig& config,
                          const graph::spf::DistanceBackend* backend = nullptr);

  /// Deep copy of the whole index (every instance). This is the
  /// copy-on-write primitive behind snapshot isolation in src/serve: the
  /// update pipeline clones the published index, applies a batch of Sec. 6
  /// incremental updates to the clone, and publishes it as the next
  /// immutable snapshot. O(index size).
  MultiIndex Clone() const;

  size_t num_instances() const { return instances_.size(); }
  const ClusterIndex& instance(size_t p) const { return *instances_[p]; }

  /// Instance index p = ⌊log_{1+γ}(τ / τ_min)⌋, clamped to [0, t).
  size_t InstanceFor(double tau_m) const;

  double tau_min_m() const { return tau_min_; }
  double tau_max_m() const { return tau_max_; }
  double gamma() const { return config_.gamma; }
  const MultiIndexConfig& config() const { return config_; }

  double build_seconds() const { return build_seconds_; }

  /// Analytic memory footprint across all instances, bytes (Table 7).
  uint64_t MemoryBytes() const;

  /// Actual bytes behind all posting storage (TL + CC arenas + dynamic
  /// overlays), and what the same postings would cost as plain vectors —
  /// the raw-vs-compressed pair Table 9 reports.
  uint64_t PostingsBytesCompressed() const;
  uint64_t PostingsBytesRaw() const;

  // --- dynamic updates (Sec. 6), fanned out to every instance -------------

  void AddTrajectory(const traj::TrajectoryStore& store, traj::TrajId t);
  /// Unindexes trajectory `t` from every instance. An id the index has
  /// never seen, or one already removed, is a safe no-op (each instance
  /// has no stored cluster sequence for it, so there is nothing to undo).
  void RemoveTrajectory(traj::TrajId t);
  void AddSite(const traj::TrajectoryStore& store, const tops::SiteSet& sites,
               tops::SiteId s);
  void RemoveSite(const traj::TrajectoryStore& store,
                  const tops::SiteSet& sites, tops::SiteId s);

  /// Estimates the [τ_min, τ_max] range from site-pair round trips by
  /// sampling (exposed for tests and benches).
  static void EstimateTauRange(
      const traj::TrajectoryStore& store, const tops::SiteSet& sites,
      uint64_t seed, double* tau_min_m, double* tau_max_m,
      const graph::spf::DistanceBackend* backend = nullptr);

 private:
  friend bool ReadIndex(store::ByteBlock block, size_t expected_nodes,
                        size_t expected_trajectories, MultiIndex* index,
                        std::string* error, const graph::RoadNetwork* net,
                        std::shared_ptr<const graph::spf::DistanceBackend>*
                            backend);
  MultiIndexConfig config_;
  double tau_min_ = 0.0;
  double tau_max_ = 0.0;
  double build_seconds_ = 0.0;
  std::vector<std::unique_ptr<ClusterIndex>> instances_;
};

}  // namespace netclus::index

#endif  // NETCLUS_NETCLUS_MULTI_INDEX_H_
