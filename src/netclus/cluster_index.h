// One NetClus index instance I_p: a GDSP clustering of the road network at
// radius R_p plus the per-cluster information of Sec. 4.3:
//   1. center c_i;
//   2. representative r_i — the candidate site nearest to the center
//      (Sec. 4.2, option 2; option 1 "most-frequented site" is available
//      for the ablation bench);
//   3. trajectory list TL(g_i) = {(T_j, d_r(T_j, c_i))};
//   4. neighbor list CL(g_i) = {(g_j, d_r(c_i, c_j))}, for centers within
//      round-trip 4 R (1 + γ), sorted by distance;
//   5. member nodes with d_r(v, c_i).
// Trajectories are also stored in compressed form as cluster sequences
// CC(T_j) (consecutive duplicates collapsed), which is both the compression
// the paper credits for NetClus's footprint and the handle for dynamic
// trajectory deletion.
//
// Postings storage: TL lists and CC sequences — the structures that
// dominate the instance footprint — are frozen at build/load time into
// delta-varint arenas (src/store/arena.h) and traversed through lazy
// views, cutting their resident bytes well below the vector-of-vectors
// representation. Dynamic updates (Sec. 6) never rewrite the frozen
// bytes: additions land in small mutable overlays, removals in
// tombstones, so copies of an instance (MultiIndex::Clone, the serving
// layer's snapshots) share the arena blocks and pay only for their own
// overlays.
#ifndef NETCLUS_NETCLUS_CLUSTER_INDEX_H_
#define NETCLUS_NETCLUS_CLUSTER_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "netclus/gdsp.h"
#include "store/arena.h"
#include "tops/site_set.h"
#include "traj/trajectory_store.h"

namespace netclus::store {
class ByteWriter;
class ByteReader;
}  // namespace netclus::store

namespace netclus::index {

enum class RepresentativeRule {
  kClosestToCenter,   ///< Sec. 4.2 option 2 (the paper's choice)
  kMostFrequented,    ///< Sec. 4.2 option 1
};

struct ClusterIndexConfig {
  double radius_m = 200.0;  ///< R_p
  double gamma = 0.75;      ///< neighbor horizon is 4 R (1 + γ)
  GdspStrategy gdsp_strategy = GdspStrategy::kLazyExact;
  uint32_t fm_copies = 30;
  RepresentativeRule representative_rule = RepresentativeRule::kClosestToCenter;
  /// Worker threads for the build (0 = NETCLUS_THREADS default). Applies to
  /// representative election, TL/CC construction, and neighbor-list
  /// searches — all per-cluster/per-trajectory independent, so the built
  /// index is identical at every thread count. Runtime-only: not serialized.
  uint32_t threads = 0;
};

/// TL entry: trajectory + its round-trip distance to the cluster center.
struct TlEntry {
  traj::TrajId traj;
  float dr_m;
};

/// CL entry: neighbor cluster + center-to-center round-trip distance.
struct ClEntry {
  uint32_t cluster;
  float dr_m;
};

/// A cluster's trajectory list: an immutable compressed core (a view into
/// the instance's TL arena) plus a mutable overlay for Sec. 6 updates —
/// `extra` holds dynamically added entries, `removed` tombstones frozen
/// entries. Iteration yields exactly the live entries (frozen minus
/// tombstones, then additions); the set is identical to what the plain
/// vector representation would hold, and every consumer is
/// order-insensitive (covers are re-sorted downstream).
class TlList {
 public:
  size_t size() const { return frozen_live_ + extra_.size(); }
  bool empty() const { return size() == 0; }

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = TlEntry;
    using difference_type = std::ptrdiff_t;
    using pointer = const TlEntry*;
    using reference = const TlEntry&;

    const_iterator() = default;

    reference operator*() const { return current_; }
    pointer operator->() const { return &current_; }

    const_iterator& operator++() {
      --remaining_;
      if (remaining_ > 0) Next();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator copy = *this;
      ++*this;
      return copy;
    }

    bool operator==(const const_iterator& other) const {
      return remaining_ == other.remaining_;
    }
    bool operator!=(const const_iterator& other) const {
      return !(*this == other);
    }

   private:
    friend class TlList;

    void Next() {
      while (fit_ != fend_) {
        const TlEntry e = *fit_;
        ++fit_;
        if (removed_ == nullptr ||
            !std::binary_search(removed_->begin(), removed_->end(), e.traj)) {
          current_ = e;
          return;
        }
      }
      current_ = *eit_++;
    }

    store::PairListView<TlEntry>::const_iterator fit_, fend_;
    const TlEntry* eit_ = nullptr;
    const std::vector<traj::TrajId>* removed_ = nullptr;
    TlEntry current_{};
    size_t remaining_ = 0;  // live entries left, including current_
  };

  const_iterator begin() const {
    const_iterator it;
    it.remaining_ = size();
    it.fit_ = frozen_.begin();
    it.fend_ = frozen_.end();
    it.eit_ = extra_.data();
    it.removed_ = removed_.empty() ? nullptr : &removed_;
    if (it.remaining_ > 0) it.Next();
    return it;
  }
  const_iterator end() const { return const_iterator(); }

  /// Bulk traversal of the live entries — same sequence as iteration, but
  /// the frozen core decodes through the arena view's block/SIMD fast
  /// path instead of one entry per iterator step.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (removed_.empty()) {
      frozen_.ForEach(fn);
    } else {
      frozen_.ForEach([&](const TlEntry& e) {
        if (!std::binary_search(removed_.begin(), removed_.end(), e.traj)) {
          fn(e);
        }
      });
    }
    for (const TlEntry& e : extra_) fn(e);
  }

  /// O(i) — tests and cold paths only.
  TlEntry operator[](size_t i) const {
    auto it = begin();
    for (size_t k = 0; k < i; ++k) ++it;
    return *it;
  }

  std::vector<TlEntry> Materialize() const {
    std::vector<TlEntry> out;
    out.reserve(size());
    for (const TlEntry& e : *this) out.push_back(e);
    return out;
  }

  /// Installs the frozen core (resets overlays).
  void Freeze(store::PairListView<TlEntry> frozen) {
    frozen_ = frozen;
    frozen_live_ = frozen.size();
    extra_.clear();
    removed_.clear();
  }

  void Append(const TlEntry& entry) { extra_.push_back(entry); }

  /// Removes the (unique) entry for `t`; true when one was live.
  bool Remove(traj::TrajId t) {
    for (size_t i = 0; i < extra_.size(); ++i) {
      if (extra_[i].traj == t) {
        extra_[i] = extra_.back();
        extra_.pop_back();
        return true;
      }
    }
    if (std::binary_search(removed_.begin(), removed_.end(), t)) return false;
    for (const TlEntry& e : frozen_) {
      if (e.traj == t) {
        removed_.insert(std::upper_bound(removed_.begin(), removed_.end(), t),
                        t);
        --frozen_live_;
        return true;
      }
    }
    return false;
  }

  /// True when Sec. 6 updates have diverged this list from its frozen
  /// core (additions or tombstones present).
  bool has_overlay() const { return !extra_.empty() || !removed_.empty(); }

  /// Overlay footprint (the frozen arena is accounted at instance level).
  uint64_t OverlayBytes() const {
    return extra_.capacity() * sizeof(TlEntry) +
           removed_.capacity() * sizeof(traj::TrajId);
  }

 private:
  store::PairListView<TlEntry> frozen_;
  size_t frozen_live_ = 0;            ///< frozen entries not tombstoned
  std::vector<TlEntry> extra_;        ///< dynamically added entries
  std::vector<traj::TrajId> removed_; ///< sorted tombstones over frozen_
};

struct Cluster {
  graph::NodeId center = graph::kInvalidNode;
  tops::SiteId representative = tops::kInvalidSite;
  float rep_rt_m = 0.0f;  ///< d_r(c_i, r_i)
  std::vector<tops::SiteId> sites;  ///< candidate sites inside the cluster
  TlList tl;
  std::vector<ClEntry> cl;  ///< sorted by dr_m ascending
};

struct ClusterIndexStats {
  double gdsp_seconds = 0.0;
  double build_seconds = 0.0;  ///< total, including GDSP
  double mean_dominating_set_size = 0.0;
  double mean_tl_size = 0.0;
  double mean_cl_size = 0.0;
  uint64_t compressed_postings = 0;  ///< Σ |CC(T)|
  uint64_t raw_postings = 0;         ///< Σ |T| (pre-compression)
};

class ClusterIndex {
 public:
  /// Builds the instance over all live trajectories in `store`. `backend`
  /// (optional, not owned, build-time only) accelerates the GDSP and
  /// neighbor-list searches; null = plain Dijkstra. The instance is
  /// bit-identical under every backend.
  static ClusterIndex Build(const traj::TrajectoryStore& store,
                            const tops::SiteSet& sites,
                            const ClusterIndexConfig& config,
                            const graph::spf::DistanceBackend* backend = nullptr);

  double radius_m() const { return config_.radius_m; }
  size_t num_clusters() const { return clusters_.size(); }
  const Cluster& cluster(uint32_t g) const { return clusters_[g]; }
  const std::vector<Cluster>& clusters() const { return clusters_; }

  uint32_t cluster_of(graph::NodeId v) const { return node_cluster_[v]; }
  float node_rt_m(graph::NodeId v) const { return node_rt_[v]; }

  /// Number of network nodes this instance was clustered over.
  size_t num_nodes() const { return node_cluster_.size(); }

  /// Number of trajectory ids with a stored cluster sequence slot.
  size_t num_sequences() const { return cc_count_; }

  /// Size of the site id space this instance knows (the removed-flag
  /// array); every site id stored anywhere in the instance is below it.
  size_t num_site_slots() const { return site_removed_.size(); }

  /// Compressed cluster sequence of a trajectory, materialized (empty for
  /// unknown/removed ids). Cold paths and tests; hot paths use the view.
  std::vector<uint32_t> cluster_sequence(traj::TrajId t) const {
    return cluster_sequence_view(t).Materialize();
  }

  /// Zero-copy view over CC(T): decodes straight off the frozen arena (or
  /// points at the overlay for dynamically added trajectories).
  store::PostingListView cluster_sequence_view(traj::TrajId t) const;

  const ClusterIndexStats& stats() const { return stats_; }

  /// Analytic memory footprint, bytes (compressed representation).
  uint64_t MemoryBytes() const;

  /// Actual bytes behind TL + CC postings (arenas + dynamic overlays).
  uint64_t PostingsBytesCompressed() const;

  /// What the same postings would occupy as vectors of full-width
  /// entries — the pre-compression representation, for Table 9 reporting.
  uint64_t PostingsBytesRaw() const;

  /// Identity of the frozen CC arena bytes: equal across copies that share
  /// backing blocks (pins the snapshot-sharing behavior in tests).
  const void* cc_arena_id() const { return cc_arena_.data_block().id(); }

  // --- dynamic updates (Sec. 6) -------------------------------------------

  /// Registers an already-stored trajectory into TL / CC.
  void AddTrajectory(const traj::TrajectoryStore& store, traj::TrajId t);

  /// Removes a trajectory from the TL lists of the clusters it crosses.
  void RemoveTrajectory(traj::TrajId t);

  /// Registers a new candidate site at an existing node (Sec. 6 restricts
  /// the implementation to sites on V; see DESIGN.md). May replace the
  /// cluster's representative.
  void AddSite(const traj::TrajectoryStore& store, const tops::SiteSet& sites,
               tops::SiteId s);

  /// Untags a site; if it was a representative, elects a replacement by the
  /// configured rule.
  void RemoveSite(const traj::TrajectoryStore& store,
                  const tops::SiteSet& sites, tops::SiteId s);

  // --- persistence (implemented in index_io.cc) ----------------------------

  /// Appends this instance as a binary blob (canonicalized: overlays
  /// and tombstones are folded into fresh arenas).
  void WriteBinary(store::ByteWriter& out) const;

  /// Parses an instance blob. Arena byte ranges alias `in`'s backing
  /// block — the mmap'ed file or the whole-file heap read — so postings
  /// are not copied.
  static bool ReadBinary(store::ByteReader& in, ClusterIndex* out,
                         std::string* error);

 private:
  void ElectRepresentative(const traj::TrajectoryStore& store,
                           const tops::SiteSet& sites, uint32_t g,
                           const std::vector<bool>* site_alive);

  /// Encodes per-cluster TL lists and per-trajectory CC sequences into the
  /// frozen arenas and wires the cluster views (resets overlays).
  void FreezePostings(const std::vector<std::vector<TlEntry>>& tls,
                      const std::vector<std::vector<uint32_t>>& seqs);

  ClusterIndexConfig config_;
  std::vector<Cluster> clusters_;
  std::vector<uint32_t> node_cluster_;
  std::vector<float> node_rt_;
  std::vector<bool> site_removed_;
  ClusterIndexStats stats_;

  // Frozen postings + dynamic overlays. Arena blocks are refcounted and
  // shared across copies; overlays are per-copy.
  store::PostingArena tl_arena_;  ///< per-cluster TL lists
  store::PostingArena cc_arena_;  ///< per-trajectory CC sequences
  std::unordered_map<traj::TrajId, std::vector<uint32_t>> cc_overlay_;
  std::unordered_set<traj::TrajId> cc_removed_;
  size_t cc_count_ = 0;  ///< sequence id space (max indexed TrajId + 1)
};

}  // namespace netclus::index

#endif  // NETCLUS_NETCLUS_CLUSTER_INDEX_H_
