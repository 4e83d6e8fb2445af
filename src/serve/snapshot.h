// Snapshot isolation for the serving layer.
//
// An IndexSnapshot is one immutable, refcounted version of the whole
// queryable state: the trajectory corpus, the candidate sites, and the
// multi-resolution NetClus index. Readers acquire the current snapshot
// once per query and keep it alive through a shared_ptr, so
//  * a query never blocks on a writer and never observes a half-applied
//    update (the writer mutates private copies, never a published
//    snapshot), and
//  * a published snapshot outlives every in-flight query that acquired
//    it — memory is reclaimed when the last reader drops its reference.
//
// One owned road-network copy is shared by all versions (the update
// pipeline restricts dynamic sites to existing nodes, per Sec. 6),
// while the store / sites / index are per-version copies produced by
// the UpdatePipeline's copy-on-write batches. Snapshots own everything
// they reference, so a retained SnapshotPtr stays valid regardless of
// what created it.
#ifndef NETCLUS_SERVE_SNAPSHOT_H_
#define NETCLUS_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <deque>
#include <memory>

#include "graph/road_network.h"
#include "netclus/multi_index.h"
#include "tops/site_set.h"
#include "traj/trajectory_store.h"
#include "util/thread_annotations.h"

namespace netclus::serve {

class IndexSnapshot {
 public:
  /// All parts must be non-null; the store must reference `network`.
  IndexSnapshot(uint64_t version,
                std::shared_ptr<const graph::RoadNetwork> network,
                std::shared_ptr<const traj::TrajectoryStore> store,
                std::shared_ptr<const tops::SiteSet> sites,
                std::shared_ptr<const index::MultiIndex> index);

  IndexSnapshot(const IndexSnapshot&) = delete;
  IndexSnapshot& operator=(const IndexSnapshot&) = delete;

  /// Monotonically increasing publish version (1 = the initial snapshot).
  uint64_t version() const { return version_; }

  const graph::RoadNetwork& network() const { return *network_; }
  const traj::TrajectoryStore& store() const { return *store_; }
  const tops::SiteSet& sites() const { return *sites_; }
  const index::MultiIndex& index() const { return *index_; }

  /// The shared_ptr parts, for building the next version without copying
  /// what did not change.
  const std::shared_ptr<const graph::RoadNetwork>& network_ptr() const {
    return network_;
  }
  const std::shared_ptr<const traj::TrajectoryStore>& store_ptr() const {
    return store_;
  }
  const std::shared_ptr<const tops::SiteSet>& sites_ptr() const {
    return sites_;
  }
  const std::shared_ptr<const index::MultiIndex>& index_ptr() const {
    return index_;
  }

 private:
  uint64_t version_;
  std::shared_ptr<const graph::RoadNetwork> network_;
  std::shared_ptr<const traj::TrajectoryStore> store_;
  std::shared_ptr<const tops::SiteSet> sites_;
  std::shared_ptr<const index::MultiIndex> index_;
};

using SnapshotPtr = std::shared_ptr<const IndexSnapshot>;

/// Holder of the current snapshot with atomic publish. Acquire() and
/// Publish() exchange one shared_ptr under a mutex whose critical section
/// is two refcount operations — readers never wait on an update being
/// applied, only (briefly) on the pointer swap itself.
class SnapshotRegistry {
 public:
  SnapshotRegistry() = default;
  explicit SnapshotRegistry(SnapshotPtr initial);

  SnapshotRegistry(const SnapshotRegistry&) = delete;
  SnapshotRegistry& operator=(const SnapshotRegistry&) = delete;

  /// The current snapshot (null before the first Publish).
  SnapshotPtr Acquire() const EXCLUDES(mu_);

  /// A specific retained version, or null when it is not the current one
  /// and has aged out of the history window. Stale-serving uses this to
  /// tag responses with the exact version they were answered from.
  SnapshotPtr AcquireVersion(uint64_t version) const EXCLUDES(mu_);

  /// Version of the current snapshot (0 before the first Publish).
  uint64_t current_version() const EXCLUDES(mu_);

  /// Atomically replaces the current snapshot. `next` must be non-null
  /// and its version must exceed the current one.
  void Publish(SnapshotPtr next) EXCLUDES(mu_);

  /// Caps how many superseded versions AcquireVersion can still find
  /// (the current snapshot is always retained). Default 4; 0 disables
  /// history. Takes effect on the next Publish.
  void set_history_limit(size_t limit) EXCLUDES(mu_);

 private:
  mutable nc::Mutex mu_;
  SnapshotPtr current_ GUARDED_BY(mu_);
  /// Most-recent-last superseded versions, bounded by history_limit_.
  /// Retention here is on top of reader refcounts: a version in the
  /// history stays acquirable even with no in-flight reader.
  std::deque<SnapshotPtr> history_ GUARDED_BY(mu_);
  size_t history_limit_ GUARDED_BY(mu_) = 4;
};

}  // namespace netclus::serve

#endif  // NETCLUS_SERVE_SNAPSHOT_H_
