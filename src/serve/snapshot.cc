#include "serve/snapshot.h"

#include <utility>

#include "util/logging.h"

namespace netclus::serve {

IndexSnapshot::IndexSnapshot(uint64_t version,
                             std::shared_ptr<const graph::RoadNetwork> network,
                             std::shared_ptr<const traj::TrajectoryStore> store,
                             std::shared_ptr<const tops::SiteSet> sites,
                             std::shared_ptr<const index::MultiIndex> index)
    : version_(version),
      network_(std::move(network)),
      store_(std::move(store)),
      sites_(std::move(sites)),
      index_(std::move(index)) {
  NC_CHECK(network_ != nullptr);
  NC_CHECK(store_ != nullptr);
  NC_CHECK(sites_ != nullptr);
  NC_CHECK(index_ != nullptr);
  NC_CHECK_EQ(&store_->network(), network_.get());
}

SnapshotRegistry::SnapshotRegistry(SnapshotPtr initial) {
  if (initial != nullptr) Publish(std::move(initial));
}

SnapshotPtr SnapshotRegistry::Acquire() const {
  const nc::MutexLock lock(mu_);
  return current_;
}

SnapshotPtr SnapshotRegistry::AcquireVersion(uint64_t version) const {
  const nc::MutexLock lock(mu_);
  if (current_ != nullptr && current_->version() == version) return current_;
  for (auto it = history_.rbegin(); it != history_.rend(); ++it) {
    if ((*it)->version() == version) return *it;
  }
  return nullptr;
}

uint64_t SnapshotRegistry::current_version() const {
  const nc::MutexLock lock(mu_);
  return current_ == nullptr ? 0 : current_->version();
}

void SnapshotRegistry::Publish(SnapshotPtr next) {
  NC_CHECK(next != nullptr);
  const nc::MutexLock lock(mu_);
  if (current_ != nullptr) {
    NC_CHECK_GT(next->version(), current_->version())
        << "snapshot versions must be monotonic";
    history_.push_back(std::move(current_));
    while (history_.size() > history_limit_) history_.pop_front();
  }
  current_ = std::move(next);
}

void SnapshotRegistry::set_history_limit(size_t limit) {
  const nc::MutexLock lock(mu_);
  history_limit_ = limit;
  while (history_.size() > history_limit_) history_.pop_front();
}

}  // namespace netclus::serve
