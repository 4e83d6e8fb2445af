#include "tops/coverage.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "util/logging.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace netclus::tops {

namespace {

using graph::NodeId;
using traj::TrajId;

// Per-site scratch that maps TrajId -> best detour found so far, using a
// stamped array so that clearing between sites is O(1).
class MinDetourScratch {
 public:
  explicit MinDetourScratch(size_t num_trajs)
      : best_(num_trajs, 0.0f), stamp_(num_trajs, 0) {}

  void NewSite() {
    ++epoch_;
    touched_.clear();
  }

  void Offer(TrajId t, float dr) {
    if (stamp_[t] != epoch_) {
      stamp_[t] = epoch_;
      best_[t] = dr;
      touched_.push_back(t);
    } else if (dr < best_[t]) {
      best_[t] = dr;
    }
  }

  const std::vector<TrajId>& touched() const { return touched_; }
  float best(TrajId t) const { return best_[t]; }

 private:
  std::vector<float> best_;
  std::vector<uint32_t> stamp_;
  std::vector<TrajId> touched_;
  uint32_t epoch_ = 0;
};

// Pairwise detour per trajectory for one site: collects (pos, rev, fwd) leg
// distances and sweeps positions in order, maintaining
// min_{k <= l} (rev(v_k) + prefix[k]) to add to (fwd(v_l) - prefix[l]).
struct PairwiseLegs {
  // Sparse per-position legs; kInf when the leg is out of range.
  std::vector<std::pair<uint32_t, float>> rev_legs;  // (pos, d(v,s))
  std::vector<std::pair<uint32_t, float>> fwd_legs;  // (pos, d(s,v))
};

// Per-worker scratch for the site loop: every site's covering set is
// computed with private state, so sites can be processed in any order (and
// concurrently) with identical results. The search workspace comes from
// the configured backend (plain Dijkstra when there is none).
struct SiteScratch {
  SiteScratch(const graph::spf::DistanceBackend* backend,
              const graph::RoadNetwork* net, size_t num_trajs)
      : query(graph::spf::MakeQueryOrDijkstra(backend, net)),
        detour(num_trajs) {}
  std::unique_ptr<graph::spf::DistanceQuery> query;
  MinDetourScratch detour;
  std::unordered_map<TrajId, PairwiseLegs> legs;
};

// Computes TC(s) into `tc` (sorted by ascending distance) and returns the
// number of Dijkstra-settled nodes.
uint64_t ComputeSiteCover(const traj::TrajectoryStore& store,
                          const SiteSet& sites, const CoverageConfig& config,
                          SiteScratch& scratch, SiteId s,
                          std::vector<CoverEntry>& tc) {
  const NodeId site_node = sites.node(s);
  uint64_t settled = 0;
  scratch.detour.NewSite();

  if (config.detour == DetourMode::kSinglePoint) {
    const std::vector<graph::RoundTrip> rts =
        scratch.query->BoundedRoundTrip(site_node, config.tau_m);
    settled += scratch.query->last_settled_count();
    for (const graph::RoundTrip& rt : rts) {
      for (const traj::Posting& posting : store.postings(rt.node)) {
        if (!store.is_alive(posting.traj)) continue;
        scratch.detour.Offer(posting.traj, static_cast<float>(rt.total()));
      }
    }
  } else {
    // Pairwise: both legs must individually fit in τ.
    scratch.legs.clear();
    const std::vector<graph::Settled> fwd = scratch.query->BoundedSearch(
        site_node, config.tau_m, graph::Direction::kForward);
    settled += scratch.query->last_settled_count();
    const std::vector<graph::Settled> rev = scratch.query->BoundedSearch(
        site_node, config.tau_m, graph::Direction::kReverse);
    settled += scratch.query->last_settled_count();
    for (const graph::Settled& st : rev) {
      // rev search distance = d(node, site): the "leave" leg.
      for (const traj::Posting& p : store.postings(st.node)) {
        if (!store.is_alive(p.traj)) continue;
        scratch.legs[p.traj].rev_legs.emplace_back(p.pos,
                                                   static_cast<float>(st.distance));
      }
    }
    for (const graph::Settled& st : fwd) {
      // fwd search distance = d(site, node): the "rejoin" leg.
      for (const traj::Posting& p : store.postings(st.node)) {
        if (!store.is_alive(p.traj)) continue;
        scratch.legs[p.traj].fwd_legs.emplace_back(p.pos,
                                                   static_cast<float>(st.distance));
      }
    }
    for (auto& [t, l] : scratch.legs) {
      const traj::Trajectory& trajectory = store.trajectory(t);
      std::sort(l.rev_legs.begin(), l.rev_legs.end());
      std::sort(l.fwd_legs.begin(), l.fwd_legs.end());
      // Sweep rejoin positions in order, keeping the best leave <= rejoin.
      double best = graph::kInfDistance;
      size_t ri = 0;
      double best_leave = graph::kInfDistance;  // min rev + prefix
      for (const auto& [pos, fwd_d] : l.fwd_legs) {
        while (ri < l.rev_legs.size() && l.rev_legs[ri].first <= pos) {
          const double leave =
              l.rev_legs[ri].second + trajectory.prefix(l.rev_legs[ri].first);
          best_leave = std::min(best_leave, leave);
          ++ri;
        }
        if (best_leave == graph::kInfDistance) continue;
        const double detour = best_leave + fwd_d - trajectory.prefix(pos);
        best = std::min(best, detour);
      }
      if (best != graph::kInfDistance) {
        scratch.detour.Offer(t, static_cast<float>(std::max(0.0, best)));
      }
    }
  }

  tc.clear();
  tc.reserve(scratch.detour.touched().size());
  for (TrajId t : scratch.detour.touched()) {
    const float dr = scratch.detour.best(t);
    if (dr <= config.tau_m) tc.push_back({t, dr});
  }
  std::sort(tc.begin(), tc.end(), CoverOrder());
  return settled;
}

// SC as the inverse of TC, every list in CoverOrder. Counting first sizes
// each list exactly, so it is allocated once; the fill scatters across
// trajectories and stays serial, while the per-trajectory sorts are
// independent and run on `threads`.
std::vector<std::vector<CoverEntry>> InvertCovers(
    const std::vector<std::vector<CoverEntry>>& tc, size_t num_trajectories,
    unsigned threads) {
  std::vector<uint32_t> count(num_trajectories, 0);
  for (const auto& cover : tc) {
    for (const CoverEntry& e : cover) {
      NC_CHECK_LT(e.id, num_trajectories);
      ++count[e.id];
    }
  }
  std::vector<std::vector<CoverEntry>> sc(num_trajectories);
  for (size_t t = 0; t < num_trajectories; ++t) sc[t].reserve(count[t]);
  for (SiteId s = 0; s < tc.size(); ++s) {
    for (const CoverEntry& e : tc[s]) sc[e.id].push_back({s, e.dr_m});
  }
  util::ParallelFor(threads, num_trajectories, [&](size_t begin, size_t end) {
    for (size_t t = begin; t < end; ++t) {
      std::sort(sc[t].begin(), sc[t].end(), CoverOrder());
    }
  });
  return sc;
}

}  // namespace

CoverageIndex CoverageIndex::Build(const traj::TrajectoryStore& store,
                                   const SiteSet& sites,
                                   const CoverageConfig& config) {
  CoverageIndex index;
  index.config_ = config;
  index.num_live_ = store.live_count();
  util::WallTimer timer;
  util::MemoryBudget budget(config.memory_budget_bytes);

  const graph::RoadNetwork& net = store.network();
  const size_t num_trajs = store.total_count();
  index.tc_.resize(sites.size());

  // The memory-budget cutoff is defined by sequential site order, so a
  // nonzero budget forces the serial path (Table 9's OOM semantics).
  const unsigned threads =
      config.memory_budget_bytes > 0 ? 1 : util::ResolveThreads(config.threads);

  if (threads <= 1) {
    SiteScratch scratch(config.backend, &net, num_trajs);
    for (SiteId s = 0; s < sites.size(); ++s) {
      index.stats_.settled_nodes +=
          ComputeSiteCover(store, sites, config, scratch, s, index.tc_[s]);
      index.stats_.cover_entries += index.tc_[s].size();
      if (!budget.Charge(index.tc_[s].size() * sizeof(CoverEntry) * 2 + 64)) {
        index.oom_ = true;
        index.tc_.clear();
        index.stats_.build_seconds = timer.Seconds();
        NC_LOG_WARNING << "CoverageIndex: memory budget ("
                       << util::HumanBytes(budget.limit_bytes())
                       << ") exceeded at site " << s << "/" << sites.size();
        return index;
      }
    }
  } else {
    std::atomic<uint64_t> settled{0};
    // Coarse chunks: each carries its own Dijkstra engine + scratch (O(nodes)
    // to set up), so ~4 chunks per thread amortizes that without skew — and
    // a single chunk when this call would execute inline anyway.
    const size_t grain = util::CoarseGrain(threads, sites.size());
    util::ParallelFor(
        threads, sites.size(),
        [&](size_t begin, size_t end) {
          SiteScratch scratch(config.backend, &net, num_trajs);
          uint64_t local_settled = 0;
          for (size_t s = begin; s < end; ++s) {
            local_settled += ComputeSiteCover(store, sites, config, scratch,
                                              static_cast<SiteId>(s), index.tc_[s]);
          }
          settled.fetch_add(local_settled, std::memory_order_relaxed);
        },
        grain);
    index.stats_.settled_nodes = settled.load();
    for (const auto& tc : index.tc_) index.stats_.cover_entries += tc.size();
  }

  index.sc_ = InvertCovers(index.tc_, num_trajs, threads);
  if (config.compress_postings) index.Compress();
  index.stats_.build_seconds = timer.Seconds();
  return index;
}

void CoverageIndex::Compress() {
  if (compressed_) return;
  store::PostingArenaBuilder tc_builder;
  for (const auto& list : tc_) tc_builder.AddPairList(list);
  tc_arena_ = tc_builder.Finish();
  store::PostingArenaBuilder sc_builder;
  for (const auto& list : sc_) sc_builder.AddPairList(list);
  sc_arena_ = sc_builder.Finish();
  tc_.clear();
  tc_.shrink_to_fit();
  sc_.clear();
  sc_.shrink_to_fit();
  compressed_ = true;
}

CoverageIndex CoverageIndex::FromCovers(
    std::vector<std::vector<CoverEntry>> tc, size_t num_trajectories,
    size_t num_live, double tau_m, uint32_t threads) {
  CoverageIndex index;
  index.config_.tau_m = tau_m;
  index.num_live_ = num_live;
  index.tc_ = std::move(tc);
  util::ParallelFor(threads, index.tc_.size(), [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      std::vector<CoverEntry>& cover = index.tc_[s];
      if (!std::is_sorted(cover.begin(), cover.end(), CoverOrder())) {
        std::sort(cover.begin(), cover.end(), CoverOrder());
      }
    }
  });
  for (const auto& cover : index.tc_) {
    index.stats_.cover_entries += cover.size();
  }
  index.sc_ = InvertCovers(index.tc_, num_trajectories, threads);
  return index;
}

double CoverageIndex::SiteWeight(SiteId s, const PreferenceFunction& psi) const {
  double w = 0.0;
  TC(s).ForEach(
      [&](const CoverEntry& e) { w += psi.Score(e.dr_m, config_.tau_m); });
  return w;
}

double CoverageIndex::DetourDistance(const traj::TrajectoryStore& store,
                                     graph::spf::DistanceQuery* query,
                                     traj::TrajId t, graph::NodeId site_node,
                                     double tau_m, DetourMode mode) {
  const traj::Trajectory& trajectory = store.trajectory(t);
  if (mode == DetourMode::kSinglePoint) {
    // d(v, s) for all trajectory nodes via one reverse bounded search, then
    // d(s, v) via one forward bounded search; combine per node.
    const std::vector<graph::Settled> rev =
        query->BoundedSearch(site_node, tau_m, graph::Direction::kReverse);
    std::unordered_map<NodeId, double> to_site;
    for (const graph::Settled& st : rev) to_site[st.node] = st.distance;
    const std::vector<graph::Settled> fwd =
        query->BoundedSearch(site_node, tau_m, graph::Direction::kForward);
    std::unordered_map<NodeId, double> from_site;
    for (const graph::Settled& st : fwd) from_site[st.node] = st.distance;
    double best = graph::kInfDistance;
    for (size_t i = 0; i < trajectory.size(); ++i) {
      const NodeId v = trajectory.node(i);
      auto it1 = to_site.find(v);
      auto it2 = from_site.find(v);
      if (it1 == to_site.end() || it2 == from_site.end()) continue;
      best = std::min(best, it1->second + it2->second);
    }
    return best <= tau_m ? best : graph::kInfDistance;
  }
  // Pairwise mode.
  const std::vector<graph::Settled> rev =
      query->BoundedSearch(site_node, tau_m, graph::Direction::kReverse);
  std::unordered_map<NodeId, double> to_site;
  for (const graph::Settled& st : rev) to_site[st.node] = st.distance;
  const std::vector<graph::Settled> fwd =
      query->BoundedSearch(site_node, tau_m, graph::Direction::kForward);
  std::unordered_map<NodeId, double> from_site;
  for (const graph::Settled& st : fwd) from_site[st.node] = st.distance;
  double best = graph::kInfDistance;
  double best_leave = graph::kInfDistance;
  for (size_t i = 0; i < trajectory.size(); ++i) {
    const NodeId v = trajectory.node(i);
    auto leave_it = to_site.find(v);
    if (leave_it != to_site.end()) {
      best_leave = std::min(best_leave, leave_it->second + trajectory.prefix(i));
    }
    auto rejoin_it = from_site.find(v);
    if (rejoin_it != from_site.end() && best_leave != graph::kInfDistance) {
      best = std::min(best,
                      std::max(0.0, best_leave + rejoin_it->second -
                                        trajectory.prefix(i)));
    }
  }
  return best <= tau_m ? best : graph::kInfDistance;
}

double CoverageIndex::EvaluateSelection(const traj::TrajectoryStore& store,
                                        const SiteSet& sites,
                                        const std::vector<SiteId>& selection,
                                        double tau_m,
                                        const PreferenceFunction& psi,
                                        DetourMode mode,
                                        const graph::spf::DistanceBackend* backend) {
  const graph::RoadNetwork& net = store.network();
  const std::unique_ptr<graph::spf::DistanceQuery> query =
      graph::spf::MakeQueryOrDijkstra(backend, &net);
  // Per-trajectory best score across the selected sites; reuse the covering
  // inversion: bounded searches from each selected site only.
  std::vector<double> best_score(store.total_count(), 0.0);
  for (SiteId s : selection) {
    const NodeId site_node = sites.node(s);
    if (mode == DetourMode::kSinglePoint) {
      const std::vector<graph::RoundTrip> rts =
          query->BoundedRoundTrip(site_node, tau_m);
      // Min detour per trajectory for this site.
      std::unordered_map<TrajId, double> best_dr;
      for (const graph::RoundTrip& rt : rts) {
        for (const traj::Posting& p : store.postings(rt.node)) {
          if (!store.is_alive(p.traj)) continue;
          auto [it, inserted] = best_dr.emplace(p.traj, rt.total());
          if (!inserted && rt.total() < it->second) it->second = rt.total();
        }
      }
      for (const auto& [t, dr] : best_dr) {
        best_score[t] = std::max(best_score[t], psi.Score(dr, tau_m));
      }
    } else {
      // Pairwise: reuse DetourDistance per touched trajectory.
      const std::vector<graph::Settled> probe =
          query->BoundedSearch(site_node, tau_m, graph::Direction::kReverse);
      std::vector<TrajId> touched;
      for (const graph::Settled& st : probe) {
        for (const traj::Posting& p : store.postings(st.node)) {
          if (store.is_alive(p.traj)) touched.push_back(p.traj);
        }
      }
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
      for (TrajId t : touched) {
        const double dr =
            DetourDistance(store, query.get(), t, site_node, tau_m, mode);
        if (dr != graph::kInfDistance) {
          best_score[t] = std::max(best_score[t], psi.Score(dr, tau_m));
        }
      }
    }
  }
  double total = 0.0;
  for (TrajId t = 0; t < store.total_count(); ++t) {
    if (store.is_alive(t)) total += best_score[t];
  }
  return total;
}

uint64_t CoverageIndex::MemoryBytes() const {
  if (compressed_) return tc_arena_.bytes() + sc_arena_.bytes();
  return util::NestedVectorBytes(tc_) + util::NestedVectorBytes(sc_);
}

}  // namespace netclus::tops
