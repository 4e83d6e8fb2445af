#include "tops/fm_greedy.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "sketch/fm_sketch.h"
#include "util/logging.h"
#include "util/timer.h"

namespace netclus::tops {

FmGreedyResult FmGreedy(const CoverageIndex& coverage,
                        const FmGreedyConfig& config) {
  NC_CHECK(!coverage.oom()) << "FmGreedy on an OOM coverage index";
  FmGreedyResult result;
  const size_t n = coverage.num_sites();

  // Build one sketch per site from its trajectory cover, hashing each
  // trajectory once: row t of `hashed` holds the f words FmSketch::Add(t)
  // would OR in.
  util::WallTimer build_timer;
  const uint32_t f = config.num_sketches;
  std::vector<uint64_t> salts(f);
  for (uint32_t i = 0; i < f; ++i) {
    salts[i] = sketch::FmSketch::CopySalt(config.sketch_seed, i);
  }
  std::vector<uint32_t> hashed(coverage.num_trajectories() * f);
  for (size_t t = 0; t < coverage.num_trajectories(); ++t) {
    for (uint32_t i = 0; i < f; ++i) {
      hashed[t * f + i] = sketch::FmSketch::CopyBit(t, salts[i]);
    }
  }
  const std::span<const uint32_t> rows(hashed);
  std::vector<sketch::FmSketch> sketches;
  sketches.reserve(n);
  for (SiteId s = 0; s < n; ++s) {
    sketch::FmSketch sk(f, config.sketch_seed);
    coverage.TC(s).ForEach([&](const CoverEntry& e) {
      sk.AddHashed(rows.subspan(size_t{e.id} * f, f));
    });
    sketches.push_back(std::move(sk));
  }
  result.sketch_build_seconds = build_timer.Seconds();

  // Standalone utility estimates, used both for the scan order and as the
  // submodular upper bound on marginals.
  std::vector<double> standalone(n);
  for (SiteId s = 0; s < n; ++s) standalone[s] = sketches[s].Estimate();
  std::vector<SiteId> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](SiteId a, SiteId b) {
    return standalone[a] > standalone[b] || (standalone[a] == standalone[b] && a < b);
  });

  util::WallTimer solve_timer;
  sketch::FmSketch base(config.num_sketches, config.sketch_seed);
  double base_estimate = 0.0;
  std::vector<bool> selected(n, false);

  const uint32_t k = static_cast<uint32_t>(std::min<size_t>(config.k, n));
  for (uint32_t step = 0; step < k; ++step) {
    double best_marginal = -1.0;
    SiteId best = kInvalidSite;
    for (SiteId s : order) {
      if (selected[s]) continue;
      // Early termination: standalone utility bounds the marginal; the
      // order is descending, so every later site is bounded too.
      if (best != kInvalidSite && standalone[s] <= best_marginal) break;
      const double union_estimate = base.UnionEstimate(sketches[s]);
      ++result.union_operations;
      const double marginal = union_estimate - base_estimate;
      if (marginal > best_marginal) {
        best_marginal = marginal;
        best = s;
      }
    }
    if (best == kInvalidSite) break;
    selected[best] = true;
    base.Merge(sketches[best]);
    base_estimate = base.Estimate();
    result.selection.sites.push_back(best);
    result.selection.marginal_gains.push_back(best_marginal);
  }
  result.selection.solve_seconds = solve_timer.Seconds();
  result.estimated_utility = base_estimate;
  result.selection.utility = UtilityOf(coverage, PreferenceFunction::Binary(),
                                       result.selection.sites);
  return result;
}

}  // namespace netclus::tops
