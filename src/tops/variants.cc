#include "tops/variants.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "util/float_bits.h"
#include "util/logging.h"
#include "util/timer.h"

namespace netclus::tops {

namespace {

// Sum of the `cap` largest `gains`, added in descending order. The top-cap
// multiset is well defined, so this order fixes the sum's bits whatever
// order the gains arrive in, and the sum can only shrink when the gains
// do — the property LazyGreedy needs. Reorders `gains`.
double TopCapSum(std::vector<double>& gains, size_t cap) {
  const size_t count = std::min(cap, gains.size());
  if (count < gains.size()) {
    std::nth_element(gains.begin(), gains.begin() + count, gains.end(),
                     std::greater<>());
  }
  std::sort(gains.begin(), gains.begin() + count, std::greater<>());
  double sum = 0.0;
  for (size_t i = 0; i < count; ++i) sum += gains[i];
  return sum;
}

// How many trajectories a site of this capacity may serve: ⌊capacity⌋
// clamped to [0, |TC(s)|]. A site never serves more than |TC(s)|, so the
// saturation changes no answer, and it keeps the conversion defined for
// +inf and huge capacities, whose cast to size_t is undefined. NaN and
// non-positive capacities serve nothing.
size_t CapacityCount(double capacity, size_t tc_size) {
  const double floored = std::floor(capacity);
  if (!(floored > 0.0)) return 0;
  return floored >= static_cast<double>(tc_size)
             ? tc_size
             : static_cast<size_t>(floored);
}

// Per-trajectory utility vector shared by the variant greedies, with each
// solver family's marginal and apply step. A marginal and the gain of
// applying the same site against the same state are bit-identical.
class UtilityState {
 public:
  UtilityState(const CoverageIndex& coverage, const PreferenceFunction& psi)
      : coverage_(coverage), psi_(psi), tau_(coverage.tau_m()),
        utility_(coverage.num_trajectories(), 0.0) {}

  // Σ max(0, ψ − U_j) over TC(s), in TC order.
  double Marginal(SiteId s) const {
    double gain = 0.0;
    coverage_.TC(s).ForEach([&](const CoverEntry& e) {
      const double score = psi_.Score(e.dr_m, tau_);
      if (score > utility_[e.id]) gain += score - utility_[e.id];
    });
    return gain;
  }

  double Apply(SiteId s) {
    double gain = 0.0;
    coverage_.TC(s).ForEach([&](const CoverEntry& e) {
      const double score = psi_.Score(e.dr_m, tau_);
      if (score > utility_[e.id]) {
        gain += score - utility_[e.id];
        utility_[e.id] = score;
      }
    });
    return gain;
  }

  // Capped marginal (Sec. 7.2, α_i = min(|TC(s_i)|, cap(s_i))): the sum of
  // the top-cap per-trajectory gains.
  double CappedMarginal(SiteId s, double capacity) {
    const auto tc = coverage_.TC(s);
    gains_.clear();
    tc.ForEach([&](const CoverEntry& e) {
      const double score = psi_.Score(e.dr_m, tau_);
      if (score > utility_[e.id]) gains_.push_back(score - utility_[e.id]);
    });
    return TopCapSum(gains_, CapacityCount(capacity, tc.size()));
  }

  // Serves the site's top-cap trajectories; returns (gain, served count).
  std::pair<double, uint32_t> ApplyCapped(SiteId s, double capacity) {
    const auto tc = coverage_.TC(s);
    ranked_.clear();
    tc.ForEach([&](const CoverEntry& e) {
      const double score = psi_.Score(e.dr_m, tau_);
      if (score > utility_[e.id]) {
        ranked_.emplace_back(score - utility_[e.id], e.id);
      }
    });
    std::sort(ranked_.begin(), ranked_.end(), std::greater<>());
    const size_t cap = CapacityCount(capacity, tc.size());
    if (ranked_.size() > cap) ranked_.resize(cap);
    double gain = 0.0;
    for (const auto& [g, t] : ranked_) {
      utility_[t] += g;
      gain += g;
    }
    return {gain, static_cast<uint32_t>(ranked_.size())};
  }

 private:
  const CoverageIndex& coverage_;
  const PreferenceFunction& psi_;
  const double tau_;
  std::vector<double> utility_;
  std::vector<double> gains_;                        // scratch
  std::vector<std::pair<double, uint32_t>> ranked_;  // scratch: (gain, traj)
};

// The one argmax of the variant greedies: lazy (CELF) evaluation, after
// Minoux's accelerated greedy and Leskovec et al. (KDD 2007), as GDSP's
// RunLazyExact. Candidates sit in a max-heap ordered by value descending,
// then site id ascending, each value tagged with the round it was computed
// in. Only a stale top is re-evaluated, until the top is fresh for the
// current round; that top is the round's argmax. Why that is exact:
//
//  * Stale values are upper bounds. A marginal sums max(0, ψ − U_j) over a
//    fixed TC order (capacity: its top-cap gains in descending order, see
//    TopCapSum). When U grows each term shrinks or drops out, and IEEE
//    subtraction and addition are monotone, so a value from an earlier
//    round bounds the fresh one from above. Dividing by a positive cost
//    keeps that.
//  * Ties. The (value desc, id asc) order reproduces the eager scan's
//    first strict maximum in id order: a site with the same fresh value
//    and a smaller id holds a stale value at least as large, so it ranks
//    above the top until it is fresh itself. Equal values compare with
//    util::BitEqual, as tops::CoverOrder does.
//  * Unaffordable sites. A popped site that `drop` rejects (cost above what
//    remains of the budget) leaves for good, as the eager exclusion does:
//    the remaining budget only shrinks.
//
// Stop rules stay with the solvers: the cost solvers stop at a fresh top
// <= 0, capacity runs k rounds even at zero marginals, and market share
// stops at its target, at max_sites or at a fresh top <= 0.
class LazyGreedy {
 public:
  struct Pick {
    SiteId site = kInvalidSite;  ///< kInvalidSite: no candidate left
    double value = 0.0;
  };

  /// Adds `site` with a value fresh for the current round.
  void Push(SiteId site, double value) {
    heap_.push_back({value, site, round_});
    std::push_heap(heap_.begin(), heap_.end(), RanksBelow());
  }

  /// Removes and returns the candidate with the largest fresh value.
  /// `value(s)` re-evaluates a stale s; `drop(s)` removes s for good. A
  /// returned pick closes the round: every value left is stale from then.
  template <typename Value, typename Drop>
  Pick PopBest(Value&& value, Drop&& drop) {
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), RanksBelow());
      Candidate& top = heap_.back();
      if (drop(top.site)) {
        heap_.pop_back();
        continue;
      }
      if (top.round == round_) {
        const Pick pick{top.site, top.value};
        heap_.pop_back();
        ++round_;
        return pick;
      }
      top.value = value(top.site);
      top.round = round_;
      std::push_heap(heap_.begin(), heap_.end(), RanksBelow());
    }
    return {};
  }

 private:
  struct Candidate {
    double value;
    SiteId site;
    uint32_t round;
  };
  // Heap "less": a ranks below b. The heap's front is the largest value,
  // and among bit-equal values the smallest id.
  struct RanksBelow {
    bool operator()(const Candidate& a, const Candidate& b) const {
      return a.value < b.value ||
             (util::BitEqual(a.value, b.value) && a.site > b.site);
    }
  };

  std::vector<Candidate> heap_;
  uint32_t round_ = 0;
};

// Budgeted greedy on marginal per unit cost, pruning unaffordable sites
// (Sec. 7.1), then the s_max guard. `marginal(s)` and `apply(s)` evaluate
// and select s against the solver's state.
template <typename Marginal, typename Apply>
CostResult BudgetedGreedy(size_t n, const std::vector<double>& site_costs,
                          double budget, Marginal&& marginal, Apply&& apply) {
  CostResult result;
  std::vector<double> standalone(n, 0.0);
  LazyGreedy lazy;
  for (SiteId s = 0; s < n; ++s) {
    const double cost = site_costs[s];
    NC_CHECK_GT(cost, 0.0);
    if (cost > budget) continue;  // pruned from S per Sec. 7.1
    standalone[s] = marginal(s);
    lazy.Push(s, standalone[s] / cost);
  }
  double spent = 0.0;
  while (true) {
    const double remaining = budget - spent;
    const LazyGreedy::Pick best = lazy.PopBest(
        [&](SiteId s) { return marginal(s) / site_costs[s]; },
        [&](SiteId s) { return site_costs[s] > remaining; });
    if (best.site == kInvalidSite || best.value <= 0.0) break;
    const double gain = apply(best.site);
    spent += site_costs[best.site];
    result.selection.sites.push_back(best.site);
    result.selection.marginal_gains.push_back(gain);
    result.selection.utility += gain;
  }
  result.total_cost = spent;

  // The s_max guard: the single affordable site with maximal standalone
  // utility replaces the greedy set when it is better. This is what lifts
  // the bound to (1 - 1/e) / 2 [Khuller et al. 24]. A site's round-0
  // marginal is its standalone utility.
  SiteId smax = kInvalidSite;
  double smax_utility = 0.0;
  for (SiteId s = 0; s < n; ++s) {
    if (site_costs[s] > budget) continue;
    if (smax == kInvalidSite || standalone[s] > smax_utility) {
      smax = s;
      smax_utility = standalone[s];
    }
  }
  if (smax != kInvalidSite && smax_utility > result.selection.utility) {
    result.used_single_site_guard = true;
    result.selection.sites = {smax};
    result.selection.marginal_gains = {smax_utility};
    result.selection.utility = smax_utility;
    result.total_cost = site_costs[smax];
  }
  return result;
}

constexpr auto kKeepAll = [](SiteId) { return false; };

}  // namespace

CostResult CostGreedy(const CoverageIndex& coverage,
                      const PreferenceFunction& psi, const CostConfig& config) {
  NC_CHECK(!coverage.oom());
  NC_CHECK_EQ(config.site_costs.size(), coverage.num_sites());
  util::WallTimer timer;
  UtilityState state(coverage, psi);
  CostResult result = BudgetedGreedy(
      coverage.num_sites(), config.site_costs, config.budget,
      [&](SiteId s) { return state.Marginal(s); },
      [&](SiteId s) { return state.Apply(s); });
  result.selection.solve_seconds = timer.Seconds();
  return result;
}

std::vector<double> DrawNormalCosts(size_t num_sites, double mean,
                                    double stddev, double min_cost,
                                    uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> costs(num_sites);
  for (double& c : costs) c = std::max(min_cost, rng.Normal(mean, stddev));
  return costs;
}

CapacityResult CapacityGreedy(const CoverageIndex& coverage,
                              const PreferenceFunction& psi,
                              const CapacityConfig& config) {
  NC_CHECK(!coverage.oom());
  NC_CHECK_EQ(config.site_capacities.size(), coverage.num_sites());
  util::WallTimer timer;
  CapacityResult result;
  UtilityState state(coverage, psi);
  const std::vector<double>& caps = config.site_capacities;
  const size_t n = coverage.num_sites();
  const auto marginal = [&](SiteId s) {
    return state.CappedMarginal(s, caps[s]);
  };
  LazyGreedy lazy;
  for (SiteId s = 0; s < n; ++s) lazy.Push(s, marginal(s));

  // k <= n, so every round has a candidate left.
  const uint32_t k = static_cast<uint32_t>(std::min<size_t>(config.k, n));
  for (uint32_t step = 0; step < k; ++step) {
    const SiteId best = lazy.PopBest(marginal, kKeepAll).site;
    const auto [gain, served] = state.ApplyCapped(best, caps[best]);
    result.selection.sites.push_back(best);
    result.selection.marginal_gains.push_back(gain);
    result.selection.utility += gain;
    result.served_counts.push_back(served);
  }
  result.selection.solve_seconds = timer.Seconds();
  return result;
}

CostResult CostCapacityGreedy(const CoverageIndex& coverage,
                              const PreferenceFunction& psi,
                              const CostCapacityConfig& config) {
  NC_CHECK(!coverage.oom());
  NC_CHECK_EQ(config.site_costs.size(), coverage.num_sites());
  NC_CHECK_EQ(config.site_capacities.size(), coverage.num_sites());
  util::WallTimer timer;
  UtilityState state(coverage, psi);
  const std::vector<double>& caps = config.site_capacities;
  // The guard's standalone utilities carry the capacity cap too.
  CostResult result = BudgetedGreedy(
      coverage.num_sites(), config.site_costs, config.budget,
      [&](SiteId s) { return state.CappedMarginal(s, caps[s]); },
      [&](SiteId s) { return state.ApplyCapped(s, caps[s]).first; });
  result.selection.solve_seconds = timer.Seconds();
  return result;
}

std::vector<double> DrawNormalCapacities(size_t num_sites, double mean,
                                         double stddev, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> caps(num_sites);
  for (double& c : caps) c = std::max(1.0, rng.Normal(mean, stddev));
  return caps;
}

MarketShareResult MarketShareGreedy(const CoverageIndex& coverage,
                                    const MarketShareConfig& config) {
  NC_CHECK(!coverage.oom());
  NC_CHECK_GT(config.beta, 0.0);
  NC_CHECK_LE(config.beta, 1.0);
  util::WallTimer timer;
  MarketShareResult result;
  const PreferenceFunction psi = PreferenceFunction::Binary();
  UtilityState state(coverage, psi);
  const size_t n = coverage.num_sites();
  const size_t m = coverage.num_live_trajectories();
  const double target = config.beta * static_cast<double>(m);
  const auto marginal = [&](SiteId s) { return state.Marginal(s); };
  LazyGreedy lazy;
  for (SiteId s = 0; s < n; ++s) lazy.Push(s, marginal(s));

  double covered = 0.0;
  while (covered + 1e-9 < target) {
    if (config.max_sites != 0 &&
        result.selection.sites.size() >= config.max_sites) {
      break;
    }
    const LazyGreedy::Pick best = lazy.PopBest(marginal, kKeepAll);
    if (best.site == kInvalidSite || best.value <= 0.0) break;  // saturated
    const double gain = state.Apply(best.site);
    covered += gain;
    result.selection.sites.push_back(best.site);
    result.selection.marginal_gains.push_back(gain);
  }
  result.selection.utility = covered;
  result.covered_fraction = m == 0 ? 0.0 : covered / static_cast<double>(m);
  result.reached_target = covered + 1e-9 >= target;
  result.selection.solve_seconds = timer.Seconds();
  return result;
}

}  // namespace netclus::tops
