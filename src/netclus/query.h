// The answer of a TOPS-Cluster query over the multi-resolution index
// (Sec. 5).
//
// Given (k, τ, ψ): pick instance p = ⌊log_{1+γ}(τ/τ_min)⌋; for every
// cluster representative r_i build the approximate trajectory cover
//   T̂C(r_i) = { T_j ∈ TL(g_i) ∪ TL(neighbors) : d̂_r(T_j, r_i) ≤ τ },
//   d̂_r(T_j, r_i) = d_r(T_j, c_j) + d_r(c_j, c_i) + d_r(c_i, r_i)   (Eq. 9)
// (taking the minimum estimate when T_j is reachable through several
// clusters); then run the *unchanged* solver family — Inc-Greedy,
// FM-greedy, cost / capacity / market-share greedy — on the representatives
// by wrapping T̂C in a tops::CoverageIndex. d̂_r ≥ d_r, so T̂C ⊆ TC and the
// Theorem 7 bounds hold.
//
// Queries are planned by exec::Planner and run by exec::Executor's
// CoverBuild → Solve → Assemble stages (src/exec/, docs/query_planning.md);
// Engine::Run and the serving layer are the in-process and served entry
// points over that one path. This header keeps only the result type they
// all return.
#ifndef NETCLUS_NETCLUS_QUERY_H_
#define NETCLUS_NETCLUS_QUERY_H_

#include <cstddef>
#include <cstdint>

#include "tops/inc_greedy.h"

namespace netclus::index {

struct QueryResult {
  tops::Selection selection;     ///< sites = real SiteIds (representatives)
  size_t instance_used = 0;
  size_t clusters_considered = 0;   ///< representatives entering the greedy
  /// T̂C construction cost attributed to this query. When the cover was
  /// shared by g queries of a batch each reports build/g; a cover served
  /// from the serving layer's CoverCache reports 0 (the building query
  /// already paid). `cover_shared` distinguishes the cases.
  double cover_build_seconds = 0.0;
  double total_seconds = 0.0;
  /// Σ |T̂C| working memory attributed to this query (amortized the same
  /// way as cover_build_seconds when the cover is shared).
  uint64_t transient_bytes = 0;
  /// True when this query's T̂C was reused rather than built privately
  /// (batch grouping or a CoverCache hit).
  bool cover_shared = false;
};

}  // namespace netclus::index

#endif  // NETCLUS_NETCLUS_QUERY_H_
