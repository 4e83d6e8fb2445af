// Differential suite for the query planning & staged execution layer
// (src/exec) and its serving-side cover sharing (serve::CoverCache).
//
// The load-bearing property: the planner/executor path is bit-identical
// to the pre-refactor monolithic pipeline for every variant (plain TOPS
// under several ψ, existing services, FM and the FM+ES fallback,
// TOPS-COST, TOPS-CAPACITY), at 1 and 4 threads, under every distance
// backend, and with cover sharing on or off. `LegacyTops`/`LegacyCost`/
// `LegacyCapacity` below are line-for-line replicas of the pre-refactor
// query.cc pipeline built from the still-public pieces
// (exec::BuildCover + the solver family), so the executor is checked
// against the original algorithm, not against itself.
//
// The serving replay tests at the bottom must also be TSan-clean (the CI
// tsan job runs this file under -fsanitize=thread).
#include <algorithm>
#include <atomic>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "api/engine.h"
#include "exec/cover_build.h"
#include "exec/executor.h"
#include "exec/plan.h"
#include "exec/planner.h"
#include "gtest/gtest.h"
#include "serve/query_cache.h"
#include "serve/server.h"
#include "test_helpers.h"
#include "tops/variants.h"
#include "traj/trip_generator.h"
#include "util/float_bits.h"
#include "util/rng.h"

namespace netclus {
namespace {

using tops::PreferenceFunction;
using tops::SiteId;

Engine MakeEngine(graph::spf::BackendKind backend =
                      graph::spf::BackendKind::kDefault,
                  uint32_t threads = 0, uint32_t dim = 12,
                  uint64_t seed = 4711) {
  graph::RoadNetwork net = test::MakeGridNetwork(dim, dim, 100.0);
  tops::SiteSet sites = tops::SiteSet::AllNodes(net);
  Engine::Options options;
  options.index.gamma = 0.75;
  options.index.tau_min_m = 300.0;
  options.index.tau_max_m = 3000.0;
  options.distance_backend = backend;
  options.threads = threads;
  Engine engine(std::move(net), std::move(sites), options);
  util::Rng rng(seed);
  for (int i = 0; i < 90; ++i) {
    const auto src =
        static_cast<graph::NodeId>(rng.UniformInt(engine.network().num_nodes()));
    const auto dst =
        static_cast<graph::NodeId>(rng.UniformInt(engine.network().num_nodes()));
    if (src == dst) continue;
    auto path = traj::RoutePerturbed(engine.network(), src, dst, 0.3, seed + i);
    if (path.size() >= 2) engine.AddTrajectory(std::move(path));
  }
  engine.BuildIndex();
  return engine;
}

Engine::QuerySpec Spec(uint32_t k, double tau_m) {
  Engine::QuerySpec spec;
  spec.k = k;
  spec.tau_m = tau_m;
  return spec;
}

// ---------------------------------------------------------------------------
// Replicas of the pre-refactor query.cc pipeline (the "legacy path").
// ---------------------------------------------------------------------------

index::QueryResult FinishLegacy(const tops::Selection& clustered,
                                const std::vector<SiteId>& rep_sites,
                                size_t instance) {
  index::QueryResult out;
  out.selection = clustered;
  out.selection.sites.clear();
  for (SiteId rep_index : clustered.sites) {
    out.selection.sites.push_back(rep_sites[rep_index]);
  }
  out.instance_used = instance;
  out.clusters_considered = rep_sites.size();
  return out;
}

index::QueryResult LegacyTops(const Engine& engine,
                              const Engine::QuerySpec& spec,
                              uint32_t threads) {
  const index::MultiIndex& index = engine.index();
  const size_t p = index.InstanceFor(spec.tau_m);
  const exec::BuiltCover cover =
      exec::BuildCover(index, engine.store(), spec.tau_m, p, threads);
  const std::vector<SiteId>& rep_sites = cover.rep_sites;

  std::unordered_map<SiteId, SiteId> rep_index_of;
  for (SiteId i = 0; i < rep_sites.size(); ++i) rep_index_of[rep_sites[i]] = i;
  const index::ClusterIndex& instance = index.instance(p);
  std::vector<SiteId> existing_reps;
  for (SiteId es : spec.existing_services) {
    const uint32_t g = instance.cluster_of(engine.sites().node(es));
    const SiteId rep = instance.cluster(g).representative;
    if (rep == tops::kInvalidSite) continue;
    auto it = rep_index_of.find(rep);
    if (it != rep_index_of.end()) existing_reps.push_back(it->second);
  }

  tops::Selection clustered;
  if (spec.use_fm && spec.psi.is_binary() && existing_reps.empty()) {
    tops::FmGreedyConfig fm_config;
    fm_config.k = spec.k;
    fm_config.num_sketches = exec::PlanRequest().fm_copies;
    clustered = FmGreedy(cover.approx, fm_config).selection;
  } else {
    tops::GreedyConfig greedy_config;
    greedy_config.k = spec.k;
    greedy_config.existing_services = existing_reps;
    greedy_config.threads = threads;
    clustered = IncGreedy(cover.approx, spec.psi, greedy_config);
  }
  return FinishLegacy(clustered, rep_sites, p);
}

index::QueryResult LegacyCost(const Engine& engine,
                              const Engine::QuerySpec& spec,
                              uint32_t threads) {
  const index::MultiIndex& index = engine.index();
  const size_t p = index.InstanceFor(spec.tau_m);
  const exec::BuiltCover cover =
      exec::BuildCover(index, engine.store(), spec.tau_m, p, threads);
  tops::CostConfig cost_config;
  cost_config.budget = spec.budget;
  for (SiteId site : cover.rep_sites) {
    cost_config.site_costs.push_back(spec.site_costs[site]);
  }
  const tops::CostResult cost = CostGreedy(cover.approx, spec.psi, cost_config);
  return FinishLegacy(cost.selection, cover.rep_sites, p);
}

index::QueryResult LegacyCapacity(const Engine& engine,
                                  const Engine::QuerySpec& spec,
                                  uint32_t threads) {
  const index::MultiIndex& index = engine.index();
  const size_t p = index.InstanceFor(spec.tau_m);
  const exec::BuiltCover cover =
      exec::BuildCover(index, engine.store(), spec.tau_m, p, threads);
  tops::CapacityConfig capacity_config;
  capacity_config.k = spec.k;
  for (SiteId site : cover.rep_sites) {
    capacity_config.site_capacities.push_back(spec.site_capacities[site]);
  }
  const tops::CapacityResult capacity =
      CapacityGreedy(cover.approx, spec.psi, capacity_config);
  return FinishLegacy(capacity.selection, cover.rep_sites, p);
}

void ExpectBitIdentical(const index::QueryResult& expected,
                        const index::QueryResult& actual,
                        const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(expected.selection.sites, actual.selection.sites);
  EXPECT_EQ(expected.selection.marginal_gains, actual.selection.marginal_gains);
  EXPECT_EQ(expected.selection.utility, actual.selection.utility);
  EXPECT_EQ(expected.selection.base_utility, actual.selection.base_utility);
  EXPECT_EQ(expected.instance_used, actual.instance_used);
  EXPECT_EQ(expected.clusters_considered, actual.clusters_considered);
}

// ---------------------------------------------------------------------------
// Tentpole acceptance: executor ≡ legacy, across variants × threads ×
// distance backends.
// ---------------------------------------------------------------------------

TEST(Exec, ExecutorMatchesLegacyAcrossVariantsThreadsAndBackends) {
  for (const graph::spf::BackendKind backend :
       {graph::spf::BackendKind::kDijkstra,
        graph::spf::BackendKind::kBidirectional,
        graph::spf::BackendKind::kContractionHierarchies}) {
    for (const uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE("backend " + std::to_string(static_cast<int>(backend)) +
                   " threads " + std::to_string(threads));
      const Engine engine = MakeEngine(backend, threads);

      // A reusable ES set: the plain answer's sites, reversed so the
      // caller order is deliberately non-canonical.
      std::vector<SiteId> es = engine.Run(Spec(3, 800.0)).selection.sites;
      std::reverse(es.begin(), es.end());

      struct Case {
        const char* name;
        PreferenceFunction psi;
        uint32_t k;
        double tau;
        bool use_fm;
        std::vector<SiteId> es;
      };
      const std::vector<Case> cases = {
          {"binary", PreferenceFunction::Binary(), 5, 800.0, false, {}},
          {"linear", PreferenceFunction::Linear(), 4, 600.0, false, {}},
          {"convex2", PreferenceFunction::ConvexProbability(2.0), 5, 1000.0,
           false, {}},
          {"exponential", PreferenceFunction::Exponential(3.0), 3, 1400.0,
           false, {}},
          {"existing-services", PreferenceFunction::Binary(), 3, 800.0, false,
           es},
          {"fm", PreferenceFunction::Binary(), 5, 900.0, true, {}},
          {"fm-es-fallback", PreferenceFunction::Binary(), 3, 900.0, true, es},
      };
      for (const Case& c : cases) {
        Engine::QuerySpec spec = Spec(c.k, c.tau);
        spec.psi = c.psi;
        spec.use_fm = c.use_fm;
        spec.existing_services = c.es;
        ExpectBitIdentical(LegacyTops(engine, spec, threads), engine.Run(spec),
                           c.name);
      }

      Engine::QuerySpec cost = Spec(5, 800.0);
      cost.variant = exec::QueryVariant::kTopsCost;
      cost.site_costs =
          tops::DrawNormalCosts(engine.sites().size(), 1.0, 0.4, 0.1, 63);
      cost.budget = 4.0;
      ExpectBitIdentical(LegacyCost(engine, cost, threads), engine.Run(cost),
                         "cost");
      Engine::QuerySpec capacity = Spec(4, 800.0);
      capacity.variant = exec::QueryVariant::kTopsCapacity;
      capacity.site_capacities.assign(engine.sites().size(), 8.0);
      ExpectBitIdentical(LegacyCapacity(engine, capacity, threads),
                         engine.Run(capacity), "capacity");
    }
  }
}

// ---------------------------------------------------------------------------
// Batch cover sharing.
// ---------------------------------------------------------------------------

std::vector<Engine::QuerySpec> DuplicateTauBatch(size_t count) {
  // ≤ 4 distinct τ values across the batch — the acceptance shape.
  const double taus[] = {600.0, 900.0, 1200.0, 1500.0};
  std::vector<Engine::QuerySpec> specs;
  for (size_t i = 0; i < count; ++i) {
    Engine::QuerySpec spec;
    spec.k = 2 + static_cast<uint32_t>(i % 5);
    spec.tau_m = taus[i % 4];
    if (i % 7 == 3) spec.psi = PreferenceFunction::Linear();
    specs.push_back(spec);
  }
  return specs;
}

TEST(Exec, TopKBatchSharesCoversAndMatchesSequentialTopK) {
  for (const uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const Engine engine = MakeEngine(graph::spf::BackendKind::kDefault, threads);
    const size_t num_sites = engine.sites().size();
    std::vector<Engine::QuerySpec> specs = DuplicateTauBatch(32);
    // A cost and a capacity spec share a fifth τ: the batch must plan
    // each by its own variant, not as plain TOPS.
    Engine::QuerySpec cost = Spec(5, 1000.0);
    cost.variant = exec::QueryVariant::kTopsCost;
    cost.site_costs.assign(num_sites, 1.0);
    cost.budget = 3.0;
    specs.push_back(cost);
    Engine::QuerySpec capacity = Spec(5, 1000.0);
    capacity.variant = exec::QueryVariant::kTopsCapacity;
    capacity.site_capacities.assign(num_sites, 2.0);
    specs.push_back(capacity);

    const auto before = engine.ExecStats();
    const std::vector<index::QueryResult> batch = engine.TopKBatch(specs);
    const auto after = engine.ExecStats();
    ASSERT_EQ(batch.size(), specs.size());

    // Exactly one cover build per distinct τ (all five map to distinct
    // (instance, τ) keys here), every other query shared.
    EXPECT_EQ(after.covers_built - before.covers_built, 5u);
    EXPECT_EQ(after.covers_shared - before.covers_shared, specs.size() - 5);

    for (size_t i = 32; i < specs.size(); ++i) {
      const index::QueryResult single = engine.Run(specs[i]);
      ExpectBitIdentical(single, batch[i], "variant spec " + std::to_string(i));
      EXPECT_TRUE(batch[i].cover_shared);
      EXPECT_EQ(batch[i].transient_bytes, single.transient_bytes / 2);
    }

    // A malformed payload fails the whole batch, as it fails Run.
    Engine::QuerySpec malformed = cost;
    malformed.site_costs = {1.0, 1.0, 1.0};
    const std::vector<Engine::QuerySpec> bad = {specs[0], malformed};
    EXPECT_THROW(engine.Run(malformed), std::invalid_argument);
    EXPECT_THROW(engine.TopKBatch(bad), std::invalid_argument);

    for (size_t i = 0; i < 32; ++i) {
      const index::QueryResult single = engine.Run(specs[i]);
      ExpectBitIdentical(single, batch[i], "spec " + std::to_string(i));
      // Attribution: each of the 8 sharers of a τ reports 1/8 of the
      // transient bytes a private build would have charged, and flags the
      // sharing. The cover is deterministic, so the private build's bytes
      // are exactly the single-query measurement.
      EXPECT_TRUE(batch[i].cover_shared);
      EXPECT_FALSE(single.cover_shared);
      EXPECT_EQ(batch[i].transient_bytes, single.transient_bytes / 8);
      // Self-consistent timing invariants only (never compare wall clocks
      // across separate runs — load skew makes that flaky).
      EXPECT_GT(batch[i].cover_build_seconds, 0.0);
      EXPECT_LE(batch[i].cover_build_seconds, batch[i].total_seconds);
      // Every sharer of a τ group reports the same amortized build cost
      // (spec i % 4 is the group's first member).
      EXPECT_EQ(batch[i].cover_build_seconds,
                batch[i % 4].cover_build_seconds);
    }
  }
}

TEST(Exec, SingleQueryAttributionIsUnshared) {
  const Engine engine = MakeEngine();
  const index::QueryResult result = engine.Run(Spec(5, 800.0));
  EXPECT_FALSE(result.cover_shared);
  EXPECT_GT(result.transient_bytes, 0u);
  EXPECT_GT(result.cover_build_seconds, 0.0);
  EXPECT_GE(result.total_seconds, result.cover_build_seconds);
}

// ---------------------------------------------------------------------------
// Plan canonicalization & fingerprints.
// ---------------------------------------------------------------------------

TEST(Exec, PlanKeyCanonicalizesEquivalentRequests) {
  exec::PlanRequest a;
  a.k = 5;
  a.tau_m = 800.0;
  a.existing_services = {3, 1, 2};
  exec::PlanRequest b = a;
  b.existing_services = {2, 3, 1, 1};
  EXPECT_EQ(exec::CanonicalPlanKey(a, 2), exec::CanonicalPlanKey(b, 2));
  EXPECT_EQ(exec::CanonicalPlanKey(a, 2).Fingerprint(),
            exec::CanonicalPlanKey(b, 2).Fingerprint());

  // ψ normalization: ConvexProbability(1) is bit-equivalent to Linear.
  exec::PlanRequest convex1 = a;
  convex1.psi = PreferenceFunction::ConvexProbability(1.0);
  exec::PlanRequest linear = a;
  linear.psi = PreferenceFunction::Linear();
  EXPECT_EQ(exec::CanonicalPlanKey(convex1, 2),
            exec::CanonicalPlanKey(linear, 2));

  // -0.0 τ folds onto 0.0 (they compare equal everywhere execution looks).
  exec::PlanRequest zero = a;
  zero.tau_m = 0.0;
  exec::PlanRequest negzero = a;
  negzero.tau_m = -0.0;
  EXPECT_EQ(exec::CanonicalPlanKey(zero, 0), exec::CanonicalPlanKey(negzero, 0));

  // fm_copies is irrelevant — and therefore canonicalized away — when FM
  // is off.
  exec::PlanRequest copies = a;
  copies.fm_copies = 99;
  EXPECT_EQ(exec::CanonicalPlanKey(a, 2), exec::CanonicalPlanKey(copies, 2));
  copies.use_fm = true;
  exec::PlanRequest fm = a;
  fm.use_fm = true;
  EXPECT_FALSE(exec::CanonicalPlanKey(fm, 2) ==
               exec::CanonicalPlanKey(copies, 2));

  // Genuinely different requests split.
  exec::PlanRequest other_tau = a;
  other_tau.tau_m = 900.0;
  EXPECT_FALSE(exec::CanonicalPlanKey(a, 2) ==
               exec::CanonicalPlanKey(other_tau, 2));
  EXPECT_FALSE(exec::CanonicalPlanKey(a, 2) == exec::CanonicalPlanKey(a, 3));
}

TEST(Exec, PsiNormalizationIsBitExact) {
  // NormalizePsi rewrites ConvexProbability(1) → Linear; the cache then
  // serves either spelling from one entry, so their scores must be
  // bit-for-bit equal (std::pow(x, 1.0) == x). This pins the platform
  // assumption the normalization relies on.
  const PreferenceFunction convex1 = PreferenceFunction::ConvexProbability(1.0);
  const PreferenceFunction linear = PreferenceFunction::Linear();
  EXPECT_EQ(exec::NormalizePsi(convex1).kind(), linear.kind());
  EXPECT_EQ(exec::NormalizePsi(PreferenceFunction::ConvexProbability(2.0)).kind(),
            PreferenceFunction::Kind::kConvexProbability);
  for (double tau : {1.0, 750.0, 3333.3}) {
    for (int i = 0; i <= 1000; ++i) {
      const double d = tau * static_cast<double>(i) / 1000.0 * 1.001;
      EXPECT_EQ(convex1.Score(d, tau), linear.Score(d, tau))
          << "d=" << d << " tau=" << tau;
    }
  }
}

TEST(Exec, PlannerResolvesInstanceSolverAndFallback) {
  const Engine engine = MakeEngine();
  exec::ExecContext ctx;
  const exec::Planner planner(&ctx);

  exec::PlanRequest request;
  request.k = 5;
  request.tau_m = 800.0;
  const exec::QueryPlan plain = planner.Plan(request, engine.index(), 1);
  EXPECT_EQ(plain.instance, engine.index().InstanceFor(800.0));
  EXPECT_EQ(plain.solver, exec::SolverKind::kIncGreedy);
  EXPECT_TRUE(plain.cacheable);
  EXPECT_FALSE(plain.fm_fallback);

  request.use_fm = true;
  const exec::QueryPlan fm = planner.Plan(request, engine.index(), 1);
  EXPECT_EQ(fm.solver, exec::SolverKind::kFmGreedy);

  request.existing_services = {1, 2};
  const exec::QueryPlan fallback = planner.Plan(request, engine.index(), 1);
  EXPECT_EQ(fallback.solver, exec::SolverKind::kIncGreedy);
  EXPECT_TRUE(fallback.fm_fallback);

  exec::PlanRequest cost;
  cost.variant = exec::QueryVariant::kTopsCost;
  const exec::QueryPlan cost_plan = planner.Plan(cost, engine.index(), 1);
  EXPECT_EQ(cost_plan.solver, exec::SolverKind::kCostGreedy);
  EXPECT_FALSE(cost_plan.cacheable);

  // Batch-aware thread allocation: one thread per query once the batch
  // covers the worker budget, the full budget otherwise.
  exec::PlanRequest threaded = request;
  threaded.threads = 4;
  EXPECT_EQ(planner.Plan(threaded, engine.index(), 8).threads, 1u);
  EXPECT_EQ(planner.Plan(threaded, engine.index(), 2).threads, 4u);
}

TEST(Exec, FmFallbackRespectsExistingServices) {
  const Engine engine = MakeEngine();
  const std::vector<SiteId> es = engine.Run(Spec(2, 800.0)).selection.sites;
  // FM + ES falls back to Inc-Greedy, so the answer equals the non-FM
  // query (and never re-selects the existing services).
  Engine::QuerySpec spec = Spec(3, 800.0);
  spec.existing_services = es;
  const index::QueryResult without_fm = engine.Run(spec);
  spec.use_fm = true;
  const index::QueryResult with_fm = engine.Run(spec);
  ExpectBitIdentical(without_fm, with_fm, "fallback equals inc-greedy");
  for (SiteId s : with_fm.selection.sites) {
    EXPECT_EQ(std::find(es.begin(), es.end(), s), es.end());
  }
  EXPECT_GE(engine.ExecStats().fm_fallbacks, 1u);
}

TEST(Exec, StageInstrumentsAccumulateAndMatchTheExport) {
  const Engine engine = MakeEngine();
  (void)engine.Run(Spec(5, 600.0));
  (void)engine.Run(Spec(5, 1500.0));
  const exec::ExecStats stats = engine.ExecStats();
  EXPECT_EQ(stats.plan.count, 2u);
  EXPECT_EQ(stats.cover_build.count, 2u);
  EXPECT_EQ(stats.solve.count, 2u);
  EXPECT_EQ(stats.assemble.count, 2u);
  EXPECT_EQ(stats.queue_wait.count, 0u);
  EXPECT_EQ(stats.covers_built, 2u);
  EXPECT_GT(stats.cover_build.total_seconds, 0.0);
  // ExecStats reads the very instruments DumpMetrics exports: one record
  // per number.
  const std::string prom = engine.DumpMetrics();
  EXPECT_NE(prom.find("netclus_exec_stage_seconds_count{stage=\"plan\"} 2\n"),
            std::string::npos);
  EXPECT_NE(prom.find("netclus_exec_covers_built_total 2\n"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Cover finalisation: exec::BuildCover and CoverageIndex::FromCovers against
// a serial reference of Eq. 9 written out here, on an index carrying Sec. 6
// overlays.
// ---------------------------------------------------------------------------

// The (d_r, id) order spelled out locally rather than taken from
// tops::CoverOrder, so the reference shares no code with what it checks.
bool ByDistanceThenId(const tops::CoverEntry& a, const tops::CoverEntry& b) {
  return std::tie(a.dr_m, a.id) < std::tie(b.dr_m, b.id);
}

struct ReferenceCover {
  std::vector<SiteId> rep_sites;
  std::vector<std::vector<tops::CoverEntry>> tc;  // per representative
  std::vector<std::vector<tops::CoverEntry>> sc;  // per trajectory
};

// T̂C by the definition: for every representative, the minimum d̂_r over
// the home cluster's TL and every CL neighbor's TL (walked through the
// TL iterator, not the bulk ForEach BuildCover uses), kept when ≤ τ; SC
// by inverting it. One thread, std::map, sort at the end.
ReferenceCover SerialReferenceCover(const Engine& engine, size_t instance_id,
                                    double tau_m) {
  const index::ClusterIndex& instance = engine.index().instance(instance_id);
  const traj::TrajectoryStore& store = engine.store();
  ReferenceCover ref;
  for (uint32_t g = 0; g < instance.num_clusters(); ++g) {
    const index::Cluster& home = instance.cluster(g);
    if (home.representative == tops::kInvalidSite) continue;
    std::map<traj::TrajId, float> best;
    const auto offer = [&](const index::TlList& tl, float base) {
      for (const index::TlEntry& e : tl) {
        if (!store.is_alive(e.traj)) continue;
        const float est = e.dr_m + base;
        if (est > tau_m) continue;
        const auto [it, fresh] = best.emplace(e.traj, est);
        if (!fresh) it->second = std::min(it->second, est);
      }
    };
    offer(home.tl, home.rep_rt_m);
    for (const index::ClEntry& nb : home.cl) {
      offer(instance.cluster(nb.cluster).tl, nb.dr_m + home.rep_rt_m);
    }
    std::vector<tops::CoverEntry> cover;
    for (const auto& [traj, dr] : best) cover.push_back({traj, dr});
    std::sort(cover.begin(), cover.end(), ByDistanceThenId);
    ref.rep_sites.push_back(home.representative);
    ref.tc.push_back(std::move(cover));
  }
  ref.sc.resize(store.total_count());
  for (SiteId r = 0; r < ref.tc.size(); ++r) {
    for (const tops::CoverEntry& e : ref.tc[r]) {
      ref.sc[e.id].push_back({r, e.dr_m});
    }
  }
  for (auto& list : ref.sc) std::sort(list.begin(), list.end(), ByDistanceThenId);
  return ref;
}

void ExpectListEq(tops::CoverList got,
                  const std::vector<tops::CoverEntry>& want,
                  const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << where << " [" << i << "]";
    EXPECT_EQ(util::FloatBits(got[i].dr_m), util::FloatBits(want[i].dr_m))
        << where << " [" << i << "]";
  }
}

void ExpectMatchesReference(const tops::CoverageIndex& got,
                            const ReferenceCover& ref,
                            const std::string& where) {
  ASSERT_EQ(got.num_sites(), ref.tc.size()) << where;
  ASSERT_EQ(got.num_trajectories(), ref.sc.size()) << where;
  for (SiteId r = 0; r < ref.tc.size(); ++r) {
    ExpectListEq(got.TC(r), ref.tc[r], where + " TC(" + std::to_string(r) + ")");
  }
  for (traj::TrajId t = 0; t < ref.sc.size(); ++t) {
    ExpectListEq(got.SC(t), ref.sc[t], where + " SC(" + std::to_string(t) + ")");
  }
}

TEST(CoverBuild, MatchesSerialReferenceAtEveryThreadCountAfterUpdates) {
  Engine engine = MakeEngine();
  // Sec. 6 updates after BuildIndex: additions land in TL overlays,
  // removals of indexed trajectories become tombstones, and removing an
  // added trajectory exercises overlay removal.
  util::Rng rng(2024);
  std::vector<traj::TrajId> added;
  while (added.size() < 12) {
    const auto src =
        static_cast<graph::NodeId>(rng.UniformInt(engine.network().num_nodes()));
    const auto dst =
        static_cast<graph::NodeId>(rng.UniformInt(engine.network().num_nodes()));
    if (src == dst) continue;
    auto path = traj::RoutePerturbed(engine.network(), src, dst, 0.3,
                                     9000 + added.size());
    if (path.size() >= 2) added.push_back(engine.AddTrajectory(std::move(path)));
  }
  for (traj::TrajId t = 0; t < 30; t += 3) engine.RemoveTrajectory(t);
  engine.RemoveTrajectory(added.front());

  const index::MultiIndex& index = engine.index();
  const traj::TrajectoryStore& store = engine.store();
  for (size_t p = 0; p < index.num_instances(); ++p) {
    const index::ClusterIndex& instance = index.instance(p);
    bool overlay = false;
    for (uint32_t g = 0; g < instance.num_clusters(); ++g) {
      overlay = overlay || instance.cluster(g).tl.has_overlay();
    }
    ASSERT_TRUE(overlay) << "instance " << p << " has no Sec. 6 overlay";

    for (const double tau_m : {600.0, 1500.0}) {
      const ReferenceCover ref = SerialReferenceCover(engine, p, tau_m);
      for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
        const std::string where = "instance " + std::to_string(p) + " tau " +
                                  std::to_string(tau_m) + " threads " +
                                  std::to_string(threads);
        const exec::BuiltCover built =
            exec::BuildCover(index, store, tau_m, p, threads);
        EXPECT_EQ(built.rep_sites, ref.rep_sites) << where;
        ExpectMatchesReference(built.approx, ref, "BuildCover " + where);

        // FromCovers must sort lists handed to it out of order.
        std::vector<std::vector<tops::CoverEntry>> unsorted = ref.tc;
        util::Rng shuffle(threads);
        bool any_unsorted = false;
        for (auto& list : unsorted) {
          std::reverse(list.begin(), list.end());
          shuffle.Shuffle(&list);
          any_unsorted = any_unsorted ||
                         !std::is_sorted(list.begin(), list.end(),
                                         ByDistanceThenId);
        }
        ASSERT_TRUE(any_unsorted) << where;
        const tops::CoverageIndex from = tops::CoverageIndex::FromCovers(
            std::move(unsorted), store.total_count(), store.live_count(),
            tau_m, threads);
        ExpectMatchesReference(from, ref, "FromCovers " + where);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// CoverCache (serve): build-once semantics, eviction, on/off equivalence.
// ---------------------------------------------------------------------------

TEST(CoverCache, BuildsOncePerKeyAcrossConcurrentCallers) {
  serve::CoverCache::Options options;
  options.capacity = 8;
  serve::CoverCache cache(options);
  ASSERT_TRUE(cache.enabled());

  const Engine engine = MakeEngine();
  const exec::CoverKey key{0, 123};
  std::atomic<int> builds{0};
  const auto build = [&]() -> exec::CoverPtr {
    builds.fetch_add(1);
    return std::make_shared<exec::BuiltCover>(exec::BuildCover(
        engine.index(), engine.store(), 800.0, /*instance=*/0, /*threads=*/1));
  };

  constexpr int kThreads = 8;
  std::vector<std::thread> pool;
  std::vector<exec::CoverPtr> got(kThreads);
  std::vector<uint8_t> reused(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      bool r = false;
      got[t] = cache.GetOrBuild(7, key, build, &r);
      reused[t] = r ? 1 : 0;
    });
  }
  for (auto& t : pool) t.join();

  EXPECT_EQ(builds.load(), 1);
  int builders = 0;
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(got[t], nullptr);
    EXPECT_EQ(got[t], got[0]);  // pointer-equal: genuinely shared
    if (!reused[t]) ++builders;
  }
  EXPECT_EQ(builders, 1);
  const serve::CoverCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.resident_bytes, 0u);
}

TEST(CoverCache, VersionIsPartOfTheKeyAndLruEvicts) {
  serve::CoverCache::Options options;
  options.capacity = 2;
  options.shards = 1;
  serve::CoverCache cache(options);
  const Engine engine = MakeEngine();
  int builds = 0;
  const auto build = [&]() -> exec::CoverPtr {
    ++builds;
    return std::make_shared<exec::BuiltCover>(exec::BuildCover(
        engine.index(), engine.store(), 700.0, 0, 1));
  };
  bool reused = false;
  const exec::CoverKey key{0, 42};
  (void)cache.GetOrBuild(1, key, build, &reused);
  (void)cache.GetOrBuild(2, key, build, &reused);  // new version: rebuild
  EXPECT_EQ(builds, 2);
  (void)cache.GetOrBuild(2, key, build, &reused);
  EXPECT_TRUE(reused);
  EXPECT_EQ(builds, 2);
  (void)cache.GetOrBuild(3, key, build, &reused);  // evicts version 1
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_GE(cache.stats().evictions, 1u);
  (void)cache.GetOrBuild(1, key, build, &reused);  // must rebuild
  EXPECT_FALSE(reused);
  EXPECT_EQ(builds, 4);
}

// TryGet's stale ladder over covers: a find at lag 0 is a hit, a find at
// a lag above 0 a stale hit, and a failed probe counts nothing.
TEST(CoverCache, LaggedFindCountsStaleHit) {
  serve::CoverCache::Options options;
  options.capacity = 8;
  serve::CoverCache cache(options);
  const exec::CoverKey key{0, 42};
  bool reused = false;
  const exec::CoverPtr built = cache.GetOrBuild(
      3, key, [] { return std::make_shared<exec::BuiltCover>(); }, &reused);
  uint64_t served = 0;
  EXPECT_FALSE(cache.TryGet(5, key, 1, &served).has_value());  // 5, 4 absent
  EXPECT_EQ(cache.TryGet(5, key, 2, &served).value_or(nullptr), built);
  EXPECT_EQ(served, 3u);
  ASSERT_TRUE(cache.TryGet(3, key).has_value());
  const serve::CoverCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.stale_hits, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(CoverCache, DisabledCacheDegeneratesToPlainBuilds) {
  serve::CoverCache::Options options;
  options.capacity = 0;
  serve::CoverCache cache(options);
  EXPECT_FALSE(cache.enabled());
  int builds = 0;
  bool reused = true;
  const auto build = [&]() -> exec::CoverPtr {
    ++builds;
    return std::make_shared<exec::BuiltCover>();
  };
  (void)cache.GetOrBuild(1, exec::CoverKey{0, 1}, build, &reused);
  (void)cache.GetOrBuild(1, exec::CoverKey{0, 1}, build, &reused);
  EXPECT_EQ(builds, 2);
  EXPECT_FALSE(reused);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0u);
}

// ---------------------------------------------------------------------------
// Serving-layer cover sharing: bit-identical on/off, shared across
// concurrent readers, TSan-clean.
// ---------------------------------------------------------------------------

index::QueryResult ServeReplay(const serve::ServeResult& served,
                               const Engine::QuerySpec& spec) {
  const serve::IndexSnapshot& snap = *served.snapshot;
  return test::RunOnIndex(snap.index(), snap.store(), snap.sites(),
                          serve::CanonicalizeSpec(spec));
}

TEST(Serving, CoverCacheOnOffIsBitIdentical) {
  const Engine engine = MakeEngine();
  serve::ServerOptions without;
  without.cover_cache.capacity = 0;
  auto on = engine.Serve();
  auto off = engine.Serve(without);

  const std::vector<Engine::QuerySpec> specs = DuplicateTauBatch(24);
  for (const Engine::QuerySpec& spec : specs) {
    const serve::ServeResult a = test::Submit(*on, spec);
    const serve::ServeResult b = test::Submit(*off, spec);
    ExpectBitIdentical(b.result, a.result, "cover cache on/off");
  }
  // The duplicate-τ stream reused covers on the enabled server only.
  EXPECT_GT(on->stats().cover_cache.hits, 0u);
  EXPECT_EQ(on->stats().cover_cache.misses, 4u);
  EXPECT_EQ(off->stats().cover_cache.hits + off->stats().cover_cache.misses,
            0u);
}

TEST(Serving, ConcurrentDuplicateTauTrafficSharesCoversAndReplays) {
  const Engine engine = MakeEngine();
  serve::ServerOptions options;
  options.updates.max_batch = 16;
  auto server = engine.Serve(options);

  const std::vector<Engine::QuerySpec> specs = DuplicateTauBatch(8);
  constexpr int kReaders = 4;
  constexpr int kQueriesPerReader = 24;
  std::vector<std::vector<std::pair<size_t, serve::ServeResult>>> recorded(
      kReaders);
  std::atomic<bool> start{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int q = 0; q < kQueriesPerReader; ++q) {
        const size_t spec_index = (r * 3 + q) % specs.size();
        recorded[r].emplace_back(spec_index,
                                 test::Submit(*server, specs[spec_index]));
      }
    });
  }
  // A live update stream publishes new versions mid-traffic, implicitly
  // invalidating cached covers (the version is part of the key).
  start.store(true, std::memory_order_release);
  for (int batch = 0; batch < 4; ++batch) {
    for (int i = 0; i < 6; ++i) {
      server->MutateAddTrajectory({0, 1, 2, 14, 26, 27});
    }
    server->Flush();
  }
  for (auto& t : readers) t.join();
  server->Shutdown();

  for (int r = 0; r < kReaders; ++r) {
    for (const auto& [spec_index, served] : recorded[r]) {
      ExpectBitIdentical(ServeReplay(served, specs[spec_index]), served.result,
                         "reader replay");
    }
  }
  const serve::ServerStats stats = server->stats();
  // Duplicate-τ traffic means most queries reused a cover (result-cache
  // hits never even reach the cover stage, so hits + result hits bound
  // the total from below loosely).
  EXPECT_GT(stats.cover_cache.hits, 0u);
  EXPECT_GT(stats.exec.covers_shared, 0u);
  EXPECT_GT(stats.exec.solve.count, 0u);
}

TEST(Serving, PermutedExistingServicesHitTheResultCache) {
  const Engine engine = MakeEngine();
  auto server = engine.Serve();
  const std::vector<SiteId> es = engine.Run(Spec(3, 800.0)).selection.sites;
  ASSERT_GE(es.size(), 3u);

  Engine::QuerySpec spec;
  spec.k = 4;
  spec.tau_m = 800.0;
  spec.existing_services = es;
  const serve::ServeResult first = test::Submit(*server, spec);
  EXPECT_FALSE(first.cache_hit);

  // Permute + duplicate the ES list: same canonical query, so the result
  // cache must hit with the bit-identical answer.
  spec.existing_services = {es[2], es[0], es[1], es[0]};
  const serve::ServeResult second = test::Submit(*server, spec);
  EXPECT_TRUE(second.cache_hit);
  ExpectBitIdentical(first.result, second.result, "permuted ES cache hit");

  // ψ spelling normalization: ConvexProbability(1) ≡ Linear.
  Engine::QuerySpec linear;
  linear.k = 4;
  linear.tau_m = 800.0;
  linear.psi = PreferenceFunction::Linear();
  Engine::QuerySpec convex1 = linear;
  convex1.psi = PreferenceFunction::ConvexProbability(1.0);
  const serve::ServeResult lin = test::Submit(*server, linear);
  EXPECT_FALSE(lin.cache_hit);
  const serve::ServeResult cvx = test::Submit(*server, convex1);
  EXPECT_TRUE(cvx.cache_hit);
  ExpectBitIdentical(lin.result, cvx.result, "psi normalization cache hit");
}

}  // namespace
}  // namespace netclus
