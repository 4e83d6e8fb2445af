// Tests for the observability layer (src/obs): metrics registry exactness
// under concurrency, Prometheus/JSON export goldens, deterministic head
// sampling, the lock-free span ring, span parenting across scheduler lane
// hops, and the slow-query log threshold.
//
// Like test_serve, this file must be TSan-clean — the CI tsan job runs it
// under -fsanitize=thread; the registry and ring tests exist precisely to
// prove their lock-free claims.
#include <atomic>
#include <future>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "test_helpers.h"
#include "traj/trip_generator.h"
#include "util/logging.h"

namespace netclus {
namespace {

// --- metrics registry -------------------------------------------------------

TEST(MetricsRegistry, InstrumentsAreIdempotentOnNameAndLabels) {
  obs::MetricsRegistry reg;
  obs::Counter* a = reg.GetCounter("netclus_x_total", {{"lane", "fast"}});
  obs::Counter* b = reg.GetCounter("netclus_x_total", {{"lane", "fast"}});
  obs::Counter* c = reg.GetCounter("netclus_x_total", {{"lane", "heavy"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistry, ConcurrentBumpsAreExact) {
  obs::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  obs::Counter* shared = reg.GetCounter("netclus_shared_total");
  util::LatencyHistogram* hist = reg.GetHistogram("netclus_shared_seconds");
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      // Registration races with bumping on other threads by design.
      obs::Counter* mine = reg.GetCounter(
          "netclus_per_thread_total", {{"t", std::to_string(t)}});
      for (int i = 0; i < kPerThread; ++i) {
        shared->Increment();
        mine->Increment();
        hist->Record(0.001 * (1 + i % 7));
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(shared->Value(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(hist->count(), uint64_t{kThreads} * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.GetCounter("netclus_per_thread_total",
                             {{"t", std::to_string(t)}})
                  ->Value(),
              uint64_t{kPerThread});
  }
}

TEST(MetricsRegistry, PrometheusGolden) {
  obs::MetricsRegistry reg;
  reg.GetCounter("netclus_test_total", {}, "A test counter")->Increment(3);
  reg.RegisterProvider("netclus_test_gauge", {{"lane", "fast"}}, "",
                       /*counter=*/false, [] { return 1.5; });
  reg.RegisterProvider("netclus_test_polled_total", {}, "", /*counter=*/true,
                       [] { return 7.0; });
  // Sorted by name, HELP only when non-empty, TYPE from the entry kind.
  EXPECT_EQ(reg.ExportPrometheus(),
            "# TYPE netclus_test_gauge gauge\n"
            "netclus_test_gauge{lane=\"fast\"} 1.5\n"
            "# TYPE netclus_test_polled_total counter\n"
            "netclus_test_polled_total 7\n"
            "# HELP netclus_test_total A test counter\n"
            "# TYPE netclus_test_total counter\n"
            "netclus_test_total 3\n");
}

TEST(MetricsRegistry, JsonGolden) {
  obs::MetricsRegistry reg;
  reg.GetCounter("netclus_test_total", {}, "A test counter")->Increment(3);
  reg.RegisterProvider("netclus_test_gauge", {{"lane", "fast"}}, "",
                       /*counter=*/false, [] { return 1.5; });
  EXPECT_EQ(reg.ExportJson(),
            "{\"metrics\":["
            "{\"name\":\"netclus_test_gauge\",\"labels\":{\"lane\":\"fast\"},"
            "\"type\":\"gauge\",\"value\":1.5},"
            "{\"name\":\"netclus_test_total\",\"labels\":{},"
            "\"type\":\"counter\",\"value\":3}"
            "]}");
}

TEST(MetricsRegistry, PrometheusHistogramIsCumulativeWithInfBucket) {
  obs::MetricsRegistry reg;
  util::LatencyHistogram* h = reg.GetHistogram("netclus_test_seconds");
  h->Record(0.001);
  h->Record(0.001);
  h->Record(0.5);
  const std::string prom = reg.ExportPrometheus();
  EXPECT_NE(prom.find("# TYPE netclus_test_seconds histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("netclus_test_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("netclus_test_seconds_count 3"), std::string::npos);
  // Cumulative: every emitted bucket value is <= the +Inf total and
  // non-decreasing in emission order.
  uint64_t last = 0;
  size_t pos = 0;
  while ((pos = prom.find("_bucket{le=", pos)) != std::string::npos) {
    const size_t space = prom.find(' ', pos);
    const uint64_t v = std::stoull(prom.substr(space + 1));
    EXPECT_GE(v, last);
    EXPECT_LE(v, 3u);
    last = v;
    ++pos;
  }
}

TEST(MetricsRegistry, LabelValuesAreEscaped) {
  obs::MetricsRegistry reg;
  reg.GetCounter("netclus_esc_total", {{"path", "a\"b\\c\nd"}})->Increment();
  const std::string prom = reg.ExportPrometheus();
  EXPECT_NE(prom.find("path=\"a\\\"b\\\\c\\nd\""), std::string::npos);
}

// --- sampling ---------------------------------------------------------------

TEST(MetricsRegistry, ProviderReRegistrationRacesWithExport) {
  // Regression: Export used to read Entry::provider (a std::function)
  // without mu_ while RegisterProvider replaced it in place — a data
  // race the TSan CI leg now pins. Export snapshots the mutable entry
  // fields under the lock and only then invokes the callbacks.
  obs::MetricsRegistry reg;
  reg.RegisterProvider("netclus_test_live", {}, "polled", false,
                       [] { return 0.0; });
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    double v = 1.0;
    while (!stop.load(std::memory_order_relaxed)) {
      reg.RegisterProvider("netclus_test_live", {}, "polled", false,
                           [v] { return v; });
      v += 1.0;
    }
  });
  for (int i = 0; i < 200; ++i) {
    const std::string out = reg.ExportPrometheus();
    EXPECT_NE(out.find("netclus_test_live"), std::string::npos);
  }
  stop.store(true);
  writer.join();

  // Replacement is visible: the latest callback feeds the next export,
  // and the entry count did not grow with re-registration.
  reg.RegisterProvider("netclus_test_live", {}, "polled", false,
                       [] { return 42.0; });
  EXPECT_NE(reg.ExportPrometheus().find("netclus_test_live 42"),
            std::string::npos);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Tracer, HeadSamplingIsDeterministicInSeedAndRate) {
  obs::Tracer a(0.5, 1234, 64);
  obs::Tracer b(0.5, 1234, 64);
  obs::Tracer c(0.5, 99, 64);
  int kept = 0;
  bool differs = false;
  for (uint64_t id = 1; id <= 4000; ++id) {
    EXPECT_EQ(a.Sampled(id), b.Sampled(id));
    if (a.Sampled(id) != c.Sampled(id)) differs = true;
    if (a.Sampled(id)) ++kept;
  }
  EXPECT_TRUE(differs);  // a different seed reshuffles the kept set
  // The hash is uniform: 50% rate keeps ~50% of ids.
  EXPECT_GT(kept, 4000 * 0.4);
  EXPECT_LT(kept, 4000 * 0.6);
}

TEST(Tracer, SampleRateExtremes) {
  obs::Tracer none(0.0, 7, 64);
  obs::Tracer all(1.0, 7, 64);
  for (uint64_t id = 1; id <= 256; ++id) {
    EXPECT_FALSE(none.Sampled(id));
    EXPECT_TRUE(all.Sampled(id));
  }
  none.SetSampleRate(1.0);
  EXPECT_TRUE(none.Sampled(1));
}

// --- span ring --------------------------------------------------------------

TEST(SpanRing, BoundedOverwriteKeepsNewest) {
  obs::SpanRing ring(64);  // already a power of two
  EXPECT_EQ(ring.capacity(), 64u);
  for (uint64_t i = 0; i < 200; ++i) {
    obs::Span span;
    span.trace_id = i;
    ring.Push(span);
  }
  EXPECT_EQ(ring.pushed(), 200u);
  const std::vector<obs::Span> got = ring.Snapshot();
  ASSERT_EQ(got.size(), 64u);
  // Oldest-first snapshot of the newest 64 spans.
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].trace_id, 200 - 64 + i);
  }
}

TEST(SpanRing, ConcurrentPushersStayTornFree) {
  obs::SpanRing ring(256);
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 5000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        obs::Span span;
        // Payload words derived from one value: a torn read would mix
        // words from different spans and break the invariant below.
        span.trace_id = uint64_t(t) * kPerThread + i;
        span.start_ns = span.trace_id * 3;
        span.duration_ns = span.trace_id * 7;
        ring.Push(span);
      }
    });
  }
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      for (const obs::Span& s : ring.Snapshot()) {
        ASSERT_EQ(s.start_ns, s.trace_id * 3);
        ASSERT_EQ(s.duration_ns, s.trace_id * 7);
      }
    }
  });
  for (std::thread& t : pool) t.join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(ring.pushed(), uint64_t{kThreads} * kPerThread);
  for (const obs::Span& s : ring.Snapshot()) {
    EXPECT_EQ(s.start_ns, s.trace_id * 3);
    EXPECT_EQ(s.duration_ns, s.trace_id * 7);
  }
}

// --- trace context ----------------------------------------------------------

TEST(TraceContext, UnsampledTailKeepSynthesizesCoarseSpans) {
  obs::Tracer tracer(0.0, 0, 64);
  obs::TraceContext ctx;
  ctx.Start(&tracer, 42, tracer.Sampled(42));
  EXPECT_FALSE(ctx.sampled());
  ctx.AddSpan(obs::SpanName::kAdmit, 0, ctx.start_ns(), ctx.start_ns() + 10);
  ctx.Finish(/*lane=*/1, /*tail_keep=*/true,
             /*queue_end_ns=*/ctx.start_ns() + 5);
  const std::vector<obs::Span> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);  // Queue + Request only; AddSpan was a no-op
  std::set<obs::SpanName> names;
  for (const obs::Span& s : spans) {
    EXPECT_EQ(s.trace_id, 42u);
    EXPECT_TRUE(s.flags & obs::kFlagTailKept);
    names.insert(s.name);
  }
  EXPECT_TRUE(names.count(obs::SpanName::kRequest));
  EXPECT_TRUE(names.count(obs::SpanName::kQueue));
}

TEST(TraceContext, UnsampledFastRequestRecordsNothing) {
  obs::Tracer tracer(0.0, 0, 64);
  obs::TraceContext ctx;
  ctx.Start(&tracer, 43, tracer.Sampled(43));
  ctx.Finish(0, /*tail_keep=*/false, ctx.start_ns());
  EXPECT_EQ(tracer.recorded(), 0u);
}

// --- end-to-end through the server ------------------------------------------

Engine MakeEngine(uint32_t dim = 8, uint64_t seed = 311) {
  graph::RoadNetwork net = test::MakeGridNetwork(dim, dim, 100.0);
  tops::SiteSet sites = tops::SiteSet::AllNodes(net);
  Engine::Options options;
  options.index.gamma = 0.75;
  options.index.tau_min_m = 300.0;
  options.index.tau_max_m = 2000.0;
  Engine engine(std::move(net), std::move(sites), options);
  util::Rng rng(seed);
  for (int i = 0; i < 40; ++i) {
    const auto src = static_cast<graph::NodeId>(
        rng.UniformInt(engine.network().num_nodes()));
    const auto dst = static_cast<graph::NodeId>(
        rng.UniformInt(engine.network().num_nodes()));
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

TEST(ServerObs, SpansLinkAcrossLaneHopsAndNestInRequest) {
  Engine engine = MakeEngine();
  serve::ServerOptions options;
  options.trace_sample = 1.0;  // every request records full stage spans
  options.trace_seed = 0;
  auto server = engine.Serve(options);

  serve::Request request;
  request.spec = Spec(3, 800.0);
  request.trace_id = 777;  // caller-assigned id, propagated to every span
  request.staleness = serve::StalenessPolicy::Fresh();
  serve::ServeResult result = server->SubmitAsync(std::move(request)).get();
  ASSERT_EQ(result.status, serve::StatusCode::kOk);

  std::vector<obs::Span> ours;
  for (const obs::Span& s : server->tracer().Snapshot()) {
    if (s.trace_id == 777) ours.push_back(s);
  }
  ASSERT_GE(ours.size(), 3u);

  const obs::Span* request_span = nullptr;
  std::set<obs::SpanName> names;
  std::set<uint8_t> lanes;
  for (const obs::Span& s : ours) {
    names.insert(s.name);
    if (s.name == obs::SpanName::kRequest) {
      request_span = &s;
    } else {
      lanes.insert(s.lane);
    }
    EXPECT_FALSE(s.flags & obs::kFlagTailKept);
  }
  ASSERT_NE(request_span, nullptr);
  // A fresh first-time spec walks Admit (priority lane) then CoverBuild
  // (heavy lane): the stage spans must cross at least two lanes while
  // staying inside the request window.
  EXPECT_TRUE(names.count(obs::SpanName::kQueue));
  EXPECT_TRUE(names.count(obs::SpanName::kAdmit));
  EXPECT_TRUE(names.count(obs::SpanName::kCoverBuild));
  EXPECT_GE(lanes.size(), 2u);
  const uint64_t req_end =
      request_span->start_ns + request_span->duration_ns;
  for (const obs::Span& s : ours) {
    EXPECT_GE(s.start_ns, request_span->start_ns);
    EXPECT_LE(s.start_ns + s.duration_ns, req_end);
  }

  const std::string trace = server->DumpTraces();
  EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(trace.find("\"cat\":\"netclus\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);

  const std::string prom = server->DumpMetrics();
  EXPECT_NE(prom.find("netclus_serve_queries_total 1"), std::string::npos);
  EXPECT_NE(prom.find("netclus_sched_workers"), std::string::npos);
  EXPECT_NE(prom.find("netclus_serve_latency_seconds_count"),
            std::string::npos);
  server->Shutdown();
}

TEST(ServerObs, SlowQueryThresholdGatesTheLog) {
  Engine engine = MakeEngine();
  std::mutex mu;
  std::vector<std::string> lines;
  util::SetLogSink([&](util::LogLevel, const std::string& line) {
    // Already serialized under the logging mutex; the local mutex guards
    // against the vector outliving concurrent late completions.
    const std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  });

  auto count_slow = [&] {
    const std::lock_guard<std::mutex> lock(mu);
    size_t n = 0;
    for (const std::string& l : lines) {
      if (l.find(" slow_query ") != std::string::npos) ++n;
    }
    return n;
  };

  {
    // Threshold 0 disables the slow-query log entirely.
    serve::ServerOptions options;
    options.slow_query_ms = 0.0;
    auto server = engine.Serve(options);
    ASSERT_EQ(test::Submit(*server, Spec(3, 800.0)).status,
              serve::StatusCode::kOk);
    server->Shutdown();
    EXPECT_EQ(count_slow(), 0u);
  }
  {
    // A sub-microsecond threshold makes every query slow; the record
    // carries the linkable trace id and the latency field.
    serve::ServerOptions options;
    options.slow_query_ms = 0.0001;
    auto server = engine.Serve(options);
    ASSERT_EQ(test::Submit(*server, Spec(3, 800.0)).status,
              serve::StatusCode::kOk);
    server->Shutdown();
    EXPECT_GE(count_slow(), 1u);
    const std::lock_guard<std::mutex> lock(mu);
    bool fields_ok = false;
    for (const std::string& l : lines) {
      if (l.find(" slow_query ") == std::string::npos) continue;
      fields_ok = l.find("trace_id=") != std::string::npos &&
                  l.find("latency_ms=") != std::string::npos &&
                  l.find("status=") != std::string::npos;
      if (fields_ok) break;
    }
    EXPECT_TRUE(fields_ok);
  }
  util::SetLogSink(nullptr);
}

TEST(ServerObs, EngineDumpMetricsCoversExecStages) {
  Engine engine = MakeEngine();
  (void)engine.Run(Spec(3, 800.0));
  const std::string prom = engine.DumpMetrics();
  EXPECT_NE(prom.find("netclus_exec_stage_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(prom.find("stage=\"plan\""), std::string::npos);
  const std::string json = engine.DumpMetrics(obs::ExportFormat::kJson);
  EXPECT_EQ(json.rfind("{\"metrics\":[", 0), 0u);
}

// --- exported metric surface -------------------------------------------------

// The exported surface a dump carries: every family's TYPE, and the
// `stage` label values of the executor stage histogram.
struct MetricSurface {
  std::map<std::string, std::string> types;
  std::set<std::string> stages;
};

MetricSurface SurfaceOf(const std::string& prom) {
  MetricSurface out;
  const std::string type_prefix = "# TYPE ";
  const std::string stage_prefix = "netclus_exec_stage_seconds_count{stage=\"";
  size_t begin = 0;
  while (begin < prom.size()) {
    size_t end = prom.find('\n', begin);
    if (end == std::string::npos) end = prom.size();
    const std::string line = prom.substr(begin, end - begin);
    begin = end + 1;
    if (line.rfind(type_prefix, 0) == 0) {
      const size_t space = line.find(' ', type_prefix.size());
      EXPECT_TRUE(out.types
                      .emplace(line.substr(type_prefix.size(),
                                           space - type_prefix.size()),
                               line.substr(space + 1))
                      .second)
          << "family typed twice: " << line;
    } else if (line.rfind(stage_prefix, 0) == 0) {
      const size_t quote = line.find('"', stage_prefix.size());
      out.stages.insert(
          line.substr(stage_prefix.size(), quote - stage_prefix.size()));
    }
  }
  return out;
}

const std::set<std::string> kExecStages = {"assemble", "cover_build", "plan",
                                           "queue_wait", "solve"};

// The executor's own families, exported by an Engine and by a server.
const std::map<std::string, std::string> kExecFamilies = {
    {"netclus_exec_covers_built_total", "counter"},
    {"netclus_exec_covers_shared_total", "counter"},
    {"netclus_exec_fm_fallbacks_total", "counter"},
    {"netclus_exec_stage_seconds", "histogram"},
    {"netclus_serve_shed_deadline_total", "counter"},
    {"netclus_serve_shed_overload_total", "counter"},
    {"netclus_serve_stale_served_total", "counter"},
};

TEST(MetricSurface, EngineDumpAfterOneRunIsPinned) {
  Engine engine = MakeEngine();
  (void)engine.Run(Spec(3, 800.0));
  const MetricSurface surface = SurfaceOf(engine.DumpMetrics());
  EXPECT_EQ(surface.types, kExecFamilies);
  EXPECT_EQ(surface.stages, kExecStages);
}

TEST(MetricSurface, ServerDumpAfterOneReadIsPinned) {
  Engine engine = MakeEngine();
  auto server = engine.Serve();
  ASSERT_EQ(test::Submit(*server, Spec(3, 800.0)).status,
            serve::StatusCode::kOk);
  std::map<std::string, std::string> expected = kExecFamilies;
  const std::map<std::string, std::string> serving = {
      {"netclus_carryover_clean_partitions_total", "counter"},
      {"netclus_carryover_publishes_total", "counter"},
      {"netclus_cover_cache_carried_total", "counter"},
      {"netclus_cover_cache_entries", "gauge"},
      {"netclus_cover_cache_evictions_total", "counter"},
      {"netclus_cover_cache_hits_total", "counter"},
      {"netclus_cover_cache_misses_total", "counter"},
      {"netclus_cover_cache_resident_bytes", "gauge"},
      {"netclus_cover_cache_stale_hits_total", "counter"},
      {"netclus_query_cache_carried_total", "counter"},
      {"netclus_query_cache_entries", "gauge"},
      {"netclus_query_cache_evictions_total", "counter"},
      {"netclus_query_cache_hits_total", "counter"},
      {"netclus_query_cache_misses_total", "counter"},
      {"netclus_query_cache_resident_bytes", "gauge"},
      {"netclus_query_cache_stale_hits_total", "counter"},
      {"netclus_sched_executed_total", "counter"},
      {"netclus_sched_injected_total", "counter"},
      {"netclus_sched_queue_depth", "gauge"},
      {"netclus_sched_stolen_total", "counter"},
      {"netclus_sched_utilization", "gauge"},
      {"netclus_sched_workers", "gauge"},
      {"netclus_serve_admitted", "gauge"},
      {"netclus_serve_latency_seconds", "histogram"},
      {"netclus_serve_queries_total", "counter"},
      {"netclus_serve_slow_queries_total", "counter"},
      {"netclus_snapshot_version", "gauge"},
      {"netclus_standing_active", "gauge"},
      {"netclus_standing_deferred_total", "counter"},
      {"netclus_standing_evaluations_total", "counter"},
      {"netclus_standing_pushes_total", "counter"},
      {"netclus_standing_skipped_clean_total", "counter"},
      {"netclus_trace_spans_total", "counter"},
      {"netclus_update_batches_published_total", "counter"},
      {"netclus_update_ops_applied_total", "counter"},
      {"netclus_update_ops_enqueued_total", "counter"},
      {"netclus_update_ops_rejected_total", "counter"},
      {"netclus_update_queue_depth", "gauge"},
  };
  expected.insert(serving.begin(), serving.end());
  const MetricSurface surface = SurfaceOf(server->DumpMetrics());
  EXPECT_EQ(surface.types, expected);
  EXPECT_EQ(surface.stages, kExecStages);
  server->Shutdown();
}

}  // namespace
}  // namespace netclus
