// Metrics registry: named Counter / Histogram instruments plus polled
// providers, with an export path (Prometheus text exposition + JSON).
//
// Two ways to get a value into the registry:
//
//  1. Owned instruments — `GetCounter`/`GetHistogram` return a stable
//     pointer to an instrument the registry owns; hot paths bump it
//     directly (relaxed atomics, no locks). The histogram type is
//     util::LatencyHistogram, the repo's one histogram.
//  2. Providers — `RegisterProvider` attaches a callback that is *polled
//     at export time*, typed counter or gauge. This is how the serving
//     structs (caches, scheduler, update pipeline, standing queries)
//     publish without changing their hot paths: the stats they already
//     keep stay the source of truth and the registry reads them when
//     someone asks.
//
// Registration is idempotent on (name, labels): asking again returns the
// same instrument. Export output is sorted by name then labels so golden
// tests are stable.
//
// Naming convention (see docs/observability.md): netclus_<subsystem>_<what>
// with Prometheus-style suffixes (_total for counters, _seconds for
// latency histograms).
#ifndef NETCLUS_OBS_METRICS_H_
#define NETCLUS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/histogram.h"
#include "util/thread_annotations.h"

namespace netclus::obs {

/// Label set attached to an instrument, e.g. {{"lane", "heavy"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter. Relaxed atomic; safe from any thread.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

enum class ExportFormat { kPrometheusText, kJson };

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the instrument registered under (name, labels), creating it on
  /// first use. Pointers stay valid for the registry's lifetime.
  Counter* GetCounter(const std::string& name, Labels labels = {},
                      const std::string& help = "") EXCLUDES(mu_);
  util::LatencyHistogram* GetHistogram(const std::string& name,
                                       Labels labels = {},
                                       const std::string& help = "")
      EXCLUDES(mu_);

  /// Registers a polled value: `fn` runs at export time on the exporting
  /// thread. `counter` selects the Prometheus type (counter vs gauge).
  /// Re-registering the same (name, labels) replaces the callback.
  void RegisterProvider(const std::string& name, Labels labels,
                        const std::string& help, bool counter,
                        std::function<double()> fn) EXCLUDES(mu_);

  std::string Export(ExportFormat format) const EXCLUDES(mu_);
  std::string ExportPrometheus() const {
    return Export(ExportFormat::kPrometheusText);
  }
  std::string ExportJson() const { return Export(ExportFormat::kJson); }

  /// Number of registered instruments (all kinds).
  size_t size() const EXCLUDES(mu_);

 private:
  enum class Kind { kCounter, kHistogram, kProvider };

  // name/labels/help and the owned instruments are immutable once the
  // entry is created; kind, provider_is_counter and provider can be
  // *replaced* by re-registration and must only be read under mu_
  // (Export copies them into a snapshot before invoking anything).
  struct Entry {
    std::string name;
    Labels labels;
    std::string help;
    Kind kind;
    bool provider_is_counter = false;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<util::LatencyHistogram> histogram;
    std::function<double()> provider;
  };

  /// The entry registered under (name, labels); a new entry of `kind`
  /// (with its owned instrument) when there is none.
  Entry* FindOrAdd(const std::string& name, Labels labels,
                   const std::string& help, Kind kind) REQUIRES(mu_);

  mutable nc::Mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_ GUARDED_BY(mu_);
};

}  // namespace netclus::obs

#endif  // NETCLUS_OBS_METRICS_H_
