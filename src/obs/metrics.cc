#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace netclus::obs {

namespace {

// Shortest round-trippable representation; Prometheus and JSON both accept
// scientific notation.
std::string FormatDouble(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Prefer the short form when it round-trips.
  char short_buf[64];
  std::snprintf(short_buf, sizeof(short_buf), "%.10g", v);
  double back = 0.0;
  std::sscanf(short_buf, "%lf", &back);
  return back == v ? std::string(short_buf) : std::string(buf);
}

std::string JsonDouble(double v) {
  // JSON has no Inf/NaN literals.
  if (std::isnan(v) || std::isinf(v)) return "null";
  return FormatDouble(v);
}

void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '\\':
        *out += "\\\\";
        break;
      case '"':
        *out += "\\\"";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        *out += c;
    }
  }
}

std::string PromLabels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k;
    out += "=\"";
    AppendEscaped(&out, v);
    out += "\"";
  }
  out += "}";
  return out;
}

// Labels with one extra pair appended (for histogram le= buckets).
std::string PromLabelsPlus(const Labels& labels, const std::string& key,
                           const std::string& value) {
  Labels extended = labels;
  extended.emplace_back(key, value);
  return PromLabels(extended);
}

std::string JsonLabels(const Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    AppendEscaped(&out, k);
    out += "\":\"";
    AppendEscaped(&out, v);
    out += "\"";
  }
  out += "}";
  return out;
}

void AppendPromHistogram(std::string* out, const std::string& name,
                         const Labels& labels,
                         const util::LatencyHistogram& hist) {
  uint64_t cumulative = 0;
  for (size_t i = 0; i < util::LatencyHistogram::kBuckets; ++i) {
    const uint64_t in_bucket = hist.bucket_count(i);
    if (in_bucket == 0) continue;  // only materialize populated edges
    cumulative += in_bucket;
    *out += name + "_bucket" +
            PromLabelsPlus(
                labels, "le",
                FormatDouble(util::LatencyHistogram::BucketUpperSeconds(i))) +
            " " + std::to_string(cumulative) + "\n";
  }
  const uint64_t total = hist.count();
  *out += name + "_bucket" + PromLabelsPlus(labels, "le", "+Inf") + " " +
          std::to_string(total) + "\n";
  *out += name + "_sum" + PromLabels(labels) + " " +
          FormatDouble(hist.total_seconds()) + "\n";
  *out += name + "_count" + PromLabels(labels) + " " + std::to_string(total) +
          "\n";
}

void AppendJsonHistogram(std::string* out,
                         const util::LatencyHistogram& hist) {
  *out += "\"count\":" + std::to_string(hist.count());
  *out += ",\"sum\":" + JsonDouble(hist.total_seconds());
  *out += ",\"mean\":" + JsonDouble(hist.MeanSeconds());
  *out += ",\"p50\":" + JsonDouble(hist.PercentileSeconds(0.50));
  *out += ",\"p90\":" + JsonDouble(hist.PercentileSeconds(0.90));
  *out += ",\"p99\":" + JsonDouble(hist.PercentileSeconds(0.99));
  *out += ",\"p999\":" + JsonDouble(hist.PercentileSeconds(0.999));
}

}  // namespace

MetricsRegistry::Entry* MetricsRegistry::FindOrAdd(const std::string& name,
                                                   Labels labels,
                                                   const std::string& help,
                                                   Kind kind) {
  for (auto& e : entries_) {
    if (e->name == name && e->labels == labels) return e.get();
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->labels = std::move(labels);
  entry->help = help;
  entry->kind = kind;
  if (kind == Kind::kCounter) entry->counter = std::make_unique<Counter>();
  if (kind == Kind::kHistogram) {
    entry->histogram = std::make_unique<util::LatencyHistogram>();
  }
  entries_.push_back(std::move(entry));
  return entries_.back().get();
}

Counter* MetricsRegistry::GetCounter(const std::string& name, Labels labels,
                                     const std::string& help) {
  const nc::MutexLock lock(mu_);
  return FindOrAdd(name, std::move(labels), help, Kind::kCounter)
      ->counter.get();
}

util::LatencyHistogram* MetricsRegistry::GetHistogram(const std::string& name,
                                                      Labels labels,
                                                      const std::string& help) {
  const nc::MutexLock lock(mu_);
  return FindOrAdd(name, std::move(labels), help, Kind::kHistogram)
      ->histogram.get();
}

void MetricsRegistry::RegisterProvider(const std::string& name, Labels labels,
                                       const std::string& help, bool counter,
                                       std::function<double()> fn) {
  const nc::MutexLock lock(mu_);
  Entry* e = FindOrAdd(name, std::move(labels), help, Kind::kProvider);
  e->kind = Kind::kProvider;
  e->provider_is_counter = counter;
  e->provider = std::move(fn);
}

size_t MetricsRegistry::size() const {
  const nc::MutexLock lock(mu_);
  return entries_.size();
}

std::string MetricsRegistry::Export(ExportFormat format) const {
  // Snapshot each entry under the lock. Entries are never destroyed while
  // the registry lives and the owned instruments are immutable atomics,
  // but kind/provider can be *replaced* by a concurrent
  // re-registration — copy them here and only invoke the provider copies
  // after the lock is dropped (a provider may take other locks or even
  // touch this registry).
  struct Snap {
    const Entry* entry;  // stable fields: name, labels, help, instruments
    Kind kind;
    bool provider_is_counter;
    std::function<double()> provider;
  };
  std::vector<Snap> sorted;
  {
    const nc::MutexLock lock(mu_);
    sorted.reserve(entries_.size());
    for (const auto& e : entries_) {
      sorted.push_back(
          Snap{e.get(), e->kind, e->provider_is_counter, e->provider});
    }
  }
  std::sort(sorted.begin(), sorted.end(), [](const Snap& a, const Snap& b) {
    if (a.entry->name != b.entry->name) return a.entry->name < b.entry->name;
    return a.entry->labels < b.entry->labels;
  });

  std::string out;
  if (format == ExportFormat::kPrometheusText) {
    const std::string* last_family = nullptr;
    for (const Snap& s : sorted) {
      const Entry* e = s.entry;
      if (last_family == nullptr || *last_family != e->name) {
        if (!e->help.empty()) {
          out += "# HELP " + e->name + " " + e->help + "\n";
        }
        const char* type = "gauge";
        if (s.kind == Kind::kHistogram) {
          type = "histogram";
        } else if (s.kind == Kind::kCounter ||
                   (s.kind == Kind::kProvider && s.provider_is_counter)) {
          type = "counter";
        }
        out += "# TYPE " + e->name + " " + type + "\n";
        last_family = &e->name;
      }
      switch (s.kind) {
        case Kind::kCounter:
          out += e->name + PromLabels(e->labels) + " " +
                 std::to_string(e->counter->Value()) + "\n";
          break;
        case Kind::kProvider:
          out += e->name + PromLabels(e->labels) + " " +
                 FormatDouble(s.provider ? s.provider() : 0.0) + "\n";
          break;
        case Kind::kHistogram:
          AppendPromHistogram(&out, e->name, e->labels, *e->histogram);
          break;
      }
    }
    return out;
  }

  out += "{\"metrics\":[";
  bool first = true;
  for (const Snap& s : sorted) {
    const Entry* e = s.entry;
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    AppendEscaped(&out, e->name);
    out += "\",\"labels\":" + JsonLabels(e->labels) + ",";
    switch (s.kind) {
      case Kind::kCounter:
        out += "\"type\":\"counter\",\"value\":" +
               std::to_string(e->counter->Value());
        break;
      case Kind::kProvider:
        out += std::string("\"type\":\"") +
               (s.provider_is_counter ? "counter" : "gauge") +
               "\",\"value\":" + JsonDouble(s.provider ? s.provider() : 0.0);
        break;
      case Kind::kHistogram:
        out += "\"type\":\"histogram\",";
        AppendJsonHistogram(&out, *e->histogram);
        break;
    }
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace netclus::obs
