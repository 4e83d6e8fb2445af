#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>

namespace netclus::obs {

namespace {

// Span <-> 7-word packing for the atomic ring.
//   w0 trace_id   w1 start_ns   w2 duration_ns   w3 plan_fingerprint
//   w4 snapshot_version   w5 flags<<32 | thread_id   w6 name<<8 | lane
void PackSpan(const Span& s, uint64_t words[]) {
  words[0] = s.trace_id;
  words[1] = s.start_ns;
  words[2] = s.duration_ns;
  words[3] = s.plan_fingerprint;
  words[4] = s.snapshot_version;
  words[5] = (static_cast<uint64_t>(s.flags) << 32) | s.thread_id;
  words[6] = (static_cast<uint64_t>(s.name) << 8) |
             static_cast<uint64_t>(s.lane);
}

Span UnpackSpan(const uint64_t words[]) {
  Span s;
  s.trace_id = words[0];
  s.start_ns = words[1];
  s.duration_ns = words[2];
  s.plan_fingerprint = words[3];
  s.snapshot_version = words[4];
  s.flags = static_cast<uint32_t>(words[5] >> 32);
  s.thread_id = static_cast<uint32_t>(words[5]);
  s.name = static_cast<SpanName>((words[6] >> 8) & 0xff);
  s.lane = static_cast<uint8_t>(words[6] & 0xff);
  return s;
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void AppendFlagsJson(std::string* out, uint32_t flags) {
  *out += "{\"cache_hit\":";
  *out += (flags & kFlagCacheHit) ? "true" : "false";
  *out += ",\"stale\":";
  *out += (flags & kFlagStale) ? "true" : "false";
  *out += ",\"shed\":";
  *out += (flags & kFlagShed) ? "true" : "false";
  *out += ",\"error\":";
  *out += (flags & kFlagError) ? "true" : "false";
  *out += ",\"tail_kept\":";
  *out += (flags & kFlagTailKept) ? "true" : "false";
  *out += ",\"cover_shared\":";
  *out += (flags & kFlagCoverShared) ? "true" : "false";
  *out += "}";
}

const char* LaneString(uint8_t lane) {
  switch (lane) {
    case 0:
      return "fast";
    case 1:
      return "normal";
    case 2:
      return "heavy";
  }
  return "unknown";
}

}  // namespace

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kRequest:
      return "Request";
    case SpanName::kQueue:
      return "Queue";
    case SpanName::kAdmit:
      return "Admit";
    case SpanName::kCoverBuild:
      return "CoverBuild";
    case SpanName::kSolve:
      return "Solve";
    case SpanName::kAssemble:
      return "Assemble";
    case SpanName::kFinish:
      return "Finish";
  }
  return "Unknown";
}

uint64_t TraceNowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

uint32_t TraceThreadId() {
  thread_local const uint32_t id = static_cast<uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
  return id;
}

SpanRing::SpanRing(size_t capacity) {
  const size_t cap = RoundUpPow2(capacity < 2 ? 2 : capacity);
  mask_ = cap - 1;
  slots_ = std::make_unique<Slot[]>(cap);
}

void SpanRing::Push(const Span& span) {
  uint64_t packed[kWords];
  PackSpan(span, packed);
  const uint64_t idx = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[idx & mask_];
  // Seqlock write: odd marks in-progress, even (release) publishes. The
  // sequence encodes the global index so readers can order spans and
  // detect slots overwritten mid-copy.
  slot.seq.store(2 * idx + 1, std::memory_order_relaxed);
  for (size_t w = 0; w < kWords; ++w) {
    slot.words[w].store(packed[w], std::memory_order_relaxed);
  }
  slot.seq.store(2 * idx + 2, std::memory_order_release);
}

std::vector<Span> SpanRing::Snapshot() const {
  struct Numbered {
    uint64_t seq;
    Span span;
  };
  std::vector<Numbered> collected;
  const size_t cap = mask_ + 1;
  collected.reserve(cap);
  for (size_t i = 0; i < cap; ++i) {
    const Slot& slot = slots_[i];
    const uint64_t before = slot.seq.load(std::memory_order_acquire);
    if (before == 0 || (before & 1) != 0) continue;  // empty or mid-write
    uint64_t packed[kWords];
    for (size_t w = 0; w < kWords; ++w) {
      packed[w] = slot.words[w].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != before) continue;  // torn
    collected.push_back({before, UnpackSpan(packed)});
  }
  std::sort(collected.begin(), collected.end(),
            [](const Numbered& a, const Numbered& b) { return a.seq < b.seq; });
  std::vector<Span> out;
  out.reserve(collected.size());
  for (const auto& n : collected) out.push_back(n.span);
  return out;
}

Tracer::Tracer(double sample_rate, uint64_t seed, size_t ring_capacity)
    : ring_(ring_capacity), sample_rate_(sample_rate), seed_(seed) {}

void Tracer::SetSampleRate(double rate) {
  if (!(rate >= 0.0)) rate = 0.0;
  if (rate > 1.0) rate = 1.0;
  sample_rate_.store(rate, std::memory_order_relaxed);
}

bool Tracer::Sampled(uint64_t trace_id) const {
  const double rate = sample_rate_.load(std::memory_order_relaxed);
  if (rate >= 1.0) return true;
  if (!(rate > 0.0)) return false;
  const uint64_t h =
      SplitMix64(trace_id ^ seed_.load(std::memory_order_relaxed));
  // Compare against rate * 2^64 without overflowing: scale via long double.
  const auto threshold = static_cast<uint64_t>(
      static_cast<long double>(rate) * 18446744073709551615.0L);
  return h < threshold;
}

std::string Tracer::DumpChromeTrace() const {
  const std::vector<Span> spans = Snapshot();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (const Span& s : spans) {
    if (!first) out += ",";
    first = false;
    // Complete ("X") events; ts/dur are microseconds as doubles, so
    // sub-microsecond spans keep their fractional part.
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"netclus\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,",
                  SpanNameString(s.name),
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.duration_ns) / 1e3, s.thread_id);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "\"args\":{\"trace_id\":%llu,\"lane\":\"%s\","
                  "\"snapshot_version\":%llu,\"plan\":\"%016llx\",\"flags\":",
                  static_cast<unsigned long long>(s.trace_id),
                  LaneString(s.lane),
                  static_cast<unsigned long long>(s.snapshot_version),
                  static_cast<unsigned long long>(s.plan_fingerprint));
    out += buf;
    AppendFlagsJson(&out, s.flags);
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

void TraceContext::AddSpan(SpanName name, uint8_t lane, uint64_t start_ns,
                           uint64_t end_ns) {
  if (!sampled_ || tracer_ == nullptr) return;
  pending_.push_back({name, lane, TraceThreadId(), start_ns,
                      end_ns > start_ns ? end_ns : start_ns});
}

void TraceContext::Finish(uint8_t lane, bool tail_keep,
                          uint64_t queue_end_ns) {
  if (tracer_ == nullptr) return;
  const uint64_t end_ns = TraceNowNs();
  if (!sampled_) {
    if (!tail_keep) return;
    // Tail-kept request: synthesize coarse spans from the timings the
    // serving path tracks anyway — the tail is never invisible even when
    // head sampling skipped it.
    flags_ |= kFlagTailKept;
    Span queue;
    queue.trace_id = trace_id_;
    queue.name = SpanName::kQueue;
    queue.lane = lane;
    queue.thread_id = TraceThreadId();
    queue.start_ns = start_ns_;
    queue.duration_ns =
        queue_end_ns > start_ns_ ? queue_end_ns - start_ns_ : 0;
    queue.plan_fingerprint = plan_fingerprint_;
    queue.snapshot_version = snapshot_version_;
    queue.flags = flags_;
    tracer_->Record(queue);
  } else {
    for (const Pending& p : pending_) {
      Span s;
      s.trace_id = trace_id_;
      s.name = p.name;
      s.lane = p.lane;
      s.thread_id = p.thread_id;
      s.start_ns = p.start_ns;
      s.duration_ns = p.end_ns - p.start_ns;
      s.plan_fingerprint = plan_fingerprint_;
      s.snapshot_version = snapshot_version_;
      s.flags = flags_;
      tracer_->Record(s);
    }
  }
  Span root;
  root.trace_id = trace_id_;
  root.name = SpanName::kRequest;
  root.lane = lane;
  root.thread_id = TraceThreadId();
  root.start_ns = start_ns_;
  root.duration_ns = end_ns > start_ns_ ? end_ns - start_ns_ : 0;
  root.plan_fingerprint = plan_fingerprint_;
  root.snapshot_version = snapshot_version_;
  root.flags = flags_;
  tracer_->Record(root);
  pending_.clear();
}

}  // namespace netclus::obs
