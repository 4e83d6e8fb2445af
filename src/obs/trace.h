// Request tracing: per-request spans recorded into a bounded lock-free
// ring, dumped as Chrome trace_event JSON (loads in chrome://tracing and
// Perfetto).
//
// Sampling model:
//  - Head sampling: each request draws a trace id; a deterministic hash of
//    (trace_id ^ seed) against the sample rate decides up-front
//    whether the request records full per-stage spans. Deterministic so
//    tests can pin the seed and know exactly which ids sample.
//  - Tail keep: requests that finish slow / shed / errored but were NOT
//    head-sampled still get coarse spans synthesized at completion (flag
//    kTailKept), so the interesting tail is never invisible.
//
// The ring is a seqlock-style structure where every word is an atomic:
// writers claim a slot with fetch_add, mark it odd (in progress), publish
// payload words, then mark it even with release; readers validate the
// sequence before and after copying and drop torn slots. No locks, no
// allocation on the hot path, TSan-clean by construction.
#ifndef NETCLUS_OBS_TRACE_H_
#define NETCLUS_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace netclus::obs {

/// Stage names; values index kSpanNames and pack into the ring payload.
enum class SpanName : uint8_t {
  kRequest = 0,   // whole request, enqueue → complete
  kQueue,         // admission queue wait
  kAdmit,         // StageAdmit: snapshot + plan + cache probes
  kCoverBuild,    // StageBuild: covering-set construction
  kSolve,         // greedy / solver stage
  kAssemble,      // result assembly
  kFinish,        // post-solve bookkeeping (cache insert, completion)
};
const char* SpanNameString(SpanName name);

/// Flags recorded on spans (bitwise OR).
enum SpanFlags : uint32_t {
  kFlagCacheHit = 1u << 0,
  kFlagStale = 1u << 1,
  kFlagShed = 1u << 2,
  kFlagError = 1u << 3,
  kFlagTailKept = 1u << 4,  // synthesized at completion, not head-sampled
  kFlagCoverShared = 1u << 5,
};

/// One completed span. Fixed-size and trivially copyable so it packs into
/// the atomic ring.
struct Span {
  uint64_t trace_id = 0;       // request id; links spans across lanes
  uint64_t start_ns = 0;       // monotonic, since process start
  uint64_t duration_ns = 0;
  uint64_t plan_fingerprint = 0;   // exec::PlanKey::Fingerprint()
  uint64_t snapshot_version = 0;
  SpanName name = SpanName::kRequest;
  uint8_t lane = 0;            // util::Lane the stage ran on
  uint32_t flags = 0;
  uint32_t thread_id = 0;      // hashed std::thread::id
};

/// Monotonic nanoseconds since the first call in this process.
uint64_t TraceNowNs();

/// Hashed id of the calling thread, stable within the process.
uint32_t TraceThreadId();

/// Bounded MPMC span sink; oldest entries are overwritten when full.
class SpanRing {
 public:
  /// `capacity` is rounded up to a power of two; default 8192 spans.
  explicit SpanRing(size_t capacity = 8192);

  void Push(const Span& span);

  /// Copies out the currently published spans, oldest first. Slots being
  /// written concurrently are skipped.
  std::vector<Span> Snapshot() const;

  /// Total spans ever pushed (including overwritten ones).
  uint64_t pushed() const { return head_.load(std::memory_order_relaxed); }

  size_t capacity() const { return mask_ + 1; }

 private:
  // 8 words: seq + 7 payload (span packs into 7).
  static constexpr size_t kWords = 7;
  // Deliberately unguarded seqlock slots: a reader may race a writer, but
  // every word is an individually atomic load/store, and Snapshot()
  // validates `seq` before and after copying a slot's words, dropping any
  // slot whose copy could be torn. Reads are therefore torn-tolerant by
  // protocol, not by luck — do not replace the seq dance with a mutex
  // (Push is on the request hot path and must stay wait-free).
  struct Slot {
    std::atomic<uint64_t> seq{0};  // 0 = never written; odd = in progress
    std::array<std::atomic<uint64_t>, kWords> words;
  };
  static_assert(std::atomic<uint64_t>::is_always_lock_free,
                "SpanRing's seqlock assumes lock-free 64-bit atomics");

  std::unique_ptr<Slot[]> slots_;
  size_t mask_;
  std::atomic<uint64_t> head_{0};
};

/// Owns the ring + sampling state. One per server.
class Tracer {
 public:
  Tracer(double sample_rate, uint64_t seed, size_t ring_capacity = 8192);

  /// Draws the next request/trace id (monotonic, starts at 1).
  uint64_t NextTraceId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Head-sampling decision: deterministic in (trace_id, seed, rate).
  bool Sampled(uint64_t trace_id) const;

  void SetSampleRate(double rate);
  double sample_rate() const {
    return sample_rate_.load(std::memory_order_relaxed);
  }
  void SetSeed(uint64_t seed) {
    seed_.store(seed, std::memory_order_relaxed);
  }

  void Record(const Span& span) { ring_.Push(span); }

  std::vector<Span> Snapshot() const { return ring_.Snapshot(); }
  uint64_t recorded() const { return ring_.pushed(); }

  /// Chrome trace_event JSON ({"traceEvents":[...]}); spans become "X"
  /// (complete) events with ts/dur in microseconds, tid = worker thread,
  /// and args carrying trace id, lane, snapshot version, plan fingerprint
  /// and flags.
  std::string DumpChromeTrace() const;

 private:
  SpanRing ring_;
  std::atomic<uint64_t> next_id_{0};
  // Torn-tolerant knobs: SetSampleRate/SetSeed may race Sampled(), which
  // then uses either the old or the new value for that one decision —
  // harmless, since sampling is best-effort by definition.
  std::atomic<double> sample_rate_;
  std::atomic<uint64_t> seed_;
  static_assert(std::atomic<double>::is_always_lock_free,
                "Tracer assumes lock-free atomic<double> sampling knobs");
};

/// Per-request span collector, carried on the request's async state. The
/// request's stages run sequentially (hand-offs go through the scheduler,
/// which provides happens-before), so a plain vector is safe here; spans
/// only reach the shared ring at Finish().
class TraceContext {
 public:
  TraceContext() = default;

  /// Binds this context to a tracer-issued id and sampling decision.
  void Start(Tracer* tracer, uint64_t trace_id, bool sampled) {
    tracer_ = tracer;
    trace_id_ = trace_id;
    sampled_ = sampled;
    start_ns_ = TraceNowNs();
  }

  bool sampled() const { return sampled_; }
  bool active() const { return tracer_ != nullptr; }
  uint64_t trace_id() const { return trace_id_; }
  uint64_t start_ns() const { return start_ns_; }

  void set_plan_fingerprint(uint64_t fp) { plan_fingerprint_ = fp; }
  void set_snapshot_version(uint64_t v) { snapshot_version_ = v; }
  void AddFlags(uint32_t flags) { flags_ |= flags; }
  uint32_t flags() const { return flags_; }

  /// Records one completed stage span (sampled requests only; no-op
  /// otherwise, so unsampled requests pay one branch per stage).
  void AddSpan(SpanName name, uint8_t lane, uint64_t start_ns,
               uint64_t end_ns);

  /// Emits collected spans plus the whole-request span to the ring. For
  /// unsampled requests, emits a coarse tail-kept Request+Queue pair only
  /// when `tail_keep` (slow/shed/error). Call exactly once, at completion.
  void Finish(uint8_t lane, bool tail_keep, uint64_t queue_end_ns);

 private:
  struct Pending {
    SpanName name;
    uint8_t lane;
    uint32_t thread_id;
    uint64_t start_ns;
    uint64_t end_ns;
  };

  Tracer* tracer_ = nullptr;
  uint64_t trace_id_ = 0;
  bool sampled_ = false;
  uint64_t start_ns_ = 0;
  uint64_t plan_fingerprint_ = 0;
  uint64_t snapshot_version_ = 0;
  uint32_t flags_ = 0;
  std::vector<Pending> pending_;
};

}  // namespace netclus::obs

#endif  // NETCLUS_OBS_TRACE_H_
