// Shared pieces of the benchmark-of-record harness: the seeded corpus, the
// churn batches both workloads apply, statistics, digests, process
// accounting and the result record.
//
// The harness drives the library only through its public headers. Every
// timing it reports is taken here, around calls into the program, and
// every counter is one the program already exports.
#ifndef NETCLUS_PERF_RECORD_HARNESS_H_
#define NETCLUS_PERF_RECORD_HARNESS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "data/datasets.h"
#include "netclus/query.h"
#include "serve/server.h"
#include "util/rng.h"

namespace netclus::perf {

// --- corpus ------------------------------------------------------------------

/// data::MakeBeijingLite at this scale (and its own fixed seed): 1,517
/// nodes, all of them candidate sites, and 2,250 trajectories.
inline constexpr double kCorpusScale = 0.15;
/// Index configuration of both workloads: τ 400–6000 m at γ 0.75 gives
/// five resolution instances.
inline constexpr double kTauMinM = 400.0;
inline constexpr double kTauMaxM = 6000.0;
inline constexpr double kGamma = 0.75;

struct Corpus {
  data::Dataset dataset;
  /// The initial corpus as node sequences, in trajectory-id order; every
  /// engine ingests exactly these.
  std::vector<std::vector<graph::NodeId>> trajectories;
  /// Trajectories the churn batches add, cycled in order.
  std::vector<std::vector<graph::NodeId>> churn_pool;
  /// Seeded per-site costs and capacities for TOPS-COST / TOPS-CAPACITY.
  std::vector<double> site_costs;
  std::vector<double> site_capacities;
};

/// The fixed base corpus plus everything `seed` draws for it: the churn
/// pool and the per-site payloads.
Corpus MakeCorpus(uint64_t seed);

/// Engine options of the benchmark: the index configuration above and
/// `threads` workers.
Engine::Options EngineOptions(uint32_t threads);

/// A fresh engine over a copy of the corpus network and sites, with every
/// corpus trajectory added (the "ingest" step of a set-up).
std::unique_ptr<Engine> Ingest(const Corpus& corpus,
                               const Engine::Options& options);

/// Online worker count the harness gives Engine::Options::threads.
uint32_t HardwareThreads();

// --- churn -------------------------------------------------------------------

/// One write batch. Every third batch adds eight candidate sites (which
/// leaves most index partitions clean); the others add eight trajectories
/// from the churn pool and remove the eight oldest live ones, so the
/// corpus size stays fixed.
struct ChurnBatch {
  std::vector<size_t> add_pool_index;      ///< into Corpus::churn_pool
  std::vector<graph::NodeId> add_site_at;  ///< nodes that gain a site
  size_t remove_oldest = 0;
};

inline constexpr size_t kChurnOps = 8;

/// Batch `b` of the stream seeded by `rng`; `pool_cursor` advances over
/// the churn pool.
ChurnBatch NextChurnBatch(uint64_t b, const Corpus& corpus, util::Rng* rng,
                          size_t* pool_cursor);

/// Enqueues `batch` on `server` and waits for Flush(); returns the wall
/// time from the first enqueue to Flush() returning. `live` is the FIFO of
/// live trajectory ids (removals take the oldest, adds append); `writes`
/// and `accepted` count the operations enqueued and accepted.
double PublishBatch(serve::NetClusServer* server, const Corpus& corpus,
                    const ChurnBatch& batch, std::deque<traj::TrajId>* live,
                    uint64_t* writes, uint64_t* accepted);

// --- statistics --------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Monotonic seconds.
double Now();
/// CPU seconds used by the whole process (all threads).
double ProcessCpuSeconds();
/// Peak resident set size (VmHWM), MiB.
double PeakRssMib();

// --- digests -----------------------------------------------------------------

/// Order-sensitive 64-bit digest (SplitMix64 chain).
class Digest {
 public:
  void Mix(uint64_t v) { state_ = util::SplitMix64(state_ ^ v) + 0x9e37; }
  void MixDouble(double v);
  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0x6a09e667f3bcc908ULL;
};

void MixSpec(const Engine::QuerySpec& spec, Digest* digest);
void MixBatch(const ChurnBatch& batch, Digest* digest);
/// Hash of everything an answer asserts: sites, utility, marginal gains,
/// instance and clusters considered.
uint64_t HashAnswer(const index::QueryResult& result);
/// True when two answers are bit-identical (see HashAnswer).
bool SameAnswer(const index::QueryResult& a, const index::QueryResult& b);

// --- quality -----------------------------------------------------------------

/// Mean over `specs` (plain TOPS) of the exact utility of the NetClus
/// answer divided by the exact Inc-Greedy utility, both on the full
/// covering sets at the spec's τ.
double UtilityRatio(const Engine& engine,
                    const std::vector<Engine::QuerySpec>& specs);

// --- the run record ----------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

/// What one workload run reports.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// An exact counter of the determinism record.
  void Exact(const std::string& name, double value);
  /// A failed correctness check; the run reports correct = false.
  void Problem(const std::string& what);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t op_digest = 0;
  uint64_t answer_digest = 0;

  bool correct() const { return problems_.empty(); }
  /// Prints the determinism record and problems, then the result object
  /// as the last line of stdout.
  void Print(const std::string& workload) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::map<std::string, double> exact_;
  std::vector<std::string> problems_;
};

/// Resolves and prints the program's environment-driven configuration
/// (SIMD kernel, SPF backend, threads, caches, load mode, tracing).
void PrintResolvedConfig();

// --- shared layer measurements (traced runs) ---------------------------------

/// Times the set-up layers on `corpus`: BuildIndex, SaveIndexToFile,
/// LoadIndexFromFile (mmap, page budget as set in the environment) and
/// Serve(), each the median of a few repetitions. Writes netclus.build_s,
/// netclus.save_s, netclus.load_s and serve.boot_s.
void MeasureSetupLayers(const Corpus& corpus, const std::string& index_path,
                        Report* report);

/// Point-to-point and bounded round-trip query costs per SPF backend, and
/// the contraction-hierarchy preprocessing time, on the corpus network.
void MeasureGraphLayer(const Corpus& corpus, uint64_t seed, Report* report);

/// Decode-only walk of the posting lists BuildCover reads for
/// (`instance`, `tau_m`): the home and in-range neighbor trajectory lists
/// of every representative. Returns entries decoded; `*seconds` receives
/// the walk's wall time.
uint64_t WalkCoverPostings(const index::MultiIndex& index, size_t instance,
                           double tau_m, double* seconds);

// --- workloads ---------------------------------------------------------------

void RunAdhocCold(const Args& args, Report* report);
void RunServeLive(const Args& args, Report* report);

}  // namespace netclus::perf

#endif  // NETCLUS_PERF_RECORD_HARNESS_H_
