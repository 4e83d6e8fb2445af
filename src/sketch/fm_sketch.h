// Flajolet-Martin probabilistic distinct counting (Sec. 3.5).
//
// An FM sketch is `f` independent 32-bit words; element x sets, in copy i,
// the bit whose index is the number of trailing zeros of an independent
// hash of x (bit j is set with probability 2^-(j+1)). The estimate uses the
// position R of the lowest unset bit: E[R] ~ log2(phi * n) with
// phi = 0.77351, so n_hat = 2^(mean R) / phi. Unions are exact under
// bitwise OR, which is what makes the sketch useful for incremental
// coverage counting: the marginal gain of a site over a selected set is
// estimate(base | site) - estimate(base).
//
// 32-bit words handle ~4 billion distinct elements, as in the paper, and
// OR over them is a single instruction.
//
// The hash has two halves: a per-copy salt that depends only on (seed,
// copy), and the element mixed with that salt. CopySalt and CopyBit are its
// one definition; Add uses them, and a caller that inserts one element into
// many sketches can hash it once with them and OR the words in with
// AddHashed.
#ifndef NETCLUS_SKETCH_FM_SKETCH_H_
#define NETCLUS_SKETCH_FM_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace netclus::sketch {

class FmSketch {
 public:
  /// `num_copies` is the paper's f (error decreases as f grows); all
  /// sketches that will be merged/compared must share the same `seed`.
  explicit FmSketch(uint32_t num_copies = 30,
                    uint64_t seed = 0x5eedf00d5eedf00dULL);

  /// Inserts an element (idempotent).
  void Add(uint64_t element);

  /// Inserts an element hashed beforehand: `words[i]` must be
  /// CopyBit(element, CopySalt(seed(), i)) for every copy i. Equivalent to
  /// Add(element), without the hashing.
  void AddHashed(std::span<const uint32_t> words);

  /// The salt of copy `copy` under `seed`: the half of the hash that does
  /// not depend on the element.
  static uint64_t CopySalt(uint64_t seed, uint32_t copy);

  /// The one-hot word `element` sets in the copy salted with `salt`: bit
  /// min(31, trailing zeros of the mixed hash), a geometric(1/2) position.
  static uint32_t CopyBit(uint64_t element, uint64_t salt);

  /// Bitwise-OR union; other must have the same copies and seed.
  void Merge(const FmSketch& other);

  /// Returns the union of this sketch and `other` without mutating either.
  FmSketch Union(const FmSketch& other) const;

  /// Estimated number of distinct inserted elements.
  double Estimate() const;

  /// Estimate of |this ∪ other| computed on the fly (no allocation).
  double UnionEstimate(const FmSketch& other) const;

  /// Resets to empty.
  void Clear();

  bool IsEmpty() const;

  uint32_t num_copies() const { return static_cast<uint32_t>(words_.size()); }
  /// One word per copy.
  std::span<const uint32_t> words() const { return words_; }
  uint64_t seed() const { return seed_; }

  /// Standard error of the estimate as a fraction, ~0.78 / sqrt(f).
  static double StandardErrorFraction(uint32_t num_copies);

  /// Analytic memory footprint in bytes.
  uint64_t MemoryBytes() const { return words_.capacity() * sizeof(uint32_t); }

 private:
  static double EstimateFromWords(const uint32_t* words, size_t count);

  uint64_t seed_;
  std::vector<uint32_t> words_;
};

}  // namespace netclus::sketch

#endif  // NETCLUS_SKETCH_FM_SKETCH_H_
