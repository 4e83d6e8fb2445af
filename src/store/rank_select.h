// Elias-Fano encoding of monotone sequences with select acceleration.
//
// A posting arena's list offsets (store/arena.h) are non-decreasing and
// bounded by the data size, the textbook case for Elias-Fano: value i
// splits into `l` low bits (packed verbatim) and a high part (unary-coded
// as bit `high + i` in a bit vector), costing ~2 + log2(universe / n)
// bits per value — typically 10-20x smaller than a plain uint64 table. Random access is select_1(i) on
// the high bits, accelerated by sampling the position of every 64th set
// bit at parse time.
//
// Serialized layout (all fields little-endian uint64):
//
//   +-------------------+----------------------------------------------+
//   | n                 | number of values                             |
//   | universe          | values[n-1] (0 when n == 0)                  |
//   | low_bits          | l, bits per value in the low array           |
//   | reserved          | 0                                            |
//   | low words         | ceil(n * l / 64) uint64                      |
//   | high words        | ceil((n + (universe >> l) + 1) / 64) uint64  |
//   +-------------------+----------------------------------------------+
//
// The reader aliases the serialized bytes (zero copy — they may live in
// an mmap'ed index file); only the small select-sample vector is owned.
// Encoding is deterministic: the same values produce identical bytes.
#ifndef NETCLUS_STORE_RANK_SELECT_H_
#define NETCLUS_STORE_RANK_SELECT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace netclus::store {

class EliasFanoView {
 public:
  EliasFanoView() = default;

  /// Serializes `values` (must be non-decreasing) into `out` (appended).
  static void Encode(const std::vector<uint64_t>& values,
                     std::vector<uint8_t>* out);

  /// Wraps serialized bytes. Validates the header against `size`, counts
  /// the high-bit population (must equal n), and builds select samples.
  /// The bytes must outlive the view — the caller keeps the owning block
  /// alive. Returns false with a message in `error` on malformed input.
  static bool Parse(const uint8_t* data, size_t size, EliasFanoView* out,
                    std::string* error);

  size_t size() const { return n_; }
  uint64_t universe() const { return universe_; }

  /// values[i]; i < size(). O(1) plus a bounded popcount scan.
  uint64_t Get(size_t i) const;

  /// values[i] and values[i + 1] in one high-bits scan — the arena's
  /// list-extent lookup. Requires i + 1 < size().
  void GetPair(size_t i, uint64_t* a, uint64_t* b) const;

  /// Serialized footprint in bytes (0 for a default-constructed view).
  size_t serialized_bytes() const { return serialized_bytes_; }

 private:
  uint64_t LowBits(size_t i) const;
  uint64_t LowWord(size_t w) const;
  uint64_t HighWord(size_t w) const;
  /// Bit position in the high vector of the i-th set bit.
  uint64_t Select(size_t i) const;

  const uint8_t* low_ = nullptr;   // packed l-bit values
  const uint8_t* high_ = nullptr;  // unary-coded high parts
  size_t n_ = 0;
  uint64_t universe_ = 0;
  unsigned l_ = 0;
  size_t high_words_ = 0;
  size_t serialized_bytes_ = 0;
  // samples_[j] = bit position of set bit rank j * kSelectSample.
  std::vector<uint32_t> samples_;

  static constexpr size_t kSelectSample = 64;
};

}  // namespace netclus::store

#endif  // NETCLUS_STORE_RANK_SELECT_H_
