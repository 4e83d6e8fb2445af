// Compressed posting storage: varint arenas + zero-copy views.
//
// NetClus's footprint argument (PAPER.md Sec. 5, Table 9) rests on posting
// lists — cluster covering sequences CC(T), per-cluster trajectory lists
// TL, covering sets TC/SC — whose vector-of-vectors representation spends
// more on headers, capacity slack, and full-width ints than on payload. An
// arena packs all lists of one family into a single immutable byte buffer:
//
//   data:    list_0 | list_1 | ... | list_{n-1}
//   offsets: list extents as an Elias-Fano table (rank_select.h) of n+1
//            values, offsets[i] = byte offset of list_i in `data`
//            (offsets[n] = data size)
//
// Each list is `varint(count)` then the entries framed as blocks of up to
// kBlockEntries (128), each block:
//
//   header:  varint(first-value delta, ZigZag32 from the previous block's
//            first value — per pair-list chain for pairs)
//            varint(payload byte length)
//   payload: the remaining block entries, ZigZag32 delta-coded from the
//            block's first value
//
// The headers are skip headers: chaining first values through them (not
// through the payload) means a reader can hop block to block in
// O(blocks) without decoding payloads, and the 32-bit-bounded ZigZag32
// transform lets payloads decode through the SIMD bulk kernel
// (store/simd/bulk_varint.h) into a stack scratch buffer — that is the
// ForEach fast path the solvers' inner loops use.
//
// Two list kinds share the block framing:
//   * u32 lists  — one varint per entry (CC sequences);
//   * pair lists — (u32 id, float) entries, two varints per entry: the id
//     delta and the delta of the float's bit pattern (TL / TC / SC, whose
//     distance-sorted floats have slowly-growing bit patterns).
//
// Both buffers live in refcounted ByteBlocks, so
//   * copying an index (MultiIndex::Clone, the serving layer's
//     copy-on-write snapshots) shares the frozen bytes instead of
//     duplicating them, and
//   * the index file stores arenas verbatim — loading can alias the
//     bytes of an mmap'ed file (zero copy) or of a single heap read. When
//     a BufferPool (buffer_pool.h) manages that mapping, every list
//     access reports its byte range so residency stays under
//     NETCLUS_PAGE_BUDGET.
//
// Views decode lazily: PostingListView / PairListView are forward ranges
// that yield entries straight off the compressed stream, so the greedy
// solvers and the query engine traverse postings without materializing
// vectors. The same view types also wrap raw (uncompressed) element
// arrays, which lets call sites be agnostic about the storage mode. All
// decode paths — iterator, ForEach, operator[], any SIMD kernel —
// reconstruct exact integers, so results are bit-identical across kernels.
#ifndef NETCLUS_STORE_ARENA_H_
#define NETCLUS_STORE_ARENA_H_

#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "store/rank_select.h"
#include "store/simd/bulk_varint.h"
#include "store/varint.h"

namespace netclus::store {

class BufferPool;

/// Entries per block of a compressed list.
inline constexpr size_t kBlockEntries = 128;

/// Immutable refcounted byte buffer. Either owns its bytes (built from a
/// vector) or aliases a range inside another owner (an mmap'ed file, a
/// whole-file heap read) that it keeps alive.
class ByteBlock {
 public:
  ByteBlock() = default;

  static ByteBlock FromVector(std::vector<uint8_t> bytes) {
    auto owned = std::make_shared<std::vector<uint8_t>>(std::move(bytes));
    ByteBlock block;
    block.data_ = owned->data();
    block.size_ = owned->size();
    block.owner_ = std::move(owned);
    return block;
  }

  /// Aliases [data, data + size) inside `owner`, which stays alive for the
  /// lifetime of this block (and of anything copied from it).
  static ByteBlock Alias(std::shared_ptr<const void> owner,
                         const uint8_t* data, size_t size) {
    ByteBlock block;
    block.owner_ = std::move(owner);
    block.data_ = data;
    block.size_ = size;
    return block;
  }

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Sub-range view sharing this block's owner. `offset + size` must be
  /// within bounds (checked by callers against the section table).
  ByteBlock Slice(size_t offset, size_t size) const {
    return Alias(owner_, data_ + offset, size);
  }

  /// Identity of the backing bytes — equal pointers mean shared storage
  /// (used by tests to pin the copy-on-write sharing behavior).
  const void* id() const { return data_; }

 private:
  std::shared_ptr<const void> owner_;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

/// Forward range over a u32 list: either a raw array or a compressed
/// arena list. Iteration decodes in place; ForEach is the bulk-decode
/// fast path.
class PostingListView {
 public:
  PostingListView() = default;

  static PostingListView Raw(const uint32_t* data, size_t count) {
    PostingListView view;
    view.raw_ = data;
    view.count_ = count;
    return view;
  }

  /// `begin` points at the list's count varint; decoding never reads at or
  /// past `end`. A malformed stream yields a truncated (possibly empty)
  /// view rather than out-of-bounds reads; arena construction validates
  /// streams up front so this only matters for defense in depth.
  static PostingListView Packed(const uint8_t* begin, const uint8_t* end) {
    PostingListView view;
    uint64_t count = 0;
    const uint8_t* p = GetVarint64(begin, end, &count);
    if (p == nullptr) return view;
    view.packed_ = p;
    view.packed_end_ = end;
    view.count_ = static_cast<size_t>(count);
    return view;
  }

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = uint32_t;
    using difference_type = std::ptrdiff_t;
    using pointer = const uint32_t*;
    using reference = const uint32_t&;

    const_iterator() = default;

    reference operator*() const { return current_; }
    pointer operator->() const { return &current_; }

    const_iterator& operator++() {
      --remaining_;
      if (remaining_ > 0) Decode();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator copy = *this;
      ++*this;
      return copy;
    }

    bool operator==(const const_iterator& other) const {
      return remaining_ == other.remaining_;
    }
    bool operator!=(const const_iterator& other) const {
      return !(*this == other);
    }

   private:
    friend class PostingListView;
    void Decode() {
      if (raw_ != nullptr) {
        current_ = *raw_++;
        return;
      }
      if (in_block_left_ == 0) {
        // Block boundary: skip header (first-value delta, payload bytes).
        uint32_t first = 0;
        uint64_t payload = 0;
        const uint8_t* next = GetU32Delta32(p_, end_, first_prev_, &first);
        if (next != nullptr) next = GetVarint64(next, end_, &payload);
        if (next == nullptr ||
            payload > static_cast<uint64_t>(end_ - next)) {
          remaining_ = 0;  // malformed stream: become end()
          return;
        }
        p_ = next;
        first_prev_ = first;
        current_ = first;
        const size_t in_block =
            remaining_ < kBlockEntries ? remaining_ : kBlockEntries;
        in_block_left_ = static_cast<uint32_t>(in_block - 1);
        return;
      }
      uint32_t value = 0;
      const uint8_t* next = GetU32Delta32(p_, end_, current_, &value);
      if (next == nullptr) {
        remaining_ = 0;
        return;
      }
      p_ = next;
      current_ = value;
      --in_block_left_;
    }

    const uint32_t* raw_ = nullptr;
    const uint8_t* p_ = nullptr;
    const uint8_t* end_ = nullptr;
    uint32_t current_ = 0;
    size_t remaining_ = 0;  // entries left including current_
    uint32_t in_block_left_ = 0;  // entries left in the current block
    uint32_t first_prev_ = 0;     // previous block's first value
  };

  const_iterator begin() const {
    const_iterator it;
    it.remaining_ = count_;
    it.raw_ = raw_;
    it.p_ = packed_;
    it.end_ = packed_end_;
    if (count_ > 0) it.Decode();
    return it;
  }
  const_iterator end() const { return const_iterator(); }

  /// Bulk traversal — the hot-loop entry point. Compressed lists decode a
  /// block at a time into a stack scratch buffer through the SIMD bulk
  /// kernel; raw lists loop in place. Yields exactly the iterator's
  /// sequence.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (raw_ != nullptr) {
      for (size_t i = 0; i < count_; ++i) fn(raw_[i]);
      return;
    }
    uint32_t scratch[kBlockEntries];
    const uint8_t* p = packed_;
    size_t remaining = count_;
    uint32_t first_prev = 0;
    while (remaining > 0) {
      const size_t in_block =
          remaining < kBlockEntries ? remaining : kBlockEntries;
      uint32_t first = 0;
      uint64_t payload = 0;
      const uint8_t* next = GetU32Delta32(p, packed_end_, first_prev, &first);
      if (next != nullptr) next = GetVarint64(next, packed_end_, &payload);
      if (next == nullptr || payload > static_cast<uint64_t>(packed_end_ - next)) {
        return;  // malformed: arena validation makes this unreachable
      }
      const uint8_t* payload_end = next + payload;
      if (simd::BulkDecodeVarint32(next, payload_end, scratch, in_block - 1) !=
          payload_end) {
        return;
      }
      fn(first);
      uint32_t prev = first;
      for (size_t j = 0; j + 1 < in_block; ++j) {
        prev += UnZigZag32(scratch[j]);
        fn(prev);
      }
      first_prev = first;
      p = payload_end;
      remaining -= in_block;
    }
  }

  /// O(1) for raw lists, O(blocks + in-block) for compressed ones (skip
  /// headers) — for tests and cold paths.
  uint32_t operator[](size_t i) const {
    if (raw_ != nullptr) return raw_[i];
    const uint8_t* p = packed_;
    uint32_t first_prev = 0;
    size_t skip = i / kBlockEntries;
    // Hop whole blocks through the skip headers without decoding.
    while (skip-- > 0) {
      uint32_t first = 0;
      uint64_t payload = 0;
      const uint8_t* next = GetU32Delta32(p, packed_end_, first_prev, &first);
      if (next != nullptr) next = GetVarint64(next, packed_end_, &payload);
      if (next == nullptr ||
          payload > static_cast<uint64_t>(packed_end_ - next)) {
        return 0;
      }
      first_prev = first;
      p = next + payload;
    }
    uint32_t first = 0;
    uint64_t payload = 0;
    const uint8_t* next = GetU32Delta32(p, packed_end_, first_prev, &first);
    if (next != nullptr) next = GetVarint64(next, packed_end_, &payload);
    if (next == nullptr) return 0;
    uint32_t value = first;
    for (size_t k = 0; k < i % kBlockEntries; ++k) {
      next = GetU32Delta32(next, packed_end_, value, &value);
      if (next == nullptr) return 0;
    }
    return value;
  }

  std::vector<uint32_t> Materialize() const {
    std::vector<uint32_t> out;
    out.reserve(count_);
    for (const uint32_t v : *this) out.push_back(v);
    return out;
  }

 private:
  const uint32_t* raw_ = nullptr;
  const uint8_t* packed_ = nullptr;
  const uint8_t* packed_end_ = nullptr;
  size_t count_ = 0;
};

/// Forward range over an (id, weight) list — TlEntry, CoverEntry, and any
/// other {uint32, float} POD — raw or compressed.
template <typename Entry>
class PairListView {
  static_assert(std::is_trivially_copyable_v<Entry> && sizeof(Entry) == 8,
                "pair lists require {uint32 id, float weight} PODs");

 public:
  PairListView() = default;

  static PairListView Raw(const Entry* data, size_t count) {
    PairListView view;
    view.raw_ = data;
    view.count_ = count;
    return view;
  }

  static PairListView Packed(const uint8_t* begin, const uint8_t* end) {
    PairListView view;
    uint64_t count = 0;
    const uint8_t* p = GetVarint64(begin, end, &count);
    if (p == nullptr) return view;
    view.packed_ = p;
    view.packed_end_ = end;
    view.count_ = static_cast<size_t>(count);
    return view;
  }

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Entry;
    using difference_type = std::ptrdiff_t;
    using pointer = const Entry*;
    using reference = const Entry&;

    const_iterator() = default;

    reference operator*() const { return current_; }
    pointer operator->() const { return &current_; }

    const_iterator& operator++() {
      --remaining_;
      if (remaining_ > 0) Decode();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator copy = *this;
      ++*this;
      return copy;
    }

    bool operator==(const const_iterator& other) const {
      return remaining_ == other.remaining_;
    }
    bool operator!=(const const_iterator& other) const {
      return !(*this == other);
    }

   private:
    friend class PairListView;
    void SetCurrent(uint32_t id, uint32_t bits) {
      prev_id_ = id;
      prev_bits_ = bits;
      std::memcpy(&current_, &id, sizeof(uint32_t));
      std::memcpy(reinterpret_cast<uint8_t*>(&current_) + sizeof(uint32_t),
                  &bits, sizeof(uint32_t));
    }
    void Decode() {
      if (raw_ != nullptr) {
        std::memcpy(&current_, raw_++, sizeof(Entry));
        return;
      }
      if (in_block_left_ == 0) {
        uint32_t id = 0, bits = 0;
        uint64_t payload = 0;
        const uint8_t* next = GetU32Delta32(p_, end_, first_prev_id_, &id);
        if (next != nullptr) {
          next = GetU32Delta32(next, end_, first_prev_bits_, &bits);
        }
        if (next != nullptr) next = GetVarint64(next, end_, &payload);
        if (next == nullptr ||
            payload > static_cast<uint64_t>(end_ - next)) {
          remaining_ = 0;  // malformed stream: become end()
          return;
        }
        p_ = next;
        first_prev_id_ = id;
        first_prev_bits_ = bits;
        SetCurrent(id, bits);
        const size_t in_block =
            remaining_ < kBlockEntries ? remaining_ : kBlockEntries;
        in_block_left_ = static_cast<uint32_t>(in_block - 1);
        return;
      }
      uint32_t id = 0, bits = 0;
      const uint8_t* next = GetU32Delta32(p_, end_, prev_id_, &id);
      if (next != nullptr) next = GetU32Delta32(next, end_, prev_bits_, &bits);
      if (next == nullptr) {
        remaining_ = 0;
        return;
      }
      p_ = next;
      SetCurrent(id, bits);
      --in_block_left_;
    }

    const Entry* raw_ = nullptr;
    const uint8_t* p_ = nullptr;
    const uint8_t* end_ = nullptr;
    uint32_t prev_id_ = 0;
    uint32_t prev_bits_ = 0;
    Entry current_{};
    size_t remaining_ = 0;
    uint32_t in_block_left_ = 0;
    uint32_t first_prev_id_ = 0;
    uint32_t first_prev_bits_ = 0;
  };

  const_iterator begin() const {
    const_iterator it;
    it.remaining_ = count_;
    it.raw_ = raw_;
    it.p_ = packed_;
    it.end_ = packed_end_;
    if (count_ > 0) it.Decode();
    return it;
  }
  const_iterator end() const { return const_iterator(); }

  /// Bulk traversal — see PostingListView::ForEach. Block payloads (id
  /// delta, bits delta interleaved) bulk-decode into a stack scratch and
  /// rebuild entries with the two prefix chains.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (raw_ != nullptr) {
      for (size_t i = 0; i < count_; ++i) {
        Entry e;
        std::memcpy(&e, raw_ + i, sizeof(Entry));
        fn(e);
      }
      return;
    }
    uint32_t scratch[2 * kBlockEntries];
    const uint8_t* p = packed_;
    size_t remaining = count_;
    uint32_t first_prev_id = 0, first_prev_bits = 0;
    while (remaining > 0) {
      const size_t in_block =
          remaining < kBlockEntries ? remaining : kBlockEntries;
      uint32_t id = 0, bits = 0;
      uint64_t payload = 0;
      const uint8_t* next =
          GetU32Delta32(p, packed_end_, first_prev_id, &id);
      if (next != nullptr) {
        next = GetU32Delta32(next, packed_end_, first_prev_bits, &bits);
      }
      if (next != nullptr) next = GetVarint64(next, packed_end_, &payload);
      if (next == nullptr ||
          payload > static_cast<uint64_t>(packed_end_ - next)) {
        return;  // malformed: arena validation makes this unreachable
      }
      const uint8_t* payload_end = next + payload;
      if (simd::BulkDecodeVarint32(next, payload_end, scratch,
                                   2 * (in_block - 1)) != payload_end) {
        return;
      }
      first_prev_id = id;
      first_prev_bits = bits;
      Entry e;
      std::memcpy(&e, &id, sizeof(uint32_t));
      std::memcpy(reinterpret_cast<uint8_t*>(&e) + sizeof(uint32_t), &bits,
                  sizeof(uint32_t));
      fn(e);
      for (size_t j = 0; j + 1 < in_block; ++j) {
        id += UnZigZag32(scratch[2 * j]);
        bits += UnZigZag32(scratch[2 * j + 1]);
        std::memcpy(&e, &id, sizeof(uint32_t));
        std::memcpy(reinterpret_cast<uint8_t*>(&e) + sizeof(uint32_t), &bits,
                    sizeof(uint32_t));
        fn(e);
      }
      p = payload_end;
      remaining -= in_block;
    }
  }

  /// O(1) raw, O(blocks + in-block) compressed.
  Entry operator[](size_t i) const {
    if (raw_ != nullptr) return raw_[i];
    const uint8_t* p = packed_;
    uint32_t first_prev_id = 0, first_prev_bits = 0;
    size_t skip = i / kBlockEntries;
    while (skip-- > 0) {
      uint32_t id = 0, bits = 0;
      uint64_t payload = 0;
      const uint8_t* next = GetU32Delta32(p, packed_end_, first_prev_id, &id);
      if (next != nullptr) {
        next = GetU32Delta32(next, packed_end_, first_prev_bits, &bits);
      }
      if (next != nullptr) next = GetVarint64(next, packed_end_, &payload);
      if (next == nullptr ||
          payload > static_cast<uint64_t>(packed_end_ - next)) {
        return Entry{};
      }
      first_prev_id = id;
      first_prev_bits = bits;
      p = next + payload;
    }
    uint32_t id = 0, bits = 0;
    uint64_t payload = 0;
    const uint8_t* next = GetU32Delta32(p, packed_end_, first_prev_id, &id);
    if (next != nullptr) {
      next = GetU32Delta32(next, packed_end_, first_prev_bits, &bits);
    }
    if (next != nullptr) next = GetVarint64(next, packed_end_, &payload);
    if (next == nullptr) return Entry{};
    for (size_t k = 0; k < i % kBlockEntries; ++k) {
      next = GetU32Delta32(next, packed_end_, id, &id);
      if (next != nullptr) next = GetU32Delta32(next, packed_end_, bits, &bits);
      if (next == nullptr) return Entry{};
    }
    Entry e;
    std::memcpy(&e, &id, sizeof(uint32_t));
    std::memcpy(reinterpret_cast<uint8_t*>(&e) + sizeof(uint32_t), &bits,
                sizeof(uint32_t));
    return e;
  }

  std::vector<Entry> Materialize() const {
    std::vector<Entry> out;
    out.reserve(count_);
    for (const Entry& e : *this) out.push_back(e);
    return out;
  }

 private:
  const Entry* raw_ = nullptr;
  const uint8_t* packed_ = nullptr;
  const uint8_t* packed_end_ = nullptr;
  size_t count_ = 0;
};

/// What a list family contains — drives the validation walk.
enum class ListKind {
  kU32,   ///< one varint per entry
  kPair,  ///< two varints per entry (id delta, float-bits delta)
};

/// One immutable family of compressed lists: data + offsets ByteBlocks.
class PostingArena {
 public:
  PostingArena() = default;

  size_t num_lists() const { return num_lists_; }
  uint64_t total_entries() const { return total_entries_; }

  /// Actually-resident compressed bytes (data + offset table).
  uint64_t bytes() const {
    return static_cast<uint64_t>(data_.size()) + offsets_.size();
  }

  /// Offset-table footprint alone — the Elias-Fano win shows up here
  /// (~2 + log2(avg list bytes) bits per list instead of a u64 each).
  uint64_t offsets_bytes() const { return offsets_.size(); }

  const ByteBlock& data_block() const { return data_; }
  const ByteBlock& offsets_block() const { return offsets_; }

  PostingListView U32List(size_t i) const {
    const auto [begin, end] = ListBytes(i);
    return PostingListView::Packed(begin, end);
  }

  template <typename Entry>
  PairListView<Entry> PairList(size_t i) const {
    const auto [begin, end] = ListBytes(i);
    return PairListView<Entry>::Packed(begin, end);
  }

  /// Wraps loaded blocks, validating the Elias-Fano offset table
  /// (monotonic, in bounds) and walking every list to check its stream
  /// against the advertised entry count and the skip-header grammar:
  /// headers in bounds, payload lengths truthful, 32-bit-bounded deltas.
  /// Rejecting malformed input here means views never see broken streams.
  static bool FromBlocks(ByteBlock data, ByteBlock offsets, size_t num_lists,
                         ListKind kind, PostingArena* out,
                         std::string* error);

 private:
  friend class PostingArenaBuilder;

  std::pair<const uint8_t*, const uint8_t*> ListBytes(size_t i) const {
    const uint8_t* base = data_.data();
    uint64_t lo = 0, hi = 0;
    ef_offsets_.GetPair(i, &lo, &hi);
    if (pool_ != nullptr) TouchPool(base + lo, static_cast<size_t>(hi - lo));
    return {base + lo, base + hi};
  }

  void TouchPool(const uint8_t* p, size_t len) const;  // out of line

  ByteBlock data_;
  ByteBlock offsets_;
  EliasFanoView ef_offsets_;  // parsed view over offsets_
  size_t num_lists_ = 0;
  uint64_t total_entries_ = 0;
  BufferPool* pool_ = nullptr;  // owned by the MappedFile backing data_
};

/// Accumulates lists into a fresh arena. Encoding is deterministic: the
/// same lists in the same order produce byte-identical arenas.
class PostingArenaBuilder {
 public:
  void AddU32List(const uint32_t* data, size_t count) {
    PutVarint64(bytes_, count);
    uint32_t first_prev = 0;
    for (size_t at = 0; at < count; at += kBlockEntries) {
      const size_t in_block =
          count - at < kBlockEntries ? count - at : kBlockEntries;
      payload_.clear();
      uint32_t prev = data[at];
      for (size_t j = 1; j < in_block; ++j) {
        PutU32Delta32(payload_, data[at + j], prev);
        prev = data[at + j];
      }
      PutU32Delta32(bytes_, data[at], first_prev);
      PutVarint64(bytes_, payload_.size());
      bytes_.insert(bytes_.end(), payload_.begin(), payload_.end());
      first_prev = data[at];
    }
    CloseList(count);
  }
  void AddU32List(const std::vector<uint32_t>& list) {
    AddU32List(list.data(), list.size());
  }

  template <typename Entry>
  void AddPairList(const Entry* data, size_t count) {
    static_assert(std::is_trivially_copyable_v<Entry> && sizeof(Entry) == 8);
    PutVarint64(bytes_, count);
    uint32_t first_prev_id = 0, first_prev_bits = 0;
    for (size_t at = 0; at < count; at += kBlockEntries) {
      const size_t in_block =
          count - at < kBlockEntries ? count - at : kBlockEntries;
      const auto [first_id, first_bits] = SplitEntry(data[at]);
      payload_.clear();
      uint32_t prev_id = first_id, prev_bits = first_bits;
      for (size_t j = 1; j < in_block; ++j) {
        const auto [id, bits] = SplitEntry(data[at + j]);
        PutU32Delta32(payload_, id, prev_id);
        PutU32Delta32(payload_, bits, prev_bits);
        prev_id = id;
        prev_bits = bits;
      }
      PutU32Delta32(bytes_, first_id, first_prev_id);
      PutU32Delta32(bytes_, first_bits, first_prev_bits);
      PutVarint64(bytes_, payload_.size());
      bytes_.insert(bytes_.end(), payload_.begin(), payload_.end());
      first_prev_id = first_id;
      first_prev_bits = first_bits;
    }
    CloseList(count);
  }
  template <typename Entry>
  void AddPairList(const std::vector<Entry>& list) {
    AddPairList(list.data(), list.size());
  }

  PostingArena Finish() {
    PostingArena arena;
    arena.num_lists_ = ends_.size();
    arena.total_entries_ = total_entries_;
    std::vector<uint64_t> offsets(ends_.size() + 1, 0);
    for (size_t i = 0; i < ends_.size(); ++i) offsets[i + 1] = ends_[i];
    std::vector<uint8_t> ef_bytes;
    EliasFanoView::Encode(offsets, &ef_bytes);
    arena.offsets_ = ByteBlock::FromVector(std::move(ef_bytes));
    std::string error;
    // Cannot fail on bytes Encode just produced; parse builds the select
    // samples the view needs.
    EliasFanoView::Parse(arena.offsets_.data(), arena.offsets_.size(),
                         &arena.ef_offsets_, &error);
    arena.data_ = ByteBlock::FromVector(std::move(bytes_));
    return arena;
  }

 private:
  template <typename Entry>
  static std::pair<uint32_t, uint32_t> SplitEntry(const Entry& e) {
    uint32_t id = 0, bits = 0;
    std::memcpy(&id, &e, sizeof(uint32_t));
    std::memcpy(&bits, reinterpret_cast<const uint8_t*>(&e) + sizeof(uint32_t),
                sizeof(uint32_t));
    return {id, bits};
  }

  void CloseList(size_t count) {
    ends_.push_back(bytes_.size());
    total_entries_ += count;
  }

  std::vector<uint8_t> bytes_;
  std::vector<uint8_t> payload_;  // per-block scratch, reused
  std::vector<uint64_t> ends_;    // byte offset past each list
  uint64_t total_entries_ = 0;
};

}  // namespace netclus::store

#endif  // NETCLUS_STORE_ARENA_H_
