// Little-endian binary encode/decode helpers for the index file.
//
// ByteWriter accumulates a byte buffer with 8-byte alignment control and
// offset patching (the header and section table are written after their
// contents are known). ByteReader is a bounds-checked cursor over a
// ByteBlock: every read either succeeds or trips a sticky failure flag —
// a truncated or hostile file can never read out of bounds, it just
// surfaces `ok() == false` at the end of the parse.
//
// All integers are little-endian; the file header carries an endianness
// probe so a big-endian reader fails loudly instead of mis-decoding.
#ifndef NETCLUS_STORE_BINARY_IO_H_
#define NETCLUS_STORE_BINARY_IO_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "store/arena.h"

namespace netclus::store {

/// FNV-1a 64-bit — the section checksum of the index format. Not
/// cryptographic; guards against truncation, bit rot, and bad transfers.
inline uint64_t Fnv1a64(const uint8_t* data, size_t size) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

class ByteWriter {
 public:
  size_t size() const { return bytes_.size(); }
  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> TakeBytes() { return std::move(bytes_); }

  void U8(uint8_t v) { bytes_.push_back(v); }
  void U32(uint32_t v) { Append(&v, sizeof(v)); }
  void U64(uint64_t v) { Append(&v, sizeof(v)); }
  void F32(float v) { Append(&v, sizeof(v)); }
  void F64(double v) { Append(&v, sizeof(v)); }
  void Bytes(const void* data, size_t size) { Append(data, size); }

  /// Pads with zeros to the next multiple of 8 (arena/offset sections are
  /// 8-aligned so mmap'ed uint64 loads stay aligned).
  void Align8() {
    while (bytes_.size() % 8 != 0) bytes_.push_back(0);
  }

  /// Reserves `size` zero bytes at the current position; returns the
  /// position for a later Patch.
  size_t Reserve(size_t size) {
    const size_t pos = bytes_.size();
    bytes_.resize(bytes_.size() + size, 0);
    return pos;
  }

  void PatchU32(size_t pos, uint32_t v) {
    std::memcpy(bytes_.data() + pos, &v, sizeof(v));
  }
  void PatchU64(size_t pos, uint64_t v) {
    std::memcpy(bytes_.data() + pos, &v, sizeof(v));
  }

 private:
  void Append(const void* data, size_t size) {
    const auto* p = static_cast<const uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + size);
  }

  std::vector<uint8_t> bytes_;
};

class ByteReader {
 public:
  explicit ByteReader(ByteBlock block)
      : block_(std::move(block)), pos_(0), ok_(true) {}

  bool ok() const { return ok_; }
  size_t pos() const { return pos_; }
  size_t remaining() const { return block_.size() - pos_; }
  const ByteBlock& block() const { return block_; }

  uint8_t U8() { return Read<uint8_t>(); }
  uint32_t U32() { return Read<uint32_t>(); }
  uint64_t U64() { return Read<uint64_t>(); }
  float F32() { return Read<float>(); }
  double F64() { return Read<double>(); }

  bool Bytes(void* out, size_t size) {
    if (!Ensure(size)) return false;
    std::memcpy(out, block_.data() + pos_, size);
    pos_ += size;
    return true;
  }

  bool Skip(size_t size) {
    if (!Ensure(size)) return false;
    pos_ += size;
    return true;
  }

  void Align8() {
    const size_t rem = pos_ % 8;
    if (rem != 0) Skip(8 - rem);
  }

  /// A sub-block [offset, offset + size) of the underlying block, sharing
  /// its owner. Fails (empty block, ok() false) when out of bounds.
  ByteBlock SubBlock(uint64_t offset, uint64_t size) {
    if (offset > block_.size() || size > block_.size() - offset) {
      ok_ = false;
      return ByteBlock();
    }
    return block_.Slice(static_cast<size_t>(offset), static_cast<size_t>(size));
  }

 private:
  template <typename T>
  T Read() {
    T v{};
    if (Ensure(sizeof(T))) {
      std::memcpy(&v, block_.data() + pos_, sizeof(T));
      pos_ += sizeof(T);
    }
    return v;
  }

  bool Ensure(size_t size) {
    if (!ok_ || size > block_.size() - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }

  ByteBlock block_;
  size_t pos_;
  bool ok_;
};

}  // namespace netclus::store

#endif  // NETCLUS_STORE_BINARY_IO_H_
