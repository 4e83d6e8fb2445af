// LEB128 varints and zigzag mapping — the codec under the compressed
// posting arenas (src/store/arena.h).
//
// Postings are stored as deltas between consecutive values: cluster ids in
// a CC(T) sequence move between neighboring clusters, trajectory ids in a
// TL list are near-sorted, and the float bit patterns of distance-sorted
// covers are non-decreasing — all small deltas, all 1-2 bytes instead of
// 4. Deltas can be negative (sequences are not sorted), so they pass
// through zigzag first.
//
// Decoding is bounds-checked against an explicit `end`: the arenas may be
// backed by an untrusted index file (possibly mmap'ed), and a malformed
// varint must surface as a null return, never as a read past the mapping.
#ifndef NETCLUS_STORE_VARINT_H_
#define NETCLUS_STORE_VARINT_H_

#include <cstdint>
#include <vector>

namespace netclus::store {

/// Appends `v` to `out` as a little-endian base-128 varint (1-10 bytes).
inline void PutVarint64(std::vector<uint8_t>& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<uint8_t>(v));
}

/// Decodes a varint from [p, end). Returns the byte past the varint, or
/// nullptr when the input is truncated or longer than 10 bytes.
inline const uint8_t* GetVarint64(const uint8_t* p, const uint8_t* end,
                                  uint64_t* v) {
  uint64_t result = 0;
  for (unsigned shift = 0; shift < 64 && p < end; shift += 7) {
    const uint8_t byte = *p++;
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return p;
    }
  }
  return nullptr;  // truncated, or a 10+ byte varint
}

/// Zigzag maps signed deltas to unsigned so small magnitudes of either
/// sign encode in few varint bytes. Deltas are taken mod 2^32 and
/// zigzagged as int32, so every encoded value fits in 32 bits (at most 5
/// varint bytes, final byte <= 0x0f). That bound is what lets the SIMD
/// bulk kernel (store/simd/bulk_varint.h) decode raw varints straight
/// into uint32 lanes.
inline uint32_t ZigZag32(int32_t v) {
  return (static_cast<uint32_t>(v) << 1) ^
         static_cast<uint32_t>(static_cast<int32_t>(v) >> 31);
}

inline uint32_t UnZigZag32(uint32_t v) {
  return (v >> 1) ^ (0u - (v & 1u));
}

/// Delta helpers over uint32 streams: the encoder tracks the previous
/// value, the decoder reverses it (mod 2^32, so the full range
/// round-trips).
inline void PutU32Delta32(std::vector<uint8_t>& out, uint32_t value,
                          uint32_t prev) {
  PutVarint64(out, ZigZag32(static_cast<int32_t>(value - prev)));
}

inline const uint8_t* GetU32Delta32(const uint8_t* p, const uint8_t* end,
                                    uint32_t prev, uint32_t* value) {
  uint64_t raw = 0;
  p = GetVarint64(p, end, &raw);
  if (p == nullptr || raw > 0xffffffffull) return nullptr;
  *value = prev + UnZigZag32(static_cast<uint32_t>(raw));
  return p;
}

}  // namespace netclus::store

#endif  // NETCLUS_STORE_VARINT_H_
