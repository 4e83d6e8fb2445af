#include "store/arena.h"

#include "store/buffer_pool.h"
#include "util/strings.h"

namespace netclus::store {

namespace {

/// Validates one blocked list: skip headers in bounds, payload lengths
/// truthful, every payload varint 32-bit bounded, block structure
/// consistent with the advertised count. Uses the scalar kernel so
/// validation is identical regardless of SIMD dispatch.
bool ValidateBlockedList(const uint8_t* p, const uint8_t* end, uint64_t count,
                         unsigned varints_per_entry, std::string* why) {
  uint32_t scratch[2 * kBlockEntries];
  uint32_t chain[2] = {0, 0};
  uint64_t remaining = count;
  while (remaining > 0) {
    const uint64_t in_block =
        remaining < kBlockEntries ? remaining : kBlockEntries;
    for (unsigned c = 0; c < varints_per_entry; ++c) {
      p = GetU32Delta32(p, end, chain[c], &chain[c]);
      if (p == nullptr) {
        *why = "truncated skip header";
        return false;
      }
    }
    uint64_t payload = 0;
    p = GetVarint64(p, end, &payload);
    if (p == nullptr || payload > static_cast<uint64_t>(end - p)) {
      *why = "lying payload length";
      return false;
    }
    const uint8_t* payload_end = p + payload;
    const size_t varints =
        static_cast<size_t>(in_block - 1) * varints_per_entry;
    if (simd::BulkDecodeVarint32Scalar(p, payload_end, scratch, varints) !=
        payload_end) {
      *why = "malformed block payload";
      return false;
    }
    p = payload_end;
    remaining -= in_block;
  }
  if (p != end) {
    *why = "trailing bytes";
    return false;
  }
  return true;
}

}  // namespace

void PostingArena::TouchPool(const uint8_t* p, size_t len) const {
  pool_->Touch(p, len);
}

bool PostingArena::FromBlocks(ByteBlock data, ByteBlock offsets,
                              size_t num_lists, ListKind kind,
                              PostingArena* out, std::string* error) {
  auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  PostingArena arena;
  std::string ef_error;
  if (!EliasFanoView::Parse(offsets.data(), offsets.size(), &arena.ef_offsets_,
                            &ef_error)) {
    return fail("arena offset table: " + ef_error);
  }
  if (arena.ef_offsets_.size() != num_lists + 1) {
    return fail(util::StrFormat("arena offset table: %zu values, want %zu",
                                arena.ef_offsets_.size(), num_lists + 1));
  }
  arena.data_ = std::move(data);
  arena.offsets_ = std::move(offsets);
  arena.num_lists_ = num_lists;

  uint64_t prev = arena.ef_offsets_.Get(0);
  if (prev != 0) return fail("arena offsets must start at 0");
  for (size_t i = 1; i <= num_lists; ++i) {
    const uint64_t off = arena.ef_offsets_.Get(i);
    if (off < prev || off > arena.data_.size()) {
      return fail(util::StrFormat("arena offset %zu out of order/bounds", i));
    }
    prev = off;
  }
  if (prev != arena.data_.size()) {
    return fail("arena offsets do not cover the data block");
  }

  // Walk every list once: each varint must terminate inside its list and
  // the advertised entry count must match the stream. After this pass the
  // lazy views can never run off the end of a list.
  const unsigned varints_per_entry = kind == ListKind::kU32 ? 1 : 2;
  uint64_t entries = 0;
  for (size_t i = 0; i < num_lists; ++i) {
    const uint8_t* base = arena.data_.data();
    const uint8_t* p0 = base + arena.ef_offsets_.Get(i);
    const uint8_t* end = base + arena.ef_offsets_.Get(i + 1);
    uint64_t count = 0;
    const uint8_t* p = GetVarint64(p0, end, &count);
    if (p == nullptr) return fail(util::StrFormat("arena list %zu: bad count", i));
    // Every entry costs at least one byte — a payload delta for all but
    // each block's first entry, and >= 2 header bytes per block — so a
    // count the remaining bytes cannot possibly hold is rejected up front.
    // This also keeps the block walk from overflowing on a crafted count
    // near 2^64.
    if (count > static_cast<uint64_t>(end - p)) {
      return fail(util::StrFormat("arena list %zu: implausible count", i));
    }
    std::string why;
    if (!ValidateBlockedList(p, end, count, varints_per_entry, &why)) {
      return fail(util::StrFormat("arena list %zu: ", i) + why);
    }
    entries += count;
  }
  arena.total_entries_ = entries;
  // When the arena bytes live inside a pooled mapping, every ListBytes
  // call reports its range so residency stays under the page budget.
  arena.pool_ = arena.data_.empty() ? nullptr
                                    : BufferPool::Find(arena.data_.data());
  if (arena.pool_ != nullptr) {
    // The offset table is consulted on every list access; pin it so
    // extent lookups never re-fault.
    arena.pool_->Pin(arena.offsets_.data(), arena.offsets_.size());
  }
  *out = std::move(arena);
  return true;
}

}  // namespace netclus::store
